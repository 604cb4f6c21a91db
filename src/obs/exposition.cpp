#include "obs/exposition.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace akadns::obs {

namespace {

constexpr double kQuantiles[] = {0.5, 0.9, 0.99, 0.999};

std::string escape_label(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string fmt_double(double v) {
  if (std::floor(v) == v && std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void append_labels(std::string& out, const LabelSet& ls) {
  if (ls.empty()) return;
  out.push_back('{');
  bool first = true;
  for (const auto& label : ls) {
    if (!first) out.push_back(',');
    first = false;
    out += label.key;
    out += "=\"";
    out += escape_label(label.value);
    out.push_back('"');
  }
  out.push_back('}');
}

void append_line(std::string& out, std::string_view name, const LabelSet& ls,
                 std::string_view value) {
  out += name;
  append_labels(out, ls);
  out.push_back(' ');
  out += value;
  out.push_back('\n');
}

std::string json_escape(std::string_view v) {
  std::string out;
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string render_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& fam : snap.families) {
    if (!fam.help.empty()) {
      out += "# HELP ";
      out += fam.name;
      out.push_back(' ');
      out += fam.help;
      out.push_back('\n');
    }
    out += "# TYPE ";
    out += fam.name;
    switch (fam.kind) {
      case MetricKind::Counter: out += " counter\n"; break;
      case MetricKind::Gauge: out += " gauge\n"; break;
      case MetricKind::Histogram: out += " summary\n"; break;
    }
    for (const auto& sample : fam.samples) {
      switch (fam.kind) {
        case MetricKind::Counter:
          append_line(out, fam.name, sample.labels, std::to_string(sample.counter));
          break;
        case MetricKind::Gauge:
          append_line(out, fam.name, sample.labels, fmt_double(sample.gauge));
          break;
        case MetricKind::Histogram: {
          for (const double q : kQuantiles) {
            append_line(out, fam.name, with(sample.labels, "quantile", fmt_double(q)),
                        fmt_double(sample.hist.quantile(q)));
          }
          append_line(out, fam.name + "_count", sample.labels,
                      std::to_string(sample.hist.count()));
          append_line(out, fam.name + "_sum", sample.labels,
                      fmt_double(sample.hist.sum()));
          append_line(out, fam.name + "_min", sample.labels,
                      fmt_double(sample.hist.min()));
          append_line(out, fam.name + "_max", sample.labels,
                      fmt_double(sample.hist.max()));
          break;
        }
      }
    }
  }
  return out;
}

std::string render_json(const MetricsSnapshot& snap) {
  std::string out = "{\n";
  bool first_fam = true;
  for (const auto& fam : snap.families) {
    if (!first_fam) out += ",\n";
    first_fam = false;
    out += "  \"";
    out += json_escape(fam.name);
    out += "\": [";
    bool first_sample = true;
    for (const auto& sample : fam.samples) {
      if (!first_sample) out.push_back(',');
      first_sample = false;
      out += "\n    {\"labels\": {";
      bool first_label = true;
      for (const auto& label : sample.labels) {
        if (!first_label) out += ", ";
        first_label = false;
        out.push_back('"');
        out += json_escape(label.key);
        out += "\": \"";
        out += json_escape(label.value);
        out.push_back('"');
      }
      out += "}, ";
      switch (fam.kind) {
        case MetricKind::Counter:
          out += "\"value\": " + std::to_string(sample.counter);
          break;
        case MetricKind::Gauge:
          out += "\"value\": " + fmt_double(sample.gauge);
          break;
        case MetricKind::Histogram:
          out += "\"count\": " + std::to_string(sample.hist.count());
          out += ", \"mean\": " + fmt_double(sample.hist.mean());
          out += ", \"p50\": " + fmt_double(sample.hist.quantile(0.5));
          out += ", \"p99\": " + fmt_double(sample.hist.quantile(0.99));
          out += ", \"max\": " + fmt_double(sample.hist.max());
          break;
      }
      out.push_back('}');
    }
    out += "\n  ]";
  }
  out += "\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Parser

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("exposition parse error at line " +
                           std::to_string(line_no) + ": " + what);
}

}  // namespace

Exposition Exposition::parse(std::string_view text) {
  Exposition out;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(pos, eol == std::string_view::npos
                                                 ? std::string_view::npos
                                                 : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# TYPE <name> <kind>" — record the family; ignore HELP/other.
      constexpr std::string_view kType = "# TYPE ";
      if (line.substr(0, kType.size()) == kType) {
        std::string_view rest = line.substr(kType.size());
        const std::size_t sp = rest.find(' ');
        if (sp == std::string_view::npos || sp == 0) fail(line_no, "malformed TYPE");
        out.families_.emplace_back(rest.substr(0, sp));
      }
      continue;
    }
    ParsedSample sample;
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    if (i == 0) fail(line_no, "missing metric name");
    sample.name.assign(line.substr(0, i));
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        const std::size_t eq = line.find('=', i);
        if (eq == std::string_view::npos || eq == i) fail(line_no, "malformed label");
        Label label;
        label.key.assign(line.substr(i, eq - i));
        if (eq + 1 >= line.size() || line[eq + 1] != '"') {
          fail(line_no, "label value not quoted");
        }
        std::size_t j = eq + 2;
        while (j < line.size() && line[j] != '"') {
          if (line[j] == '\\') {
            if (j + 1 >= line.size()) fail(line_no, "truncated escape");
            ++j;
            switch (line[j]) {
              case 'n': label.value.push_back('\n'); break;
              case '\\': label.value.push_back('\\'); break;
              case '"': label.value.push_back('"'); break;
              default: fail(line_no, "bad escape");
            }
          } else {
            label.value.push_back(line[j]);
          }
          ++j;
        }
        if (j >= line.size()) fail(line_no, "unterminated label value");
        sample.labels.push_back(std::move(label));
        i = j + 1;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size() || line[i] != '}') fail(line_no, "unterminated label set");
      ++i;
    }
    if (i >= line.size() || line[i] != ' ') fail(line_no, "missing value");
    ++i;
    const std::string value_str(line.substr(i));
    char* end = nullptr;
    sample.value = std::strtod(value_str.c_str(), &end);
    if (end == value_str.c_str() || (end && *end != '\0')) {
      fail(line_no, "bad value: " + value_str);
    }
    std::sort(sample.labels.begin(), sample.labels.end());
    out.samples_.push_back(std::move(sample));
  }
  return out;
}

bool Exposition::has(std::string_view name) const noexcept {
  return std::any_of(samples_.begin(), samples_.end(),
                     [&](const ParsedSample& s) { return s.name == name; });
}

double Exposition::value(std::string_view name, const LabelSet& ls) const {
  LabelSet sorted = ls;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& sample : samples_) {
    if (sample.name == name && sample.labels == sorted) return sample.value;
  }
  throw std::out_of_range("no sample " + std::string(name));
}

namespace {

bool matches(const ParsedSample& sample, std::string_view name, const LabelSet& filter) {
  if (sample.name != name) return false;
  return std::all_of(filter.begin(), filter.end(), [&](const Label& want) {
    return std::find(sample.labels.begin(), sample.labels.end(), want) != sample.labels.end();
  });
}

}  // namespace

double Exposition::sum(std::string_view name, const LabelSet& filter) const noexcept {
  double total = 0.0;
  for (const auto& sample : samples_) {
    if (matches(sample, name, filter)) total += sample.value;
  }
  return total;
}

double Exposition::max(std::string_view name, const LabelSet& filter) const noexcept {
  double out = 0.0;
  bool seeded = false;
  for (const auto& sample : samples_) {
    if (!matches(sample, name, filter)) continue;
    out = seeded ? std::max(out, sample.value) : sample.value;
    seeded = true;
  }
  return out;
}

}  // namespace akadns::obs
