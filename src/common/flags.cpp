#include "common/flags.hpp"

#include <algorithm>
#include <cstdio>

namespace akadns {

namespace {

/// Help layout: the flag and its metavar, then the text from this column
/// on, wrapped before this width.
constexpr std::size_t kHelpColumn = 24;
constexpr std::size_t kHelpWidth = 80;

}  // namespace

namespace flag_detail {

std::string render_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

}  // namespace flag_detail

FlagTable::FlagTable(std::string program, std::string synopsis, std::string epilogue)
    : program_(std::move(program)),
      synopsis_(std::move(synopsis)),
      epilogue_(std::move(epilogue)) {}

FlagTable& FlagTable::add(Flag flag) {
  flags_.push_back(std::move(flag));
  return *this;
}

FlagTable& FlagTable::millis(std::string name, std::string metavar, Duration& field,
                             std::string help, std::int64_t lo_ms, std::int64_t hi_ms) {
  return add({std::move(name), std::move(metavar), std::move(help),
              std::to_string(field.count_nanos() / 1'000'000),
              [&field, lo_ms, hi_ms](std::string_view text) {
                const auto ms = parse_number<std::int64_t>(text, lo_ms, hi_ms);
                if (ms) field = Duration::millis(*ms);
                return ms.has_value();
              }});
}

FlagTable& FlagTable::on_off(std::string name, bool& field, std::string help) {
  return add({std::move(name), "on|off", std::move(help), field ? "on" : "off",
              [&field](std::string_view text) {
                if (text != "on" && text != "off") return false;
                field = text == "on";
                return true;
              }});
}

FlagTable& FlagTable::set_true(std::string name, bool& field, std::string help) {
  return add({std::move(name), "", std::move(help), "", [&field](std::string_view) {
                field = true;
                return true;
              }});
}

std::optional<int> FlagTable::parse(int argc, const char* const* argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      return 0;
    }
    const auto flag = std::find_if(flags_.begin(), flags_.end(),
                                   [&arg](const Flag& f) { return f.name == arg; });
    if (flag == flags_.end()) return usage_error("unknown option: " + arg);
    if (flag->metavar.empty()) {
      flag->set({});
      continue;
    }
    if (i + 1 >= argc) return usage_error(arg + " requires a value");
    const char* value = argv[++i];
    if (!flag->set(value)) return usage_error("bad " + arg + " value: " + value);
  }
  return std::nullopt;
}

int FlagTable::usage_error(std::string_view message) const {
  std::fprintf(stderr, "%.*s\nusage: %s %s (--help lists the flags)\n",
               static_cast<int>(message.size()), message.data(), program_.c_str(),
               synopsis_.c_str());
  return 2;
}

std::string FlagTable::help() const {
  std::string out = "usage: " + program_ + " " + synopsis_ + "\n";
  const auto entry = [&out](std::string line, const std::string& text) {
    if (line.size() >= kHelpColumn) {
      out += line + "\n";
      line.clear();
    }
    line.resize(kHelpColumn, ' ');
    bool line_empty = true;
    for (const std::string_view word : split_whitespace(text)) {
      if (!line_empty && line.size() + 1 + word.size() > kHelpWidth) {
        out += line + "\n";
        line.assign(kHelpColumn, ' ');
        line_empty = true;
      }
      if (!line_empty) line += ' ';
      line += word;
      line_empty = false;
    }
    out += line + "\n";
  };
  for (const Flag& f : flags_) {
    entry("  " + f.name + (f.metavar.empty() ? "" : " " + f.metavar),
          f.default_text.empty() ? f.help : f.help + " (default " + f.default_text + ")");
  }
  entry("  -h, --help", "print this help and exit");
  return out + epilogue_;
}

}  // namespace akadns
