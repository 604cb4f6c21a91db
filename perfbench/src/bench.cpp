#include "bench.hpp"

#include <cstdio>

namespace perfbench {

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span\tquery\tname\tparent\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%u\t%s\t%d\t%lld\t%lld\n", i, s.query, span_name(s.kind), s.parent,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

int Oracle::classify(std::size_t e, std::span<const std::uint8_t> got,
                     std::uint32_t* version) const {
  const int slot = slot_of.empty() ? -1 : slot_of[e];
  if (slot < 0) return same_answer(got, base[e]) ? 0 : -1;
  const std::uint32_t cur = current[static_cast<std::size_t>(slot)].load(std::memory_order_acquire);
  if (version != nullptr) *version = cur;
  const auto& want = [&](std::uint32_t v) -> const std::vector<std::uint8_t>& {
    return v == 0 ? base[e] : versions[e][v];
  };
  // The publish in flight may not have reached this worker yet, so the
  // previous version is allowed; anything older is not.
  const bool previous = cur > 0 && same_answer(got, want(cur - 1));
  if (same_answer(got, want(cur))) return previous || cur == 0 ? 0 : 1;
  return previous ? 0 : -1;
}

Oracle::Verdict Oracle::check(std::size_t e, std::span<const std::uint8_t> got,
                              std::int64_t now) const {
  std::uint32_t cur = 0;
  const int verdict = classify(e, got, &cur);
  if (verdict == 1) {
    const int slot = slot_of[e];
    const auto step = static_cast<std::size_t>(step_of[static_cast<std::size_t>(slot)][cur]);
    std::int64_t unseen = -1;
    first_new_ns[step].compare_exchange_strong(unseen, now, std::memory_order_acq_rel);
  }
  return verdict < 0 ? Verdict::Mismatch : Verdict::Match;
}

}  // namespace perfbench
