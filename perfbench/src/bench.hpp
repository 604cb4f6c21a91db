// Shared pieces of the authoritative-datapath benchmark: clocks, CPU
// accounting, percentile helpers, spans, and the expected-answer oracle
// the sender verifies every response against.
#pragma once

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Worker threads of the server under test (and of the traced replay's
/// per-worker filter scaling).
constexpr std::size_t kWorkers = 2;

inline std::int64_t mono_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// User and system CPU seconds.
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  double total() const noexcept { return user_s + sys_s; }
  CpuTimes operator-(const CpuTimes& o) const noexcept {
    return {user_s - o.user_s, sys_s - o.sys_s};
  }
  CpuTimes& operator+=(const CpuTimes& o) noexcept {
    user_s += o.user_s;
    sys_s += o.sys_s;
    return *this;
  }
};

inline CpuTimes cpu_times(int who) noexcept {
  rusage ru{};
  ::getrusage(who, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}
inline CpuTimes process_cpu() noexcept { return cpu_times(RUSAGE_SELF); }
inline CpuTimes thread_cpu() noexcept { return cpu_times(RUSAGE_THREAD); }

/// The CPUs this process may run on, ascending.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

/// Confines the calling thread to `cpus` (no-op when empty). Threads it
/// creates afterwards inherit the mask.
inline void pin_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

/// Exact q-quantile (0..1) of `v` by selection; 0 when empty. Reorders v.
inline double quantile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One timed call around a layer boundary. Spans of one query share
/// `query`; `parent` is the index of the causing span (-1 for a root).
struct Span {
  std::uint32_t query = 0;
  std::uint8_t kind = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

enum SpanKind : std::uint8_t {
  kQuery,    // root: one replayed query, receive to response
  kDecode,   // dns::decode_query_view
  kScore,    // DefenseEngine::score
  kEnqueue,  // DefenseEngine::enqueue
  kNext,     // DefenseEngine::next
  kObserve,  // DefenseEngine::observe_response
  kRespond,  // Responder::respond_view_into
  kFindBest, // ZoneStore::find_best_compiled
  kPublish,  // ZonePublisher::publish
  kScrape,   // MetricRegistry::snapshot + obs::render_prometheus
  kSpanKinds
};

inline const char* span_name(std::uint8_t kind) {
  static const char* kNames[] = {"query",   "decode",    "defense.score", "defense.enqueue",
                                 "defense.next", "defense.observe", "respond", "zone.find_best",
                                 "propagation.publish", "obs.scrape"};
  return kind < kSpanKinds ? kNames[kind] : "?";
}

/// In-memory span log, written out once when the benchmark ends.
class SpanLog {
 public:
  std::int32_t add(std::uint32_t query, std::uint8_t kind, std::int32_t parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({query, kind, parent, start_ns, end_ns});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t span, std::int64_t end_ns) {
    spans_[static_cast<std::size_t>(span)].end_ns = end_ns;
  }
  void reserve(std::size_t n) { spans_.reserve(n); }
  /// Tab-separated: index, query, name, parent, start_ns, end_ns.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Byte-level answer oracle. `base[e]` is net::expected_responses for
/// corpus entry e. Entries whose zone is republished during the run
/// (churn slots) also carry one expected answer per published version.
struct Oracle {
  std::vector<std::vector<std::uint8_t>> base;
  std::vector<std::int16_t> slot_of;  // per entry: churn slot, -1 if none
  /// versions[e][v]: expected answer of entry e at version v (v >= 1);
  /// versions[e][0] is unused (base[e] serves it).
  std::vector<std::vector<std::vector<std::uint8_t>>> versions;

  /// Per churn slot: the version whose publish() was last called.
  std::unique_ptr<std::atomic<std::uint32_t>[]> current;
  std::size_t slots = 0;
  /// step_of[slot][v]: publish-step index that introduced version v.
  std::vector<std::vector<std::int32_t>> step_of;
  /// Per publish step: when publish() was called, and when the sender
  /// first verified an answer that only the new version produces.
  std::unique_ptr<std::atomic<std::int64_t>[]> published_ns;
  std::unique_ptr<std::atomic<std::int64_t>[]> first_new_ns;
  std::size_t steps = 0;

  /// 1: an answer only the current version gives; 0: an allowed answer
  /// that is not (yet) proof of the current version; -1: not allowed.
  /// `version` (optional) receives the current version judged against.
  int classify(std::size_t e, std::span<const std::uint8_t> got,
               std::uint32_t* version = nullptr) const;

  enum class Verdict { Match, Mismatch };
  /// Checks a response (transaction id aside) against what entry `e` may
  /// answer now: the current version or the one before the publish in
  /// flight, never older. Records first-new-version sightings at `now`.
  Verdict check(std::size_t e, std::span<const std::uint8_t> got, std::int64_t now) const;
};

inline bool same_answer(std::span<const std::uint8_t> got,
                        const std::vector<std::uint8_t>& want) noexcept {
  return got.size() == want.size() && got.size() >= 2 &&
         std::equal(got.begin() + 2, got.end(), want.begin() + 2);
}

}  // namespace perfbench
