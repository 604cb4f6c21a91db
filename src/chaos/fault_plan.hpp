// The fault schedule a chaos run executes (paper §4–5: failures are a
// normal operating mode, so the reproduction must be able to create them
// on demand — deterministically, or a red CI run can't be replayed).
//
// A FaultPlan is two per-direction FaultSpecs (client→upstream "up",
// upstream→client "down") plus shared blackhole windows and the seed.
// Everything stochastic about a run is a pure function of (plan, seed,
// direction, packet ordinal) — see fault_stream.hpp — so the same plan
// file and seed reproduce the same impairment decisions byte for byte.
//
// Plan files are flat `key=value` lines ('#' comments). Keys take a
// direction prefix: `up.`, `down.`, or `both.`:
//
//   seed=42
//   both.loss=0.05          # P(drop) per datagram
//   both.delay_ms=20        # fixed one-way delay
//   both.jitter_ms=20       # + uniform [0, jitter)
//   up.corrupt=0.01         # P(flip one byte)
//   down.dup=0.02           # P(deliver twice)
//   down.reorder=0.05       # P(held back behind later traffic)
//   up.tcp_reset=0.1        # P(RST a fresh TCP connection)
//   up.tcp_stall=0.05       # P(accept, then never answer)
//   blackhole=3000:13000    # both faces dark from t=3s to t=13s
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "common/sim_time.hpp"

namespace akadns::chaos {

/// One stretch of total darkness on the plan clock (time since the
/// relay started executing the plan). While inside a window every
/// datagram is swallowed, established TCP relays stop forwarding, and
/// new TCP connections are refused — the closest a userspace relay gets
/// to yanking the cable.
struct BlackholeWindow {
  Duration start;
  Duration end;
  bool contains(Duration elapsed) const noexcept {
    return elapsed >= start && elapsed < end;
  }
};

/// Impairments applied to one direction of traffic. Probabilities are
/// per-datagram (UDP) or per-connection / per-chunk (TCP, see
/// fleet/anycast_front.hpp for which knobs apply there).
struct FaultSpec {
  double loss = 0.0;     ///< P(drop) per UDP datagram.
  double dup = 0.0;      ///< P(deliver the datagram twice).
  double reorder = 0.0;  ///< P(hold it back behind later traffic).
  double corrupt = 0.0;  ///< P(flip one byte at a drawn offset).
  Duration delay;        ///< Fixed one-way delay added to everything.
  Duration jitter;       ///< + uniform [0, jitter) per datagram/chunk.
  double tcp_reset = 0.0;  ///< P(RST a freshly accepted connection).
  double tcp_stall = 0.0;  ///< P(accept, read, never forward or answer).

  /// Whether this spec impairs anything at all (fast-path skip).
  bool active() const noexcept {
    return loss > 0.0 || dup > 0.0 || reorder > 0.0 || corrupt > 0.0 ||
           tcp_reset > 0.0 || tcp_stall > 0.0 ||
           delay.count_nanos() > 0 || jitter.count_nanos() > 0;
  }
};

struct FaultPlan {
  FaultSpec up;    ///< client → upstream
  FaultSpec down;  ///< upstream → client
  /// Blackhole windows apply to both directions and to TCP accepts.
  std::vector<BlackholeWindow> blackholes;
  std::uint64_t seed = 1;

  /// True while `elapsed` (time since plan start) is inside any window.
  bool in_blackhole(Duration elapsed) const noexcept {
    for (const BlackholeWindow& w : blackholes) {
      if (w.contains(elapsed)) return true;
    }
    return false;
  }

  /// Parses the `key=value` plan format described above. Each value is
  /// read whole (parse_number): unknown keys, trailing bytes, NaN,
  /// exponents in millisecond counts, negative seeds, out-of-range
  /// probabilities and malformed windows are errors — a typo'd chaos
  /// plan must fail loudly, not silently run a clean test.
  static Result<FaultPlan> parse(std::string_view text);
  /// parse() over a file's contents.
  static Result<FaultPlan> load(const std::string& path);

  /// Round-trips through parse(): the canonical form of this plan.
  std::string to_string() const;
};

}  // namespace akadns::chaos
