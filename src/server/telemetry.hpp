// Per-stage datapath telemetry (the nameserver side of the Figure 5
// Data Collection feed).
//
// Each stage of the receive/process pipeline wraps itself in a
// StageTimer; the lane's obs::Histograms keep wall-clock cost
// distributions per stage so "where does a query's budget go" is
// answerable per machine and, merged through registry snapshots, per
// fleet. Queue wait is recorded in *simulated* microseconds (arrival →
// dequeue), since it is governed by the simulation clock rather than
// host speed.
#pragma once

#include <array>
#include <chrono>
#include <string>
#include <string_view>

#include "obs/registry.hpp"

namespace akadns::server {

enum class Stage : std::uint8_t {
  Receive,  // whole admission path (firewall + parse + score + enqueue)
  Parse,    // one-pass QueryView decode
  Score,    // filter pipeline
  Resolve,  // responder: zone lookup + response encode
  kCount,
};

inline constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kCount);

std::string_view to_string(Stage stage) noexcept;

/// RAII wall-clock timer: records elapsed nanoseconds into a histogram
/// at scope exit. The datapath stages wrap themselves in one of these.
/// A null histogram times nothing (a transport without stage telemetry).
class StageTimer {
 public:
  explicit StageTimer(obs::Histogram* hist) noexcept
      : hist_(hist), start_(hist ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{}) {}
  explicit StageTimer(obs::Histogram& hist) noexcept : StageTimer(&hist) {}

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  ~StageTimer() {
    if (!hist_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    hist_->add(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  }

 private:
  obs::Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

class DatapathTelemetry {
 public:
  obs::Histogram& stage(Stage s) noexcept { return stages_[static_cast<std::size_t>(s)]; }

  /// Simulated microseconds spent queued (arrival → dequeue).
  obs::Histogram& queue_wait() noexcept { return queue_wait_; }

  /// Registers every stage histogram as an akadns_stage_latency_ns series
  /// (stage-labelled) plus akadns_queue_wait_us under `base`. Merging and
  /// rendering across lanes/machines happens on registry snapshots.
  void register_into(obs::MetricRegistry& reg, const obs::LabelSet& base) const;

 private:
  std::array<obs::Histogram, kStageCount> stages_;
  obs::Histogram queue_wait_;
};

}  // namespace akadns::server
