#include "net/zone_sync.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/rng.hpp"
#include "dns/wire.hpp"
#include "net/stub_client.hpp"

namespace akadns::net {

namespace {

using dns::Message;
using dns::RecordType;
using dns::ResourceRecord;
using dns::SoaRecord;
using propagation::SyncOp;
using propagation::TransferReject;
using propagation::TransferService;

// Failure backoff: base * 2^level with +/-20% deterministic jitter,
// clamped to [base, min(cap, the zone's SOA retry)].
constexpr Duration kBackoffBase = Duration::millis(500);
constexpr Duration kBackoffCap = Duration::seconds(30);
constexpr std::uint64_t kJitterSeed = 1;

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Whether a partial response stream already forms a complete transfer
/// answer. Everything the server sends is SOA-delimited: a single SOA at
/// or below the client's serial is "up to date"; any body (AXFR or IXFR)
/// opens with the new SOA and closes with a record of the same serial.
/// A single leading SOA *above* the client serial is a body whose
/// remainder is still in flight, never a complete answer.
bool stream_complete(const std::vector<Message>& stream, std::uint32_t client_serial) {
  if (stream.empty()) return false;
  if (stream.front().header.rcode != dns::Rcode::NoError) return true;
  std::size_t total = 0;
  const ResourceRecord* first = nullptr;
  const ResourceRecord* last = nullptr;
  for (const Message& message : stream) {
    for (const ResourceRecord& rr : message.answers) {
      if (first == nullptr) first = &rr;
      last = &rr;
      ++total;
    }
  }
  if (total == 0 || first->type() != RecordType::SOA) return false;
  const std::uint32_t opening = std::get<SoaRecord>(first->rdata).serial;
  if (total == 1) return opening <= client_serial;
  return last->type() == RecordType::SOA &&
         std::get<SoaRecord>(last->rdata).serial == opening;
}

}  // namespace

SecondarySync::SecondarySync(SecondaryConfig config, propagation::ZonePublisher& publisher)
    : config_(std::move(config)),
      publisher_(publisher),
      stop_event_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  freshness_ = config_.freshness
                   ? config_.freshness
                   : std::make_shared<propagation::FreshnessTracker>(config_.freshness_caps);
}

void SecondarySync::start() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (running_) return;
    running_ = true;
    stop_requested_ = false;
  }
  // Drain any stop signal a previous stop() left in the eventfd.
  std::uint64_t drained = 0;
  while (::read(stop_event_.get(), &drained, sizeof(drained)) > 0) {
  }
  thread_ = std::thread([this] { run(); });
}

void SecondarySync::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  // Two wake paths: the condvar for a thread between passes or in a
  // fault-hook delay, the eventfd (the stub client's stop fd) for one
  // waiting on an unresponsive primary.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(stop_event_.get(), &one, sizeof(one));
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  const std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

void SecondarySync::notify_kick() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    kicked_ = true;
  }
  wake_.notify_all();
}

void SecondarySync::run() {
  while (true) {
    bool force = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stop_requested_) return;
      if (kicked_) {
        kicked_ = false;
        ++stats_.notify_kicks;
        // The primary just told us it has news: collapse every apex's
        // backoff and probe everything now.
        for (auto& [apex, sched] : schedule_) {
          sched.backoff_level = 0;
          sched.next_due_ns = 0;
        }
        force = true;
      }
    }
    run_pass(force);
    freshness_->evaluate(now_ns());

    std::unique_lock<std::mutex> lock(mutex_);
    if (stop_requested_) return;
    // A NOTIFY that landed while the pass above was running must not
    // wait out the refresh interval: loop straight into another pass.
    if (kicked_) continue;
    const std::int64_t now = now_ns();
    std::int64_t next = now + config_.refresh_interval.count_nanos();
    for (const auto& [apex, sched] : schedule_) {
      next = std::min(next, sched.next_due_ns <= now ? now : sched.next_due_ns);
    }
    const std::int64_t wait_ns = std::max<std::int64_t>(next - now, 1'000'000);
    wake_.wait_for(lock, std::chrono::nanoseconds(wait_ns),
                   [this] { return stop_requested_ || kicked_; });
    if (stop_requested_) return;
  }
}

std::vector<dns::DnsName> SecondarySync::tracked_apexes() const {
  return config_.apexes.empty() ? publisher_.apexes() : config_.apexes;
}

std::size_t SecondarySync::sync_once() {
  const std::size_t changed = run_pass(/*force_all=*/true);
  freshness_->evaluate(now_ns());
  return changed;
}

std::size_t SecondarySync::run_pass(bool force_all) {
  const std::vector<dns::DnsName> tracked = tracked_apexes();
  std::vector<dns::DnsName> due;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t now = now_ns();
    for (const dns::DnsName& apex : tracked) {
      ApexSchedule& sched = schedule_[apex];
      if (force_all || sched.next_due_ns <= now) due.push_back(apex);
    }
  }

  std::size_t changed = 0;
  for (const dns::DnsName& apex : due) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stop_requested_) break;
      if (schedule_[apex].backoff_level > 0) ++stats_.retries;
    }
    const zone::CompiledZonePtr held = publisher_.snapshot(apex);
    const bool have_zone = held != nullptr;
    const std::uint32_t local_serial = have_zone ? held->source()->serial() : 0;

    bool ok = false;
    std::optional<SoaRecord> confirmed_soa;
    const auto remote = probe_soa(apex);
    if (remote) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.soa_checks;
      }
      if (have_zone && remote.value().serial <= local_serial) {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.up_to_date;
        ok = true;
        confirmed_soa = remote.value();
      } else {
        const auto applied = transfer(apex, local_serial, have_zone);
        if (applied) {
          ok = true;
          if (applied.value()) {
            ++changed;
          } else {
            const std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.up_to_date;
          }
          confirmed_soa = held_soa(apex);
        }
      }
    }

    const std::int64_t now = now_ns();
    if (ok && confirmed_soa) {
      freshness_->confirm(apex, *confirmed_soa, now);
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    ApexSchedule& sched = schedule_[apex];
    if (ok) {
      sched.backoff_level = 0;
      sched.confirmed_once = true;
      sched.next_due_ns = now + effective_refresh(confirmed_soa).count_nanos();
    } else {
      ++stats_.failures;
      sched.backoff_level = std::min(sched.backoff_level + 1, 24);
      sched.next_due_ns =
          now + backoff_delay(apex, sched.backoff_level, held_soa(apex)).count_nanos();
    }
  }

  // Pass bookkeeping: the sync is achieved once every tracked apex has
  // been confirmed and none is in backoff; the flag is monotone.
  const std::lock_guard<std::mutex> lock(mutex_);
  int max_level = 0;
  bool all_confirmed = !tracked.empty();
  for (const dns::DnsName& apex : tracked) {
    const ApexSchedule& sched = schedule_[apex];
    max_level = std::max(max_level, sched.backoff_level);
    if (!sched.confirmed_once || sched.backoff_level > 0) all_confirmed = false;
  }
  max_backoff_level_.store(max_level, std::memory_order_relaxed);
  if (all_confirmed) synced_ = true;
  return changed;
}

bool SecondarySync::synced() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return synced_;
}

bool SecondarySync::degraded() const {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!synced_) return true;
  }
  return freshness_->evaluate(now_ns()) == propagation::Freshness::Expired;
}

void SecondarySync::register_metrics(obs::MetricRegistry& reg,
                                     const obs::LabelSet& base) const {
  obs::register_series(reg, base, stats_);
  reg.gauge_fn(
      "akadns_zone_staleness_seconds", base,
      [this] { return freshness_->staleness_seconds(now_ns()); }, obs::GaugeAgg::Max,
      "seconds the most-overdue tracked zone is past its effective SOA refresh");
  reg.gauge_fn(
      "akadns_secondary_backoff_level", base,
      [this] { return static_cast<double>(max_backoff_level_.load(std::memory_order_relaxed)); },
      obs::GaugeAgg::Max, "deepest per-apex refresh backoff level (0 = healthy)");
}

bool SecondarySync::interruptible_sleep(Duration d) {
  std::unique_lock<std::mutex> lock(mutex_);
  return wake_.wait_for(lock, std::chrono::nanoseconds(d.count_nanos()),
                        [this] { return stop_requested_; });
}

bool SecondarySync::hook_fate(propagation::SyncOp op) {
  if (!config_.fault_hooks) return false;
  const propagation::OpFate fate = config_.fault_hooks->on_op(op);
  if (fate.delay.count_nanos() > 0 && interruptible_sleep(fate.delay)) return true;
  return fate.fail;
}

obs::Counter SecondaryStats::*SecondaryStats::rejected(TransferReject reason) noexcept {
  for (const auto& row : kSeries) {
    if (row.family.name == kRejected.name && row.value == to_string(reason)) {
      return std::get<obs::Counter SecondaryStats::*>(row.member);
    }
  }
  return &SecondaryStats::rejected_io;  // unreachable: every reason has a row
}

void SecondarySync::note_reject(TransferReject reason) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++(stats_.*SecondaryStats::rejected(reason));
}

std::uint16_t SecondarySync::next_transaction_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint16_t id = next_id_++;
  if (next_id_ == 0) next_id_ = 1;
  return id;
}

Duration SecondarySync::effective_refresh(const std::optional<SoaRecord>& soa) const {
  const std::int64_t cfg = config_.refresh_interval.count_nanos();
  if (soa && soa->refresh > 0) {
    const std::int64_t soa_ns = static_cast<std::int64_t>(soa->refresh) * 1'000'000'000;
    return Duration::nanos(std::min(cfg, soa_ns));
  }
  return Duration::nanos(cfg);
}

Duration SecondarySync::backoff_delay(const dns::DnsName& apex, int level,
                                      const std::optional<SoaRecord>& soa) const {
  const std::int64_t base = kBackoffBase.count_nanos();
  std::int64_t cap = kBackoffCap.count_nanos();
  // The zone owner's SOA retry bounds how long we may sulk between
  // attempts; it tightens the configured cap, never widens it.
  if (soa && soa->retry > 0) {
    cap = std::min(cap, static_cast<std::int64_t>(soa->retry) * 1'000'000'000);
  }
  cap = std::max(cap, base);
  const int shift = std::min(level - 1, 20);
  const double raw = static_cast<double>(base) * std::ldexp(1.0, shift);
  // Deterministic +/-20% jitter: a fleet of secondaries losing the same
  // primary must not re-converge on the same retry instant.
  SplitMix64 rng(kJitterSeed ^ apex.hash() ^
                 (static_cast<std::uint64_t>(level) * 0x9e3779b97f4a7c15ULL));
  const double unit = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  const double jittered = raw * (0.8 + 0.4 * unit);
  const auto clamped = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(jittered), base, cap);
  return Duration::nanos(clamped);
}

std::optional<SoaRecord> SecondarySync::held_soa(const dns::DnsName& apex) const {
  const zone::CompiledZonePtr held = publisher_.snapshot(apex);
  if (!held) return std::nullopt;
  const auto rr = held->source()->soa();
  if (!rr) return std::nullopt;
  return std::get<SoaRecord>(rr->rdata);
}

// ---------------------------------------------------------------------------
// the refresh protocol
// ---------------------------------------------------------------------------

Result<SoaRecord> SecondarySync::probe_soa(const dns::DnsName& apex) {
  if (hook_fate(SyncOp::ProbeSend)) return Error{"probe send faulted"};
  const auto deadline = StubClient::deadline_in(config_.io_timeout);
  auto opened = StubClient::open(primary(), Transport::Udp, deadline, stop_event_.get());
  if (!opened) return Error{opened.error()};
  StubClient& client = opened.value();

  const std::uint16_t id = next_transaction_id();
  const StubResult sent =
      client.send(dns::encode(TransferService::make_soa_query(apex, id)), deadline);
  if (!sent) return Error{"SOA probe send: " + sent.error};
  if (hook_fate(SyncOp::ProbeRecv)) return Error{"probe recv faulted"};

  const StubResult got = client.await_reply(id, deadline);
  if (!got) return Error{"SOA probe for " + apex.to_string() + ": " + got.error};
  const auto response = dns::decode(got.reply);
  if (!response) return Error{"SOA probe reply for " + apex.to_string() + ": " + response.error()};
  if (response.value().header.rcode != dns::Rcode::NoError) {
    return Error{"SOA probe refused for " + apex.to_string()};
  }
  for (const ResourceRecord& rr : response.value().answers) {
    if (rr.type() == RecordType::SOA) return std::get<SoaRecord>(rr.rdata);
  }
  return Error{"SOA probe reply carried no SOA for " + apex.to_string()};
}

Result<bool> SecondarySync::transfer(const dns::DnsName& apex, std::uint32_t have_serial,
                                     bool have_zone) {
  const std::uint16_t id = next_transaction_id();
  const std::uint32_t client_serial = have_zone ? have_serial : 0;
  auto payload = fetch(apex,
                       have_zone ? TransferService::make_ixfr_query(apex, have_serial, id)
                                 : TransferService::make_axfr_query(apex, id),
                       client_serial);
  if (!payload) return Error{payload.error()};
  if (payload.value().up_to_date) return false;

  if (!payload.value().deltas.empty()) {
    auto applied = publisher_.apply_chain(payload.value().deltas);
    if (applied) {
      if (applied.value() == nullptr) return false;  // raced: already current
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.ixfr_applied;
      return true;
    }
    // The journal offered a chain our local history cannot absorb (e.g.
    // the replica moved underneath us): refetch the whole zone.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.fallbacks;
    }
    payload = fetch(apex, TransferService::make_axfr_query(apex, id), 0);
    if (!payload) return Error{payload.error()};
  }

  if (!payload.value().full) return Error{"transfer for " + apex.to_string() + " had no body"};
  auto published = publisher_.publish(std::move(*payload.value().full));
  if (!published) return false;  // serial regression: someone beat us to it
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.axfr_applied;
  return true;
}

Result<propagation::TransferPayload> SecondarySync::fetch(const dns::DnsName& apex,
                                                          const Message& query,
                                                          std::uint32_t client_serial) {
  const auto reject = [this](TransferReject reason, std::string why) {
    note_reject(reason);
    return Error{std::move(why)};
  };
  if (hook_fate(SyncOp::TransferConnect)) {
    return reject(TransferReject::Io, "transfer connect faulted");
  }
  // The whole-transfer deadline starts at connect: a peer trickling one
  // byte per io_timeout can stretch each *operation* but not the sum.
  const auto transfer_deadline = StubClient::deadline_in(config_.transfer_deadline);
  const auto op_deadline = [&] {
    return std::min(StubClient::deadline_in(config_.io_timeout), transfer_deadline);
  };
  auto opened = StubClient::open(primary(), Transport::Tcp, op_deadline(), stop_event_.get());
  if (!opened) return reject(TransferReject::Io, "transfer " + opened.error());
  StubClient& client = opened.value();

  if (hook_fate(SyncOp::TransferWrite)) {
    return reject(TransferReject::Io, "transfer write faulted");
  }
  const StubResult sent =
      client.send(dns::encode(query, {.max_size = dns::kMaxMessageSize}), op_deadline());
  if (!sent) {
    return reject(sent.failure == StubFailure::Timeout ? TransferReject::Deadline
                                                       : TransferReject::Io,
                  "transfer write: " + sent.error);
  }

  std::vector<Message> stream;
  std::size_t total_bytes = 0;
  while (!stream_complete(stream, client_serial)) {
    if (hook_fate(SyncOp::TransferRead)) {
      return reject(TransferReject::Io, "transfer read faulted");
    }
    const StubResult got = client.receive(op_deadline());
    switch (got.failure) {
      case StubFailure::None:
        break;
      case StubFailure::Timeout:
        return reject(TransferReject::Deadline,
                      std::chrono::steady_clock::now() >= transfer_deadline
                          ? "transfer deadline exceeded"
                          : "transfer read deadline exceeded");
      case StubFailure::Closed:  // the primary closed the connection mid-body
        return reject(TransferReject::Truncated, "transfer stream ended mid-body");
      case StubFailure::BadFrame:  // a zero-length frame: no DNS message is empty
        return reject(TransferReject::Corrupt, "bad transfer frame: " + got.error);
      case StubFailure::Stopped:
      case StubFailure::Io:
        return reject(TransferReject::Io, "transfer read: " + got.error);
    }
    total_bytes += got.reply.size() + 2;  // with the length prefix
    if (total_bytes > config_.limits.max_bytes) {
      return reject(TransferReject::Oversize, "transfer exceeded the byte budget");
    }
    auto message = dns::decode(got.reply);
    if (!message) return reject(TransferReject::Corrupt, "bad transfer frame: " + message.error());
    stream.push_back(std::move(message).take());
  }

  // The integrity gate: a truncated, regressive, or corrupt stream is
  // counted and dropped here — the publisher never sees it, the held
  // zone and generation stay untouched.
  if (const auto bad = propagation::validate_stream(stream, client_serial, config_.limits)) {
    return reject(*bad, "transfer for " + apex.to_string() +
                            " rejected: " + propagation::to_string(*bad));
  }
  auto payload = TransferService::parse_transfer_response(stream, client_serial);
  if (!payload) return reject(TransferReject::Corrupt, payload.error());
  return payload;
}

SecondaryStats SecondarySync::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace akadns::net
