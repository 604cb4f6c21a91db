// Per-machine BGP speaker (Figure 6).
//
// Each machine runs a BGP speaker that maintains a session with the PoP
// router and advertises the PoP's anycast clouds with a per-machine MED.
// The router prefers the lowest MED among advertising machines — this is
// how input-delayed nameservers (§4.2.3) stay out of the data path until
// every regular machine has withdrawn. State changes are reported to the
// PoP through a callback so it can recompute its external advertisements
// and its ECMP set.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "netsim/network.hpp"

namespace akadns::pop {

class BgpSpeaker {
 public:
  static constexpr int kDefaultMed = 100;
  /// Input-delayed nameservers advertise with a higher (worse) MED.
  static constexpr int kInputDelayedMed = 500;

  using ChangeCallback = std::function<void()>;

  explicit BgpSpeaker(ChangeCallback on_change = nullptr)
      : on_change_(std::move(on_change)) {}

  void set_change_callback(ChangeCallback cb) { on_change_ = std::move(cb); }

  /// Starts advertising `cloud` at the given MED (re-advertising with a
  /// different MED updates it).
  void advertise(netsim::PrefixId cloud, int med = kDefaultMed);

  /// Withdraws one cloud.
  void withdraw(netsim::PrefixId cloud);

  /// Withdraws everything (self-suspension path).
  void withdraw_all();

  /// Re-advertises all previously configured clouds (resume path).
  void readvertise_all();

  bool advertising(netsim::PrefixId cloud) const;
  /// MED of an active advertisement; -1 when not advertising.
  int med(netsim::PrefixId cloud) const;

  /// All clouds this speaker is configured for (advertised or not).
  std::vector<netsim::PrefixId> configured_clouds() const;

 private:
  struct CloudState {
    int med = kDefaultMed;
    bool active = false;
  };

  void notify() {
    if (on_change_) on_change_();
  }

  std::map<netsim::PrefixId, CloudState> clouds_;
  ChangeCallback on_change_;
};

}  // namespace akadns::pop
