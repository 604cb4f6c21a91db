#include "pop/bgp_speaker.hpp"

namespace akadns::pop {

void BgpSpeaker::advertise(netsim::PrefixId cloud, int med) {
  CloudState& state = clouds_[cloud];
  if (state.active && state.med == med) return;
  state.active = true;
  state.med = med;
  notify();
}

void BgpSpeaker::withdraw(netsim::PrefixId cloud) {
  const auto it = clouds_.find(cloud);
  if (it == clouds_.end() || !it->second.active) return;
  it->second.active = false;
  notify();
}

void BgpSpeaker::withdraw_all() {
  bool changed = false;
  for (auto& [cloud, state] : clouds_) {
    if (state.active) {
      state.active = false;
      changed = true;
    }
  }
  if (changed) notify();
}

void BgpSpeaker::readvertise_all() {
  bool changed = false;
  for (auto& [cloud, state] : clouds_) {
    if (!state.active) {
      state.active = true;
      changed = true;
    }
  }
  if (changed) notify();
}

bool BgpSpeaker::advertising(netsim::PrefixId cloud) const {
  const auto it = clouds_.find(cloud);
  return it != clouds_.end() && it->second.active;
}

int BgpSpeaker::med(netsim::PrefixId cloud) const {
  const auto it = clouds_.find(cloud);
  if (it == clouds_.end() || !it->second.active) return -1;
  return it->second.med;
}

std::vector<netsim::PrefixId> BgpSpeaker::configured_clouds() const {
  std::vector<netsim::PrefixId> out;
  for (const auto& [cloud, state] : clouds_) out.push_back(cloud);
  return out;
}

}  // namespace akadns::pop
