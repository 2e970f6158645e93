// SleeperMac: a periodic batched MAC with one node that only ever sleeps.
//
// Frame of kPeriod slots: every node v other than the sleeper listens in
// frame slot v % kPeriod and is an eligible transmitter in frame slot
// (v + 1) % kPeriod; the sleeper is in neither slot set, ever. Its battery
// therefore drains at the sleep rate alone, which is the path the
// simulator's min-credit bound handles (no per-slot charge reaches it).
// The MAC is a pure function of slot % kPeriod, so it reports that period
// to the fast-forward engine.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/mac.hpp"
#include "util/rng.hpp"
#include "util/slot_set.hpp"

namespace ttdc::sim {

class SleeperMac final : public MacProtocol {
 public:
  static constexpr std::size_t kPeriod = 8;

  SleeperMac(std::size_t num_nodes, std::size_t sleeper)
      : num_nodes_(num_nodes), sleeper_(sleeper) {}

  void begin_slot(std::uint64_t slot, util::Xoshiro256& /*rng*/) override {
    phase_ = static_cast<std::size_t>(slot % kPeriod);
  }
  [[nodiscard]] bool can_receive(std::size_t node) const override {
    return node != sleeper_ && node % kPeriod == phase_;
  }
  [[nodiscard]] bool wants_transmit(std::size_t node, std::size_t /*target*/) const override {
    return node != sleeper_ && (node + 1) % kPeriod == phase_;
  }
  [[nodiscard]] RadioState idle_state(std::size_t /*node*/) const override {
    return RadioState::kSleep;
  }
  bool fill_slot_sets(util::SlotSet& receivers, util::SlotSet& transmitters) const override {
    receivers.reset_all();
    transmitters.reset_all();
    for (std::size_t v = 0; v < num_nodes_; ++v) {
      if (can_receive(v)) receivers.set(v);
      if (wants_transmit(v, v)) transmitters.set(v);
    }
    return true;
  }
  [[nodiscard]] std::uint64_t fast_forward_period() const override { return kPeriod; }

 private:
  std::size_t num_nodes_;
  std::size_t sleeper_;
  std::size_t phase_ = 0;
};

}  // namespace ttdc::sim
