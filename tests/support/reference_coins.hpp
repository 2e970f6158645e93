// Reference coin loops: the oracle for util's coin kernel (util/coins.hpp).
//
// The five per-node coin loops as they read before the kernel: one
// rng.bernoulli(p) per node on the caller's generator and one set() per
// hit, for the three randomized MACs and the two per-node traffic sources.
// Each class answers like its production counterpart (same fill_slot_sets,
// same emissions), so a differential test can run both on generators with
// the same seed and assert identical slot sets, emissions and generator
// state after every slot.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/mac.hpp"
#include "sim/traffic.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"
#include "util/slot_set.hpp"

namespace ttdc::sim {

class ReferenceAlohaMac final : public MacProtocol {
 public:
  ReferenceAlohaMac(std::size_t num_nodes, double p) : p_(p), coin_(num_nodes) {}

  void begin_slot(std::uint64_t, util::Xoshiro256& rng) override {
    coin_.reset_all();
    for (std::size_t v = 0; v < coin_.size(); ++v) {
      if (rng.bernoulli(p_)) coin_.set(v);
    }
  }
  [[nodiscard]] bool can_receive(std::size_t) const override { return true; }
  [[nodiscard]] bool wants_transmit(std::size_t v, std::size_t) const override {
    return coin_.test(v);
  }
  [[nodiscard]] RadioState idle_state(std::size_t) const override { return RadioState::kListen; }
  bool fill_slot_sets(util::SlotSet& receivers, util::SlotSet& transmitters) const override {
    receivers.set_all();
    transmitters.copy_from(coin_);
    return true;
  }

 private:
  double p_;
  util::DynamicBitset coin_;
};

class ReferenceUncoordinatedSleepMac final : public MacProtocol {
 public:
  ReferenceUncoordinatedSleepMac(std::size_t num_nodes, double awake_p, double attempt_p)
      : awake_p_(awake_p), attempt_p_(attempt_p), awake_(num_nodes), coin_(num_nodes) {}

  void begin_slot(std::uint64_t, util::Xoshiro256& rng) override {
    awake_.reset_all();
    coin_.reset_all();
    for (std::size_t v = 0; v < awake_.size(); ++v) {
      if (rng.bernoulli(awake_p_)) {
        awake_.set(v);
        if (rng.bernoulli(attempt_p_)) coin_.set(v);
      }
    }
  }
  [[nodiscard]] bool can_receive(std::size_t v) const override { return awake_.test(v); }
  [[nodiscard]] bool wants_transmit(std::size_t v, std::size_t) const override {
    return coin_.test(v);
  }
  [[nodiscard]] RadioState idle_state(std::size_t v) const override {
    return awake_.test(v) ? RadioState::kListen : RadioState::kSleep;
  }
  bool fill_slot_sets(util::SlotSet& receivers, util::SlotSet& transmitters) const override {
    receivers.copy_from(awake_);
    transmitters.copy_from(coin_);
    return true;
  }

 private:
  double awake_p_;
  double attempt_p_;
  util::DynamicBitset awake_;
  util::DynamicBitset coin_;
};

class ReferenceCommonActivePeriodMac final : public MacProtocol {
 public:
  ReferenceCommonActivePeriodMac(std::size_t num_nodes, std::size_t frame_length,
                                 std::size_t active_slots, double p)
      : frame_length_(frame_length), active_slots_(active_slots), p_(p), coin_(num_nodes) {}

  void begin_slot(std::uint64_t slot, util::Xoshiro256& rng) override {
    in_active_ = (slot % frame_length_) < active_slots_;
    coin_.reset_all();
    if (in_active_) {
      for (std::size_t v = 0; v < coin_.size(); ++v) {
        if (rng.bernoulli(p_)) coin_.set(v);
      }
    }
  }
  [[nodiscard]] bool can_receive(std::size_t) const override { return in_active_; }
  [[nodiscard]] bool wants_transmit(std::size_t v, std::size_t) const override {
    return in_active_ && coin_.test(v);
  }
  [[nodiscard]] RadioState idle_state(std::size_t) const override {
    return in_active_ ? RadioState::kListen : RadioState::kSleep;
  }
  bool fill_slot_sets(util::SlotSet& receivers, util::SlotSet& transmitters) const override {
    if (in_active_) {
      receivers.set_all();
      transmitters.copy_from(coin_);
    } else {
      receivers.reset_all();
      transmitters.reset_all();
    }
    return true;
  }

 private:
  std::size_t frame_length_;
  std::size_t active_slots_;
  double p_;
  bool in_active_ = false;
  util::DynamicBitset coin_;
};

class ReferenceBernoulliTraffic final : public TrafficSource {
 public:
  ReferenceBernoulliTraffic(std::size_t num_nodes, double rate) : n_(num_nodes), rate_(rate) {}

  void generate(std::uint64_t, util::Xoshiro256& rng, const EmitFn& emit) override {
    for (std::size_t v = 0; v < n_; ++v) {
      if (rng.bernoulli(rate_)) {
        std::size_t dst = static_cast<std::size_t>(rng.below(n_ - 1));
        if (dst >= v) ++dst;
        emit(v, dst);
      }
    }
  }

 private:
  std::size_t n_;
  double rate_;
};

class ReferenceConvergecastTraffic final : public TrafficSource {
 public:
  ReferenceConvergecastTraffic(std::size_t num_nodes, std::size_t sink, double rate)
      : n_(num_nodes), sink_(sink), rate_(rate) {}

  void generate(std::uint64_t, util::Xoshiro256& rng, const EmitFn& emit) override {
    for (std::size_t v = 0; v < n_; ++v) {
      if (v != sink_ && rng.bernoulli(rate_)) emit(v, sink_);
    }
  }

 private:
  std::size_t n_;
  std::size_t sink_;
  double rate_;
};

}  // namespace ttdc::sim
