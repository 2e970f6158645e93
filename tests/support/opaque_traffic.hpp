// OpaqueTraffic: the "never skips" reference for the simulator's skip.
//
// Wraps any traffic source and forwards generate() and on_queue_drained(),
// but NOT supports_lookahead() or next_emission(), the way ScalarOnlyMac
// hides fill_slot_sets(). The simulator therefore sees an opaque source and
// steps every slot of a charged span instead of passing over the sender-free
// ones (Simulator::run). The wrapped source emits exactly what it would
// bare, so golden tests run the same scenario once with the bare lookahead
// source and once wrapped and assert identical SimStats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace ttdc::sim {

class OpaqueTraffic final : public TrafficSource {
 public:
  explicit OpaqueTraffic(TrafficSource& inner) : inner_(inner) {}
  /// Owning form, for factories that hand sources out by unique_ptr.
  explicit OpaqueTraffic(std::unique_ptr<TrafficSource> owned)
      : owned_(std::move(owned)), inner_(*owned_) {}

  void generate(std::uint64_t slot, util::Xoshiro256& rng, const EmitFn& emit) override {
    inner_.generate(slot, rng, emit);
  }
  void on_queue_drained(std::size_t node) override { inner_.on_queue_drained(node); }

 private:
  std::unique_ptr<TrafficSource> owned_;
  TrafficSource& inner_;
};

}  // namespace ttdc::sim
