// ScalarOnlyMac: the differential oracle for the simulator's batched slot
// pipeline (DESIGN.md §8).
//
// Wraps any MAC and forwards only its per-node interface — begin_slot,
// can_receive, wants_transmit, idle_state, on_topology_change — but NOT
// fill_slot_sets. The Simulator therefore drives the wrapped MAC through
// its per-node fallback: phase 1 offers every backlogged node the slot and
// asks wants_transmit(), phase 3 asks idle_state() per idle node, and only
// phase 2 stays word-parallel over the receiver set the base
// fill_slot_sets() builds from can_receive(). Golden tests run the same
// scenario once with the bare MAC and once wrapped and assert identical
// SimStats (and identical flight-recorder streams).
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/graph.hpp"
#include "sim/mac.hpp"
#include "util/rng.hpp"

namespace ttdc::sim {

class ScalarOnlyMac final : public MacProtocol {
 public:
  explicit ScalarOnlyMac(MacProtocol& inner) : inner_(inner) {}

  void begin_slot(std::uint64_t slot, util::Xoshiro256& rng) override {
    inner_.begin_slot(slot, rng);
  }
  [[nodiscard]] bool can_receive(std::size_t node) const override {
    return inner_.can_receive(node);
  }
  [[nodiscard]] bool wants_transmit(std::size_t node, std::size_t target) const override {
    return inner_.wants_transmit(node, target);
  }
  [[nodiscard]] RadioState idle_state(std::size_t node) const override {
    return inner_.idle_state(node);
  }
  bool on_topology_change(const net::Graph& graph) override {
    return inner_.on_topology_change(graph);
  }

 private:
  MacProtocol& inner_;
};

}  // namespace ttdc::sim
