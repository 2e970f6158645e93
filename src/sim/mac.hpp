// MAC protocols driving node radios in the slot simulator.
//
// The simulator is protocol-agnostic: each slot it asks the MAC which nodes
// are willing to receive, whether a backlogged node transmits to its head-
// of-queue next hop, and what idle nodes do with their radio. Implemented
// protocols:
//   * DutyCycledScheduleMac  — the paper's (αT,αR)-schedule <T,R> (or any
//     Schedule, including non-sleeping ones); senders are schedule-aware:
//     x transmits to y only in slots of σ(x, y) = tran(x) ∩ recv(y);
//   * SlottedAlohaMac        — always-on random access with attempt prob p;
//   * UncoordinatedSleepMac  — uncoordinated power saving ([Dousse et al.
//     04]-style): every node is awake i.i.d. with prob p each slot; senders
//     do not know receiver state;
//   * ColoringTdmaMac        — topology-DEPENDENT distance-2 coloring TDMA:
//     collision-free by construction but must recolor on topology change
//     (the foil for topology transparency in the mobility experiment).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/schedule.hpp"
#include "net/graph.hpp"
#include "sim/radio.hpp"
#include "util/bitset.hpp"
#include "util/slot_set.hpp"
#include "util/rng.hpp"

namespace ttdc::sim {

class MacProtocol {
 public:
  virtual ~MacProtocol() = default;

  /// Called once per slot before any transmit/receive query; randomized
  /// MACs draw their per-slot coins here.
  virtual void begin_slot(std::uint64_t slot, util::Xoshiro256& rng) = 0;

  /// May `node` accept a reception in the current slot?
  [[nodiscard]] virtual bool can_receive(std::size_t node) const = 0;

  /// Does backlogged `node` transmit to next hop `target` this slot?
  [[nodiscard]] virtual bool wants_transmit(std::size_t node, std::size_t target) const = 0;

  /// Radio state of a node that neither transmitted nor was an eligible
  /// receiver this slot.
  [[nodiscard]] virtual RadioState idle_state(std::size_t node) const = 0;

  /// Batched slot-set interface (the simulator's word-parallel hot path).
  ///
  /// Populates, for the current slot, `receivers` with every node for which
  /// can_receive() holds and `transmitters` with every node that would
  /// transmit if backlogged (the target-independent part of
  /// wants_transmit()). Returns true when both sets were produced, in which
  /// case the simulator promises to honor this contract:
  ///
  ///   * a backlogged node v transmits iff transmitters.test(v) and, when
  ///     sender_gates_on_receiver(), its next hop is in `receivers`;
  ///   * a node that neither transmits nor appears in `receivers` SLEEPS
  ///     (its idle_state() must be RadioState::kSleep) — all five in-tree
  ///     MACs satisfy this by construction.
  ///
  /// The default implementation is the scalar fallback for out-of-tree
  /// MACs: it fills `receivers` from can_receive() and returns false, which
  /// makes the simulator fall back to per-node wants_transmit()/idle_state()
  /// queries (correct, just not word-parallel). Both bitsets are sized to
  /// the node count and arrive zeroed-or-stale; implementations must
  /// overwrite them completely and must not allocate.
  virtual bool fill_slot_sets(util::SlotSet& receivers,
                              util::SlotSet& transmitters) const;

  /// True when wants_transmit(x, y) additionally requires y to be an
  /// eligible receiver this slot (schedule-aware senders). Only consulted
  /// when fill_slot_sets() returned true.
  [[nodiscard]] virtual bool sender_gates_on_receiver() const { return false; }

  /// The periodic schedule <T, R> this MAC follows, or null (the default).
  /// Optional: advertising one lets the simulator charge each frame's
  /// scheduled listening once per frame instead of per slot (DESIGN.md §8).
  /// A MAC returning schedule S promises, for every slot s, that
  /// fill_slot_sets() returns true with receivers = R[s mod L] and
  /// transmitters = T[s mod L], L being S's frame length, and that
  /// begin_slot(s) draws nothing and reconstructs everything from s alone;
  /// with T[i] ∩ R[i] = ∅ (every Schedule guarantees it) and the batched
  /// sleep contract, each node's scheduled listen slots and wakeups per
  /// frame are then closed forms of S. Since a slot's sets are then known
  /// without calling begin_slot(), the simulator, under lookahead traffic,
  /// skips begin_slot() and fill_slot_sets() at every slot of a charged
  /// span in which no live backlogged node is in T[s mod L], and re-enters
  /// at any later slot. A MAC without one (the randomized MACs, whose
  /// per-slot coins come from the simulator stream, and the coloring TDMA)
  /// is stepped slot by slot. The schedule must outlive the MAC.
  [[nodiscard]] virtual const core::Schedule* periodic_schedule() const { return nullptr; }

  /// Topology-change hook. Topology-transparent MACs ignore it; the
  /// coloring TDMA must rebuild. Returns true if the MAC had to
  /// reconfigure (counted by the mobility experiment).
  virtual bool on_topology_change(const net::Graph& graph) {
    (void)graph;
    return false;
  }
};

/// Schedule-driven MAC (duty-cycled or non-sleeping).
class DutyCycledScheduleMac final : public MacProtocol {
 public:
  /// If `schedule_aware_senders`, x holds its packet for y until a slot in
  /// σ(x, y); otherwise x transmits in any of its transmit slots (and
  /// burns the attempt if y is asleep).
  explicit DutyCycledScheduleMac(const core::Schedule& schedule,
                                 bool schedule_aware_senders = true);

  void begin_slot(std::uint64_t slot, util::Xoshiro256& rng) override;
  [[nodiscard]] bool can_receive(std::size_t node) const override;
  [[nodiscard]] bool wants_transmit(std::size_t node, std::size_t target) const override;
  [[nodiscard]] RadioState idle_state(std::size_t node) const override;
  bool fill_slot_sets(util::SlotSet& receivers,
                      util::SlotSet& transmitters) const override;
  [[nodiscard]] bool sender_gates_on_receiver() const override { return aware_; }
  /// The simulator charges per frame only when this schedule's universe is
  /// the simulated graph's (otherwise fill_slot_sets() falls back to the
  /// scalar path).
  [[nodiscard]] const core::Schedule* periodic_schedule() const override {
    return &schedule_;
  }

 private:
  // fill_slot_sets() copies the schedule's own SlotSets, adopting their
  // representation: sparse when the slot's active population is sparse
  // (the megascale regime), dense otherwise.
  const core::Schedule& schedule_;
  bool aware_;
  std::size_t frame_slot_ = 0;
};

/// Slotted ALOHA: every backlogged node transmits with probability p; all
/// nodes always listen.
class SlottedAlohaMac final : public MacProtocol {
 public:
  SlottedAlohaMac(std::size_t num_nodes, double attempt_probability);

  void begin_slot(std::uint64_t slot, util::Xoshiro256& rng) override;
  [[nodiscard]] bool can_receive(std::size_t) const override { return true; }
  [[nodiscard]] bool wants_transmit(std::size_t node, std::size_t target) const override;
  [[nodiscard]] RadioState idle_state(std::size_t) const override {
    return RadioState::kListen;  // unreachable: every node can_receive
  }
  bool fill_slot_sets(util::SlotSet& receivers,
                      util::SlotSet& transmitters) const override;

 private:
  std::uint64_t threshold_;   // the attempt probability's coin threshold
  util::DynamicBitset coin_;  // per-node transmit coin for the current slot
};

/// Uncoordinated duty cycling: node awake i.i.d. with probability p per
/// slot; an awake backlogged node transmits with probability q.
class UncoordinatedSleepMac final : public MacProtocol {
 public:
  UncoordinatedSleepMac(std::size_t num_nodes, double awake_probability,
                        double attempt_probability);

  void begin_slot(std::uint64_t slot, util::Xoshiro256& rng) override;
  [[nodiscard]] bool can_receive(std::size_t node) const override;
  [[nodiscard]] bool wants_transmit(std::size_t node, std::size_t target) const override;
  [[nodiscard]] RadioState idle_state(std::size_t node) const override;
  bool fill_slot_sets(util::SlotSet& receivers,
                      util::SlotSet& transmitters) const override;

 private:
  std::uint64_t awake_threshold_;    // coin thresholds of the two
  std::uint64_t attempt_threshold_;  // probabilities
  util::DynamicBitset awake_;
  util::DynamicBitset coin_;
};

/// S-MAC-style synchronized duty cycling [Ye-Heidemann-Estrin 02]: every
/// node is awake for the first `active_slots` slots of each frame (the
/// common active period, where backlogged nodes contend ALOHA-style with
/// probability p) and sleeps for the rest. The classic coordinated-sleep
/// baseline the paper's §1 cites: saves energy, but all contention is
/// squeezed into the active window -- exactly the collision concentration
/// the paper's introduction warns about.
class CommonActivePeriodMac final : public MacProtocol {
 public:
  CommonActivePeriodMac(std::size_t num_nodes, std::size_t frame_length,
                        std::size_t active_slots, double attempt_probability);

  void begin_slot(std::uint64_t slot, util::Xoshiro256& rng) override;
  [[nodiscard]] bool can_receive(std::size_t node) const override;
  [[nodiscard]] bool wants_transmit(std::size_t node, std::size_t target) const override;
  [[nodiscard]] RadioState idle_state(std::size_t node) const override;
  bool fill_slot_sets(util::SlotSet& receivers,
                      util::SlotSet& transmitters) const override;

  [[nodiscard]] double duty_cycle() const {
    return static_cast<double>(active_slots_) / static_cast<double>(frame_length_);
  }

 private:
  std::size_t frame_length_;
  std::size_t active_slots_;
  std::uint64_t threshold_;  // the attempt probability's coin threshold
  bool in_active_ = false;
  util::DynamicBitset coin_;
};

/// Topology-dependent TDMA from a greedy distance-2 coloring of the current
/// graph: node x owns the slots congruent to color(x); receivers listen in
/// every other slot (or sleep unless a neighbor owns the slot). Collision-
/// free for the exact topology it was built for; stale after churn until
/// on_topology_change() recolors.
class ColoringTdmaMac final : public MacProtocol {
 public:
  explicit ColoringTdmaMac(const net::Graph& graph);

  void begin_slot(std::uint64_t slot, util::Xoshiro256& rng) override;
  [[nodiscard]] bool can_receive(std::size_t node) const override;
  [[nodiscard]] bool wants_transmit(std::size_t node, std::size_t target) const override;
  [[nodiscard]] RadioState idle_state(std::size_t node) const override;
  bool fill_slot_sets(util::SlotSet& receivers,
                      util::SlotSet& transmitters) const override;
  bool on_topology_change(const net::Graph& graph) override;

  [[nodiscard]] std::size_t num_colors() const { return num_colors_; }
  [[nodiscard]] std::size_t recolor_count() const { return recolor_count_; }

 private:
  void rebuild(const net::Graph& graph);

  std::vector<std::size_t> color_;
  std::vector<util::SlotSet> neighbor_;  // adjacency snapshot at build
  std::vector<util::SlotSet> color_members_;  // [color] -> node set
  std::size_t num_colors_ = 1;
  std::size_t current_color_ = 0;
  std::size_t recolor_count_ = 0;
};

/// Greedy distance-2 coloring (no two nodes within two hops share a color):
/// the classical collision-free TDMA slot assignment. Exposed for tests.
std::vector<std::size_t> distance2_coloring(const net::Graph& graph);

}  // namespace ttdc::sim
