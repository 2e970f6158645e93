// The schedule model of the paper (§3).
//
// A schedule of node activities is a pair <T, R> of disjoint per-slot node
// sets over a frame of L slots: T[i] may transmit in slots i + L*l, R[i] may
// receive, and every other node sleeps. A *non-sleeping* schedule has
// T[i] ∪ R[i] = V in every slot and is determined by T alone.
//
// Schedule stores <T, R> once, slot-major, the way the simulator reads it
// (Figure 2): each T[i] and R[i] is a util::SlotSet whose representation
// follows its population above 256 nodes, so a duty-cycled T[i] of at most
// αT* ids is a short id list and an R[i] of αR = n/3 ids a bitset. Slots
// index into pools of sets, so a set that many slots share (Construct's
// windows) is stored once. The node-major sets tran(x) and recv(x) of the
// analyses live in core::NodeSlots (core/node_slots.hpp), which the
// checkers build per call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/bitset.hpp"
#include "util/check.hpp"
#include "util/slot_set.hpp"

namespace ttdc::core {

using util::DynamicBitset;

/// Immutable <T, R> schedule over `num_nodes` nodes and `frame_length` slots.
///
/// A const Schedule is safe to read from many threads at once: a const
/// util::SlotSet is read-only.
class Schedule {
 public:
  /// Builds from per-slot transmitter/receiver sets over the nodes.
  /// Throws std::invalid_argument unless |transmit| == |receive| > 0, all
  /// sets share the node universe and T[i] ∩ R[i] = ∅ for every slot.
  Schedule(std::size_t num_nodes, std::vector<util::SlotSet> transmit,
           std::vector<util::SlotSet> receive);

  /// Same, from bitsets: each set takes the representation its population
  /// calls for (util::SlotSet::copy_from).
  Schedule(std::size_t num_nodes, std::vector<DynamicBitset> transmit,
           std::vector<DynamicBitset> receive);

  /// Builds from pools of sets and each slot's index into them: T[i] is
  /// transmit_pool[transmit_of[i]] and R[i] is receive_pool[receive_of[i]],
  /// so a set that many slots share is stored once. The same checks as
  /// above, plus every index inside its pool.
  Schedule(std::size_t num_nodes, std::vector<util::SlotSet> transmit_pool,
           std::vector<std::uint32_t> transmit_of, std::vector<util::SlotSet> receive_pool,
           std::vector<std::uint32_t> receive_of);

  /// Builds the non-sleeping schedule <T>: R[i] = V \ T[i].
  static Schedule non_sleeping(std::size_t num_nodes, std::vector<DynamicBitset> transmit);

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t frame_length() const { return t_of_.size(); }

  /// Position of an absolute simulator slot within the periodic frame. The
  /// schedule's behavior is a pure function of this phase: two slots with
  /// equal frame_phase() see identical <T, R> sets.
  [[nodiscard]] std::size_t frame_phase(std::uint64_t slot) const {
    return static_cast<std::size_t>(slot % frame_length());
  }

  /// Per-slot sets T[slot] and R[slot] (sets over nodes).
  [[nodiscard]] const util::SlotSet& transmitters(std::size_t slot) const {
    TTDC_CHECK_BOUNDS(slot, t_of_.size());
    return t_pool_[t_of_[slot]];
  }
  [[nodiscard]] const util::SlotSet& receivers(std::size_t slot) const {
    TTDC_CHECK_BOUNDS(slot, r_of_.size());
    return r_pool_[r_of_[slot]];
  }

  /// The pooled storage behind transmitters() and receivers(): each
  /// distinct stored set once, and each slot's index into its pool, so
  /// T[i] is transmit_pool()[transmit_index()[i]]. A whole-frame count can
  /// visit each stored set once, weighted by how many slots share it.
  [[nodiscard]] std::span<const util::SlotSet> transmit_pool() const { return t_pool_; }
  [[nodiscard]] std::span<const std::uint32_t> transmit_index() const { return t_of_; }
  [[nodiscard]] std::span<const util::SlotSet> receive_pool() const { return r_pool_; }
  [[nodiscard]] std::span<const std::uint32_t> receive_index() const { return r_of_; }

  /// FNV-1a 64 digest of the storage: the shape, every pooled set as stored
  /// (util::SlotSet::fold_fnv1a64) and every slot's pool index. Any flipped
  /// bit changes it; costs O(stored sets + frame_length), so a shared set
  /// is hashed once. For corruption checks (runner::ArtifactStore), not for
  /// equality: equal schedules stored differently digest differently.
  [[nodiscard]] std::uint64_t storage_checksum() const;

  /// Re-verifies the construction invariants (universe sizes, pool
  /// indices, per-slot T[i] ∩ R[i] = ∅, cached sizes). The constructor
  /// establishes them and the class is immutable, so this only fires on
  /// memory corruption or a bad const_cast; compiled out (no-op) unless
  /// contract checks are enabled.
  void audit_invariants() const;

  /// True iff T[i] ∪ R[i] = V in every slot.
  [[nodiscard]] bool is_non_sleeping() const;

  /// True iff |T[i]| <= alpha_t and |R[i]| <= alpha_r in every slot
  /// (the paper's (αT, αR)-schedule property).
  [[nodiscard]] bool is_alpha_schedule(std::size_t alpha_t, std::size_t alpha_r) const;

  /// Per-slot cardinalities, precomputed.
  [[nodiscard]] std::span<const std::size_t> transmit_sizes() const { return t_sizes_; }
  [[nodiscard]] std::span<const std::size_t> receive_sizes() const { return r_sizes_; }

  /// min/max of |T[i]| over slots (the paper's M_in / M_ax).
  [[nodiscard]] std::size_t min_transmitters() const;
  [[nodiscard]] std::size_t max_transmitters() const;
  [[nodiscard]] std::size_t max_receivers() const;

  /// Fraction of (node, slot) pairs that are active (transmit or receive):
  /// the network-wide duty cycle in [0, 1]; 1.0 for non-sleeping schedules.
  [[nodiscard]] double duty_cycle() const;

  /// Human-readable slot listing (for examples and error messages).
  [[nodiscard]] std::string to_string() const;

 private:
  /// The constructors' checks (throwing std::invalid_argument); fills
  /// t_sizes_ and r_sizes_.
  void validate_and_cache_sizes();

  std::size_t num_nodes_;
  std::vector<util::SlotSet> t_pool_;  // distinct transmitter sets
  std::vector<util::SlotSet> r_pool_;  // distinct receiver sets
  std::vector<std::uint32_t> t_of_;    // [slot] -> index of T[slot] in t_pool_
  std::vector<std::uint32_t> r_of_;    // [slot] -> index of R[slot] in r_pool_
  std::vector<std::size_t> t_sizes_;   // [slot] -> |T[slot]|
  std::vector<std::size_t> r_sizes_;   // [slot] -> |R[slot]|
};

}  // namespace ttdc::core
