// Per-node counts over a stretch of a schedule's frame: Theorem 7 node by
// node.
//
// Figure 2 builds every slot of its output as a pair (T̄_a, R̄_b) of windows
// of one base slot i of <T>, and Theorem 7 counts those slots as
// L = Σ_i k_T(i)·k_R(i). FrameCounter reads any stretch [first, end) of a
// Schedule's frame the same way, from the pools and index arrays it
// stores, without knowing where they came from:
//   * a *row* is a maximal run of the stretch's slots that share one T pool
//     index (the stretch's ends cut rows);
//   * a *block* is a maximal run of rows with the same list of R indices,
//     so a block is k_T rows of k_R slots (in Construct's output, base
//     slot i; a line-8 padded base slot is k_T one-slot blocks).
// Over a block a node v listens k_T·m(v) slots, m(v) being the number of R
// windows that hold it, and wakes k_T·(m(v) − adj(v)) times, adj(v)
// counting the cyclically adjacent window pairs that both hold it, up to
// one correction at the seam with the previous block. The stretch's first
// slot is treated as the frame's slot 0: it wakes nobody, since only the
// caller knows what was awake before it. m(v) is [v ∈ ∪R̄] plus one per
// window beyond v's first. When the block's windows cover V
// (|∪R̄| + |∪T̄| = n, as T̄_a ∩ R̄_b = ∅ in every slot), ∪R̄ = V \ ∪T̄, so
// that term costs a pass over the T windows instead of one over every
// member of every slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/schedule.hpp"
#include "util/bitset.hpp"

namespace ttdc::core {

/// A schedule's per-node counts over a stretch [first, end) of its frame.
struct FrameCounts {
  std::vector<std::uint32_t> listen;    // #{first ≤ i < end : v ∈ R[i]}
  std::vector<std::uint32_t> wakes;     // #{first < i < end : v ∈ R[i], v ∉ R[i−1]}
  std::vector<std::uint32_t> transmit;  // #{first ≤ i < end : v ∈ T[i]}

  bool operator==(const FrameCounts&) const = default;
};

/// Counts stretches block by block (see above) into storage it keeps: the
/// counts and two scratch bitsets are sized at the first count over n
/// nodes, so no later count over n nodes allocates.
class FrameCounter {
 public:
  /// The counts of frame slots [first, end) of `schedule`, valid until the
  /// next call. The [v ∈ ∪R̄] term of a block of at least two rows whose
  /// windows cover V is charged through the complement; any other block
  /// charges ∪R̄ member by member, which for a one-row block (line-8
  /// padding, one set per slot) is the slot-by-slot walk. Costs O(n + s +
  /// Σ_a |T̄_a| + Σ_blocks k_R·n/64) for a stretch of s slots, plus the
  /// members that sit in two windows of a block or change at a seam, and
  /// |∪R̄| for each block charged member by member.
  const FrameCounts& count(const Schedule& schedule, std::size_t first, std::size_t end);

 private:
  FrameCounts counts_;
  util::DynamicBitset in_t_;  // ∪T̄ of the block
  util::DynamicBitset seen_;  // ∪R̄ of the block's windows met so far
};

/// The counts of the whole frame [0, L).
FrameCounts frame_counts(const Schedule& schedule);

}  // namespace ttdc::core
