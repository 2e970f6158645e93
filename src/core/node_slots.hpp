// The node-major view of a schedule: the paper's analysis notation.
//
// The simulator reads <T, R> slot by slot (core::Schedule). The
// topology-transparency requirements (§4) and Theorems 6-9 are stated over
// the transposed sets instead: tran(x), the slots in which node x may
// transmit, and recv(x), the slots in which it may receive, with
// freeSlots, σ and T(x, y, S) built from them. NodeSlots holds exactly
// those sets as bitsets over slots. It is built from a Schedule by
// util::DynamicBitset::transpose, costs two n-by-L bit matrices, and is the
// only place the library builds them: the checkers and analyses in core/
// build one per call and the simulator never does.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "util/bitset.hpp"
#include "util/check.hpp"

namespace ttdc::core {

class NodeSlots {
 public:
  explicit NodeSlots(const Schedule& schedule);

  [[nodiscard]] std::size_t num_nodes() const { return tran_.size(); }
  [[nodiscard]] std::size_t frame_length() const { return frame_length_; }

  /// tran(x): slots in which node x may transmit (bitset over slots).
  [[nodiscard]] const DynamicBitset& tran(std::size_t node) const {
    TTDC_CHECK_BOUNDS(node, tran_.size());
    return tran_[node];
  }
  /// recv(x): slots in which node x may receive (bitset over slots).
  [[nodiscard]] const DynamicBitset& recv(std::size_t node) const {
    TTDC_CHECK_BOUNDS(node, recv_.size());
    return recv_[node];
  }

  /// freeSlots(x, Y) = tran(x) \ ∪_{y∈Y} tran(y): slots where x transmits
  /// and no node of Y does. Y given as node indices.
  [[nodiscard]] DynamicBitset free_slots(std::size_t x, std::span<const std::size_t> y) const;

  /// σ(a, b) = tran(a) ∩ recv(b): slots where a may transmit and b receive.
  [[nodiscard]] DynamicBitset sigma(std::size_t a, std::size_t b) const;

  /// T(x, y, S) = recv(y) ∩ freeSlots(x, {y} ∪ S): slots in which x's
  /// transmission to y is guaranteed to succeed when y's other neighbors
  /// are exactly S (Definition preceding Definition 1).
  [[nodiscard]] DynamicBitset guaranteed_slots(std::size_t x, std::size_t y,
                                               std::span<const std::size_t> s) const;

  /// |T(x, y, S)|.
  [[nodiscard]] std::size_t guaranteed_slot_count(std::size_t x, std::size_t y,
                                                  std::span<const std::size_t> s) const;

 private:
  std::size_t frame_length_;
  std::vector<DynamicBitset> tran_;  // [node] -> slot set
  std::vector<DynamicBitset> recv_;  // [node] -> slot set
};

}  // namespace ttdc::core
