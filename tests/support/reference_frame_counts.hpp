// Reference stretch counts: the differential oracle for core::FrameCounter
// and core::frame_counts (DESIGN.md §8).
//
// reference_frame_counts() walks the pools over the stretch's slots: every
// distinct pooled set they name once, each member credited with the number
// of the stretch's slots that name the set, and every distinct
// (R[i−1], R[i]) pair of pool indices at i = first+1 .. end−1 once, each
// member of R[i] \ R[i−1] credited with the number of those slots at which
// the pair occurs. It reads the schedule as unrelated slots, so it knows
// nothing of rows, blocks or coverage. construct_blocks() names the kinds of
// block a Construct output holds, so a test can assert that it covers each.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "core/frame_counts.hpp"
#include "core/schedule.hpp"
#include "util/slot_set.hpp"

namespace ttdc::core {

/// The counts of frame slots [first, end) of `schedule`: listening and
/// transmitting at first..end−1, wakes at first+1..end−1.
inline FrameCounts reference_frame_counts(const Schedule& schedule, std::size_t first,
                                          std::size_t end) {
  const std::size_t n = schedule.num_nodes();
  FrameCounts out{.listen = std::vector<std::uint32_t>(n, 0),
                  .wakes = std::vector<std::uint32_t>(n, 0),
                  .transmit = std::vector<std::uint32_t>(n, 0)};
  const auto weigh = [](std::span<const std::uint32_t> index) {
    std::map<std::uint32_t, std::uint32_t> slots_naming;
    for (const std::uint32_t p : index) ++slots_naming[p];
    return slots_naming;
  };
  for (const auto& [p, weight] : weigh(schedule.receive_index().subspan(first, end - first))) {
    schedule.receive_pool()[p].for_each([&](std::size_t v) { out.listen[v] += weight; });
  }
  for (const auto& [p, weight] : weigh(schedule.transmit_index().subspan(first, end - first))) {
    schedule.transmit_pool()[p].for_each([&](std::size_t v) { out.transmit[v] += weight; });
  }
  const std::span<const std::uint32_t> r_of = schedule.receive_index();
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> pairs;
  for (std::size_t i = first + 1; i < end; ++i) {
    if (r_of[i - 1] != r_of[i]) ++pairs[{r_of[i - 1], r_of[i]}];
  }
  for (const auto& [pair, weight] : pairs) {
    const util::SlotSet& before = schedule.receive_pool()[pair.first];
    schedule.receive_pool()[pair.second].for_each([&](std::size_t v) {
      if (!before.test(v)) out.wakes[v] += weight;
    });
  }
  return out;
}

/// What Construct (Figure 2) makes of the base schedule's receive sides
/// R[i] under the caps αT* and αR, for tests that must cover each kind of
/// block: some base slot padded (line 8: 0 < |R[i]| < αR, so k_T one-slot
/// blocks), the most windows any R[i] splits into, and whether some base
/// slot stacks k_T ≥ 2 rows of k_R ≥ 2 windows.
struct ConstructBlocks {
  bool padded = false;
  std::size_t max_windows = 0;
  bool stacked = false;
};

inline ConstructBlocks construct_blocks(const Schedule& base, std::size_t cap_t,
                                        std::size_t alpha_r) {
  ConstructBlocks blocks;
  for (std::size_t i = 0; i < base.frame_length(); ++i) {
    const std::size_t t = base.transmit_sizes()[i];
    const std::size_t r = base.receive_sizes()[i];
    blocks.padded = blocks.padded || (r > 0 && r < alpha_r);
    blocks.max_windows = std::max(blocks.max_windows, (r + alpha_r - 1) / alpha_r);
    blocks.stacked = blocks.stacked || (t > cap_t && r > alpha_r);
  }
  return blocks;
}

}  // namespace ttdc::core
