// Reference schedule kernels: the differential oracle for word-parallel
// schedule construction (DESIGN.md §5).
//
// reference_transpose() is the per-bit transposition NodeSlots would do
// without util::DynamicBitset::transpose: one single-bit write per
// (slot, member) pair. reference_construct() is the Figure 2 loop
// as first written: it rebuilds the receiver window for every (T_a, R_b)
// pair and pads with a popcount per candidate. Both are slow and obviously
// correct; tests pin the production kernels against them bit for bit, the
// way ScalarOnlyMac pins the simulator's batched pipeline.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/construct.hpp"
#include "core/node_slots.hpp"
#include "core/schedule.hpp"
#include "core/throughput.hpp"
#include "util/bitset.hpp"

namespace ttdc::core {

/// out[c].test(r) == rows[r].test(c), one bit at a time.
inline std::vector<DynamicBitset> reference_transpose(const std::vector<DynamicBitset>& rows,
                                                      std::size_t cols) {
  std::vector<DynamicBitset> out(cols, DynamicBitset(rows.size()));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    rows[r].for_each([&](std::size_t c) { out[c].set(r); });
  }
  return out;
}

/// Everything a Schedule and its NodeSlots view expose, held as plain
/// vectors.
struct ReferenceSchedule {
  std::vector<DynamicBitset> transmit;  // [slot] -> node set
  std::vector<DynamicBitset> receive;   // [slot] -> node set
  std::vector<DynamicBitset> tran;      // [node] -> slot set
  std::vector<DynamicBitset> recv;      // [node] -> slot set
  std::vector<std::size_t> t_sizes;     // [slot] -> |T[slot]|
  std::vector<std::size_t> r_sizes;     // [slot] -> |R[slot]|
};

/// The reference view of the schedule with per-slot sets T and R over n
/// nodes.
inline ReferenceSchedule reference_schedule(std::size_t n, std::vector<DynamicBitset> transmit,
                                            std::vector<DynamicBitset> receive) {
  ReferenceSchedule out{.transmit = std::move(transmit), .receive = std::move(receive)};
  out.tran = reference_transpose(out.transmit, n);
  out.recv = reference_transpose(out.receive, n);
  for (std::size_t i = 0; i < out.transmit.size(); ++i) {
    out.t_sizes.push_back(out.transmit[i].count());
    out.r_sizes.push_back(out.receive[i].count());
  }
  return out;
}

/// Figure 2, lines 3-4: k = ⌈|members|/cap⌉ cyclic windows of
/// min(cap, |members|) members each, as member lists.
inline std::vector<std::vector<std::size_t>> reference_divide(
    const std::vector<std::size_t>& members, std::size_t cap, DivisionPolicy policy) {
  const std::size_t s = members.size();
  if (s == 0) return {};
  const std::size_t size = std::min(cap, s);
  const std::size_t k = (s + cap - 1) / cap;
  std::vector<std::vector<std::size_t>> subsets(k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t start =
        policy == DivisionPolicy::kContiguous ? std::min(j * cap, s - size) : (j * s) / k;
    for (std::size_t t = 0; t < size; ++t) subsets[j].push_back(members[(start + t) % s]);
  }
  return subsets;
}

/// Figure 2 pair by pair: construct_duty_cycled's contract, none of its
/// shortcuts.
inline ReferenceSchedule reference_construct(const Schedule& non_sleeping,
                                             std::size_t degree_bound, std::size_t alpha_t,
                                             std::size_t alpha_r,
                                             const ConstructOptions& options = {}) {
  const std::size_t n = non_sleeping.num_nodes();
  const std::size_t cap_t = options.use_alpha_t_verbatim
                                ? alpha_t
                                : optimal_transmitters_alpha(n, degree_bound, alpha_t);
  std::vector<DynamicBitset> transmit;
  std::vector<DynamicBitset> receive;
  for (std::size_t i = 0; i < non_sleeping.frame_length(); ++i) {
    const auto t_subsets =
        reference_divide(non_sleeping.transmitters(i).to_vector(), cap_t, options.division);
    const auto r_subsets =
        reference_divide(non_sleeping.receivers(i).to_vector(), alpha_r, options.division);
    for (const auto& ta : t_subsets) {
      DynamicBitset tbar(n);
      for (std::size_t v : ta) tbar.set(v);
      for (const auto& rb : r_subsets) {
        DynamicBitset rbar(n);
        for (std::size_t v : rb) rbar.set(v);
        for (std::size_t v = 0; v < n && rbar.count() < alpha_r; ++v) {
          if (!tbar.test(v) && !rbar.test(v)) rbar.set(v);
        }
        transmit.push_back(tbar);
        receive.push_back(std::move(rbar));
      }
    }
  }
  return reference_schedule(n, std::move(transmit), std::move(receive));
}

/// Asserts that `s` equals `ref` on T, R and the cached sizes, and that its
/// NodeSlots view equals `ref` on tran and recv, stopping at the first
/// mismatched set.
inline void expect_matches_reference(const Schedule& s, const ReferenceSchedule& ref) {
  ASSERT_EQ(s.frame_length(), ref.transmit.size());
  ASSERT_EQ(s.num_nodes(), ref.tran.size());
  for (std::size_t i = 0; i < s.frame_length(); ++i) {
    ASSERT_TRUE(s.transmitters(i).to_dense_bitset() == ref.transmit[i]) << "T[" << i << "]";
    ASSERT_TRUE(s.receivers(i).to_dense_bitset() == ref.receive[i]) << "R[" << i << "]";
  }
  const NodeSlots slots(s);
  ASSERT_EQ(slots.num_nodes(), ref.tran.size());
  ASSERT_EQ(slots.frame_length(), ref.transmit.size());
  for (std::size_t x = 0; x < s.num_nodes(); ++x) {
    ASSERT_TRUE(slots.tran(x) == ref.tran[x]) << "tran(" << x << ")";
    ASSERT_TRUE(slots.recv(x) == ref.recv[x]) << "recv(" << x << ")";
  }
  EXPECT_TRUE(std::ranges::equal(s.transmit_sizes(), ref.t_sizes));
  EXPECT_TRUE(std::ranges::equal(s.receive_sizes(), ref.r_sizes));
}

}  // namespace ttdc::core
