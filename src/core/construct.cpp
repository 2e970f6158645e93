#include "core/construct.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/throughput.hpp"
#include "obs/profile.hpp"
#include "util/check.hpp"

namespace ttdc::core {

namespace {

// Divides `set` into k = ⌈|set|/cap⌉ subsets of size exactly
// min(cap, |set|) whose union is `set` (Figure 2, lines 3-4), each returned
// as a set over the same universe. Subsets are cyclic windows over the
// sorted member list; the two policies differ only in where the windows
// start.
std::vector<util::SlotSet> divide(const util::SlotSet& set, std::size_t cap,
                                  DivisionPolicy policy) {
  TTDC_DCHECK(cap >= 1, "divide() with zero cap");
  const std::vector<std::size_t> members = set.to_vector();
  const std::size_t s = members.size();
  if (s == 0) return {};
  const std::size_t size = std::min(cap, s);
  const std::size_t k = (s + cap - 1) / cap;
  std::vector<util::SlotSet> subsets;
  subsets.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    std::size_t start = 0;
    switch (policy) {
      case DivisionPolicy::kContiguous:
        // The last window is shifted back to end at the last member, so it
        // overlaps the one before it when s is not a multiple of cap.
        start = std::min(j * cap, s - size);
        break;
      case DivisionPolicy::kBalanced:
        // Evenly spread starts; consecutive starts differ by <= size, so the
        // windows cover every member, with multiplicities differing by <= 1.
        start = (j * s) / k;
        break;
    }
    // In increasing order, a window that wraps past the last member is its
    // wrapped head members[0, wrap) followed by members[start, end).
    const std::size_t end = std::min(s, start + size);
    const std::size_t wrap = start + size - end;
    std::vector<std::uint32_t> window;
    window.reserve(size);
    for (std::size_t t = 0; t < wrap; ++t) window.push_back(static_cast<std::uint32_t>(members[t]));
    for (std::size_t t = start; t < end; ++t) window.push_back(static_cast<std::uint32_t>(members[t]));
    subsets.emplace_back(set.size(), std::move(window));
  }
  return subsets;
}

}  // namespace

Schedule construct_duty_cycled(const Schedule& non_sleeping, std::size_t degree_bound,
                               std::size_t alpha_t, std::size_t alpha_r,
                               const ConstructOptions& options) {
  TTDC_PROF_SCOPE("core.construct_duty_cycled");
  const std::size_t n = non_sleeping.num_nodes();
  if (!non_sleeping.is_non_sleeping()) {
    throw std::invalid_argument("construct_duty_cycled: input must be non-sleeping");
  }
  if (alpha_t < 1 || alpha_r < 1 || alpha_t + alpha_r > n) {
    throw std::invalid_argument("construct_duty_cycled: need 1 <= αT, αR and αT + αR <= n");
  }
  const std::size_t cap_t = options.use_alpha_t_verbatim
                                ? alpha_t
                                : optimal_transmitters_alpha(n, degree_bound, alpha_t);

  // Each window becomes a util::SlotSet once and goes into a pool; every
  // (T̄_a, R̄_b) pair is a slot indexing the pools, emitted in (a, b) order.
  // A window shared by many pairs is stored once, a T̄_a of αT* ids as a
  // short id list, and no dense copy of the output T is ever held.
  const std::size_t out_len = constructed_frame_length(non_sleeping, cap_t, alpha_r);
  if (out_len > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("construct_duty_cycled: frame length exceeds 2^32 slots");
  }
  std::vector<util::SlotSet> t_pool;
  std::vector<util::SlotSet> r_pool;
  std::vector<std::uint32_t> t_of;
  std::vector<std::uint32_t> r_of;
  t_of.reserve(out_len);
  r_of.reserve(out_len);
  const auto next_index = [](const std::vector<util::SlotSet>& pool) {
    return static_cast<std::uint32_t>(pool.size());
  };
  for (std::size_t i = 0; i < non_sleeping.frame_length(); ++i) {
    auto t_windows = divide(non_sleeping.transmitters(i), cap_t, options.division);
    auto r_windows = divide(non_sleeping.receivers(i), alpha_r, options.division);
    const std::size_t k_r = r_windows.size();
    const bool pad = non_sleeping.receive_sizes()[i] < alpha_r;
    const std::uint32_t first_r = next_index(r_pool);
    if (!pad) {
      for (util::SlotSet& rbar : r_windows) r_pool.push_back(std::move(rbar));
    }
    for (util::SlotSet& tbar : t_windows) {
      const std::uint32_t t = next_index(t_pool);
      if (!pad) {
        for (std::size_t b = 0; b < k_r; ++b) {
          t_of.push_back(t);
          r_of.push_back(first_r + static_cast<std::uint32_t>(b));
        }
      } else {
        // Line 8: |R[i]| < αR, so R[i] is the only receiver window; pad it
        // up to αR from V - T̄[k], lowest ids first. Feasible because
        // |T̄[k]| <= αT and αT + αR <= n. The padding runs on bitsets:
        // inserting into a sorted id list would shift it per padded id.
        const DynamicBitset t_bits = tbar.to_dense_bitset();
        for (const util::SlotSet& rbar : r_windows) {
          DynamicBitset padded = rbar.to_dense_bitset();
          for (std::size_t v = 0, size = rbar.count(); v < n && size < alpha_r; ++v) {
            if (!t_bits.test(v) && !padded.test(v)) {
              padded.set(v);
              ++size;
            }
          }
          TTDC_DCHECK(padded.count() == alpha_r, "receiver padding fell short: ",
                      padded.count(), " < alpha_r = ", alpha_r);
          t_of.push_back(t);
          r_of.push_back(next_index(r_pool));
          r_pool.emplace_back(n).copy_from(padded);
        }
      }
      t_pool.push_back(std::move(tbar));
    }
  }
  return Schedule(n, std::move(t_pool), std::move(t_of), std::move(r_pool), std::move(r_of));
}

std::size_t constructed_frame_length(const Schedule& non_sleeping, std::size_t alpha_t_star,
                                     std::size_t alpha_r) {
  const std::size_t n = non_sleeping.num_nodes();
  std::size_t total = 0;
  for (std::size_t i = 0; i < non_sleeping.frame_length(); ++i) {
    const std::size_t t = non_sleeping.transmit_sizes()[i];
    const std::size_t r = n - t;
    const std::size_t kt = t == 0 ? 0 : (t + alpha_t_star - 1) / alpha_t_star;
    const std::size_t kr = r == 0 ? 0 : (r + alpha_r - 1) / alpha_r;
    total += kt * kr;
  }
  return total;
}

std::size_t constructed_frame_length_bound(const Schedule& non_sleeping,
                                           std::size_t alpha_t_star, std::size_t alpha_r) {
  const std::size_t n = non_sleeping.num_nodes();
  const std::size_t max_t = non_sleeping.max_transmitters();
  const std::size_t min_t = non_sleeping.min_transmitters();
  const std::size_t kt = (max_t + alpha_t_star - 1) / alpha_t_star;
  const std::size_t kr = (n - min_t + alpha_r - 1) / alpha_r;
  return kt * kr * non_sleeping.frame_length();
}

namespace {

// The Theorem 8 body after αT* and r(M_in) are resolved; shared by the
// direct and memoized overloads (which differ only in how they resolve
// those two quantities).
long double theorem8_from_cap(const Schedule& non_sleeping, std::size_t cap_t,
                              std::size_t alpha_r, long double r_min) {
  const std::size_t n = non_sleeping.num_nodes();
  const std::size_t min_t = non_sleeping.min_transmitters();
  std::size_t a1 = 0, a2 = 0;
  for (std::size_t t : non_sleeping.transmit_sizes()) {
    (t < cap_t ? a1 : a2) += 1;
  }
  if (a1 == 0) return 1.0L;  // M_in >= αT*: the construction is optimal
  const std::size_t alpha_m = std::max(cap_t, alpha_r);
  const std::size_t numer_c = (n + alpha_m - 1) / alpha_m;  // ⌈n/α_m⌉
  const std::size_t denom_c = (n - min_t + alpha_r - 1) / alpha_r;
  const long double c =
      static_cast<long double>(numer_c - 1) / static_cast<long double>(denom_c);
  return (r_min * static_cast<long double>(a1) + c * static_cast<long double>(a2)) /
         (static_cast<long double>(a1) + c * static_cast<long double>(a2));
}

}  // namespace

long double theorem8_ratio_lower_bound(const Schedule& non_sleeping, std::size_t degree_bound,
                                       std::size_t alpha_t, std::size_t alpha_r) {
  const std::size_t n = non_sleeping.num_nodes();
  const std::size_t cap_t = optimal_transmitters_alpha(n, degree_bound, alpha_t);
  const long double r_min =
      optimality_ratio_r(n, degree_bound, alpha_t, non_sleeping.min_transmitters());
  return theorem8_from_cap(non_sleeping, cap_t, alpha_r, r_min);
}

long double theorem8_ratio_lower_bound(const Schedule& non_sleeping,
                                       const ThroughputTables& tables, std::size_t alpha_t,
                                       std::size_t alpha_r) {
  const std::size_t cap_t = tables.alpha_star(alpha_t);
  const long double r_min =
      optimality_ratio_r(tables, alpha_t, non_sleeping.min_transmitters());
  return theorem8_from_cap(non_sleeping, cap_t, alpha_r, r_min);
}

long double theorem9_min_throughput_bound(const Schedule& non_sleeping,
                                          std::size_t min_guaranteed_slots_of_t,
                                          std::size_t alpha_t_star, std::size_t alpha_r) {
  const std::size_t lbar = constructed_frame_length(non_sleeping, alpha_t_star, alpha_r);
  if (lbar == 0) return 0.0L;
  return static_cast<long double>(min_guaranteed_slots_of_t) / static_cast<long double>(lbar);
}

}  // namespace ttdc::core
