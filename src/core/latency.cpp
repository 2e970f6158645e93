#include "core/latency.hpp"

#include <atomic>
#include <limits>
#include <stdexcept>

#include "core/node_slots.hpp"
#include "util/parallel.hpp"
#include "util/subsets.hpp"

namespace ttdc::core {

std::size_t max_circular_gap(const DynamicBitset& slots) {
  const std::size_t first = slots.find_first();
  if (first == slots.size()) return 0;
  std::size_t prev = first;
  std::size_t max_gap = 0;
  for (std::size_t cur = slots.find_next(first); cur != slots.size();
       cur = slots.find_next(cur)) {
    max_gap = std::max(max_gap, cur - prev - 1);
    prev = cur;
  }
  // Wrap-around gap from the last member back to the first.
  max_gap = std::max(max_gap, slots.size() - prev - 1 + first);
  return max_gap;
}

namespace {

void validate(const Schedule& schedule, std::size_t degree_bound) {
  if (degree_bound < 1 || degree_bound + 1 > schedule.num_nodes()) {
    throw std::invalid_argument("latency analysis: need 1 <= D <= n - 1");
  }
}

}  // namespace

std::size_t worst_case_latency_exact(const Schedule& schedule, std::size_t degree_bound) {
  validate(schedule, degree_bound);
  const std::size_t n = schedule.num_nodes();
  const NodeSlots slots(schedule);
  std::atomic<std::size_t> worst{0};
  std::atomic<bool> unbounded{false};
  util::parallel_for(0, n, [&](std::size_t x) {
    DynamicBitset scratch(schedule.frame_length());
    for (std::size_t y = 0; y < n; ++y) {
      if (y == x || unbounded.load(std::memory_order_relaxed)) continue;
      DynamicBitset base = slots.tran(x) & slots.recv(y);
      base.subtract(slots.tran(y));
      std::vector<std::size_t> pool;
      pool.reserve(n - 2);
      for (std::size_t v = 0; v < n; ++v) {
        if (v != x && v != y) pool.push_back(v);
      }
      util::for_each_k_subset(
          pool.size(), degree_bound - 1, [&](std::span<const std::size_t> idx) {
            scratch = base;
            for (std::size_t i : idx) scratch.subtract(slots.tran(pool[i]));
            if (scratch.none()) {
              unbounded.store(true, std::memory_order_relaxed);
              return false;
            }
            const std::size_t gap = max_circular_gap(scratch);
            std::size_t cur = worst.load(std::memory_order_relaxed);
            while (gap > cur &&
                   !worst.compare_exchange_weak(cur, gap, std::memory_order_relaxed)) {
            }
            return true;
          });
    }
  });
  if (unbounded.load()) return std::numeric_limits<std::size_t>::max();
  return worst.load();
}

std::size_t worst_case_latency_sampled(const Schedule& schedule, std::size_t degree_bound,
                                       std::size_t trials, util::Xoshiro256& rng) {
  validate(schedule, degree_bound);
  const std::size_t n = schedule.num_nodes();
  const NodeSlots slots(schedule);
  std::size_t worst = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const std::size_t x = static_cast<std::size_t>(rng.below(n));
    std::size_t y = static_cast<std::size_t>(rng.below(n - 1));
    if (y >= x) ++y;
    auto s = util::sample_k_of(n - 2, degree_bound - 1, rng);
    const std::size_t lo = std::min(x, y), hi = std::max(x, y);
    for (auto& v : s) {
      if (v >= lo) ++v;
      if (v >= hi) ++v;
    }
    const DynamicBitset guaranteed = slots.guaranteed_slots(x, y, s);
    if (guaranteed.none()) return std::numeric_limits<std::size_t>::max();
    worst = std::max(worst, max_circular_gap(guaranteed));
  }
  return worst;
}

std::size_t multi_hop_latency_bound(std::size_t single_hop_bound, std::size_t hops) {
  if (single_hop_bound == std::numeric_limits<std::size_t>::max()) {
    return std::numeric_limits<std::size_t>::max();
  }
  return hops * (single_hop_bound + 1);
}

}  // namespace ttdc::core
