#include "core/throughput.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "core/node_slots.hpp"
#include "util/parallel.hpp"
#include "util/subsets.hpp"

namespace ttdc::core {

using util::binomial_exact;
using util::binomial_ld;
using util::checked_add;
using util::checked_mul;
using util::u128;

namespace {

void validate(std::size_t n, std::size_t degree_bound) {
  if (degree_bound < 1 || degree_bound + 1 > n) {
    throw std::invalid_argument("throughput analysis: need 1 <= D <= n - 1");
  }
}

}  // namespace

bool ExactFraction::equals(const ExactFraction& other) const {
  return checked_mul(num, other.den) == checked_mul(other.num, den);
}

long double g_value(std::size_t n, std::size_t degree_bound, std::size_t x) {
  validate(n, degree_bound);
  if (x >= n) return 0.0L;
  return static_cast<long double>(x) * binomial_ld(n - x, degree_bound) /
         (static_cast<long double>(n) * binomial_ld(n - 1, degree_bound));
}

std::size_t g_argmax(std::size_t n, std::size_t degree_bound) {
  validate(n, degree_bound);
  // Property (2): the maximum is at floor or ceil of (n-D)/(D+1); compare
  // x C(n-x, D) exactly at the two candidates.
  const std::size_t lo = (n - degree_bound) / (degree_bound + 1);
  const std::size_t hi = (n - degree_bound + degree_bound) / (degree_bound + 1) ==
                                 lo  // ceil
                             ? lo
                             : lo + 1;
  auto weight = [&](std::size_t x) -> u128 {
    if (x == 0 || x >= n) return 0;
    return checked_mul(x, binomial_exact(n - x, degree_bound));
  };
  const std::size_t lo_c = std::max<std::size_t>(lo, 1);
  if (weight(lo_c) >= weight(hi)) return lo_c;
  return hi;
}

ThroughputTables::ThroughputTables(std::size_t n, std::size_t degree_bound)
    : n_(n), d_(degree_bound), binom_(n, degree_bound) {
  validate(n, degree_bound);
  g_.resize(n + 1);
  for (std::size_t x = 0; x <= n; ++x) g_[x] = g_value(n, degree_bound, x);
  alpha_star_general_ = optimal_transmitters_general(n, degree_bound);
  alpha_cap_ = optimal_transmitters_alpha(n, degree_bound);
}

long double ThroughputTables::thm4_bound(std::size_t alpha_t, std::size_t alpha_r) const {
  // Same expression as throughput_upper_bound_alpha, with the binomials
  // read from the memo (identical long-double values, identical result).
  const std::size_t a = alpha_star(alpha_t);
  return static_cast<long double>(alpha_r) * static_cast<long double>(a) *
         binom_.ld(n_ - a - 1, d_ - 1) /
         (static_cast<long double>(n_) * static_cast<long double>(n_ - 1) *
          binom_.ld(n_ - 2, d_ - 1));
}

ExactFraction average_throughput_exact(const Schedule& schedule, std::size_t degree_bound) {
  const std::size_t n = schedule.num_nodes();
  validate(n, degree_bound);
  const std::size_t L = schedule.frame_length();
  u128 f = 0;
  for (std::size_t i = 0; i < L; ++i) {
    const std::size_t t = schedule.transmit_sizes()[i];
    const std::size_t r = schedule.receive_sizes()[i];
    if (t == 0 || r == 0) continue;
    if (n < t + 1) continue;  // C(n-t-1, D-1) with n-t-1 < 0 cannot happen (r >= 1)
    const u128 ways = binomial_exact(n - t - 1, degree_bound - 1);
    f = checked_add(f, checked_mul(checked_mul(t, r), ways));
  }
  ExactFraction out;
  out.num = f;
  out.den = checked_mul(
      checked_mul(checked_mul(static_cast<u128>(n), n - 1),
                  binomial_exact(n - 2, degree_bound - 1)),
      L);
  return out;
}

long double average_throughput(const Schedule& schedule, std::size_t degree_bound) {
  const std::size_t n = schedule.num_nodes();
  validate(n, degree_bound);
  const std::size_t L = schedule.frame_length();
  const long double log_den = std::log(static_cast<long double>(n)) +
                              std::log(static_cast<long double>(n - 1)) +
                              util::log_binomial(n - 2, degree_bound - 1);
  long double total = 0.0L;
  for (std::size_t i = 0; i < L; ++i) {
    const std::size_t t = schedule.transmit_sizes()[i];
    const std::size_t r = schedule.receive_sizes()[i];
    if (t == 0 || r == 0 || n - t < 1) continue;
    const long double log_term = std::log(static_cast<long double>(t)) +
                                 std::log(static_cast<long double>(r)) +
                                 util::log_binomial(n - t - 1, degree_bound - 1);
    total += std::exp(log_term - log_den);
  }
  return total / static_cast<long double>(L);
}

long double average_throughput(const Schedule& schedule, const ThroughputTables& tables) {
  const std::size_t n = schedule.num_nodes();
  const std::size_t degree_bound = tables.degree_bound();
  if (n != tables.n()) {
    throw std::invalid_argument("average_throughput: memo tables built for a different n");
  }
  validate(n, degree_bound);
  const std::size_t L = schedule.frame_length();
  const long double log_den = std::log(static_cast<long double>(n)) +
                              std::log(static_cast<long double>(n - 1)) +
                              tables.binomials().log(n - 2, degree_bound - 1);
  long double total = 0.0L;
  for (std::size_t i = 0; i < L; ++i) {
    const std::size_t t = schedule.transmit_sizes()[i];
    const std::size_t r = schedule.receive_sizes()[i];
    if (t == 0 || r == 0 || n - t < 1) continue;
    const long double log_term = std::log(static_cast<long double>(t)) +
                                 std::log(static_cast<long double>(r)) +
                                 tables.binomials().log(n - t - 1, degree_bound - 1);
    total += std::exp(log_term - log_den);
  }
  return total / static_cast<long double>(L);
}

ExactFraction average_throughput_bruteforce(const Schedule& schedule,
                                            std::size_t degree_bound) {
  const std::size_t n = schedule.num_nodes();
  validate(n, degree_bound);
  const std::size_t L = schedule.frame_length();
  const NodeSlots slots(schedule);

  std::atomic<std::uint64_t> total{0};
  util::parallel_for(0, n, [&](std::size_t x) {
    std::uint64_t local = 0;
    for (std::size_t y = 0; y < n; ++y) {
      if (y == x) continue;
      // Base: slots where x may transmit, y may receive, y not transmitting.
      DynamicBitset base = slots.tran(x) & slots.recv(y);
      base.subtract(slots.tran(y));
      std::vector<std::size_t> pool;
      pool.reserve(n - 2);
      for (std::size_t v = 0; v < n; ++v) {
        if (v != x && v != y) pool.push_back(v);
      }
      DynamicBitset scratch(L);
      util::for_each_k_subset(pool.size(), degree_bound - 1,
                              [&](std::span<const std::size_t> idx) {
                                scratch = base;
                                for (std::size_t i : idx) {
                                  scratch.subtract(slots.tran(pool[i]));
                                }
                                local += scratch.count();
                                return true;
                              });
    }
    total.fetch_add(local, std::memory_order_relaxed);
  });

  ExactFraction out;
  out.num = total.load();
  out.den = checked_mul(
      checked_mul(checked_mul(static_cast<u128>(n), n - 1),
                  binomial_exact(n - 2, degree_bound - 1)),
      L);
  return out;
}

std::size_t optimal_transmitters_general(std::size_t n, std::size_t degree_bound) {
  validate(n, degree_bound);
  // Theorem 3: floor vs ceil of (n-D)/(D+1) by exact comparison of
  // x C(n-x, D).
  const std::size_t fl = (n - degree_bound) / (degree_bound + 1);
  const std::size_t ce = (n - degree_bound + degree_bound) / (degree_bound + 1);
  const std::size_t fl_c = std::max<std::size_t>(fl, 1);
  if (fl_c == ce) return fl_c;
  const u128 wf = checked_mul(fl_c, binomial_exact(n - fl_c, degree_bound));
  const u128 wc = checked_mul(ce, binomial_exact(n - ce, degree_bound));
  return wf >= wc ? fl_c : ce;
}

long double throughput_upper_bound_general(std::size_t n, std::size_t degree_bound) {
  const std::size_t a = optimal_transmitters_general(n, degree_bound);
  return g_value(n, degree_bound, a);
}

long double throughput_upper_bound_general_loose(std::size_t n, std::size_t degree_bound) {
  validate(n, degree_bound);
  const long double nd = static_cast<long double>(n);
  const long double d = static_cast<long double>(degree_bound);
  return nd * std::pow(d, d) / ((nd - d) * std::pow(d + 1.0L, d + 1.0L));
}

std::size_t optimal_transmitters_alpha(std::size_t n, std::size_t degree_bound) {
  validate(n, degree_bound);
  // Theorem 4: α maximizes x C(n-x-1, D-1); candidates floor/ceil (n-D)/D.
  const std::size_t fl = (n - degree_bound) / degree_bound;
  const std::size_t ce = (n - degree_bound + degree_bound - 1) / degree_bound;
  const std::size_t fl_c = std::max<std::size_t>(fl, 1);
  auto weight = [&](std::size_t x) -> u128 {
    if (x == 0 || x + 1 > n) return 0;
    return checked_mul(x, binomial_exact(n - x - 1, degree_bound - 1));
  };
  if (fl_c == ce) return fl_c;
  return weight(fl_c) >= weight(ce) ? fl_c : ce;
}

std::size_t optimal_transmitters_alpha(std::size_t n, std::size_t degree_bound,
                                       std::size_t alpha_t) {
  return std::min(alpha_t, optimal_transmitters_alpha(n, degree_bound));
}

long double throughput_upper_bound_alpha(std::size_t n, std::size_t degree_bound,
                                         std::size_t alpha_t, std::size_t alpha_r) {
  validate(n, degree_bound);
  const std::size_t a = optimal_transmitters_alpha(n, degree_bound, alpha_t);
  return static_cast<long double>(alpha_r) * static_cast<long double>(a) *
         binomial_ld(n - a - 1, degree_bound - 1) /
         (static_cast<long double>(n) * static_cast<long double>(n - 1) *
          binomial_ld(n - 2, degree_bound - 1));
}

long double throughput_upper_bound_alpha_loose(std::size_t n, std::size_t degree_bound,
                                               std::size_t alpha_r) {
  validate(n, degree_bound);
  const long double nd = static_cast<long double>(n);
  const long double d = static_cast<long double>(degree_bound);
  const long double dd_pow = std::pow(d, d);
  const long double dm1_pow = degree_bound == 1 ? 1.0L : std::pow(d - 1.0L, d - 1.0L);
  return static_cast<long double>(alpha_r) * (nd - 1.0L) * dm1_pow / (nd * (nd - d) * dd_pow);
}

long double optimality_ratio_r(std::size_t n, std::size_t degree_bound, std::size_t alpha_t,
                               std::size_t x) {
  validate(n, degree_bound);
  const std::size_t opt = optimal_transmitters_alpha(n, degree_bound, alpha_t);
  long double r = static_cast<long double>(x) / static_cast<long double>(opt);
  for (std::size_t i = 1; i < degree_bound; ++i) {
    r *= static_cast<long double>(n - i - x) / static_cast<long double>(n - i - opt);
  }
  return r;
}

long double optimality_ratio_r(const ThroughputTables& tables, std::size_t alpha_t,
                               std::size_t x) {
  const std::size_t n = tables.n();
  const std::size_t degree_bound = tables.degree_bound();
  const std::size_t opt = tables.alpha_star(alpha_t);
  long double r = static_cast<long double>(x) / static_cast<long double>(opt);
  for (std::size_t i = 1; i < degree_bound; ++i) {
    r *= static_cast<long double>(n - i - x) / static_cast<long double>(n - i - opt);
  }
  return r;
}

namespace {

// Adversarial minimization of |T(x, y, S)| over S (|S| = D-1) for fixed
// (x, y), by recursion with pruning: the base set only shrinks, so a branch
// whose current count <= best known min can stop refining only when it
// reaches depth; a branch that hits 0 is globally minimal.
struct MinCtx {
  const NodeSlots& slots;
  std::size_t x, y;
  std::size_t depth_needed;
  std::size_t best;  // running global best (upper bound)

  std::vector<std::size_t> pool;
  DynamicBitset base;

  MinCtx(const NodeSlots& s, std::size_t x_, std::size_t y_, std::size_t d,
         std::size_t initial_best)
      : slots(s), x(x_), y(y_), depth_needed(d - 1), best(initial_best),
        base(s.frame_length()) {
    const std::size_t n = s.num_nodes();
    pool.reserve(n - 2);
    for (std::size_t v = 0; v < n; ++v) {
      if (v != x && v != y) pool.push_back(v);
    }
    base = s.tran(x) & s.recv(y);
    base.subtract(s.tran(y));
  }

  // Returns the minimum count reachable from (first, depth, current).
  void recurse(std::size_t first, std::size_t depth, const DynamicBitset& current) {
    if (best == 0) return;
    if (depth == depth_needed) {
      best = std::min(best, current.count());
      return;
    }
    const std::size_t remaining = depth_needed - depth;
    for (std::size_t pi = first; pi + remaining <= pool.size(); ++pi) {
      DynamicBitset next = current;
      next.subtract(slots.tran(pool[pi]));
      recurse(pi + 1, depth + 1, next);
      if (best == 0) return;
    }
  }

  std::size_t run() {
    if (depth_needed > pool.size()) {
      // Not enough other nodes to form S; treat as S = all of them.
      DynamicBitset current = base;
      for (std::size_t v : pool) current.subtract(slots.tran(v));
      return current.count();
    }
    recurse(0, 0, base);
    return best;
  }
};

}  // namespace

std::size_t min_guaranteed_slots_exact(const Schedule& schedule, std::size_t degree_bound) {
  const std::size_t n = schedule.num_nodes();
  validate(n, degree_bound);
  const NodeSlots slots(schedule);
  std::atomic<std::size_t> global_min{std::numeric_limits<std::size_t>::max()};
  util::parallel_for(0, n, [&](std::size_t x) {
    for (std::size_t y = 0; y < n; ++y) {
      if (y == x) continue;
      const std::size_t known = global_min.load(std::memory_order_relaxed);
      if (known == 0) return;
      MinCtx ctx(slots, x, y, degree_bound, known);
      const std::size_t local = ctx.run();
      std::size_t cur = global_min.load(std::memory_order_relaxed);
      while (local < cur &&
             !global_min.compare_exchange_weak(cur, local, std::memory_order_relaxed)) {
      }
    }
  });
  return global_min.load();
}

std::size_t min_guaranteed_slots_greedy(const Schedule& schedule, std::size_t degree_bound) {
  const std::size_t n = schedule.num_nodes();
  validate(n, degree_bound);
  const NodeSlots slots(schedule);
  std::atomic<std::size_t> global_min{std::numeric_limits<std::size_t>::max()};
  util::parallel_for(0, n, [&](std::size_t x) {
    std::size_t local_min = std::numeric_limits<std::size_t>::max();
    for (std::size_t y = 0; y < n; ++y) {
      if (y == x) continue;
      DynamicBitset current = slots.tran(x) & slots.recv(y);
      current.subtract(slots.tran(y));
      std::vector<bool> used(n, false);
      used[x] = used[y] = true;
      for (std::size_t round = 0; round + 1 < degree_bound; ++round) {
        std::size_t best_v = n, best_gain = 0;
        bool any_unused = false;
        for (std::size_t v = 0; v < n; ++v) {
          if (used[v]) continue;
          any_unused = true;
          const std::size_t gain = current.intersection_count(slots.tran(v));
          if (best_v == n || gain > best_gain) {
            best_gain = gain;
            best_v = v;
          }
        }
        if (!any_unused) break;
        used[best_v] = true;
        current.subtract(slots.tran(best_v));
      }
      local_min = std::min(local_min, current.count());
      if (local_min == 0) break;
    }
    std::size_t cur = global_min.load(std::memory_order_relaxed);
    while (local_min < cur &&
           !global_min.compare_exchange_weak(cur, local_min, std::memory_order_relaxed)) {
    }
  });
  return global_min.load();
}

std::size_t min_guaranteed_slots_sampled(const Schedule& schedule, std::size_t degree_bound,
                                         std::size_t trials, util::Xoshiro256& rng) {
  const std::size_t n = schedule.num_nodes();
  validate(n, degree_bound);
  const NodeSlots slots(schedule);
  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (std::size_t t = 0; t < trials && best > 0; ++t) {
    const std::size_t x = static_cast<std::size_t>(rng.below(n));
    std::size_t y = static_cast<std::size_t>(rng.below(n - 1));
    if (y >= x) ++y;
    // Sample S from V - {x, y}.
    std::vector<std::size_t> s = util::sample_k_of(n - 2, degree_bound - 1, rng);
    const std::size_t lo = std::min(x, y), hi = std::max(x, y);
    for (auto& v : s) {
      if (v >= lo) ++v;
      if (v >= hi) ++v;
    }
    best = std::min(best, slots.guaranteed_slot_count(x, y, s));
  }
  return best;
}

}  // namespace ttdc::core
