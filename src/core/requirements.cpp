#include "core/requirements.hpp"

#include <atomic>
#include <cassert>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "core/node_slots.hpp"
#include "util/parallel.hpp"
#include "util/subsets.hpp"

namespace ttdc::core {

std::string TransparencyViolation::to_string() const {
  std::ostringstream os;
  os << "transmitter " << transmitter;
  if (receiver != npos) os << " -> receiver " << receiver;
  os << " blocked by neighborhood {";
  for (std::size_t i = 0; i < neighborhood.size(); ++i) {
    if (i) os << ", ";
    os << neighborhood[i];
  }
  os << '}';
  return os.str();
}

namespace {

void validate_bounds(std::size_t n, std::size_t degree_bound) {
  if (degree_bound < 1 || degree_bound + 1 > n) {
    throw std::invalid_argument("requirement check: need 1 <= D <= n - 1");
  }
}

// Recursive enumeration of D-subsets Y of V - {x} with a prefix-union stack
// of transmit-slot sets; prunes whole subtrees once tran(x) is covered.
//
// At each leaf:  mode Req1 -> violation iff free == ∅;
//                mode Req3 -> additionally every chosen y_k must have
//                             recv(y_k) ∩ free != ∅.
enum class Mode { kReq1, kReq3 };

// The enumeration's scratch, kept per thread across x and across calls.
// Allocated per x, its chunks would be recycled among the NodeSlots words
// each call allocates, and the calling thread's writes would then share
// cache lines with the sets every other thread reads.
struct EnumScratch {
  std::vector<std::size_t> chosen;
  // union_stack[d] = tran(y_0) | ... | tran(y_{d-1}); union_stack[0] = ∅
  // (only entries 1..degree are ever written).
  std::vector<DynamicBitset> union_stack;
};

EnumScratch& enum_scratch(std::size_t degree, std::size_t frame_length) {
  static thread_local EnumScratch scratch;
  scratch.chosen.clear();
  if (scratch.union_stack.size() != degree + 1 ||
      scratch.union_stack[0].size() != frame_length) {
    scratch.union_stack.assign(degree + 1, DynamicBitset(frame_length));
  }
  return scratch;
}

struct EnumCtx {
  const NodeSlots& slots;
  std::size_t x;
  std::size_t degree;
  Mode mode;
  std::optional<TransparencyViolation>& out;
  std::vector<std::size_t>& chosen;
  std::vector<DynamicBitset>& union_stack;

  EnumCtx(const NodeSlots& s, std::size_t x_, std::size_t degree_, Mode mode_,
          std::optional<TransparencyViolation>& out_, EnumScratch& scratch)
      : slots(s),
        x(x_),
        degree(degree_),
        mode(mode_),
        out(out_),
        chosen(scratch.chosen),
        union_stack(scratch.union_stack) {}

  // Fills chosen up to `degree` members drawn from [first, n) \ {x}.
  // Returns true if a violation was found (stop everything).
  bool recurse(std::size_t first, std::size_t depth) {
    const std::size_t n = slots.num_nodes();
    if (depth == degree) {
      return evaluate_leaf();
    }
    // Prune: if tran(x) is already covered, any completion of Y violates
    // condition (1); fill with arbitrary remaining nodes and report.
    if (!slots.tran(x).has_member_outside(union_stack[depth])) {
      std::vector<std::size_t> filled = chosen;
      for (std::size_t v = 0; v < n && filled.size() < degree; ++v) {
        if (v == x) continue;
        bool already = false;
        for (std::size_t c : filled) {
          if (c == v) {
            already = true;
            break;
          }
        }
        if (!already) filled.push_back(v);
      }
      out = TransparencyViolation{x, TransparencyViolation::npos, std::move(filled)};
      return true;
    }
    const std::size_t remaining_needed = degree - depth;
    for (std::size_t v = first; v < n; ++v) {
      if (v == x) continue;
      // Feasibility: v plus the candidates after it (excluding x if it lies
      // ahead) must be able to supply the remaining picks.
      std::size_t ahead = n - v - 1;
      if (x > v) --ahead;
      if (ahead + 1 < remaining_needed) break;
      chosen.push_back(v);
      union_stack[depth + 1] = union_stack[depth];
      union_stack[depth + 1] |= slots.tran(v);
      if (recurse(v + 1, depth + 1)) return true;
      chosen.pop_back();
    }
    return false;
  }

  bool evaluate_leaf() {
    const DynamicBitset& covered = union_stack[degree];
    const DynamicBitset& tx = slots.tran(x);
    if (!tx.has_member_outside(covered)) {
      out = TransparencyViolation{x, TransparencyViolation::npos, chosen};
      return true;
    }
    if (mode == Mode::kReq3) {
      for (std::size_t yk : chosen) {
        // recv(y_k) ∩ tran(x) ∩ ¬covered must be non-empty.
        if (!slots.recv(yk).any_and_andnot(tx, covered)) {
          out = TransparencyViolation{x, yk, chosen};
          return true;
        }
      }
    }
    return false;
  }
};

std::optional<TransparencyViolation> check_exact(const NodeSlots& slots,
                                                 std::size_t degree_bound, Mode mode) {
  const std::size_t n = slots.num_nodes();
  validate_bounds(n, degree_bound);
  std::optional<TransparencyViolation> result;
  std::mutex result_mutex;
  std::atomic<bool> found{false};

  util::parallel_for(0, n, [&](std::size_t x) {
    if (found.load(std::memory_order_relaxed)) return;
    std::optional<TransparencyViolation> local;
    EnumCtx ctx(slots, x, degree_bound, mode, local,
                enum_scratch(degree_bound, slots.frame_length()));
    ctx.recurse(0, 0);
    if (local) {
      std::lock_guard lock(result_mutex);
      if (!result) result = std::move(local);
      found.store(true, std::memory_order_relaxed);
    }
  });
  return result;
}

}  // namespace

std::optional<TransparencyViolation> check_requirement1_exact(const Schedule& schedule,
                                                              std::size_t degree_bound) {
  return check_exact(NodeSlots(schedule), degree_bound, Mode::kReq1);
}

std::optional<TransparencyViolation> check_requirement3_exact(const Schedule& schedule,
                                                              std::size_t degree_bound) {
  return check_exact(NodeSlots(schedule), degree_bound, Mode::kReq3);
}

std::optional<TransparencyViolation> check_requirement2_exact(const Schedule& schedule,
                                                              std::size_t degree_bound) {
  const std::size_t n = schedule.num_nodes();
  validate_bounds(n, degree_bound);
  const NodeSlots slots(schedule);
  // Literal transcription: for every ordered pair (x, y) and every
  // (D-1)-subset {y_1..y_{D-1}} of V - {x, y}, require
  // ∪ σ(y_i, y) ⊉ σ(x, y). Checking only d = D-1 suffices: unions grow
  // monotonically with the set, so a violating smaller set extends to a
  // violating (D-1)-set (V has at least D+1 nodes by validate_bounds).
  std::optional<TransparencyViolation> result;
  std::mutex result_mutex;
  std::atomic<bool> found{false};

  util::parallel_for(0, n, [&](std::size_t x) {
    if (found.load(std::memory_order_relaxed)) return;
    for (std::size_t y = 0; y < n && !found.load(std::memory_order_relaxed); ++y) {
      if (y == x) continue;
      const DynamicBitset sigma_xy = slots.sigma(x, y);
      // Pool = V - {x, y}.
      std::vector<std::size_t> pool;
      pool.reserve(n - 2);
      for (std::size_t v = 0; v < n; ++v) {
        if (v != x && v != y) pool.push_back(v);
      }
      DynamicBitset cover(schedule.frame_length());
      util::for_each_k_subset(pool.size(), degree_bound - 1,
                              [&](std::span<const std::size_t> idx) {
                                cover.reset_all();
                                for (std::size_t i : idx) {
                                  cover |= slots.sigma(pool[i], y);
                                }
                                if (sigma_xy.is_subset_of(cover)) {
                                  std::vector<std::size_t> nbrs;
                                  nbrs.reserve(idx.size());
                                  for (std::size_t i : idx) nbrs.push_back(pool[i]);
                                  std::lock_guard lock(result_mutex);
                                  if (!result) result = TransparencyViolation{x, y, nbrs};
                                  found.store(true, std::memory_order_relaxed);
                                  return false;
                                }
                                return true;
                              });
    }
  });
  return result;
}

std::optional<TransparencyViolation> check_requirement3_sampled(const Schedule& schedule,
                                                                std::size_t degree_bound,
                                                                std::size_t trials,
                                                                util::Xoshiro256& rng) {
  const std::size_t n = schedule.num_nodes();
  validate_bounds(n, degree_bound);
  const NodeSlots slots(schedule);
  DynamicBitset covered(schedule.frame_length());
  for (std::size_t t = 0; t < trials; ++t) {
    const std::size_t x = static_cast<std::size_t>(rng.below(n));
    std::vector<std::size_t> y = util::sample_k_of(n - 1, degree_bound, rng);
    for (auto& v : y) {
      if (v >= x) ++v;
    }
    covered.reset_all();
    for (std::size_t v : y) covered |= slots.tran(v);
    const DynamicBitset& tx = slots.tran(x);
    if (!tx.has_member_outside(covered)) {
      return TransparencyViolation{x, TransparencyViolation::npos, std::move(y)};
    }
    for (std::size_t yk : y) {
      if (!slots.recv(yk).any_and_andnot(tx, covered)) {
        return TransparencyViolation{x, yk, y};
      }
    }
  }
  return std::nullopt;
}

bool is_topology_transparent(const Schedule& schedule, std::size_t degree_bound) {
  return !check_requirement3_exact(schedule, degree_bound).has_value();
}

std::size_t requirement1_certificate_degree(const Schedule& schedule) {
  const std::size_t n = schedule.num_nodes();
  if (n < 2) return 0;
  const NodeSlots slots(schedule);
  std::size_t w = schedule.frame_length() + 1;
  for (std::size_t x = 0; x < n; ++x) w = std::min(w, slots.tran(x).count());
  if (w == 0) return 0;
  std::size_t lambda = 0;
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = x + 1; y < n; ++y) {
      lambda = std::max(lambda, slots.tran(x).intersection_count(slots.tran(y)));
    }
  }
  if (lambda == 0) return n - 1;
  return (w - 1) / lambda;
}

std::size_t max_transparent_degree_exact(const Schedule& schedule, std::size_t max_degree) {
  max_degree = std::min(max_degree, schedule.num_nodes() - 1);
  const NodeSlots slots(schedule);
  std::size_t best = 0;
  for (std::size_t d = 1; d <= max_degree; ++d) {
    if (check_exact(slots, d, Mode::kReq3)) break;
    best = d;
  }
  return best;
}

}  // namespace ttdc::core
