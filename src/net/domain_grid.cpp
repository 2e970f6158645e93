#include "net/domain_grid.hpp"

#include <algorithm>
#include <cmath>

#include "net/graph.hpp"
#include "net/topology.hpp"

namespace ttdc::net {
namespace {

// Caps the lattice so a degenerate radius (-> 0) cannot allocate an
// unbounded number of cells; 4096^2 cells is far past the point where
// cells hold at most one node each.
constexpr std::size_t kMaxCellsPerAxis = 4096;

double clamp01(double v) { return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v); }

}  // namespace

DomainGrid::DomainGrid(const Positions& pos, double radius) {
  const std::size_t n = pos.x.size();
  // Cell side = 1/cols_ must be >= radius for the 3x3 invariant, so the
  // axis count is at most floor(1/radius). Shrinking cols_ below that only
  // enlarges cells, which keeps the invariant — so the count is further
  // capped by ~2*sqrt(n) (≈4 cells per node; finer buys nothing) and by a
  // hard lattice bound against degenerate radii.
  std::size_t desired = kMaxCellsPerAxis;
  if (radius >= 1.0) {
    desired = 1;
  } else if (radius * static_cast<double>(kMaxCellsPerAxis) > 1.0) {
    // Only here is 1/radius below the lattice bound, so the conversion is
    // in range (a tiny radius would overflow it).
    desired = static_cast<std::size_t>(1.0 / radius);
  }
  const auto occupancy_cap =
      static_cast<std::size_t>(2.0 * std::sqrt(static_cast<double>(n)) + 1.0);
  cols_ = std::max<std::size_t>(
      1, std::min({desired, occupancy_cap, kMaxCellsPerAxis}));
  xs_.resize(n);
  ys_.resize(n);
  cell_of_.resize(n);
  cells_.assign(cols_ * cols_, {});
  for (std::size_t i = 0; i < n; ++i) {
    xs_[i] = clamp01(pos.x[i]);
    ys_[i] = clamp01(pos.y[i]);
    const std::uint32_t cell = bucket(xs_[i], ys_[i]);
    cell_of_[i] = cell;
    cells_[cell].push_back(static_cast<std::uint32_t>(i));
  }
}

std::uint32_t DomainGrid::bucket(double x, double y) const {
  auto axis = [this](double v) {
    auto c = static_cast<std::size_t>(v * static_cast<double>(cols_));
    return std::min(c, cols_ - 1);
  };
  return static_cast<std::uint32_t>(axis(y) * cols_ + axis(x));
}

void DomainGrid::move(std::size_t node, double x, double y) {
  xs_[node] = clamp01(x);
  ys_[node] = clamp01(y);
  const std::uint32_t to = bucket(xs_[node], ys_[node]);
  const std::uint32_t from = cell_of_[node];
  if (to == from) return;
  auto& members = cells_[from];
  const auto it = std::find(members.begin(), members.end(),
                            static_cast<std::uint32_t>(node));
  *it = members.back();  // swap-erase: cell member order is not contractual
  members.pop_back();
  cells_[to].push_back(static_cast<std::uint32_t>(node));
  cell_of_[node] = to;
}

bool DomainGrid::audit_edges(const Graph& g) const {
  for (std::size_t a = 0; a < g.num_nodes(); ++a) {
    bool ok = true;
    const std::size_t ay = cell_of_[a] / cols_;
    const std::size_t ax = cell_of_[a] % cols_;
    g.neighbors(a).for_each([&](std::size_t b) {
      const std::size_t by = cell_of_[b] / cols_;
      const std::size_t bx = cell_of_[b] % cols_;
      const std::size_t dy = ay > by ? ay - by : by - ay;
      const std::size_t dx = ax > bx ? ax - bx : bx - ax;
      if (dx > 1 || dy > 1) ok = false;
    });
    if (!ok) return false;
  }
  return true;
}

std::size_t DomainGrid::max_occupancy() const {
  std::size_t best = 0;
  for (const auto& cell : cells_) best = std::max(best, cell.size());
  return best;
}

}  // namespace ttdc::net
