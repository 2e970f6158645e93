// Spatial collision domains over unit-square node positions.
//
// A DomainGrid buckets nodes into square cells of side >= the transmission
// radius. That choice gives the invariant the grid-accelerated unit-disk
// builder leans on (DESIGN.md §13):
//
//   any two nodes within `radius` of each other — hence any interfering
//   pair in a unit-disk topology — lie in the same cell or in cells that
//   are Chebyshev-adjacent, i.e. a node's interferers are always inside
//   its 3x3 cell neighborhood.
//
// Buckets update incrementally: MobilityModel calls move() per node per
// epoch, which re-buckets only the nodes that actually crossed a cell
// boundary instead of rebuilding the grid. audit_edges() checks the
// invariant against a concrete Graph (used by tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ttdc::net {

class Graph;       // net/graph.hpp
struct Positions;  // net/topology.hpp (which includes this header for MobilityModel)

class DomainGrid {
 public:
  /// Buckets `pos` with cell side max(radius, 1/kMaxCellsPerAxis). The grid
  /// keeps its own copy of the coordinates so move() can re-bucket without
  /// the caller's Positions outliving it.
  DomainGrid(const Positions& pos, double radius);

  [[nodiscard]] std::size_t num_nodes() const { return cell_of_.size(); }
  [[nodiscard]] std::size_t num_cells() const { return cells_.size(); }
  [[nodiscard]] std::size_t cells_per_axis() const { return cols_; }
  [[nodiscard]] double cell_size() const { return 1.0 / static_cast<double>(cols_); }

  /// Cell index of a node (row-major over the cell lattice).
  [[nodiscard]] std::uint32_t cell_of(std::size_t node) const { return cell_of_[node]; }

  /// Members of a cell (unordered; mutated by move()).
  [[nodiscard]] const std::vector<std::uint32_t>& cell_members(std::size_t cell) const {
    return cells_[cell];
  }

  /// Moves `node` to (x, y) (clamped to the unit square), re-bucketing only
  /// if the destination lies in a different cell. O(occupancy of old cell).
  void move(std::size_t node, double x, double y);

  /// Calls fn(other) for every node in the 3x3 cell neighborhood of `node`,
  /// including `node` itself. Every node within one radius of `node` is
  /// visited; nodes farther than radius*sqrt(8) never are.
  template <typename Fn>
  void for_each_candidate(std::size_t node, Fn&& fn) const {
    const std::uint32_t cell = cell_of_[node];
    const std::size_t cy = cell / cols_;
    const std::size_t cx = cell % cols_;
    const std::size_t x0 = cx > 0 ? cx - 1 : 0;
    const std::size_t x1 = cx + 1 < cols_ ? cx + 1 : cols_ - 1;
    const std::size_t y0 = cy > 0 ? cy - 1 : 0;
    const std::size_t y1 = cy + 1 < cols_ ? cy + 1 : cols_ - 1;
    for (std::size_t gy = y0; gy <= y1; ++gy) {
      for (std::size_t gx = x0; gx <= x1; ++gx) {
        for (std::uint32_t other : cells_[gy * cols_ + gx]) fn(other);
      }
    }
  }

  /// True iff every edge of `g` connects nodes whose cells are Chebyshev-
  /// adjacent (distance <= 1) — the 3x3-neighborhood invariant. A graph
  /// built by unit_disk_graph over the same positions/radius always passes.
  [[nodiscard]] bool audit_edges(const Graph& g) const;

  /// Largest cell population (diagnostic; drives shard balance).
  [[nodiscard]] std::size_t max_occupancy() const;

 private:
  [[nodiscard]] std::uint32_t bucket(double x, double y) const;

  std::size_t cols_ = 1;  // cells per axis (square lattice over the unit square)
  std::vector<double> xs_, ys_;
  std::vector<std::uint32_t> cell_of_;
  std::vector<std::vector<std::uint32_t>> cells_;
};

}  // namespace ttdc::net
