// Topology generators producing members of N_n^D.
//
// Deterministic structures (path, ring, star, grid, full m-ary tree) plus
// randomized families (degree-capped random graphs, degree-capped unit-disk
// graphs). Random generators take explicit seeds and guarantee the degree
// cap by construction; connectivity is best-effort and reported by the
// caller via Graph::is_connected().
#pragma once

#include <cstddef>
#include <vector>

#include "net/domain_grid.hpp"
#include "net/graph.hpp"
#include "util/rng.hpp"

namespace ttdc::net {

Graph path_graph(std::size_t n);
Graph ring_graph(std::size_t n);

/// Star: node 0 is the hub with n-1 leaves (hub degree n-1).
Graph star_graph(std::size_t n);

/// rows x cols grid, 4-neighborhood; node (r, c) has index r*cols + c.
Graph grid_graph(std::size_t rows, std::size_t cols);

/// Full m-ary tree on n nodes, breadth-first numbering (node i's children
/// are m*i + 1 .. m*i + m while < n).
Graph mary_tree(std::size_t n, std::size_t arity);

/// The worst-case neighborhood of Definitions 1-2: receiver `y` with
/// exactly D neighbors {x} ∪ S, all leaves. Node 0 is y, node 1 is x,
/// nodes 2..D are S.
Graph worst_case_star(std::size_t degree_bound);

/// Random graph with degrees capped at max_degree: proposes uniformly random
/// node pairs and accepts while both endpoints have spare degree. Aims for
/// `target_edges` (saturates when the cap makes that infeasible).
Graph random_bounded_degree_graph(std::size_t n, std::size_t max_degree,
                                  std::size_t target_edges, util::Xoshiro256& rng);

/// Node positions in the unit square, for unit-disk topologies.
struct Positions {
  std::vector<double> x;
  std::vector<double> y;
};

Positions random_positions(std::size_t n, util::Xoshiro256& rng);

/// Unit-disk graph: edge iff distance <= radius, with excess edges pruned
/// (farthest-first) so no degree exceeds max_degree. Candidate pairs are
/// enumerated through a DomainGrid 3x3 neighborhood sweep — O(n · cell
/// occupancy) instead of the old O(n²) pairwise scan — which is what makes
/// metropolitan-scale topologies constructible at all.
Graph unit_disk_graph(const Positions& pos, double radius, std::size_t max_degree);

/// Same, but reusing an already-bucketed grid over `pos` (the mobility
/// model's incremental grid).
Graph unit_disk_graph(const Positions& pos, double radius, std::size_t max_degree,
                      const DomainGrid& grid);

/// A time-varying topology: a random-waypoint-lite mobility model over the
/// unit square. Each call to step() moves every node toward its waypoint by
/// `speed` (picking a fresh waypoint on arrival) and returns the pruned
/// unit-disk graph of the new configuration.
class MobilityModel {
 public:
  MobilityModel(std::size_t n, double radius, std::size_t max_degree, double speed,
                std::uint64_t seed);

  /// Advances one epoch and returns the current topology. Node moves are
  /// pushed into the collision-domain grid incrementally (only boundary
  /// crossings re-bucket) and the new unit-disk graph is built through it.
  Graph step();

  [[nodiscard]] const Positions& positions() const { return pos_; }

  /// The incrementally-maintained collision-domain grid over positions().
  /// Valid for the topology returned by the latest step(); step() builds
  /// the next unit-disk graph through it.
  [[nodiscard]] const DomainGrid& grid() const { return grid_; }

 private:
  Positions pos_;
  Positions waypoints_;
  double radius_;
  std::size_t max_degree_;
  double speed_;
  util::Xoshiro256 rng_;
  DomainGrid grid_;
};

}  // namespace ttdc::net
