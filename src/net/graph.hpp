// Undirected network graphs for the class N_n^D.
//
// The simulator and the topology-transparency experiments need concrete
// members of N_n^D: graphs with at most n nodes whose degrees never exceed
// D. Adjacency rows are util::SlotSet node sets (collision resolution in
// the simulator is a neighborhood-intersection query): above 256 nodes a
// degree-capped row stays a sorted sparse vector, so a metropolitan-scale
// graph costs O(n·D) memory instead of the O(n²/8) bytes dense bitset rows
// would need — the difference between 1.25 GB and a few MB at n = 10⁵.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/slot_set.hpp"

namespace ttdc::net {

class Graph {
 public:
  explicit Graph(std::size_t num_nodes);

  [[nodiscard]] std::size_t num_nodes() const { return adjacency_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  /// Adds the undirected edge {a, b}; idempotent; a != b required.
  void add_edge(std::size_t a, std::size_t b);

  [[nodiscard]] bool has_edge(std::size_t a, std::size_t b) const {
    return adjacency_[a].test(b);
  }

  /// Neighborhood of x as a node set over [0, n).
  [[nodiscard]] const util::SlotSet& neighbors(std::size_t x) const {
    return adjacency_[x];
  }

  /// Sorted neighbor list of x.
  [[nodiscard]] std::vector<std::size_t> neighbor_list(std::size_t x) const {
    return adjacency_[x].to_vector();
  }

  [[nodiscard]] std::size_t degree(std::size_t x) const { return adjacency_[x].count(); }
  [[nodiscard]] std::size_t max_degree() const;

  /// All edges as (a, b) with a < b.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> edges() const;

  /// True if the graph is connected (singleton graphs are connected; the
  /// empty graph on >= 2 nodes is not).
  [[nodiscard]] bool is_connected() const;

  /// BFS hop distances from `source` (SIZE_MAX for unreachable nodes).
  [[nodiscard]] std::vector<std::size_t> bfs_distances(std::size_t source) const;

  /// BFS parent pointers from `source` (parent[source] = source; SIZE_MAX
  /// for unreachable). This is the routing tree used by convergecast.
  [[nodiscard]] std::vector<std::size_t> bfs_parents(std::size_t source) const;

  /// FNV-1a digest over (n, per-node degree + sorted neighbor stream). Two
  /// graphs with equal hashes are identical with overwhelming probability,
  /// and — because the hash covers the full adjacency in a fixed,
  /// representation-independent order — identical graphs always collide, so
  /// content-keyed caches (runner/cache.hpp) may share one BFS routing
  /// table across equal-hash graphs after verifying equality. Not a
  /// cryptographic hash.
  [[nodiscard]] std::uint64_t content_hash() const;

  /// Exact structural equality: same node count and identical adjacency.
  [[nodiscard]] bool same_adjacency(const Graph& other) const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<util::SlotSet> adjacency_;
  std::size_t num_edges_ = 0;
};

}  // namespace ttdc::net
