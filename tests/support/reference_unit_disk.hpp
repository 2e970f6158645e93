// reference_unit_disk_graph: the oracle for net::unit_disk_graph's
// candidate order.
//
// The same candidates (every pair within `radius`, enumerated through the
// DomainGrid's 3x3 cell sweep) and the same greedy pass under the degree
// cap, ordered by one comparison sort on the full (dist, a, b) key instead
// of the production builder's distance buckets. Both must return graphs
// with the same adjacency.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "net/domain_grid.hpp"
#include "net/graph.hpp"
#include "net/topology.hpp"

namespace ttdc::net {

inline Graph reference_unit_disk_graph(const Positions& pos, double radius,
                                       std::size_t max_degree) {
  const std::size_t n = pos.x.size();
  const DomainGrid grid(pos, radius);
  Graph g(n);
  struct Cand {
    double dist;
    std::size_t a, b;
  };
  std::vector<Cand> cands;
  for (std::size_t a = 0; a < n; ++a) {
    grid.for_each_candidate(a, [&](std::size_t b) {
      if (b <= a) return;
      const double dx = pos.x[a] - pos.x[b];
      const double dy = pos.y[a] - pos.y[b];
      const double dist = std::sqrt(dx * dx + dy * dy);
      if (dist <= radius) cands.push_back({dist, a, b});
    });
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& l, const Cand& r) {
    if (l.dist != r.dist) return l.dist < r.dist;
    if (l.a != r.a) return l.a < r.a;
    return l.b < r.b;
  });
  for (const Cand& c : cands) {
    if (g.degree(c.a) < max_degree && g.degree(c.b) < max_degree) g.add_edge(c.a, c.b);
  }
  return g;
}

}  // namespace ttdc::net
