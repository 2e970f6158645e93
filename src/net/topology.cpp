#include "net/topology.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace ttdc::net {

Graph path_graph(std::size_t n) {
  Graph g(n);
  for (std::size_t i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

Graph ring_graph(std::size_t n) {
  if (n < 3) throw std::invalid_argument("ring_graph: need n >= 3");
  Graph g = path_graph(n);
  g.add_edge(n - 1, 0);
  return g;
}

Graph star_graph(std::size_t n) {
  if (n < 2) throw std::invalid_argument("star_graph: need n >= 2");
  Graph g(n);
  for (std::size_t i = 1; i < n; ++i) g.add_edge(0, i);
  return g;
}

Graph grid_graph(std::size_t rows, std::size_t cols) {
  Graph g(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t id = r * cols + c;
      if (c + 1 < cols) g.add_edge(id, id + 1);
      if (r + 1 < rows) g.add_edge(id, id + cols);
    }
  }
  return g;
}

Graph mary_tree(std::size_t n, std::size_t arity) {
  if (arity == 0) throw std::invalid_argument("mary_tree: need arity >= 1");
  Graph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 1; c <= arity; ++c) {
      const std::size_t child = arity * i + c;
      if (child < n) g.add_edge(i, child);
    }
  }
  return g;
}

Graph worst_case_star(std::size_t degree_bound) {
  if (degree_bound < 1) throw std::invalid_argument("worst_case_star: need D >= 1");
  Graph g(degree_bound + 1);
  for (std::size_t i = 1; i <= degree_bound; ++i) g.add_edge(0, i);
  return g;
}

Graph random_bounded_degree_graph(std::size_t n, std::size_t max_degree,
                                  std::size_t target_edges, util::Xoshiro256& rng) {
  if (n < 2 || max_degree < 1) {
    throw std::invalid_argument("random_bounded_degree_graph: need n >= 2, D >= 1");
  }
  Graph g(n);
  const std::size_t cap_edges = n * max_degree / 2;
  target_edges = std::min(target_edges, cap_edges);
  // Rejection sampling with a retry budget; the budget only binds close to
  // degree saturation, where leftover proposals are nearly all rejections.
  std::size_t attempts = 0;
  const std::size_t max_attempts = 50 * (target_edges + 1) + 1000;
  while (g.num_edges() < target_edges && attempts < max_attempts) {
    ++attempts;
    const std::size_t a = static_cast<std::size_t>(rng.below(n));
    std::size_t b = static_cast<std::size_t>(rng.below(n - 1));
    if (b >= a) ++b;
    if (g.has_edge(a, b)) continue;
    if (g.degree(a) >= max_degree || g.degree(b) >= max_degree) continue;
    g.add_edge(a, b);
  }
  return g;
}

Positions random_positions(std::size_t n, util::Xoshiro256& rng) {
  Positions pos;
  pos.x.resize(n);
  pos.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos.x[i] = rng.uniform01();
    pos.y[i] = rng.uniform01();
  }
  return pos;
}

Graph unit_disk_graph(const Positions& pos, double radius, std::size_t max_degree,
                      const DomainGrid& grid) {
  const std::size_t n = pos.x.size();
  Graph g(n);
  // Candidate edges in (length, a, b) order; accept greedily under the
  // degree cap, so the pruning removes the longest (weakest) links first.
  // Candidates come from each node's 3x3 cell neighborhood — the grid
  // invariant guarantees every pair within `radius` is enumerated — and the
  // (a, b) tie-break makes the result independent of cell bucket order.
  struct Cand {
    double dist;
    std::uint32_t a, b;  // DomainGrid node ids are 32-bit
  };
  std::vector<Cand> cands;
  for (std::size_t a = 0; a < n; ++a) {
    grid.for_each_candidate(a, [&](std::size_t b) {
      if (b <= a) return;
      const double dx = pos.x[a] - pos.x[b];
      const double dy = pos.y[a] - pos.y[b];
      const double dist = std::sqrt(dx * dx + dy * dy);
      if (dist <= radius) {
        cands.push_back({dist, static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b)});
      }
    });
  }
  // The order is one comparison sort's, built as a counting sort: bucket
  // each candidate by dist · (buckets / radius), which rounds monotonically
  // in dist, so the buckets come in distance order, then sort each (small)
  // bucket by the full key. A zero or tiny radius (an infinite scale) puts
  // everything in bucket 0.
  const std::size_t buckets = std::max<std::size_t>(cands.size(), 1);
  const double scale = static_cast<double>(buckets) / radius;
  const bool one_bucket = !(radius > 0.0) || !std::isfinite(scale);
  const auto bucket_of = [&](double dist) -> std::size_t {
    if (one_bucket) return 0;
    const double b = dist * scale;
    return b < static_cast<double>(buckets) ? static_cast<std::size_t>(b) : buckets - 1;
  };
  const auto key_less = [](const Cand& l, const Cand& r) {
    if (l.dist != r.dist) return l.dist < r.dist;
    if (l.a != r.a) return l.a < r.a;
    return l.b < r.b;
  };
  // begin[i] is bucket i's first slot until the scatter advances it to the
  // bucket's end, where bucket i + 1 begins.
  std::vector<std::size_t> begin(buckets + 1, 0);
  for (const Cand& c : cands) ++begin[bucket_of(c.dist) + 1];
  for (std::size_t i = 0; i < buckets; ++i) begin[i + 1] += begin[i];
  std::vector<Cand> sorted(cands.size());
  for (const Cand& c : cands) sorted[begin[bucket_of(c.dist)]++] = c;
  std::size_t first = 0;
  for (std::size_t i = 0; i < buckets; ++i) {
    const std::size_t last = begin[i];
    if (last - first > 1) std::sort(sorted.begin() + first, sorted.begin() + last, key_less);
    first = last;
  }
  for (const auto& c : sorted) {
    if (g.degree(c.a) < max_degree && g.degree(c.b) < max_degree) g.add_edge(c.a, c.b);
  }
  return g;
}

Graph unit_disk_graph(const Positions& pos, double radius, std::size_t max_degree) {
  return unit_disk_graph(pos, radius, max_degree, DomainGrid(pos, radius));
}

MobilityModel::MobilityModel(std::size_t n, double radius, std::size_t max_degree,
                             double speed, std::uint64_t seed)
    : radius_(radius), max_degree_(max_degree), speed_(speed), rng_(seed),
      grid_(Positions{}, radius) {
  pos_ = random_positions(n, rng_);
  waypoints_ = random_positions(n, rng_);
  grid_ = DomainGrid(pos_, radius_);
}

Graph MobilityModel::step() {
  const std::size_t n = pos_.x.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = waypoints_.x[i] - pos_.x[i];
    const double dy = waypoints_.y[i] - pos_.y[i];
    const double dist = std::sqrt(dx * dx + dy * dy);
    if (dist <= speed_) {
      pos_.x[i] = waypoints_.x[i];
      pos_.y[i] = waypoints_.y[i];
      waypoints_.x[i] = rng_.uniform01();
      waypoints_.y[i] = rng_.uniform01();
    } else {
      pos_.x[i] += speed_ * dx / dist;
      pos_.y[i] += speed_ * dy / dist;
    }
    grid_.move(i, pos_.x[i], pos_.y[i]);
  }
  return unit_disk_graph(pos_, radius_, max_degree_, grid_);
}

}  // namespace ttdc::net
