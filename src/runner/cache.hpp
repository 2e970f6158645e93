// Shared immutable artifact caches for campaign cells.
//
// Campaign cells repeat expensive, deterministic constructions: the same
// Galois-orthogonal base schedule built once per (q, k) instead of once per
// seed; the same topology's BFS routing columns built once instead of once
// per cell; the same (n, D) binomial-backed g_{n,D} memo shared by every
// Theorem 2/3/4 evaluation in the grid. ArtifactStore keys each artifact by
// its CONTENT (a build recipe string for schedules, the adjacency digest
// for graphs, the (n, D) pair for the analytic tables), builds it exactly
// once under a lock, and hands out shared_ptr<const T> views — immutable
// after construction, so cells on different workers read them concurrently
// without synchronization.
//
// Determinism: because every artifact is a pure function of its key, a
// cache hit returns an object bit-identical to what the missing cell would
// have built itself. Which worker pays the build cost varies run to run;
// the artifact, and therefore every downstream statistic, does not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "core/throughput.hpp"
#include "net/graph.hpp"
#include "net/routing.hpp"

namespace ttdc::runner {

class ArtifactStore {
 public:
  ArtifactStore() = default;
  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Schedule keyed by a build-recipe string (e.g. "galois:q=5,k=2"); the
  /// caller is responsible for the key capturing every input of `build`.
  /// `build` runs at most once per key, under the store lock.
  std::shared_ptr<const core::Schedule> schedule(
      const std::string& key, const std::function<core::Schedule()>& build);

  /// Fully built routing table for a graph with `graph`'s exact adjacency,
  /// keyed by content (Graph::content_hash + equality verification, so two
  /// cells constructing the same topology from the same seed share one set
  /// of BFS columns). The returned table is safe for concurrent next_hop()
  /// queries: build_all_columns() has run, so no query mutates it. Wire it
  /// into a cell's simulator via SimConfig::shared_routing; the pointed-to
  /// graph copy lives inside the store.
  std::shared_ptr<const net::RoutingTable> routing(const net::Graph& graph);

  /// Theorem 2/3/4 memo for (n, degree_bound).
  std::shared_ptr<const core::ThroughputTables> throughput(std::size_t n,
                                                           std::size_t degree_bound);

  /// Cache-effectiveness observability (tested: a campaign of k cells over
  /// one topology must report exactly one routing miss).
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

  /// Cached schedules that failed their content checksum on a hit and were
  /// rebuilt from the recipe (0 on any healthy run: in-memory corruption is
  /// detected, counted, and healed — never served).
  [[nodiscard]] std::uint64_t corruption_rebuilds() const;

  /// Test hook: invalidates the stored checksum of `key`'s schedule so the
  /// next hit takes the corruption-rebuild path. Returns false if the key
  /// is not cached.
  bool debug_corrupt_schedule(const std::string& key);

 private:
  // A routing entry owns the graph copy its table points into; the pair is
  // heap-pinned so the Graph's address never moves after the table binds.
  struct RoutingEntry {
    explicit RoutingEntry(const net::Graph& g) : graph(g), table(graph) {
      table.build_all_columns();
    }
    net::Graph graph;
    net::RoutingTable table;
  };

  // A schedule entry pairs the artifact with a checksum of its full content
  // (frame shape + every slot's transmitter/receiver words), taken at build
  // time and re-verified on every hit.
  struct ScheduleEntry {
    std::shared_ptr<const core::Schedule> schedule;
    std::uint64_t checksum = 0;
  };

  mutable std::mutex mu_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t corruption_rebuilds_ = 0;
  std::map<std::string, ScheduleEntry> schedules_;
  // Hash -> entries with that digest (chained in case of collisions; each
  // candidate is verified against the full adjacency before reuse).
  std::map<std::uint64_t, std::vector<std::shared_ptr<RoutingEntry>>> routings_;
  std::map<std::pair<std::size_t, std::size_t>, std::shared_ptr<const core::ThroughputTables>>
      throughputs_;
};

}  // namespace ttdc::runner
