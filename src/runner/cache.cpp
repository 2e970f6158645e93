#include "runner/cache.hpp"

#include "obs/profile.hpp"

namespace ttdc::runner {

std::shared_ptr<const core::Schedule> ArtifactStore::schedule(
    const std::string& key, const std::function<core::Schedule()>& build) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = schedules_.find(key);
  if (it != schedules_.end()) {
    if (it->second.schedule->storage_checksum() == it->second.checksum) {
      ++hits_;
      return it->second.schedule;
    }
    // The cached artifact no longer matches the digest taken at build time:
    // something scribbled on it (or on the digest). Serving it would poison
    // every downstream cell, so rebuild from the recipe instead.
    ++corruption_rebuilds_;
    schedules_.erase(it);
  }
  ++misses_;
  TTDC_PROF_SCOPE("runner.artifacts.build_schedule");
  auto built = std::make_shared<const core::Schedule>(build());
  schedules_.emplace(key, ScheduleEntry{built, built->storage_checksum()});
  return built;
}

std::uint64_t ArtifactStore::corruption_rebuilds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return corruption_rebuilds_;
}

bool ArtifactStore::debug_corrupt_schedule(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = schedules_.find(key);
  if (it == schedules_.end()) return false;
  it->second.checksum = ~it->second.checksum;
  return true;
}

std::shared_ptr<const net::RoutingTable> ArtifactStore::routing(const net::Graph& graph) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& chain = routings_[graph.content_hash()];
  for (const auto& entry : chain) {
    if (entry->graph.same_adjacency(graph)) {
      ++hits_;
      return {entry, &entry->table};
    }
  }
  ++misses_;
  TTDC_PROF_SCOPE("runner.artifacts.build_routing");
  auto entry = std::make_shared<RoutingEntry>(graph);
  chain.push_back(entry);
  return {entry, &entry->table};
}

std::shared_ptr<const core::ThroughputTables> ArtifactStore::throughput(
    std::size_t n, std::size_t degree_bound) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = throughputs_[{n, degree_bound}];
  if (slot) {
    ++hits_;
    return slot;
  }
  ++misses_;
  TTDC_PROF_SCOPE("runner.artifacts.build_throughput");
  slot = std::make_shared<const core::ThroughputTables>(n, degree_bound);
  return slot;
}

std::uint64_t ArtifactStore::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t ArtifactStore::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace ttdc::runner
