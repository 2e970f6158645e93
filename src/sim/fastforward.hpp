// FastForwardStats: the ledger fields the benchmark harness (bench/e2e)
// still reads. Nothing in the library sets them any more:
// Simulator::fast_forward_stats() always returns all zeros, and the only
// way the simulator advances time without stepping is the skip inside a
// charged span (DESIGN.md §8), counted by ChargedSpanStats::skipped. This
// header and those ledger rows go with the next benchmark change.
#pragma once

#include <cstdint>

namespace ttdc::sim {

struct FastForwardStats {
  std::uint64_t frames_replayed = 0;
  std::uint64_t slots_replayed = 0;
  std::uint64_t frames_recorded = 0;
  std::uint64_t frames_discarded = 0;
  std::uint64_t memo_evictions = 0;
  std::uint64_t fallback_arrival = 0;
  std::uint64_t fallback_battery = 0;
  std::uint64_t fallback_verify = 0;
};

}  // namespace ttdc::sim
