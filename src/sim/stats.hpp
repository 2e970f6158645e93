// Counters and summary statistics collected by the simulator.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/radio.hpp"

namespace ttdc::sim {

/// Streaming latency statistics (slots from creation to final delivery).
///
/// percentile() selects with std::nth_element (expected O(n)) on each
/// query instead of caching a full sort: queries stay correct no matter
/// how record() and percentile() calls interleave (a cached sorted flag
/// here once silently corrupted mid-run probes).
class LatencyStats {
 public:
  void record(std::uint64_t latency_slots) { samples_.push_back(latency_slots); }

  /// Pre-sizes the sample buffer. Perf hook: lets benches and the
  /// zero-allocation test keep record() off the allocator for a known
  /// number of upcoming deliveries.
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] std::uint64_t max() const;
  /// Percentile in [0, 100]; 0 if no samples. Nearest-rank definition.
  [[nodiscard]] std::uint64_t percentile(double pct) const;

  /// Absorbs `other`'s samples (sample concatenation, not moment folding):
  /// count/max/percentile of the merge equal those of the single stream
  /// that recorded both shards in any order, exactly — nth_element selects
  /// from the value multiset, which concatenation preserves. mean() is a
  /// left-to-right double sum, so merging shards in a fixed order (the
  /// campaign runner merges in cell-index order) reproduces the serial sum
  /// bit for bit.
  void merge(const LatencyStats& other) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  }

  /// Raw samples in stored order. Exposed for exact serialization (the
  /// campaign journal round-trips a cell's samples bit for bit); note
  /// percentile() reorders them in place, so serialize before querying.
  [[nodiscard]] const std::vector<std::uint64_t>& samples() const { return samples_; }

  /// Same samples in the same stored order (compare before percentile()).
  bool operator==(const LatencyStats&) const = default;

 private:
  // mutable: percentile() reorders (never resizes) the samples in place.
  mutable std::vector<std::uint64_t> samples_;
};

/// A run's counts. Each scalar counter also needs its row in
/// kCounterFields (below).
struct SimStats {
  std::uint64_t slots_run = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;      // reached final destination
  std::uint64_t hop_successes = 0;  // per-hop receptions
  std::uint64_t transmissions = 0;
  std::uint64_t collisions = 0;     // transmissions lost to a collision
  std::uint64_t receiver_asleep = 0;  // transmissions lost: receiver not receiving
  std::uint64_t channel_losses = 0;   // lost to the packet_error_rate knob
  std::uint64_t sync_losses = 0;      // lost to the sync_miss_rate knob
  std::uint64_t queue_drops = 0;
  LatencyStats latency;

  // Per-node slot counts by radio state: [node][state].
  std::vector<std::array<std::uint64_t, 4>> state_slots;

  // Final deliveries broken down by originating node (per-flow throughput).
  std::vector<std::uint64_t> delivered_by_origin;

  // Per-node count of sleep -> awake radio transitions (each costs
  // EnergyModel::wakeup_mj).
  std::vector<std::uint64_t> wake_transitions;

  // Network lifetime (battery model): slot of the first node death and the
  // running death count. first_death_slot is UINT64_MAX while all alive.
  std::uint64_t first_death_slot = ~std::uint64_t{0};
  std::uint64_t deaths = 0;

  // Injected-fault accounting (sim/fault.hpp). All zero unless a FaultPlan
  // is armed, so unarmed runs are unchanged.
  std::uint64_t fault_crashes = 0;        // kCrash events applied
  std::uint64_t fault_recoveries = 0;     // kRecover events applied
  std::uint64_t fault_battery_spikes = 0; // kBatterySpike events applied
  std::uint64_t fault_jam_bursts = 0;     // kJamStart events applied
  std::uint64_t burst_losses = 0;         // receptions lost to Gilbert-Elliott
  std::uint64_t drift_losses = 0;         // receptions lost to clock drift

  /// True when these stats are an incomplete aggregate: at least one
  /// quarantined campaign cell is missing from the merge. Sticky across
  /// merge() in any order — graceful degradation must never read as a
  /// complete result.
  bool partial = false;

  [[nodiscard]] double delivery_ratio() const {
    return generated == 0 ? 0.0 : static_cast<double>(delivered) / static_cast<double>(generated);
  }
  /// Per-hop success ratio among attempted transmissions.
  [[nodiscard]] double success_ratio() const {
    return transmissions == 0
               ? 0.0
               : static_cast<double>(hop_successes) / static_cast<double>(transmissions);
  }
  /// Average fraction of node-slots spent not sleeping.
  [[nodiscard]] double awake_fraction() const;
  /// Total network energy (mJ) under `model`.
  [[nodiscard]] double total_energy_mj(const EnergyModel& model) const;
  /// Energy per delivered packet (mJ); infinity when nothing was delivered.
  [[nodiscard]] double energy_per_delivery_mj(const EnergyModel& model) const;

  /// Folds `other` into this: each kCounterFields counter by its rule
  /// (first_death_slot takes the min, the rest add), latency shards
  /// concatenate (see LatencyStats::merge), per-node vectors add
  /// element-wise (shorter vectors are zero-extended, so stats from
  /// different network sizes still aggregate) and partial is sticky. merge
  /// is associative, and for a fixed merge order the result is
  /// bit-identical regardless of which thread produced each shard — the
  /// property the campaign runner's lock-free accumulation depends on.
  void merge(const SimStats& other);

  [[nodiscard]] std::string summary(const EnergyModel& model) const;

  /// Bit identity: every field, latency samples in stored order.
  bool operator==(const SimStats&) const = default;
};

/// How SimStats::merge folds a counter across shards.
enum class MergeRule : std::uint8_t {
  kSum,  ///< a count: shards add
  kMin,  ///< a slot: the earliest shard wins; ~0 (the identity) means none
};

/// One scalar SimStats counter.
struct CounterField {
  const char* name;
  std::uint64_t SimStats::*field;
  MergeRule merge;
  bool stream;  ///< a complete flight stream rebuilds it (obs::FlightLog)
};

/// SimStats' scalar counters, in declaration order: the one list that
/// merge(), the campaign journal, aggregate_json(), publish_sim_stats,
/// obs::kStreamCounters and the golden-equality helpers walk. Adding a
/// counter means one line here plus the code that counts it.
inline constexpr auto kCounterFields = std::to_array<CounterField>({
    {"slots_run", &SimStats::slots_run, MergeRule::kSum, false},
    {"generated", &SimStats::generated, MergeRule::kSum, true},
    {"delivered", &SimStats::delivered, MergeRule::kSum, true},
    {"hop_successes", &SimStats::hop_successes, MergeRule::kSum, true},
    {"transmissions", &SimStats::transmissions, MergeRule::kSum, true},
    {"collisions", &SimStats::collisions, MergeRule::kSum, true},
    {"receiver_asleep", &SimStats::receiver_asleep, MergeRule::kSum, true},
    {"channel_losses", &SimStats::channel_losses, MergeRule::kSum, true},
    {"sync_losses", &SimStats::sync_losses, MergeRule::kSum, true},
    {"queue_drops", &SimStats::queue_drops, MergeRule::kSum, true},
    {"first_death_slot", &SimStats::first_death_slot, MergeRule::kMin, false},
    {"deaths", &SimStats::deaths, MergeRule::kSum, false},
    {"fault_crashes", &SimStats::fault_crashes, MergeRule::kSum, true},
    {"fault_recoveries", &SimStats::fault_recoveries, MergeRule::kSum, true},
    {"fault_battery_spikes", &SimStats::fault_battery_spikes, MergeRule::kSum, true},
    {"fault_jam_bursts", &SimStats::fault_jam_bursts, MergeRule::kSum, true},
    {"burst_losses", &SimStats::burst_losses, MergeRule::kSum, true},
    {"drift_losses", &SimStats::drift_losses, MergeRule::kSum, true},
});

}  // namespace ttdc::sim
