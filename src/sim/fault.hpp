// ttdc::fault — deterministic fault injection for the simulated world.
//
// The paper's guarantees are *topology-transparent*: a schedule keeps its
// minimum throughput without reacting to the network. The flat channel
// knobs (SimConfig::packet_error_rate / sync_miss_rate) can only probe
// uncorrelated noise; realistic degradation is correlated — nodes crash and
// come back, links fade in bursts, clocks drift apart, batteries take
// spikes, interferers jam whole neighborhoods. A FaultPlan is the
// deterministic, seed-derived description of all of that for one run:
//
//   * node crash/recover schedules (geometric hazards, geometric downtime);
//   * Gilbert–Elliott bursty link loss: every directed link carries a
//     two-state (good/bad) Markov channel with its own SplitMix64-derived
//     coin stream, advanced lazily by the closed-form k-step transition, so
//     an idle link costs nothing and the armed hot path stays O(1) per
//     transmission;
//   * per-node clock-drift processes beyond the bounded-skew model: each
//     node draws a drift rate, relative misalignment accumulates linearly
//     (sawtoothed by an optional resync interval), and a transmission is
//     lost once |offset_x - offset_y| exceeds the guard window;
//   * battery-drain spikes (timestamped per-node mJ hits);
//   * jammer nodes: chosen nodes emit in every slot of their jam bursts,
//     colliding with any reception in their neighborhood.
//
// Everything is a pure function of (config, num_nodes, seed): two plans
// built from the same triple are identical, and the simulator consuming a
// plan never touches its own RNG stream on behalf of a fault — so a run
// with an armed-but-empty plan is bit-identical to an unarmed run (tested),
// and scalar/batched pipeline golden equality holds with faults on.
//
// The Simulator consumes the plan via SimConfig::fault_plan, emits every
// injected fault through the flight recorder (FlightEvent::kFault* kinds)
// and counts it in SimStats, so post-mortems show causality:
// "delivery dipped at slot 40k" lines up with "node 17 crashed at 39.8k".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ttdc::sim {

/// Two-state Markov (Gilbert–Elliott) loss channel. In each slot the
/// channel is Good or Bad; transitions happen per slot, receptions are lost
/// with the state's loss probability. The defaults model a clean channel —
/// arm it by raising p_good_to_bad above zero.
struct GilbertElliott {
  double p_good_to_bad = 0.0;  ///< per-slot Good -> Bad transition probability
  double p_bad_to_good = 0.1;  ///< per-slot Bad -> Good transition probability
  double loss_good = 0.0;      ///< reception loss probability while Good
  double loss_bad = 1.0;       ///< reception loss probability while Bad

  /// True when the chain can ever reach (or start in) a lossy state.
  [[nodiscard]] bool armed() const {
    return p_good_to_bad > 0.0 && (loss_bad > 0.0 || loss_good > 0.0);
  }
  /// Stationary probability of the Bad state.
  [[nodiscard]] double stationary_bad() const {
    const double denom = p_good_to_bad + p_bad_to_good;
    return denom <= 0.0 ? 0.0 : p_good_to_bad / denom;
  }
};

/// One timestamped world-fault event, applied by the simulator at the start
/// of `slot` (before traffic generation and the MAC's begin_slot).
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kCrash,         ///< node goes down: no generate/transmit/receive
    kRecover,       ///< node comes back (queue intact)
    kBatterySpike,  ///< magnitude_mj drained instantly (battery model only)
    kJamStart,      ///< node starts emitting in every slot
    kJamEnd,        ///< node stops jamming
  };
  std::uint64_t slot = 0;
  std::size_t node = 0;
  double magnitude_mj = 0.0;  ///< kBatterySpike only

  friend bool operator==(const FaultEvent& a, const FaultEvent& b) {
    return a.slot == b.slot && a.node == b.node && a.magnitude_mj == b.magnitude_mj &&
           a.kind == b.kind;
  }

  Kind kind = Kind::kCrash;
};

/// Stable wire name of a fault-event kind ("crash", "jam_start", ...).
[[nodiscard]] const char* fault_kind_name(FaultEvent::Kind kind);

/// Generation recipe for a FaultPlan. All rates are per-node per-slot
/// hazards; a zero rate disables that fault class. `horizon_slots` bounds
/// event generation — a simulation running past the horizon sees no further
/// timestamped faults (drift and link loss, being processes rather than
/// events, keep acting).
struct FaultPlanConfig {
  std::uint64_t horizon_slots = 0;

  // Node crash/recover.
  double crash_rate = 0.0;             ///< per-node per-slot crash hazard
  double mean_downtime_slots = 200.0;  ///< geometric recovery time (>= 1)

  // Bursty link loss on every directed link.
  GilbertElliott link_loss;

  // Clock drift. Each node draws a rate uniform in [-max_drift_per_slot,
  // +max_drift_per_slot] (slot fractions per slot); a transmission x -> y
  // is lost when the accumulated relative offset exceeds drift_guard.
  double max_drift_per_slot = 0.0;
  double drift_guard = 0.25;
  std::uint64_t resync_interval = 0;  ///< 0 = never resync (unbounded drift)

  // Battery-drain spikes.
  double battery_spike_rate = 0.0;  ///< per-node per-slot spike hazard
  double battery_spike_mj = 0.0;    ///< drain per spike

  // Jammers.
  std::size_t num_jammers = 0;      ///< distinct nodes drawn from the plan seed
  double jam_duty = 0.0;            ///< long-run fraction of slots jammed, (0, 1)
  std::uint64_t jam_burst_slots = 200;  ///< length of each jam burst
};

/// An immutable, fully materialized fault schedule for one simulated world:
/// sorted timestamped events plus the parameters of the continuous
/// processes (link chains, drift rates). Build once, share freely — the
/// simulator keeps all mutable fault state (chain states, down sets) on its
/// side, so one plan can drive many campaign cells concurrently.
class FaultPlan {
 public:
  /// Derives the full plan from (config, num_nodes, seed). Each fault class
  /// draws from its own SplitMix64 child stream, so e.g. adding jammers to
  /// a config never perturbs the crash schedule.
  FaultPlan(const FaultPlanConfig& config, std::size_t num_nodes, std::uint64_t seed);

  /// Explicit event list (tests, hand-written scenarios). `config` supplies
  /// the process parameters (link loss, drift); events are sorted here.
  FaultPlan(std::vector<FaultEvent> events, std::size_t num_nodes,
            FaultPlanConfig config = {}, std::uint64_t seed = 0);

  /// Timestamped events, sorted by (slot, node, kind).
  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] const FaultPlanConfig& config() const { return config_; }
  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  /// Seed for the per-link loss-chain streams (derived, not the user seed).
  [[nodiscard]] std::uint64_t link_stream_seed() const { return link_stream_seed_; }

  /// Per-node drift rates (slot fractions per slot); empty when drift is
  /// disabled.
  [[nodiscard]] const std::vector<double>& drift_rates() const { return drift_rates_; }

  [[nodiscard]] bool has_link_loss() const { return config_.link_loss.armed(); }
  [[nodiscard]] bool has_drift() const { return !drift_rates_.empty(); }

  /// Event count of one kind (observability / test convenience).
  [[nodiscard]] std::size_t count(FaultEvent::Kind kind) const;

  /// One-line human-readable description ("crashes=12 recoveries=11 ...").
  [[nodiscard]] std::string summary() const;

 private:
  void sort_events();

  FaultPlanConfig config_;
  std::size_t num_nodes_ = 0;
  std::uint64_t link_stream_seed_ = 0;
  std::vector<FaultEvent> events_;
  std::vector<double> drift_rates_;
};

}  // namespace ttdc::sim
