// The slot-synchronous WSN simulator.
//
// Implements the paper's system model (§3) verbatim: time is a sequence of
// slots; in each slot a MAC protocol decides who transmits and who can
// receive; a transmission x -> y succeeds iff y can receive, y is not
// itself transmitting, and x is the ONLY transmitter in y's neighborhood
// (collision-at-receiver, no capture). Energy is accounted per node per
// slot by radio state.
//
// The per-slot pipeline operates on whole node-sets (util::SlotSet) rather
// than individual nodes — the batched formulation the paper uses
// analytically (per-slot transmitter set T[i] and receiver set R[i]) mapped
// onto word-parallel kernels. A MAC that implements only the per-node
// interface is driven through a per-node fallback for phases 1 and 3; the
// golden tests use exactly that fallback as their differential oracle
// (tests/support/scalar_only_mac.hpp), and both paths produce bit-identical
// SimStats. See DESIGN.md §8.
//
// Topology can be swapped mid-run (set_graph) to model churn; topology-
// transparent MACs keep working with no reconfiguration, which is the point
// of the paper.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/graph.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/fastforward.hpp"
#include "sim/fault.hpp"
#include "sim/mac.hpp"
#include "sim/packet.hpp"
#include "sim/stats.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"
#include "util/slot_set.hpp"

namespace ttdc::sim {

struct SimConfig {
  std::uint64_t seed = 0x5eed;
  std::size_t queue_capacity = 64;
  /// If true, packets whose next hop is unreachable are dropped (counted as
  /// queue drops); otherwise they stall at the head of the queue.
  bool drop_unroutable = true;
  /// Channel imperfections. The paper assumes a perfect slotted channel
  /// ("we assume an efficient synchronization scheme is available"); these
  /// knobs probe how gracefully the guarantees degrade when it is not.
  /// An otherwise-successful reception is lost with probability
  /// packet_error_rate (fading/noise), and independently with probability
  /// sync_miss_rate (transmitter misaligned with the slot grid).
  double packet_error_rate = 0.0;
  double sync_miss_rate = 0.0;
  /// Optional metrics registry. When set, the simulator registers
  /// `ttdc_sim_*_total` counters and a `ttdc_sim_latency_slots` histogram
  /// at construction and bumps them live on the hot path (one pre-resolved
  /// relaxed atomic increment per event); leave null for zero overhead.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional packet flight recorder (obs/flight_recorder.hpp), the
  /// simulator's only event output: a bounded ring of per-packet lifecycle
  /// events (created -> enqueued -> head-of-line -> tx-attempt ->
  /// collided/delivered/dropped/expired) plus fault instants, with
  /// collision events carrying the interferer set recovered from the
  /// phase-2 intersection. A complete stream rebuilds every event-derived
  /// SimStats counter (obs::FlightLog::self_check(live)). Cost contract:
  /// leave null (the default) and step() pays one branch per slot;
  /// installed but disarmed (FlightRecorder::enable(false)) costs one
  /// relaxed load per slot; armed recording never touches the RNG stream
  /// or SimStats, so golden equality between pipelines is preserved with
  /// recording on or off.
  obs::FlightRecorder* recorder = nullptr;
  /// Per-node battery budget in millijoules; 0 means unlimited. When a
  /// node's budget (drained per slot by radio state and per wakeup, using
  /// `energy`) reaches zero the node dies: it stops generating,
  /// transmitting, receiving, and draining. This is the network-lifetime
  /// model duty cycling exists to optimize.
  double battery_mj = 0.0;
  EnergyModel energy;
  /// Optional deterministic fault plan (sim/fault.hpp). When set, the
  /// simulator applies the plan's timestamped events at the start of each
  /// slot (crash/recover, battery spikes, jam bursts) and runs its
  /// continuous processes (Gilbert-Elliott bursty link loss, clock drift)
  /// against every transmission. Cost contract: null (the default) costs
  /// one predictable branch per slot and per hook site; armed fault
  /// randomness comes from per-link/per-node streams derived from the plan
  /// seed — never from the simulator's own rng_ — so a run with an
  /// armed-but-EMPTY plan is bit-identical to an unarmed run, and
  /// per-node/batched MAC golden equality holds with faults on. The plan
  /// must outlive the simulator and is shareable across cells (all mutable
  /// fault state lives in the simulator).
  const FaultPlan* fault_plan = nullptr;
  /// Optional shared read-only routing table. When set, next-hop queries go
  /// to this table instead of the simulator's internal one, so campaign
  /// cells replaying the same topology (runner/cache.hpp) share one set of
  /// BFS columns instead of each rebuilding them. The table must have been
  /// built over a graph identical to the simulator's and fully materialized
  /// via build_all_columns() (a lazily built table would mutate under
  /// concurrent readers). set_graph() reverts to the internal table, since
  /// the shared one no longer describes the topology.
  const net::RoutingTable* shared_routing = nullptr;
};

/// How step_span() ran the spans it was handed (DESIGN.md §8, "Charged
/// spans"): charged, with every live node's scheduled listening paid up
/// front, or per slot through phase 3. Both give identical SimStats, and so
/// does skipping, so these counts live outside SimStats; they make a rule
/// that sends spans to the per-slot path, the slots a charged span skips
/// and the open frames observers settle visible to tests.
struct ChargedSpanStats {
  std::uint64_t charged = 0;   // spans begin_charged_span() accepted, and
                               // open frames a later run() call continued
  std::uint64_t per_slot = 0;  // spans that fell back to the per-slot phase 3
  std::uint64_t skipped = 0;   // slots a charged span advanced over unstepped
  std::uint64_t settled = 0;   // open frames an observer settled
};

class Simulator {
 public:
  Simulator(net::Graph graph, MacProtocol& mac, TrafficSource& traffic,
            const SimConfig& config = {});

  /// Runs `slots` additional slots (cumulative; stats keep accumulating).
  /// Under a MAC with a periodic_schedule() over this graph the call is cut
  /// at the schedule's frame boundaries into spans (whole frames and the
  /// ragged head and tail the call's ends leave), each run by step_span(),
  /// which charges it per span when it can (DESIGN.md §8); any other MAC is
  /// stepped slot by slot. A tail that starts at a frame boundary is
  /// charged through its frame's end and left open for the next call to
  /// continue; stats(), remaining_battery_mj(), audit_invariants() and
  /// set_graph() settle such an open frame first, so they, alive_count()
  /// and is_alive() are exact between calls.
  ///
  /// Inside a charged span the simulator advances without stepping over
  /// the slots in which nobody can send (skip_sender_free). That skip arms
  /// itself, with no option, when the traffic source supports_lookahead()
  /// and the channel is perfect (packet_error_rate == sync_miss_rate == 0):
  /// then no skipped slot would have drawn from the simulator's stream.
  /// Skipping never changes SimStats or the flight-recorder stream, since
  /// a skipped slot holds no event.
  void run(std::uint64_t slots);

  /// Swaps the topology (churn). Invalidates the routing cache; notifies
  /// the MAC. The node count must not change.
  void set_graph(net::Graph graph);

  /// Cross-checks the simulator's incremental state against its defining
  /// invariants and the MAC's batched answers against its scalar ones:
  ///
  ///   * every PacketQueue's ring invariants; backlogged_ and
  ///     unroutable_head_ agree with the queues and the routing table;
  ///   * dead_/battery_/death_slot_ are mutually consistent and no dead
  ///     node is transmitting; every live node has budget left (credit
  ///     above paid_through(now_)) and a credit at or above min_credit_;
  ///   * per-node state-slot counters never exceed the slots the node
  ///     participated in (the sleep-identity of finalize_sleep_counts());
  ///   * fill_slot_sets() agrees with can_receive()/wants_transmit()/
  ///     idle_state() per node, per the contract in mac.hpp (including the
  ///     sender_gates_on_receiver() gating and the sleep promise phase 3
  ///     relies on).
  ///
  /// O(n · queue depth) + one batched MAC query; intended for tests and
  /// debugging, not the hot path. Settles an open frame first in every
  /// build, so it observes like stats(); the checks themselves compile to
  /// a no-op unless contract checks are enabled (TTDC_ENABLE_CHECKS), and
  /// violations report through TTDC_DCHECK (abort, or ContractViolation in
  /// throw mode).
  void audit_invariants() const;

  /// Simulation statistics. Per-node sleep-slot counts are materialized
  /// lazily on this call (they are derived, not accumulated, so sleepy
  /// networks cost O(awake) per slot, not O(n)); the operation is
  /// idempotent and logically const.
  [[nodiscard]] const SimStats& stats() const {
    settle_open_frame();
    const_cast<Simulator*>(this)->finalize_sleep_counts();
    return stats_;
  }
  [[nodiscard]] const net::Graph& graph() const { return graph_; }
  [[nodiscard]] std::uint64_t now() const { return now_; }

  /// Backlog probe for SaturatedFlows (the probe its contract requires).
  [[nodiscard]] std::size_t queue_size(std::size_t node) const {
    return queues_[node].size();
  }

  /// Pre-sizes the latency sample buffer (see LatencyStats::reserve).
  void reserve_latency(std::size_t n) { stats_.latency.reserve(n); }

  /// Fault-injection probes (only meaningful with an armed fault plan).
  [[nodiscard]] bool is_down(std::size_t node) const {
    return fault_armed_ && down_.test(node);
  }
  [[nodiscard]] bool is_jamming(std::size_t node) const {
    return fault_armed_ && jamming_.test(node);
  }

  /// Battery state (only meaningful when config.battery_mj > 0).
  [[nodiscard]] bool is_alive(std::size_t node) const { return !dead_.test(node); }
  [[nodiscard]] std::size_t alive_count() const { return dead_.size() - dead_.count(); }
  /// Remaining budget after the slots run so far: the node's credit minus
  /// the sleep drain every live node has paid (see battery_ below). 0.0 for
  /// a dead node, and always 0.0 with unlimited batteries.
  [[nodiscard]] double remaining_battery_mj(std::size_t node) const {
    settle_open_frame();
    if (config_.battery_mj <= 0.0 || dead_.test(node)) return 0.0;
    return static_cast<double>(battery_[node] - paid_through(now_)) /
           static_cast<double>(kBatteryUnitsPerMj);
  }

  /// Always all-zero: kept only so the benchmark harness, which reads it,
  /// compiles unchanged. Goes with the next benchmark change.
  [[nodiscard]] FastForwardStats fast_forward_stats() const { return {}; }

  /// Charged-span accounting over every run() so far (all-zero under a MAC
  /// without a periodic_schedule() over this graph, whose slots never form
  /// spans). Reading it settles nothing.
  [[nodiscard]] ChargedSpanStats charged_span_stats() const { return span_stats_; }

 private:
  void inject(std::size_t origin, std::size_t destination);
  void step();

  // --- pipeline phases (DESIGN.md §8) ---
  void collect_transmissions(bool mac_batched);  // phase 1
  void resolve_receptions();                     // phase 2
  /// Phase 3 for a MAC without slot sets: per node, with idle_state()
  /// queried for every alive node that neither transmits nor receives.
  void account_energy_scalar();
  void account_energy_batched();                 // phase 3, set-driven

  // --- charged spans (phase 3 per span, DESIGN.md §8) ---
  /// Runs the slots [now_, stop), which run() keeps inside one frame of
  /// `schedule`, the MAC's periodic_schedule(), continuing the open frame
  /// when one is charged. The span is charged when begin_charged_span()
  /// accepts it and stepped through the per-slot phase 3 otherwise; a
  /// charged span steps, when skip_armed_, only the slots
  /// skip_sender_free() cannot pass over. A charged span that reaches its
  /// last slot closes; one cut short by stop stays open.
  void step_span(const core::Schedule& schedule, std::uint64_t stop);
  /// Accepts the span [now_, stop) inside one frame of `schedule` for
  /// charging — every live node paid its scheduled listen slots and
  /// wakeups in the span up front, charging_ set — when no fault plan acts
  /// and (with batteries) no live node can die inside the span whatever
  /// transmits. A span from a frame boundary is charged through the
  /// frame's end from the frame totals when nobody can die before that
  /// end, even if stop comes earlier. Otherwise it changes nothing.
  void begin_charged_span(const core::Schedule& schedule, std::uint64_t stop);
  /// Inside a charged span, when skip_armed_: advances now_, without
  /// stepping, over the slots before stop in which no live backlogged node
  /// is in T[i], no live queue head is unroutable and no packet arrives,
  /// leaving the state the last of them would have left. Such a slot
  /// changes nothing but the clock: its scheduled listening was charged at
  /// the span start, and the arming conditions rule out per-slot draws
  /// (mac.hpp and traffic.hpp allow skipping their slot hooks).
  void skip_sender_free(std::uint64_t stop);
  /// Phase 3 inside a charged span: only this slot's transmitters, with
  /// the wakeups a transmission adds or cancels.
  void charge_transmitters();
  /// Called by every observer that must see exact state between run()
  /// calls: settles the open frame, if any (const like stats(), which
  /// materializes sleep counts the same way).
  void settle_open_frame() const {
    if (charging_ != nullptr) const_cast<Simulator*>(this)->settle_frame();
  }
  /// Turns the open frame [frame_start_, frame end), charged through its
  /// end, into the partial span [frame_start_, now_) charged alone:
  /// refunds the unrun suffix or, when that is the longer side, takes back
  /// the frame totals and charges the run prefix, so an observer pays at
  /// most a partial span's charge plus O(n).
  void settle_frame();
  /// Calls add(v, listen, wakes) for the scheduled listening at frame
  /// slots first..end-1 and the scheduled wakes at after+1..end-1 of
  /// `schedule`, each distinct pooled set once with its multiplicity, in
  /// the partial-span scratch span_ (sized once to the schedule's bounds).
  template <typename Add>
  void count_span(const core::Schedule& schedule, std::size_t first, std::size_t end,
                  std::size_t after, Add&& add);
  /// Per-node counts over one whole frame of `schedule` (see FrameTotals).
  void count_frame_totals(const core::Schedule& schedule);
  void kill_node(std::size_t v);
  /// Sleep drain every live node has paid over `slots` slots, in battery
  /// units (the implicit part of the credit representation, see battery_).
  [[nodiscard]] std::int64_t paid_through(std::uint64_t slots) const {
    return b_sleep_ * static_cast<std::int64_t>(slots);
  }
  /// Death check for live node v right after its credit changed: it dies
  /// when the credit no longer covers `paid`; otherwise the credit lowers
  /// min_credit_, which keeps the bound below every live credit.
  void settle_credit(std::size_t v, std::int64_t paid) {
    if (battery_[v] <= paid) {
      kill_node(v);
    } else {
      min_credit_ = std::min(min_credit_, battery_[v]);
    }
  }
  /// The O(n) pass behind the min-credit bound: kills every live node whose
  /// credit no longer covers `paid` (sleepers die here; nothing touched
  /// them this slot) and recomputes min_credit_ exactly over the survivors.
  void settle_sleep_deaths(std::int64_t paid);

  // --- fault injection (all no-ops / never called unless fault_armed_) ---
  /// Applies every plan event due at now_, then refreshes the per-slot
  /// jam_active_ / fault_out_ sets. Runs before traffic and the MAC see
  /// the slot.
  void apply_fault_events();
  void apply_fault_event(const FaultEvent& e);
  /// True when the transmission x -> y is lost to accumulated clock drift
  /// (deterministic: a pure function of the plan's rates and now_).
  [[nodiscard]] bool drift_lost(std::size_t x, std::size_t y) const;
  /// Advances link (x, y)'s Gilbert-Elliott chain to now_ (closed-form
  /// k-step transition, lazily — idle links cost nothing) and draws the
  /// loss verdict from the link's OWN SplitMix64-derived stream.
  bool ge_lost(std::size_t x, std::size_t y);
  /// Rewrites state_slots[v][kSleep] from the identity
  ///   sleep = slots_participated - transmit - receive - listen;
  /// phase 3 never increments sleep counts eagerly.
  void finalize_sleep_counts();

  /// Queue mutations funnel through these so backlogged_ and
  /// unroutable_head_ stay exact. Tracking head routability incrementally
  /// (one cached-column lookup per head change) is what lets the batched
  /// phase 1 visit only eligible ∪ unroutable-head nodes instead of every
  /// backlogged node, while dropping unroutable packets in exactly the slot
  /// a node-at-a-time walk would.
  bool queue_push(std::size_t node, const Packet& p) {
    if (!queues_[node].push(p)) return false;
    backlogged_.set(node);
    if (queues_[node].size() == 1) refresh_head_routability(node);
    if (recording_) {
      record_flight(obs::FlightEvent::Kind::kEnqueued, node, p.origin, p.id,
                    static_cast<std::uint32_t>(queues_[node].size()));
      if (queues_[node].size() == 1) record_head_of_line(node);
    }
    return true;
  }
  void queue_pop(std::size_t node) {
    queues_[node].pop();
    if (queues_[node].empty()) {
      queue_drained(node);
    } else {
      refresh_head_routability(node);
      if (recording_) record_head_of_line(node);
    }
  }
  /// `node`'s queue just became empty: clears its mirror bits and tells the
  /// traffic source (TrafficSource::on_queue_drained). Out of line so that
  /// queue_pop stays small enough to inline into phase 1's per-node walk.
  void queue_drained(std::size_t node);
  void refresh_head_routability(std::size_t node) {
    const std::size_t hop = routing_view_->next_hop(node, queues_[node].front().destination);
    if (hop == static_cast<std::size_t>(-1)) {
      unroutable_head_.set(node);
    } else {
      unroutable_head_.reset(node);
    }
  }

  /// Flight-recorder emission. Every hook site is guarded by `recording_`,
  /// which step() refreshes once per slot from the installed recorder and
  /// the process-wide arming flag (the contract documented on
  /// SimConfig::recorder).
  void record_flight(obs::FlightEvent::Kind kind, std::size_t node, std::size_t peer,
                     std::uint64_t packet_id, std::uint32_t aux = 0) {
    obs::FlightEvent e;
    e.slot = now_;
    e.packet_id = packet_id;
    e.node = static_cast<std::uint32_t>(node);
    e.peer = static_cast<std::uint32_t>(peer);
    e.aux = aux;
    e.kind = kind;
    config_.recorder->record(e);
  }
  /// kHeadOfLine for the current head of `node`'s (non-empty) queue; peer
  /// is the next hop (kNoNode when unroutable), aux the queue depth.
  void record_head_of_line(std::size_t node);
  /// kCollided at receiver y of transmitter x, with the interferer set
  /// (the OTHER transmitting neighbors of y) recovered word-parallel from
  /// the phase-2 intersection neighbors(y) AND transmitting_.
  void record_collision(std::size_t y, std::size_t x, std::uint64_t packet_id);

  /// Live hot-path metric handles (all null when config.metrics is null).
  struct HotMetrics {
    obs::Counter* generated = nullptr;
    obs::Counter* transmissions = nullptr;
    obs::Counter* hop_successes = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* collisions = nullptr;
    obs::Counter* receiver_asleep = nullptr;
    obs::Counter* channel_losses = nullptr;
    obs::Counter* sync_losses = nullptr;
    obs::Counter* queue_drops = nullptr;
    obs::Histogram* latency = nullptr;
    // Registered only when a fault plan is armed (names stay absent from
    // unarmed registries).
    obs::Counter* fault_crashes = nullptr;
    obs::Counter* fault_recoveries = nullptr;
    obs::Counter* fault_battery_spikes = nullptr;
    obs::Counter* fault_jam_bursts = nullptr;
    obs::Counter* burst_losses = nullptr;
    obs::Counter* drift_losses = nullptr;
  };

  net::Graph graph_;
  MacProtocol& mac_;
  TrafficSource& traffic_;
  SimConfig config_;
  util::Xoshiro256 rng_;
  RoutingTable routing_;
  // Either &routing_ or config_.shared_routing; all next-hop queries go
  // through this so the two cases share one code path.
  const RoutingTable* routing_view_ = nullptr;
  std::vector<PacketQueue> queues_;
  SimStats stats_;
  HotMetrics hot_;
  bool recording_ = false;  // per-slot sample of (recorder installed && armed)
  std::uint64_t now_ = 0;
  std::uint64_t next_packet_id_ = 0;

  // Per-slot scratch, kept here so the steady-state hot path never touches
  // the allocator (the zero-allocation invariant, DESIGN.md §8). All node
  // sets are util::SlotSets, which pick their own representation: dense up
  // to 256 nodes, by population above (DESIGN.md §13), so phase costs
  // follow the slot's active population at large n.
  std::vector<std::size_t> tx_nodes_;
  std::vector<std::size_t> tx_targets_;
  util::SlotSet transmitting_;  // this slot's transmitters
  util::SlotSet receivers_;     // MAC's awake-receiver set for the slot
  util::SlotSet eligible_;      // MAC's eligible-transmitter set
  util::SlotSet backlogged_;    // {v : queue non-empty}, kept incrementally
  util::SlotSet unroutable_head_;  // {v : head of v's queue has no route}
  util::SlotSet prev_awake_;    // previous-slot awake set (wakeup accounting)
  util::SlotSet listen_;        // phase-3 scratch
  util::SlotSet awake_now_;     // phase-3 scratch
  util::SlotSet woke_;          // phase-3 scratch
  util::SlotSet scratch_;       // general per-slot scratch
  // Battery bookkeeping is INTEGER: nano-millijoule units, converted once
  // from the double-valued config at construction. Integer drains make
  // "k listen slots cost exactly k * per-slot cost" an identity rather than
  // a floating-point accident, which is what lets a charged span lump its
  // scheduled listening into one subtraction and still match the
  // slot-by-slot run bit for bit.
  //
  // battery_ holds CREDIT, not the remaining budget: for a live node,
  // credit = remaining + paid_through(now_), and a dead node holds 0. Every
  // live node pays the same b_sleep_ each slot, so that common drain stays
  // implicit in paid_through() and phase 3 touches awake nodes only, each
  // paying its surcharge over sleep. Since sleepers drain in lockstep, the
  // first sleeper to die is the live node with the lowest credit:
  // min_credit_ is a lower bound on every live credit (lowered with one
  // compare whenever a credit drops), and when it reaches the slot's
  // paid_through() the O(n) settle_sleep_deaths() pass runs — once per
  // death or stale bound, never per slot.
  std::vector<std::int64_t> battery_;  // credit units per node (battery_mj > 0 only)
  std::int64_t min_credit_ = 0;        // <= every live node's credit
  util::SlotSet dead_;          // depleted nodes
  std::vector<std::uint64_t> death_slot_;  // slot of death, kNeverDied while alive

  // Fault-injection state (sized / maintained only when fault_armed_).
  bool fault_armed_ = false;          // config_.fault_plan != nullptr
  bool fault_world_ = false;          // plan has timestamped events (crash/jam/...)
  bool fault_drift_ = false;          // plan has drift rates
  bool fault_ge_ = false;             // plan has an armed Gilbert-Elliott channel
  std::size_t fault_cursor_ = 0;      // next unapplied plan event
  util::SlotSet down_;          // crashed (recoverable) nodes
  util::SlotSet jamming_;       // nodes inside a jam burst
  util::SlotSet jam_active_;    // per slot: jamming_ minus dead_/down_
  util::SlotSet fault_out_;     // per slot: down_ | jam_active_ (phase-1 skip set)
  std::vector<std::uint64_t> down_since_;  // crash slot while down (recover aux)
  struct GeLink {
    util::Xoshiro256 rng;    // this link's private coin stream
    std::uint64_t last_slot = 0;
    bool bad = false;
  };
  std::unordered_map<std::uint64_t, GeLink> ge_links_;  // key = x * n + y
  // Per-slot energy constants in battery units (see battery_ above);
  // b_receive_ only feeds the per-node phase 3 (an idle_state() answer).
  std::int64_t b_transmit_ = 0, b_receive_ = 0, b_listen_ = 0, b_sleep_ = 0;
  std::int64_t b_wakeup_ = 0;

  // Charged spans. A periodic <T, R> makes each node's scheduled activity
  // over a stretch of frame slots a closed form, counted over the
  // schedule's pooled sets, each distinct set visited once with its
  // multiplicity. A whole frame's counts are kept per node: counted once
  // per simulator, at the first whole frame offered for charging, so
  // constructors stay cheap.
  struct FrameTotals {
    const core::Schedule* schedule = nullptr;  // the schedule counted, null before
    std::vector<std::uint32_t> listen;    // #{i : v ∈ R[i]}
    std::vector<std::uint32_t> wakes;     // #{i ≥ 1 : v ∈ R[i], v ∉ R[i-1]}
    std::vector<std::uint32_t> transmit;  // #{i : v ∈ T[i]}
  };
  FrameTotals frame_totals_;
  // A partial span is charged straight from its distinct pooled sets, and
  // so is an open frame's settle. The scratch is sized once to its bounds
  // (the pool sizes and the frame length) at the first partial span or
  // settle, so no later one allocates and a run that never cuts a frame
  // never allocates it.
  struct SpanScratch {
    std::vector<std::uint32_t> multiplicity;  // per pool index; zero between spans
    std::vector<std::uint32_t> pools;         // pool indices the span's slots use
    std::vector<std::uint64_t> pairs;         // (R[i-1], R[i]) pool-index pairs
  };
  SpanScratch span_;
  // Non-null inside a charged span, and between run() calls while a frame
  // is open: a span from a frame boundary charged through the frame's end
  // (span_last_ = L - 1) that the call stopped short of.
  const core::Schedule* charging_ = nullptr;
  std::uint64_t frame_start_ = 0;             // first slot of the charged span's frame
  std::size_t span_first_ = 0;                // the charged span's first and last
  std::size_t span_last_ = 0;                 // frame slots
  std::vector<std::size_t> prev_tx_nodes_;    // charged span: last slot's tx_nodes_
  // Set at construction when skip_sender_free may run (see run()); the
  // scratch below is allocated only then.
  bool skip_armed_ = false;
  util::DynamicBitset senders_;  // skip_sender_free scratch: live backlogged nodes
  ChargedSpanStats span_stats_;

  static constexpr std::uint64_t kNeverDied = ~std::uint64_t{0};
  /// Battery integer scale: 1e9 units per millijoule. The smallest per-slot
  /// cost (sleep, 3e-5 mJ) is 30 000 units, so every radio-state cost is
  /// exactly representable; the largest budget that fits comfortably is
  /// ~9e9 mJ, far beyond any config in the tree.
  static constexpr std::int64_t kBatteryUnitsPerMj = 1'000'000'000;
};

}  // namespace ttdc::sim
