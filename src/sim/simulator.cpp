#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <span>

#include "obs/profile.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace ttdc::sim {

namespace {
constexpr std::size_t kNoHop = static_cast<std::size_t>(-1);
constexpr auto kTransmitIdx = static_cast<std::size_t>(RadioState::kTransmit);
constexpr auto kReceiveIdx = static_cast<std::size_t>(RadioState::kReceive);
constexpr auto kListenIdx = static_cast<std::size_t>(RadioState::kListen);
constexpr auto kSleepIdx = static_cast<std::size_t>(RadioState::kSleep);
}  // namespace

Simulator::Simulator(net::Graph graph, MacProtocol& mac, TrafficSource& traffic,
                     const SimConfig& config)
    : graph_(std::move(graph)), mac_(mac), traffic_(traffic), config_(config),
      rng_(config.seed), routing_(graph_),
      queues_(graph_.num_nodes(), PacketQueue(config.queue_capacity)),
      transmitting_(graph_.num_nodes()), receivers_(graph_.num_nodes()),
      eligible_(graph_.num_nodes()), backlogged_(graph_.num_nodes()),
      unroutable_head_(graph_.num_nodes()),
      prev_awake_(graph_.num_nodes()),  // nodes boot asleep
      listen_(graph_.num_nodes()), awake_now_(graph_.num_nodes()),
      woke_(graph_.num_nodes()), scratch_(graph_.num_nodes()) {
  const std::size_t n = graph_.num_nodes();
  stats_.state_slots.assign(n, {0, 0, 0, 0});
  stats_.delivered_by_origin.assign(n, 0);
  stats_.wake_transitions.assign(n, 0);
  // Battery state is integer (nano-mJ units, see the header): converted
  // once here, drained in exact integer steps from then on.
  const auto to_units = [](double mj) {
    return static_cast<std::int64_t>(
        std::llround(mj * static_cast<double>(kBatteryUnitsPerMj)));
  };
  TTDC_ASSERT(config_.battery_mj >= 0.0 && config_.battery_mj < 9.0e9,
              "battery_mj ", config_.battery_mj, " outside the representable range");
  battery_.assign(n, to_units(config_.battery_mj));  // credit at slot 0 = budget
  min_credit_ = to_units(config_.battery_mj);
  dead_ = util::SlotSet(n);
  death_slot_.assign(n, kNeverDied);
  // A schedule over more nodes than the graph runs per node (see run());
  // one over fewer would leave nodes outside its sets, and the MAC's
  // per-node queries would read past them.
  if (const core::Schedule* schedule = mac_.periodic_schedule()) {
    TTDC_ASSERT(schedule->num_nodes() >= n, "MAC's periodic schedule covers ",
                schedule->num_nodes(), " nodes, the graph has ", n);
  }
  routing_view_ = config_.shared_routing != nullptr ? config_.shared_routing : &routing_;
  if (config_.shared_routing != nullptr) {
    TTDC_ASSERT(config_.shared_routing->cached_destinations() == n,
                "shared_routing must be fully built (build_all_columns) over a graph "
                "with the simulator's node count");
  }
  tx_nodes_.reserve(n);
  tx_targets_.reserve(n);
  prev_tx_nodes_.reserve(n);
  // The working sets are sized to their bounds here, so no slot's set
  // algebra allocates, whatever populations the run reaches.
  for (util::SlotSet* set : {&transmitting_, &receivers_, &eligible_, &backlogged_,
                             &unroutable_head_, &prev_awake_, &listen_, &awake_now_, &woke_,
                             &scratch_, &dead_}) {
    set->reserve_bounds();
  }
  b_transmit_ = to_units(config_.energy.energy_mj(RadioState::kTransmit, 1));
  b_receive_ = to_units(config_.energy.energy_mj(RadioState::kReceive, 1));
  b_listen_ = to_units(config_.energy.energy_mj(RadioState::kListen, 1));
  b_sleep_ = to_units(config_.energy.energy_mj(RadioState::kSleep, 1));
  b_wakeup_ = to_units(config_.energy.wakeup_mj);
  fault_armed_ = config_.fault_plan != nullptr;
  if (fault_armed_) {
    TTDC_ASSERT(config_.fault_plan->num_nodes() == n,
                "fault plan built for ", config_.fault_plan->num_nodes(),
                " nodes, simulator has ", n);
    // The per-slot bitset recomputation only runs when the plan actually
    // schedules world events; an armed-but-empty plan costs one branch per
    // slot, which is what lets the <2% disarmed-overhead gate hold.
    fault_world_ = !config_.fault_plan->events().empty();
    fault_drift_ = config_.fault_plan->has_drift();
    fault_ge_ = config_.fault_plan->has_link_loss();
    down_ = util::SlotSet(n);
    jamming_ = util::SlotSet(n);
    jam_active_ = util::SlotSet(n);
    fault_out_ = util::SlotSet(n);
    for (util::SlotSet* set : {&down_, &jamming_, &jam_active_, &fault_out_}) {
      set->reserve_bounds();
    }
    down_since_.assign(n, 0);
  }
  // The skip's arming (see run()): every per-slot randomness source it
  // would pass over must be absent. Channel imperfections draw from rng_ in
  // the slots a skip would pass, and an opaque traffic source cannot say
  // when its next packet arrives. Randomized MACs advertise no periodic
  // schedule, so their slots never form the charged spans the skip runs in.
  skip_armed_ = config_.packet_error_rate == 0.0 && config_.sync_miss_rate == 0.0 &&
                traffic_.supports_lookahead();
  if (skip_armed_) senders_ = util::DynamicBitset(n);
}

void Simulator::set_graph(net::Graph graph) {
  TTDC_ASSERT(graph.num_nodes() == graph_.num_nodes(),
              "set_graph cannot change the node count: ", graph.num_nodes(), " vs ",
              graph_.num_nodes());
  settle_open_frame();
  graph_ = std::move(graph);
  routing_.set_graph(graph_);
  // A shared table describes the old topology; fall back to the internal
  // (lazily rebuilt) one from here on.
  routing_view_ = &routing_;
  // Head routability is a function of the routes; recheck every backlogged
  // head against the new topology.
  backlogged_.for_each([&](std::size_t v) { refresh_head_routability(v); });
  mac_.on_topology_change(graph_);
}

void Simulator::audit_invariants() const {
  settle_open_frame();
#if TTDC_ENABLE_CHECKS
  const std::size_t n = graph_.num_nodes();

  // Queues and their incremental mirrors. backlogged_ and unroutable_head_
  // are maintained by queue_push/queue_pop/refresh_head_routability; here
  // they are recomputed from scratch and compared.
  for (std::size_t v = 0; v < n; ++v) {
    queues_[v].audit_invariants();
    TTDC_DCHECK(backlogged_.test(v) == !queues_[v].empty(),
                "backlogged_ bit for node ", v, " disagrees with queue size ",
                queues_[v].size());
    if (queues_[v].empty()) {
      TTDC_DCHECK(!unroutable_head_.test(v),
                  "unroutable_head_ set for node ", v, " with an empty queue");
    } else {
      const std::size_t hop = routing_view_->next_hop(v, queues_[v].front().destination);
      TTDC_DCHECK(unroutable_head_.test(v) == (hop == kNoHop),
                  "unroutable_head_ bit for node ", v,
                  " disagrees with routing (next hop ", hop, ")");
    }
  }

  // Battery / death bookkeeping. kill_node() is the only writer of dead_,
  // death_slot_ and the zeroed credit, so these must agree exactly; a live
  // node has budget left and sits at or above the min-credit bound phase 3
  // relies on to find sleeper deaths.
  const std::int64_t paid = paid_through(now_);
  for (std::size_t v = 0; v < n; ++v) {
    TTDC_DCHECK(dead_.test(v) == (death_slot_[v] != kNeverDied),
                "dead_ bit for node ", v, " disagrees with death_slot_ ", death_slot_[v]);
    if (config_.battery_mj > 0.0) {
      if (dead_.test(v)) {
        TTDC_DCHECK(battery_[v] == 0, "dead node ", v, " holds ", battery_[v], " credit");
      } else {
        TTDC_DCHECK(battery_[v] - paid > 0, "alive node ", v, " at ", battery_[v] - paid,
                    " units");
        TTDC_DCHECK(battery_[v] >= min_credit_, "alive node ", v, " credit ", battery_[v],
                    " below the min-credit bound ", min_credit_);
      }
    }
  }
  TTDC_DCHECK(!transmitting_.intersects(dead_), "a dead node is in the transmitter set");

  // Fault-injection state: crashed nodes never transmit (events apply at
  // slot start, so unlike battery deaths this cannot race phase 3), jammers
  // active this slot are a subset of the in-burst set, and the phase-1 skip
  // set is exactly down | jam_active.
  if (fault_armed_) {
    TTDC_DCHECK(!transmitting_.intersects(down_),
                "a crashed node is in the transmitter set");
    for (std::size_t v = 0; v < n; ++v) {
      if (jam_active_.test(v)) {
        TTDC_DCHECK(jamming_.test(v), "jam_active_ node ", v, " is not in a jam burst");
      }
      TTDC_DCHECK(fault_out_.test(v) == (down_.test(v) || jam_active_.test(v)),
                  "fault_out_ bit for node ", v, " disagrees with down_/jam_active_");
    }
    TTDC_DCHECK(fault_cursor_ <= config_.fault_plan->events().size(),
                "fault cursor ran past the plan");
  }

  // State-slot counters: a node accrues transmit/receive/listen slots only
  // while participating (finalize_sleep_counts() derives sleep from this
  // identity, so underflow here would wrap the sleep counter).
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t passes =
        death_slot_[v] == kNeverDied ? stats_.slots_run : death_slot_[v] + 1;
    const auto& s = stats_.state_slots[v];
    TTDC_DCHECK(s[kTransmitIdx] + s[kReceiveIdx] + s[kListenIdx] <= passes,
                "node ", v, " active-state slots ",
                s[kTransmitIdx] + s[kReceiveIdx] + s[kListenIdx],
                " exceed its ", passes, " participated slots");
  }

  // MAC batched-vs-scalar cross-check (the fill_slot_sets() contract in
  // mac.hpp). Local sets: the audit must not clobber the per-slot scratch.
  util::SlotSet recv(n);
  util::SlotSet elig(n);
  if (mac_.fill_slot_sets(recv, elig)) {
    TTDC_DCHECK(recv.size() == n && elig.size() == n,
                "fill_slot_sets resized its bitsets: ", recv.size(), " / ", elig.size());
    const bool gates = mac_.sender_gates_on_receiver();
    for (std::size_t v = 0; v < n; ++v) {
      TTDC_DCHECK(recv.test(v) == mac_.can_receive(v),
                  "MAC receiver set disagrees with can_receive at node ", v);
      // The sleep promise phase 3 depends on: not transmitting, not
      // receiving => asleep.
      if (!recv.test(v) && !elig.test(v)) {
        TTDC_DCHECK(mac_.idle_state(v) == RadioState::kSleep,
                    "MAC broke the sleep contract: node ", v,
                    " is in neither slot set but idle_state != kSleep");
      }
      // Transmit decisions: replay the batched phase-1 predicate against
      // the scalar answer for every backlogged node with a routable head.
      if (!dead_.test(v) && !queues_[v].empty()) {
        const std::size_t hop = routing_view_->next_hop(v, queues_[v].front().destination);
        if (hop != kNoHop) {
          const bool batched_tx = elig.test(v) && (!gates || recv.test(hop));
          TTDC_DCHECK(mac_.wants_transmit(v, hop) == batched_tx,
                      "MAC transmit sets disagree with wants_transmit: node ", v,
                      " -> ", hop, " (batched says ", batched_tx, ")");
        }
      }
    }
  }
#endif
}

void Simulator::inject(std::size_t origin, std::size_t destination) {
  if (dead_.test(origin)) return;  // a dead sensor senses nothing
  if (fault_world_ && down_.test(origin)) return;  // neither does a crashed one
  ++stats_.generated;
  Packet p;
  p.id = next_packet_id_++;
  p.origin = origin;
  p.destination = destination;
  p.created_slot = now_;
  if (recording_) record_flight(obs::FlightEvent::Kind::kCreated, origin, destination, p.id);
  if (!queue_push(origin, p)) {
    ++stats_.queue_drops;
    if (recording_) record_flight(obs::FlightEvent::Kind::kDropped, origin, origin, p.id);
  }
}

void Simulator::run(std::uint64_t slots) {
  TTDC_DCHECK(now_ + slots >= now_, "slot counter would wrap: now ", now_, " + ", slots);
  const std::uint64_t end = now_ + slots;
  // The call is cut at the frame boundaries of the MAC's periodic schedule
  // into spans: whole frames, and the ragged head and tail the call's ends
  // leave; step_span continues a frame the previous call left open first.
  // A MAC without a schedule over this graph steps slot by slot in a loop
  // as tight as a plain one. The schedule is queried once per call: only
  // set_graph(), which settles any open frame, can change it.
  const core::Schedule* schedule = mac_.periodic_schedule();
  if (schedule == nullptr || schedule->num_nodes() != graph_.num_nodes()) {
    TTDC_DCHECK(charging_ == nullptr, "open frame under a MAC that left its schedule");
    while (now_ < end) step();
    return;
  }
  TTDC_DCHECK(charging_ == nullptr || charging_ == schedule,
              "open frame of a schedule the MAC no longer advertises");
  const std::uint64_t period = schedule->frame_length();
  while (now_ < end) step_span(*schedule, std::min(end, now_ + period - now_ % period));
}

void Simulator::step() {
  TTDC_PROF_SCOPE("sim.step");
  // The whole flight-recorder cost when disarmed: a null check and (with a
  // recorder installed) one relaxed load, sampled once per slot.
  recording_ = config_.recorder != nullptr && obs::FlightRecorder::enabled();
  // World faults land before traffic and the MAC see the slot, so a node
  // that crashes at slot t is already gone when slot t's packets arrive.
  if (fault_world_) apply_fault_events();
  {
    TTDC_PROF_SCOPE("sim.step.traffic");
    traffic_.generate(now_, rng_, [&](std::size_t o, std::size_t d) { inject(o, d); });
    mac_.begin_slot(now_, rng_);
  }

  // One virtual call per slot replaces the O(n) per-node queries: the MAC
  // publishes its slot as two sets (or falls back to per-node queries for
  // phases 1 and 3 while phase 2 stays word-parallel).
  const bool mac_batched = mac_.fill_slot_sets(receivers_, eligible_);
  collect_transmissions(mac_batched);
  // Jammers join the transmitter set AFTER collection (they carry no
  // packet, so they never enter tx_nodes_) and BEFORE resolution, where
  // they collide with any reception in their neighborhood.
  if (fault_world_) transmitting_ |= jam_active_;
  resolve_receptions();
  if (charging_ != nullptr) {
    TTDC_DCHECK(mac_batched && receivers_ == charging_->receivers(now_ - frame_start_) &&
                    eligible_ == charging_->transmitters(now_ - frame_start_),
                "MAC slot sets differ from its periodic_schedule() at slot ", now_);
    charge_transmitters();
  } else if (mac_batched) {
    account_energy_batched();
  } else {
    account_energy_scalar();
  }

  ++now_;
  ++stats_.slots_run;
}

// Phase 1: word-parallel selection of the nodes that can matter this slot.
// With a batched MAC only an eligible transmitter can send and only an
// unroutable queue head can be dropped, so the visit set shrinks from every
// backlogged node to backlogged ∩ (eligible ∪ unroutable-head) — under a
// duty-cycled schedule that is a duty-cycle fraction of n. The transmit
// decision is two bit tests instead of a virtual call.
void Simulator::collect_transmissions(bool mac_batched) {
  TTDC_PROF_SCOPE("sim.step.collect");
  tx_nodes_.clear();
  tx_targets_.clear();
  transmitting_.reset_all();
  const bool gates = mac_batched && mac_.sender_gates_on_receiver();
  // When no queue head is unroutable (the steady state of a connected
  // deployment) the visit set below is a subset of eligible_, so the
  // per-visit eligibility test is a constant `true`; hoisting it saves a
  // sparse-membership search per visited node when eligible_ is sparse. The
  // emptiness check is taken before the loop — no pop below can create an
  // unroutable head, because pops only happen when one already exists.
  const bool all_eligible = mac_batched && unroutable_head_.none();
  if (mac_batched) {
    scratch_.copy_from(eligible_);
    scratch_ |= unroutable_head_;
    scratch_ &= backlogged_;
  } else {
    // Scalar-only MAC: wants_transmit() may be true for any node, so every
    // backlogged node must be offered the slot.
    scratch_.copy_from(backlogged_);
  }
  scratch_.subtract(dead_);
  if (fault_world_) scratch_.subtract(fault_out_);  // down or jamming
  scratch_.for_each([&](std::size_t v) {
    auto& q = queues_[v];
    while (!q.empty()) {
      const std::size_t hop = routing_view_->next_hop(v, q.front().destination);
      if (hop == kNoHop) {
        if (config_.drop_unroutable) {
          ++stats_.queue_drops;
          if (recording_) {
            record_flight(obs::FlightEvent::Kind::kExpired, v, q.front().origin,
                          q.front().id);
          }
          queue_pop(v);
          continue;  // look at the next packet
        }
        break;  // stall
      }
      const bool tx = mac_batched
                          ? ((all_eligible || eligible_.test(v)) &&
                             (!gates || receivers_.test(hop)))
                          : mac_.wants_transmit(v, hop);
      if (tx) {
        tx_nodes_.push_back(v);
        tx_targets_.push_back(hop);
        transmitting_.set(v);
        if (recording_) {
          record_flight(obs::FlightEvent::Kind::kTxAttempt, v, hop, q.front().id);
        }
      }
      break;
    }
  });
}

// Phase 2: resolve receptions under the collision-at-receiver model.
void Simulator::resolve_receptions() {
  TTDC_PROF_SCOPE("sim.step.resolve");
  stats_.transmissions += tx_nodes_.size();
  for (std::size_t i = 0; i < tx_nodes_.size(); ++i) {
    const std::size_t x = tx_nodes_[i];
    const std::size_t y = tx_targets_[i];
    if (dead_.test(y) || (fault_world_ && down_.test(y)) || !receivers_.test(y) ||
        transmitting_.test(y)) {
      ++stats_.receiver_asleep;
      if (recording_) {
        record_flight(obs::FlightEvent::Kind::kReceiverAsleep, y, x, queues_[x].front().id);
      }
      continue;
    }
    // Collision iff any other transmitter is in y's neighborhood. x is a
    // transmitting neighbor of y (next hops are neighbors), so counting
    // transmitting neighbors word-parallel — no materialized intersection,
    // no allocation — gives: collision iff the count exceeds one.
    if (graph_.neighbors(y).intersection_count(transmitting_) > 1) {
      ++stats_.collisions;
      if (recording_) record_collision(y, x, queues_[x].front().id);
      continue;
    }
    // Injected channel faults, both drawing from plan-derived streams (or
    // no stream at all) — never from rng_, so arming an empty plan leaves
    // the run bit-identical to an unarmed one.
    if (fault_armed_) {
      if (fault_drift_ && drift_lost(x, y)) {
        ++stats_.drift_losses;
        if (recording_) {
          record_flight(obs::FlightEvent::Kind::kDriftLoss, y, x, queues_[x].front().id);
        }
        continue;
      }
      if (fault_ge_ && ge_lost(x, y)) {
        ++stats_.burst_losses;
        if (recording_) {
          record_flight(obs::FlightEvent::Kind::kBurstLoss, y, x, queues_[x].front().id);
        }
        continue;
      }
    }
    // Channel imperfections: slot misalignment, then fading/noise.
    if (config_.sync_miss_rate > 0.0 && rng_.bernoulli(config_.sync_miss_rate)) {
      ++stats_.sync_losses;
      if (recording_) {
        record_flight(obs::FlightEvent::Kind::kSyncLoss, y, x, queues_[x].front().id);
      }
      continue;
    }
    if (config_.packet_error_rate > 0.0 && rng_.bernoulli(config_.packet_error_rate)) {
      ++stats_.channel_losses;
      if (recording_) {
        record_flight(obs::FlightEvent::Kind::kChannelLoss, y, x, queues_[x].front().id);
      }
      continue;
    }
    // Success: dequeue at x, deliver or forward at y.
    Packet p = queues_[x].front();
    queue_pop(x);
    ++stats_.hop_successes;
    if (p.destination == y) {
      ++stats_.delivered;
      ++stats_.delivered_by_origin[p.origin];
      stats_.latency.record(now_ - p.created_slot);
      if (recording_) {
        record_flight(obs::FlightEvent::Kind::kDelivered, y, p.origin, p.id,
                      static_cast<std::uint32_t>(now_ - p.created_slot));
      }
    } else {
      if (recording_) record_flight(obs::FlightEvent::Kind::kHopDelivered, y, x, p.id);
      if (!queue_push(y, p)) {
        ++stats_.queue_drops;
        if (recording_) record_flight(obs::FlightEvent::Kind::kDropped, y, p.origin, p.id);
      }
    }
  }
}

void Simulator::queue_drained(std::size_t node) {
  backlogged_.reset(node);
  unroutable_head_.reset(node);
  traffic_.on_queue_drained(node);
}

void Simulator::record_head_of_line(std::size_t node) {
  const Packet& head = queues_[node].front();
  const std::size_t hop = routing_view_->next_hop(node, head.destination);
  record_flight(obs::FlightEvent::Kind::kHeadOfLine, node,
                hop == kNoHop ? obs::FlightEvent::kNoNode
                              : static_cast<std::uint32_t>(hop),
                head.id, static_cast<std::uint32_t>(queues_[node].size()));
}

void Simulator::record_collision(std::size_t y, std::size_t x, std::uint64_t packet_id) {
  obs::FlightEvent e;
  e.slot = now_;
  e.packet_id = packet_id;
  e.node = static_cast<std::uint32_t>(y);
  e.peer = static_cast<std::uint32_t>(x);
  e.kind = obs::FlightEvent::Kind::kCollided;
  // The interferer set is exactly the phase-2 intersection neighbors(y) AND
  // transmitting_, minus the tracked transmitter x — recovered here without
  // materializing a set, on the recording path only (the collision verdict
  // itself never pays for this).
  std::size_t count = 0;
  graph_.neighbors(y).for_each_intersection(transmitting_, [&](std::size_t v) {
    if (v == x) return;
    if (count < obs::FlightEvent::kMaxInterferers) {
      e.interferers[count] = static_cast<std::uint32_t>(v);
    }
    ++count;
  });
  e.interferer_count = static_cast<std::uint8_t>(
      count > 255 ? 255 : count);
  config_.recorder->record(e);
}

void Simulator::kill_node(std::size_t v) {
  // A transmitter can die in phase 3 of the slot it sent in; it leaves the
  // slot's transmitter set then, so the set never holds a dead node (which
  // audit_invariants() checks between run() calls).
  transmitting_.reset(v);
  dead_.set(v);
  battery_[v] = 0;
  death_slot_[v] = now_;
  ++stats_.deaths;
  stats_.first_death_slot = std::min(stats_.first_death_slot, now_);
}

void Simulator::apply_fault_events() {
  const auto& events = config_.fault_plan->events();
  while (fault_cursor_ < events.size() && events[fault_cursor_].slot <= now_) {
    apply_fault_event(events[fault_cursor_]);
    ++fault_cursor_;
  }
  // Per-slot derived sets: jammers emit only while powered and not crashed;
  // phase 1 skips down and jamming nodes alike.
  jam_active_.copy_from(jamming_);
  jam_active_.subtract(dead_);
  jam_active_.subtract(down_);
  fault_out_.copy_from(down_);
  fault_out_ |= jam_active_;
}

void Simulator::apply_fault_event(const FaultEvent& e) {
  const std::size_t v = e.node;
  const auto flight = [&](obs::FlightEvent::Kind kind, std::uint32_t aux) {
    if (recording_) {
      record_flight(kind, v, obs::FlightEvent::kNoNode, obs::FlightEvent::kNoPacket, aux);
    }
  };
  switch (e.kind) {
    case FaultEvent::Kind::kCrash:
      if (dead_.test(v) || down_.test(v)) return;  // already gone
      down_.set(v);
      down_since_[v] = now_;
      ++stats_.fault_crashes;
      flight(obs::FlightEvent::Kind::kFaultCrash, 0);
      return;
    case FaultEvent::Kind::kRecover:
      if (!down_.test(v)) return;  // never crashed, or battery-dead for good
      down_.reset(v);
      ++stats_.fault_recoveries;
      flight(obs::FlightEvent::Kind::kFaultRecover,
             static_cast<std::uint32_t>(now_ - down_since_[v]));
      return;
    case FaultEvent::Kind::kBatterySpike:
      if (dead_.test(v)) return;
      ++stats_.fault_battery_spikes;
      flight(obs::FlightEvent::Kind::kFaultBatterySpike,
             static_cast<std::uint32_t>(e.magnitude_mj));
      if (config_.battery_mj > 0.0) {
        // Lands before the slot's drain: the budget left is what the slots
        // run so far have not paid.
        battery_[v] -= static_cast<std::int64_t>(
            std::llround(e.magnitude_mj * static_cast<double>(kBatteryUnitsPerMj)));
        settle_credit(v, paid_through(now_));
      }
      return;
    case FaultEvent::Kind::kJamStart:
      if (jamming_.test(v)) return;
      jamming_.set(v);
      ++stats_.fault_jam_bursts;
      flight(obs::FlightEvent::Kind::kFaultJamStart, 0);
      return;
    case FaultEvent::Kind::kJamEnd:
      if (!jamming_.test(v)) return;
      jamming_.reset(v);
      flight(obs::FlightEvent::Kind::kFaultJamEnd, 0);
      return;
  }
}

bool Simulator::drift_lost(std::size_t x, std::size_t y) const {
  const FaultPlanConfig& fc = config_.fault_plan->config();
  const std::vector<double>& rates = config_.fault_plan->drift_rates();
  // Relative misalignment grows linearly since the last resync epoch (or
  // since boot when resync is disabled) — the sawtooth degradation pattern.
  const double phase = fc.resync_interval > 0
                           ? static_cast<double>(now_ % fc.resync_interval)
                           : static_cast<double>(now_);
  return std::abs((rates[x] - rates[y]) * phase) > fc.drift_guard;
}

bool Simulator::ge_lost(std::size_t x, std::size_t y) {
  const GilbertElliott& ge = config_.fault_plan->config().link_loss;
  const std::uint64_t key =
      static_cast<std::uint64_t>(x) * graph_.num_nodes() + static_cast<std::uint64_t>(y);
  const auto [it, inserted] = ge_links_.try_emplace(key);
  GeLink& link = it->second;
  double p_bad;
  if (inserted) {
    // First use: private stream from the plan's link seed; the chain starts
    // in its stationary distribution.
    link.rng = util::Xoshiro256(util::mix64(config_.fault_plan->link_stream_seed() ^ key));
    p_bad = ge.stationary_bad();
  } else {
    // Lazy evolution: collapse the k idle slots since last use with the
    // closed-form k-step transition
    //   P(bad at t+k) = pi + (bad_t - pi) * (1 - a - b)^k,  pi = a / (a + b),
    // so the chain costs one pow per *use*, not one draw per slot.
    const auto k = static_cast<double>(now_ - link.last_slot);
    const double pi = ge.stationary_bad();
    const double decay = std::pow(1.0 - ge.p_good_to_bad - ge.p_bad_to_good, k);
    p_bad = pi + ((link.bad ? 1.0 : 0.0) - pi) * decay;
  }
  link.bad = link.rng.uniform01() < p_bad;
  link.last_slot = now_;
  const double loss = link.bad ? ge.loss_bad : ge.loss_good;
  return loss > 0.0 && link.rng.uniform01() < loss;
}

// Phase 3 (per node): energy accounting for a MAC without slot sets (dead
// nodes draw nothing and stay dead). Receivers come from the receivers_ set
// the base fill_slot_sets() filled; idle_state() is queried per idle node.
// Like the batched phase 3, sleep slots are left to finalize_sleep_counts(),
// and batteries use the same credit arithmetic: awake nodes pay their
// surcharge over sleep, sleepers pay nothing explicitly.
void Simulator::account_energy_scalar() {
  TTDC_PROF_SCOPE("sim.step.energy");
  const std::size_t n = graph_.num_nodes();
  const bool battery_armed = config_.battery_mj > 0.0;
  const std::int64_t paid = battery_armed ? paid_through(now_ + 1) : 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (dead_.test(v)) continue;
    RadioState state;
    if (fault_world_ && down_.test(v)) {
      state = RadioState::kSleep;  // a crashed radio is off (sleep-rate drain)
    } else if (transmitting_.test(v)) {
      state = RadioState::kTransmit;
    } else if (receivers_.test(v)) {
      state = RadioState::kListen;  // eligible receiver: awake whether or
                                    // not a packet actually arrived
    } else {
      state = mac_.idle_state(v);
    }
    const bool asleep = state == RadioState::kSleep;
    if (!asleep) ++stats_.state_slots[v][static_cast<std::size_t>(state)];
    const bool woke = !prev_awake_.test(v) && !asleep;
    if (woke) ++stats_.wake_transitions[v];
    if (asleep) {
      prev_awake_.reset(v);
    } else {
      prev_awake_.set(v);
    }
    if (battery_armed && !asleep) {
      const std::int64_t cost = state == RadioState::kTransmit  ? b_transmit_
                                : state == RadioState::kReceive ? b_receive_
                                                                : b_listen_;
      battery_[v] -= cost - b_sleep_;
      if (woke) battery_[v] -= b_wakeup_;
      settle_credit(v, paid);
    }
  }
  if (battery_armed && min_credit_ <= paid) settle_sleep_deaths(paid);
}

// Phase 3 (batched): the slot's radio states as set algebra. Relies on the
// fill_slot_sets() contract — a node that neither transmits nor receives
// sleeps — so no virtual call is made at all. Neither sleep-slot counters
// (derived in finalize_sleep_counts()) nor sleep drain (implicit in the
// credit representation, see battery_ in the header) is touched per
// sleeper, making the slot cost O(awake nodes), not O(n).
void Simulator::account_energy_batched() {
  TTDC_PROF_SCOPE("sim.step.energy");
  // listen = (receivers \ transmitters) \ dead; transmitters exclude the
  // dead already (phase 1 never visits them).
  listen_.copy_from(receivers_);
  listen_.subtract(transmitting_);
  listen_.subtract(dead_);
  if (fault_world_) listen_.subtract(down_);  // crashed radios are off
  awake_now_.copy_from(listen_);
  awake_now_ |= transmitting_;
  transmitting_.for_each([&](std::size_t v) { ++stats_.state_slots[v][kTransmitIdx]; });
  listen_.for_each([&](std::size_t v) { ++stats_.state_slots[v][kListenIdx]; });
  woke_.copy_from(awake_now_);
  woke_.subtract(prev_awake_);
  woke_.for_each([&](std::size_t v) { ++stats_.wake_transitions[v]; });
  if (config_.battery_mj > 0.0) {
    // Awake nodes pay their surcharge over sleep, then the death check runs
    // over them; a sleeper can only die once the min-credit bound reaches
    // the slot's sleep drain, which the settle pass resolves. Integer
    // credits make the outcome bit-identical to the per-node phase 3.
    transmitting_.for_each([&](std::size_t v) { battery_[v] -= b_transmit_ - b_sleep_; });
    listen_.for_each([&](std::size_t v) { battery_[v] -= b_listen_ - b_sleep_; });
    woke_.for_each([&](std::size_t v) { battery_[v] -= b_wakeup_; });
    const std::int64_t paid = paid_through(now_ + 1);
    awake_now_.for_each([&](std::size_t v) { settle_credit(v, paid); });
    if (min_credit_ <= paid) settle_sleep_deaths(paid);
  }  // else: early-out — unlimited energy means no drain and no deaths.
  prev_awake_.copy_from(awake_now_);
}

// Charged spans: phase 3 split into a per-span part and a per-slot part.
// run() hands step_span() every stretch [a, b) of frame slots it steps
// inside one frame: whole frames ([0, L)) and the ragged head and tail a
// call boundary leaves. Under a periodic <T, R> a transmitter is never a
// scheduled listener (T[i] ∩ R[i] = ∅), so a live node listens in exactly
// its scheduled slots of the span whatever the traffic does, and wakes at
// each scheduled wake unless a transmission moves it. The span start
// charges the scheduled listening and wakes — those at a+1..b-1 plus slot
// a's wake against the real prev_awake_ — to every live node; each slot
// then charges only its transmitters. A transmitter at frame slot i adds a
// wake when it slept at i-1 (not in R[i-1] and not transmitting, or at slot
// a not in prev_awake_) and cancels the scheduled wake at i+1 when it is in
// R[i+1] inside the span. Charging up front is exact only if nobody dies
// inside the span, which begin_charged_span() proves before it charges
// anything.
//
// A tail from a frame boundary is charged as the whole frame [0, L) when
// that bound holds through the frame's end, and stays open: the next call
// continues it, and an observer settles it first (settle_frame). So a run
// cut into calls that nobody observes in between pays the frame totals
// once per frame, as an uncut run does.
void Simulator::step_span(const core::Schedule& schedule, std::uint64_t stop) {
  if (charging_ == nullptr) begin_charged_span(schedule, stop);
  if (charging_ == nullptr) {
    ++span_stats_.per_slot;
    while (now_ < stop) step();
    return;
  }
  ++span_stats_.charged;
  const std::uint64_t span_end = frame_start_ + span_last_ + 1;
  while (now_ < stop) {
    if (skip_armed_) {
      skip_sender_free(stop);
      if (now_ == stop) break;
    }
    step();
  }
  if (now_ == span_end) charging_ = nullptr;
}

void Simulator::skip_sender_free(std::uint64_t stop) {
  std::uint64_t until = std::min(stop, traffic_.next_emission(now_));
  if (until <= now_) return;  // a packet arrives in this slot
  // Phase 1 visits only live backlogged nodes that are in T[i] or hold an
  // unroutable head; an unroutable head is visited (dropped or stalled)
  // in every slot, so none may be live.
  if (unroutable_head_.count() > unroutable_head_.intersection_count(dead_)) return;
  if (backlogged_.count() > backlogged_.intersection_count(dead_)) {
    // The scan tests each T[i] member against plain bits: a few loads per
    // slot, the whole cost of a skipped slot.
    senders_.reset_all();
    backlogged_.for_each([&](std::size_t v) {
      if (!dead_.test(v)) senders_.set(v);
    });
    const std::span<const util::SlotSet> pool = charging_->transmit_pool();
    const std::span<const std::uint32_t> index = charging_->transmit_index();
    std::uint64_t t = now_;
    for (; t < until; ++t) {
      bool sends = false;
      pool[index[t - frame_start_]].for_each(
          [&](std::size_t v) { sends = sends || senders_.test(v); });
      if (sends) break;
    }
    until = t;
  }
  if (until == now_) return;
  span_stats_.skipped += until - now_;
  stats_.slots_run += until - now_;
  now_ = until;
  // The state a sender-free slot leaves: nobody transmitting, and at the
  // span's last slot charge_transmitters' prev_awake_ = R[last] \ dead.
  tx_nodes_.clear();
  tx_targets_.clear();
  transmitting_.reset_all();
  prev_tx_nodes_.clear();
  if (now_ == frame_start_ + span_last_ + 1) {
    prev_awake_.copy_from(charging_->receivers(span_last_));
    prev_awake_.subtract(dead_);
  }
}

namespace {

/// Weights each distinct pooled set that `index` names by the number of
/// entries naming it and calls add(v, weight) for each of its members.
/// `multiplicity` covers the pool and is zero on entry and on exit;
/// `pools` is scratch with capacity for the distinct sets named.
template <typename Add>
void count_pool(std::span<const util::SlotSet> pool, std::span<const std::uint32_t> index,
                std::vector<std::uint32_t>& multiplicity, std::vector<std::uint32_t>& pools,
                Add&& add) {
  pools.clear();
  for (const std::uint32_t p : index) {
    if (multiplicity[p]++ == 0) pools.push_back(p);
  }
  for (const std::uint32_t p : pools) {
    const std::uint32_t weight = multiplicity[p];
    multiplicity[p] = 0;
    pool[p].for_each([&](std::size_t v) { add(v, weight); });
  }
}

/// Calls add(v, weight) for the scheduled wakes at frame slots first+1 ..
/// end-1: each distinct (R[i-1], R[i]) pair of pool indices once, sorted so
/// equal pairs are adjacent, for the members of R[i] \ R[i-1] (word by word
/// for a dense R[i]: 1.5-2x faster than a membership test per member on the
/// bench/e2e recipe). `pairs` is scratch with capacity for end - first
/// entries.
template <typename Add>
void count_wakes(const core::Schedule& schedule, std::size_t first, std::size_t end,
                 std::vector<std::uint64_t>& pairs, Add&& add) {
  const std::span<const util::SlotSet> r_pool = schedule.receive_pool();
  const std::span<const std::uint32_t> r_of = schedule.receive_index();
  pairs.clear();
  for (std::size_t i = first + 1; i < end; ++i) {
    if (r_of[i - 1] != r_of[i]) {
      pairs.push_back(std::uint64_t{r_of[i - 1]} << 32 | r_of[i]);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  constexpr std::size_t kBits = util::DynamicBitset::kWordBits;
  const std::size_t words = (schedule.num_nodes() + kBits - 1) / kBits;
  for (std::size_t k = 0; k < pairs.size();) {
    std::size_t run = k + 1;
    while (run < pairs.size() && pairs[run] == pairs[k]) ++run;
    const auto weight = static_cast<std::uint32_t>(run - k);
    const util::SlotSet& before = r_pool[pairs[k] >> 32];
    const util::SlotSet& after = r_pool[pairs[k] & 0xffffffffu];
    if (!after.is_dense()) {
      after.for_each([&](std::size_t v) {
        if (!before.test(v)) add(v, weight);
      });
    } else {
      for (std::size_t w = 0; w < words; ++w) {
        util::SlotSet::Word bits = after.word(w) & ~before.word(w);
        while (bits != 0) {
          add(w * kBits + static_cast<std::size_t>(std::countr_zero(bits)), weight);
          bits &= bits - 1;
        }
      }
    }
    k = run;
  }
}

std::size_t largest_pool(const core::Schedule& schedule) {
  return std::max(schedule.receive_pool().size(), schedule.transmit_pool().size());
}

}  // namespace

template <typename Add>
void Simulator::count_span(const core::Schedule& schedule, std::size_t first, std::size_t end,
                           std::size_t after, Add&& add) {
  SpanScratch& scratch = span_;
  const std::size_t period = schedule.frame_length();
  if (scratch.multiplicity.size() < largest_pool(schedule) || scratch.pairs.capacity() < period) {
    // Sized once to the bounds, so no later span allocates.
    scratch.multiplicity.assign(largest_pool(schedule), 0);
    scratch.pools.reserve(std::min<std::size_t>(period, scratch.multiplicity.size()));
    scratch.pairs.reserve(period);
  }
  count_pool(schedule.receive_pool(), schedule.receive_index().subspan(first, end - first),
             scratch.multiplicity, scratch.pools,
             [&](std::size_t v, std::uint32_t weight) { add(v, weight, 0); });
  count_wakes(schedule, after, end, scratch.pairs,
              [&](std::size_t v, std::uint32_t weight) { add(v, 0, weight); });
}

void Simulator::begin_charged_span(const core::Schedule& schedule, std::uint64_t stop) {
  TTDC_PROF_SCOPE("sim.frame.charge");
  charging_ = nullptr;
  const std::size_t n = graph_.num_nodes();
  // An armed plan changes a span only through its events or continuous
  // processes; an inert one leaves the run bit-identical to an unarmed run,
  // so its spans are charged like the unarmed run's.
  if (fault_world_ || fault_drift_ || fault_ge_) return;
  const std::uint64_t period = schedule.frame_length();
  const auto first = static_cast<std::size_t>(now_ % period);
  if (stop - now_ > period - first) return;  // not inside one frame
  const bool battery_armed = config_.battery_mj > 0.0;
  // No death inside the span: a node's remaining budget never rises from
  // slot to slot, so it suffices that the span's worst-case charge leaves
  // every live node above the sleep drain paid through the span's end. A
  // slot costs a node at most its dearest radio state's surcharge over
  // sleep plus one wakeup, so a span ending at `through` kills nobody when
  // min_credit_ exceeds paid_through(through) by more than its length in
  // such slots. A partial span needs that closed form; a span charged
  // through its frame's end that fails it is checked node by node against
  // the frame totals below.
  const std::int64_t slot_worst =
      std::max<std::int64_t>({0, b_listen_ - b_sleep_, b_transmit_ - b_sleep_}) +
      std::max<std::int64_t>(0, b_wakeup_);
  const auto closed_form = [&](std::uint64_t through) {
    const std::int64_t paid = paid_through(through);
    return !battery_armed ||
           (min_credit_ > paid &&
            (slot_worst == 0 ||
             (min_credit_ - paid - 1) / slot_worst >= static_cast<std::int64_t>(through - now_)));
  };
  // Slot a's wakes, taken against prev_awake_; the totals and the pair
  // count hold the scheduled wakes at a+1..b-1.
  woke_.copy_from(schedule.receivers(first));
  woke_.subtract(prev_awake_);
  woke_.subtract(dead_);
  const bool any_dead = dead_.any();
  const auto alive = [&](std::size_t v) { return !any_dead || !dead_.test(v); };
  const auto scheduled_cost = [&](std::int64_t listen, std::int64_t wakes) {
    return listen * (b_listen_ - b_sleep_) + wakes * b_wakeup_;
  };
  const FrameTotals& totals = frame_totals_;
  // Node by node over the whole frame. A transmit slot costs at most its
  // surcharge plus one wakeup; when that is negative (sleep dearer than
  // transmit) the cheapest case is no transmission at all, hence the clamp
  // at zero.
  const auto frame_survives = [&](std::uint64_t frame_end) {
    const std::int64_t paid = paid_through(frame_end);
    const std::int64_t tx_worst =
        std::max<std::int64_t>(0, b_transmit_ - b_sleep_ + b_wakeup_);
    for (std::size_t v = 0; v < n; ++v) {
      if (!alive(v)) continue;
      const std::int64_t worst =
          battery_[v] - scheduled_cost(totals.listen[v], totals.wakes[v] + woke_.test(v)) -
          static_cast<std::int64_t>(totals.transmit[v]) * tx_worst;
      if (worst <= paid) return false;
    }
    return true;
  };
  // A span from a frame boundary is charged through the frame's end from
  // the frame totals: a whole frame, or one the call stops short of, which
  // then stays open for the next call. That needs nobody to die before the
  // frame's end; an open frame that cannot prove it is charged as the
  // partial span [a, stop) instead.
  bool whole = false;
  if (first == 0) {
    if (frame_totals_.schedule != &schedule) count_frame_totals(schedule);
    whole = closed_form(now_ + period) || frame_survives(now_ + period);
    if (!whole && stop - now_ == period) return;
  }
  if (!whole && !closed_form(stop)) return;
  const std::size_t end = whole ? period : first + static_cast<std::size_t>(stop - now_);
  // The bound is the lowest credit any write leaves, so it lies at or below
  // every charged node's final credit. A whole frame writes each live node
  // once and then its slot-a wake, which only lowers it, so there the bound
  // is exactly the lowest live credit.
  std::int64_t bound = std::numeric_limits<std::int64_t>::max();
  const auto charge = [&](std::size_t v, std::uint32_t listen, std::uint32_t wakes) {
    stats_.state_slots[v][kListenIdx] += listen;
    stats_.wake_transitions[v] += wakes;
    if (battery_armed) {
      battery_[v] -= scheduled_cost(listen, wakes);
      bound = std::min(bound, battery_[v]);
    }
  };
  if (whole) {
    // Every live node from the frame totals, so the bound is over all of
    // them.
    for (std::size_t v = 0; v < n; ++v) {
      if (alive(v)) charge(v, totals.listen[v], totals.wakes[v]);
    }
  } else {
    // Straight from the span's distinct pooled sets, each member charged
    // with its set's multiplicity: work in proportion to the sets and their
    // members, never to n.
    count_span(schedule, first, end, first,
               [&](std::size_t v, std::uint32_t listen, std::uint32_t wakes) {
                 if (alive(v)) charge(v, listen, wakes);
               });
  }
  woke_.for_each([&](std::size_t v) { charge(v, 0, 1); });
  if (battery_armed) min_credit_ = whole ? bound : std::min(min_credit_, bound);
  frame_start_ = now_ - first;
  span_first_ = first;
  span_last_ = end - 1;
  charging_ = &schedule;
}


void Simulator::settle_frame() {
  TTDC_PROF_SCOPE("sim.frame.settle");
  const core::Schedule& schedule = *charging_;
  const std::size_t period = schedule.frame_length();
  // The open frame ran [0, cut), 0 < cut < L: the partial span the call
  // boundary cuts charges listening at 0..cut-1 and scheduled wakes at
  // 1..cut-1 where the open frame charged 0..L-1 and 1..L-1 (slot 0's wake
  // is common to both), and nobody died in it, so every live node is
  // charged in both.
  const auto cut = static_cast<std::size_t>(now_ - frame_start_);
  const bool battery_armed = config_.battery_mj > 0.0;
  const bool any_dead = dead_.any();
  const auto alive = [&](std::size_t v) { return !any_dead || !dead_.test(v); };
  // Moves node v by `sign` (+1 charge, -1 refund) times the counts; the
  // min-credit bound follows every write, so it stays below every live
  // credit when a refund lowers one (sleep dearer than listening).
  const auto adjust = [&](std::size_t v, std::int64_t sign, std::uint32_t listen,
                        std::uint32_t wakes) {
    stats_.state_slots[v][kListenIdx] += static_cast<std::uint64_t>(sign * listen);
    stats_.wake_transitions[v] += static_cast<std::uint64_t>(sign * wakes);
    if (battery_armed) {
      battery_[v] -= sign * (static_cast<std::int64_t>(listen) * (b_listen_ - b_sleep_) +
                             static_cast<std::int64_t>(wakes) * b_wakeup_);
      min_credit_ = std::min(min_credit_, battery_[v]);
    }
  };
  if (cut <= period - cut) {
    // The run prefix is the shorter side: take back the frame totals, then
    // charge the prefix's listening at 0..cut-1 and wakes at 1..cut-1.
    const FrameTotals& totals = frame_totals_;
    for (std::size_t v = 0; v < schedule.num_nodes(); ++v) {
      if (alive(v)) adjust(v, -1, totals.listen[v], totals.wakes[v]);
    }
    count_span(schedule, 0, cut, 0,
               [&](std::size_t v, std::uint32_t listen, std::uint32_t wakes) {
                 if (alive(v)) adjust(v, +1, listen, wakes);
               });
  } else {
    // Refund the unrun suffix: listening at cut..L-1, wakes at cut..L-1.
    count_span(schedule, cut, period, cut - 1,
               [&](std::size_t v, std::uint32_t listen, std::uint32_t wakes) {
                 if (alive(v)) adjust(v, -1, listen, wakes);
               });
  }
  // A transmitter at cut-1 in R[cut] cancelled its scheduled wake at cut,
  // which the span ending at cut-1 never does; the charge above took that
  // wake back, so it is owed again.
  const util::SlotSet& next = schedule.receivers(cut);
  for (const std::size_t v : prev_tx_nodes_) {
    if (next.test(v)) adjust(v, +1, 0, 1);
  }
  // charge_transmitters' state after the span's last slot.
  prev_awake_.copy_from(schedule.receivers(cut - 1));
  prev_awake_.subtract(dead_);
  for (const std::size_t v : prev_tx_nodes_) prev_awake_.set(v);
  charging_ = nullptr;
  ++span_stats_.settled;
}

void Simulator::charge_transmitters() {
  TTDC_PROF_SCOPE("sim.step.energy");
  const core::Schedule& schedule = *charging_;
  const auto i = static_cast<std::size_t>(now_ - frame_start_);
  const bool battery_armed = config_.battery_mj > 0.0;
  // No fault plan is armed, so transmitting_ holds exactly tx_nodes_
  // (ascending, as phase 1 visits them).
  for (const std::size_t v : tx_nodes_) {
    ++stats_.state_slots[v][kTransmitIdx];
    const bool was_awake =
        i == span_first_
            ? prev_awake_.test(v)
            : schedule.receivers(i - 1).test(v) ||
                  std::binary_search(prev_tx_nodes_.begin(), prev_tx_nodes_.end(), v);
    const bool cancels = i < span_last_ && schedule.receivers(i + 1).test(v);
    std::int64_t credit = b_transmit_ - b_sleep_;
    if (!was_awake && !cancels) {
      ++stats_.wake_transitions[v];
      credit += b_wakeup_;
    } else if (was_awake && cancels) {
      --stats_.wake_transitions[v];
      credit -= b_wakeup_;
    }
    if (battery_armed) {
      battery_[v] -= credit;
      min_credit_ = std::min(min_credit_, battery_[v]);
    }
  }
  if (i == span_last_) {
    prev_awake_.copy_from(schedule.receivers(i));
    prev_awake_.subtract(dead_);
    for (const std::size_t v : tx_nodes_) prev_awake_.set(v);
  } else {
    prev_tx_nodes_.assign(tx_nodes_.begin(), tx_nodes_.end());
  }
}

void Simulator::count_frame_totals(const core::Schedule& schedule) {
  TTDC_PROF_SCOPE("sim.frame.totals");
  const std::size_t n = schedule.num_nodes();
  const std::size_t frame = schedule.frame_length();
  FrameTotals& totals = frame_totals_;
  totals.listen.assign(n, 0);
  totals.wakes.assign(n, 0);
  totals.transmit.assign(n, 0);
  const auto add_to = [](std::vector<std::uint32_t>& out) {
    return [&out](std::size_t v, std::uint32_t weight) { out[v] += weight; };
  };
  // The scratch is transient: a run that never cuts a frame keeps nothing
  // beyond the totals.
  {
    std::vector<std::uint32_t> multiplicity(largest_pool(schedule), 0);
    std::vector<std::uint32_t> pools;
    pools.reserve(multiplicity.size());
    count_pool(schedule.receive_pool(), schedule.receive_index(), multiplicity, pools,
               add_to(totals.listen));
    count_pool(schedule.transmit_pool(), schedule.transmit_index(), multiplicity, pools,
               add_to(totals.transmit));
  }
  std::vector<std::uint64_t> pairs;
  pairs.reserve(frame);
  count_wakes(schedule, 0, frame, pairs, add_to(totals.wakes));
  totals.schedule = &schedule;
}

void Simulator::settle_sleep_deaths(std::int64_t paid) {
  std::int64_t bound = std::numeric_limits<std::int64_t>::max();
  const std::size_t n = graph_.num_nodes();
  for (std::size_t v = 0; v < n; ++v) {
    if (dead_.test(v)) continue;
    if (battery_[v] <= paid) {
      kill_node(v);
    } else {
      bound = std::min(bound, battery_[v]);
    }
  }
  min_credit_ = bound;
}

void Simulator::finalize_sleep_counts() {
  const std::size_t n = stats_.state_slots.size();
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t passes =
        death_slot_[v] == kNeverDied ? stats_.slots_run : death_slot_[v] + 1;
    auto& s = stats_.state_slots[v];
    s[kSleepIdx] = passes - s[kTransmitIdx] - s[kReceiveIdx] - s[kListenIdx];
  }
}

}  // namespace ttdc::sim
