// The frame-level fast-forward engine (contract in sim/fastforward.hpp).
//
// Four pieces, all private methods of Simulator so they can touch the
// per-slot state directly:
//
//   try_fast_forward  — the veto chain + memo lookup at a frame boundary;
//   frame_fingerprint — hash of everything that determines the frame;
//   verify_entry      — EXACT pre-state comparison (hashes only route to a
//                       candidate; equality is what licenses a replay);
//   record_frame      — step the frame normally while snapshotting, then
//                       diff into a memo entry unless the frame was tainted;
//   replay_frame      — apply a verified entry's delta, k frames at a time
//                       for self-loop entries.
//
// Exactness notes for the fault processes (why the taint rules are what
// they are): an armed Gilbert-Elliott channel only advances a link's chain
// inside ge_lost(), whose lazy catch-up is a closed-form function of the
// slots elapsed since the link's last use — so skipping slots in which no
// transmission touched the link yields the identical chain state, and
// memoizing only zero-transmission frames (the GE/drift taint) keeps every
// link stream byte-aligned with a slot-by-slot run. Clock drift is a pure
// function of now_ consulted only on transmissions, covered by the same
// rule. Jam frames memoize fine: jammers sit in transmitting_ (their transmit
// surcharge lands in the per-node credit deltas) without ever reaching the
// reception path.

#include "sim/simulator.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace ttdc::sim {

namespace {
constexpr auto kTransmitIdx = static_cast<std::size_t>(RadioState::kTransmit);
constexpr auto kListenIdx = static_cast<std::size_t>(RadioState::kListen);
}  // namespace

bool Simulator::try_fast_forward(std::uint64_t period, std::uint64_t run_end) {
  FastForwardState& ff = *ff_;
  // Veto chain — each of these is an invalidation source from the contract
  // in fastforward.hpp; any hit means this frame must run slot-accurately.
  if (config_.recorder != nullptr && obs::FlightRecorder::enabled()) {
    ++ff.stats.fallback_recorder;
    if (ff.m_fallback_recorder) ff.m_fallback_recorder->inc();
    return false;
  }
  const std::uint64_t frame_end = now_ + period;
  std::uint64_t next_fault = TrafficSource::kNoEmission;
  if (fault_world_) {
    const auto& events = config_.fault_plan->events();
    if (fault_cursor_ < events.size()) {
      next_fault = events[fault_cursor_].slot;
      if (next_fault < frame_end) {
        ++ff.stats.fallback_fault_event;
        if (ff.m_fallback_fault_event) ff.m_fallback_fault_event->inc();
        return false;
      }
    }
  }
  const std::uint64_t next_arrival = traffic_.next_emission(now_);
  if (next_arrival < frame_end) {
    ++ff.stats.fallback_arrival;
    if (ff.m_fallback_arrival) ff.m_fallback_arrival->inc();
    return false;
  }

  const std::uint64_t key = frame_fingerprint(period);
  auto it = ff.memo.find(key);
  if (it == ff.memo.end()) {
    // Miss: the frame runs slot-accurately inside record_frame, so it is
    // handled either way — the memo just may gain an entry for next time.
    record_frame(key, period);
    return true;
  }
  if (!verify_entry(it->second)) {
    // Hash collision or stale entry under an unhashed state change: never
    // replay, re-record under the same key (the world that is actually
    // present wins the slot).
    ++ff.stats.fallback_verify;
    if (ff.m_fallback_verify) ff.m_fallback_verify->inc();
    record_frame(key, period);
    return true;
  }
  const FastForwardState::Entry& entry = it->second;

  // Replay width: a self-loop frame leaves the world exactly as it found it
  // (battery aside), so it can stand in for every whole frame up to the
  // next event horizon. Non-self-loop frames replay one at a time — their
  // post-state differs from their pre-state, so chaining them would need a
  // fresh lookup anyway.
  std::uint64_t k = 1;
  if (entry.self_loop) {
    k = (run_end - now_) / period;  // >= 1: run() checked a whole frame fits
    if (next_arrival != TrafficSource::kNoEmission) {
      k = std::min(k, (next_arrival - now_) / period);
    }
    if (next_fault != TrafficSource::kNoEmission) {
      k = std::min(k, (next_fault - now_) / period);
    }
  }
  // Battery headroom: replay must stop strictly before any node's budget
  // would cross zero — the death slot (and everything downstream of it)
  // needs slot accuracy. Integer drains make this a pure division. A live
  // node's budget is its credit minus the sleep drain paid so far, and its
  // per-frame drain is the frame's sleep drain plus its credit delta (the
  // sparse states list, ascending by node, carries every non-zero one).
  if (config_.battery_mj > 0.0) {
    std::uint64_t k_batt = k;
    const std::size_t n = graph_.num_nodes();
    const std::int64_t paid = paid_through(now_);
    const std::int64_t frame_sleep = paid_through(period);
    auto delta = entry.states.begin();
    for (std::size_t v = 0; v < n && k_batt > 0; ++v) {
      std::int64_t drain = frame_sleep;
      if (delta != entry.states.end() && delta->node == v) {
        drain += delta->credit;
        ++delta;
      }
      if (drain <= 0 || dead_.test(v)) continue;
      const auto headroom = static_cast<std::uint64_t>((battery_[v] - paid - 1) / drain);
      k_batt = std::min(k_batt, headroom);
    }
    if (k_batt == 0) {
      ++ff.stats.fallback_battery;
      if (ff.m_fallback_battery) ff.m_fallback_battery->inc();
      return false;
    }
    k = k_batt;
  }
  replay_frame(entry, period, k);
  return true;
}

std::uint64_t Simulator::frame_fingerprint(std::uint64_t period) const {
  std::uint64_t h = util::kFnvOffsetBasis;
  h = util::fnv1a64_u64(h, ff_->graph_epoch);
  h = util::fnv1a64_u64(h, period);
  const auto fold_set = [&h](const util::SlotSet& s) {
    h = util::fnv1a64_u64(h, s.count());
    s.for_each([&h](std::size_t v) { h = util::fnv1a64_u64(h, v); });
  };
  fold_set(dead_);
  fold_set(prev_awake_);
  if (fault_armed_) {
    fold_set(down_);
    fold_set(jamming_);
  }
  // Queue contents, with packet creation times folded as AGES so two frames
  // at different absolute slots can share an entry. Battery levels are
  // deliberately NOT hashed: drains do not depend on them, and the replay
  // headroom check handles the death boundary instead — hashing them would
  // make every frame of a draining network unique and kill the memo.
  backlogged_.for_each([&](std::size_t v) {
    const PacketQueue& q = queues_[v];
    h = util::fnv1a64_u64(h, v);
    h = util::fnv1a64_u64(h, q.size());
    for (std::size_t i = 0; i < q.size(); ++i) {
      const Packet& p = q.at(i);
      h = util::fnv1a64_u64(h, p.origin);
      h = util::fnv1a64_u64(h, p.destination);
      h = util::fnv1a64_u64(h, p.hops);
      h = util::fnv1a64_u64(h, now_ - p.created_slot);
    }
  });
  return h;
}

bool Simulator::verify_entry(const FastForwardState::Entry& entry) const {
  const auto match_set = [](const util::SlotSet& s,
                            const std::vector<std::uint32_t>& members) {
    if (s.count() != members.size()) return false;
    for (const std::uint32_t v : members) {
      if (!s.test(v)) return false;
    }
    return true;
  };
  if (!match_set(dead_, entry.pre_dead)) return false;
  if (!match_set(prev_awake_, entry.pre_prev_awake)) return false;
  if (fault_armed_) {
    if (!match_set(down_, entry.pre_down)) return false;
    if (!match_set(jamming_, entry.pre_jamming)) return false;
  }
  if (backlogged_.count() != entry.pre_queues.size()) return false;
  for (const FastForwardState::PreQueue& pq : entry.pre_queues) {
    if (!backlogged_.test(pq.node)) return false;
    const PacketQueue& q = queues_[pq.node];
    if (q.size() != pq.packets.size()) return false;
    for (std::size_t i = 0; i < pq.packets.size(); ++i) {
      const Packet& p = q.at(i);
      const FastForwardState::PrePacket& pre = pq.packets[i];
      if (p.origin != static_cast<std::size_t>(pre.origin) ||
          p.destination != static_cast<std::size_t>(pre.destination) ||
          p.hops != pre.hops || now_ - p.created_slot != pre.age) {
        return false;
      }
    }
  }
  return true;
}

void Simulator::record_frame(std::uint64_t key, std::uint64_t period) {
  FastForwardState& ff = *ff_;
  const std::size_t n = graph_.num_nodes();
  FastForwardState::Entry entry;

  // --- pre-state capture (exactly what verify_entry re-checks) ---
  const auto members_of = [](const util::SlotSet& s, std::vector<std::uint32_t>& out) {
    out.clear();
    s.for_each([&out](std::size_t v) { out.push_back(static_cast<std::uint32_t>(v)); });
  };
  members_of(dead_, entry.pre_dead);
  members_of(prev_awake_, entry.pre_prev_awake);
  if (fault_armed_) {
    members_of(down_, entry.pre_down);
    members_of(jamming_, entry.pre_jamming);
  }
  ff.pre_packet_pos.clear();
  backlogged_.for_each([&](std::size_t v) {
    FastForwardState::PreQueue pq;
    pq.node = static_cast<std::uint32_t>(v);
    const PacketQueue& q = queues_[v];
    pq.packets.reserve(q.size());
    for (std::size_t i = 0; i < q.size(); ++i) {
      const Packet& p = q.at(i);
      FastForwardState::PrePacket pre;
      pre.age = now_ - p.created_slot;
      pre.origin = static_cast<std::uint32_t>(p.origin);
      pre.destination = static_cast<std::uint32_t>(p.destination);
      pre.hops = p.hops;
      pq.packets.push_back(pre);
      ff.pre_packet_pos.emplace(
          p.id, std::make_pair(static_cast<std::uint32_t>(entry.pre_queues.size()),
                               static_cast<std::uint32_t>(i)));
    }
    entry.pre_queues.push_back(std::move(pq));
  });

  // --- snapshots the post-frame diff is taken against ---
  const util::Xoshiro256 rng_before = rng_;
  const std::uint64_t pre_transmissions = stats_.transmissions;
  const std::uint64_t pre_hop_successes = stats_.hop_successes;
  const std::uint64_t pre_delivered = stats_.delivered;
  const std::uint64_t pre_collisions = stats_.collisions;
  const std::uint64_t pre_receiver_asleep = stats_.receiver_asleep;
  const std::uint64_t pre_queue_drops = stats_.queue_drops;
  const std::uint64_t pre_generated = stats_.generated;
  const std::uint64_t pre_deaths = stats_.deaths;
  const std::size_t pre_latency_count = stats_.latency.count();
  const std::size_t pre_fault_cursor = fault_cursor_;
  ff.pre_state_tx.resize(n);
  ff.pre_state_listen.resize(n);
  ff.pre_wakes.resize(n);
  ff.pre_delivered_by_origin.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    ff.pre_state_tx[v] = stats_.state_slots[v][kTransmitIdx];
    ff.pre_state_listen[v] = stats_.state_slots[v][kListenIdx];
    ff.pre_wakes[v] = stats_.wake_transitions[v];
    ff.pre_delivered_by_origin[v] = stats_.delivered_by_origin[v];
  }

  // --- the frame itself, slot-accurate (charged as one span when it can
  // be: the stats and state it leaves are the per-slot path's) ---
  step_span(now_ + period);

  // --- taint checks: anything a replay could not reproduce exactly ---
  // rng_ advancing means a per-slot draw happened on some path the arming
  // conditions did not rule out; generation/deaths/fault-cursor movement
  // mean the frame was not the silent, event-free window the veto chain
  // promised; and under an armed GE/drift channel any transmission consumed
  // per-link stream state (see the header comment).
  bool tainted = !(rng_before == rng_);
  tainted = tainted || stats_.generated != pre_generated;
  tainted = tainted || stats_.deaths != pre_deaths;
  tainted = tainted || fault_cursor_ != pre_fault_cursor;
  if (fault_ge_ || fault_drift_) {
    tainted = tainted || stats_.transmissions != pre_transmissions;
  }
  if (tainted) {
    ++ff.stats.frames_discarded;
    return;
  }

  // --- delta construction ---
  entry.transmissions = stats_.transmissions - pre_transmissions;
  entry.hop_successes = stats_.hop_successes - pre_hop_successes;
  entry.delivered = stats_.delivered - pre_delivered;
  entry.collisions = stats_.collisions - pre_collisions;
  entry.receiver_asleep = stats_.receiver_asleep - pre_receiver_asleep;
  entry.queue_drops = stats_.queue_drops - pre_queue_drops;
  const std::vector<std::uint64_t>& samples = stats_.latency.samples();
  entry.latency_samples.assign(
      samples.begin() + static_cast<std::ptrdiff_t>(pre_latency_count), samples.end());
  for (std::size_t v = 0; v < n; ++v) {
    const auto tx = static_cast<std::uint32_t>(stats_.state_slots[v][kTransmitIdx] -
                                               ff.pre_state_tx[v]);
    const auto listen = static_cast<std::uint32_t>(stats_.state_slots[v][kListenIdx] -
                                                   ff.pre_state_listen[v]);
    const auto wakes =
        static_cast<std::uint32_t>(stats_.wake_transitions[v] - ff.pre_wakes[v]);
    if (tx != 0 || listen != 0 || wakes != 0) {
      // An untainted frame kills nobody and applies no spike, so the only
      // credit movement is phase 3's surcharge over sleep on awake slots:
      // the credit delta follows from the radio-state delta, and a pure
      // sleeper's is zero.
      const std::int64_t credit = static_cast<std::int64_t>(tx) * (b_transmit_ - b_sleep_) +
                                  static_cast<std::int64_t>(listen) * (b_listen_ - b_sleep_) +
                                  static_cast<std::int64_t>(wakes) * b_wakeup_;
      entry.states.push_back({static_cast<std::uint32_t>(v), tx, listen, wakes, credit});
    }
    const std::uint64_t dlv = stats_.delivered_by_origin[v] - ff.pre_delivered_by_origin[v];
    if (dlv != 0) {
      entry.delivered_by_origin.push_back(
          {static_cast<std::uint32_t>(v), static_cast<std::uint32_t>(dlv)});
    }
  }
  // Post-queue mapping by packet id. A silent frame generates nothing, so
  // every surviving packet must map to a pre-state one — a miss means the
  // frame was not what the veto chain promised, and the entry is discarded
  // rather than guessed at.
  bool mappable = true;
  backlogged_.for_each([&](std::size_t v) {
    FastForwardState::PostQueue post;
    post.node = static_cast<std::uint32_t>(v);
    const PacketQueue& q = queues_[v];
    post.packets.reserve(q.size());
    for (std::size_t i = 0; i < q.size(); ++i) {
      const Packet& p = q.at(i);
      const auto it = ff.pre_packet_pos.find(p.id);
      if (it == ff.pre_packet_pos.end()) {
        mappable = false;
        return;
      }
      FastForwardState::PostPacket pp;
      pp.pre_queue = it->second.first;
      pp.pre_index = it->second.second;
      pp.hops_inc =
          p.hops - entry.pre_queues[pp.pre_queue].packets[pp.pre_index].hops;
      post.packets.push_back(pp);
    }
    entry.post_queues.push_back(std::move(post));
  });
  if (!mappable) {
    ++ff.stats.frames_discarded;
    return;
  }
  members_of(prev_awake_, entry.end_prev_awake);
  entry.self_loop = entry.pre_queues.empty() && entry.post_queues.empty() &&
                    entry.latency_samples.empty() && entry.delivered == 0 &&
                    entry.end_prev_awake == entry.pre_prev_awake;

  if (ff.memo.size() >= FastForwardState::kMemoCapacity &&
      ff.memo.find(key) == ff.memo.end()) {
    ff.memo.clear();
    ++ff.stats.memo_evictions;
  }
  ff.memo[key] = std::move(entry);
  ++ff.stats.frames_recorded;
  if (ff.m_frames_recorded) ff.m_frames_recorded->inc();
}

void Simulator::replay_frame(const FastForwardState::Entry& entry, std::uint64_t period,
                             std::uint64_t k) {
  TTDC_PROF_SCOPE("sim.ff.replay");
  FastForwardState& ff = *ff_;
  TTDC_DCHECK(entry.self_loop || k == 1, "non-self-loop entry replayed ", k, " frames");

  if (!entry.self_loop) {
    // Queue rewrite: gather every pre-queue's live packets first (a post
    // packet may have hopped between queues), then clear, then push the
    // mapped post-state. Live ids/origins/created_slots flow through from
    // the current packets; only positions and hop counts come from the
    // entry.
    auto& scratch = ff.rewrite_scratch;
    scratch.resize(entry.pre_queues.size());
    for (std::size_t qi = 0; qi < entry.pre_queues.size(); ++qi) {
      const std::size_t node = entry.pre_queues[qi].node;
      const PacketQueue& q = queues_[node];
      scratch[qi].clear();
      scratch[qi].reserve(q.size());
      for (std::size_t i = 0; i < q.size(); ++i) scratch[qi].push_back(q.at(i));
      queues_[node].clear();
      backlogged_.reset(node);
      unroutable_head_.reset(node);
    }
    for (const FastForwardState::PostQueue& post : entry.post_queues) {
      for (const FastForwardState::PostPacket& pp : post.packets) {
        Packet p = scratch[pp.pre_queue][pp.pre_index];
        p.hops += pp.hops_inc;
        [[maybe_unused]] const bool pushed = queues_[post.node].push(p);
        TTDC_DCHECK(pushed, "fast-forward replay overflowed node ", post.node,
                    "'s queue (capacity ", queues_[post.node].capacity(), ")");
      }
      backlogged_.set(post.node);
      refresh_head_routability(post.node);
    }
    // The rewrite bypasses queue_pop, so it reports the queues it emptied.
    for (const FastForwardState::PreQueue& pre : entry.pre_queues) {
      if (queues_[pre.node].empty()) traffic_.on_queue_drained(pre.node);
    }
  }

  stats_.transmissions += entry.transmissions * k;
  stats_.hop_successes += entry.hop_successes * k;
  stats_.delivered += entry.delivered * k;
  stats_.collisions += entry.collisions * k;
  stats_.receiver_asleep += entry.receiver_asleep * k;
  stats_.queue_drops += entry.queue_drops * k;
  if (hot_.transmissions && entry.transmissions) hot_.transmissions->inc(entry.transmissions * k);
  if (hot_.hop_successes && entry.hop_successes) hot_.hop_successes->inc(entry.hop_successes * k);
  if (hot_.delivered && entry.delivered) hot_.delivered->inc(entry.delivered * k);
  if (hot_.collisions && entry.collisions) hot_.collisions->inc(entry.collisions * k);
  if (hot_.receiver_asleep && entry.receiver_asleep) {
    hot_.receiver_asleep->inc(entry.receiver_asleep * k);
  }
  if (hot_.queue_drops && entry.queue_drops) hot_.queue_drops->inc(entry.queue_drops * k);
  for (const std::uint64_t sample : entry.latency_samples) {
    stats_.latency.record(sample);
    if (hot_.latency) hot_.latency->observe(static_cast<double>(sample));
  }
  for (const FastForwardState::OriginDelta& d : entry.delivered_by_origin) {
    stats_.delivered_by_origin[d.node] += static_cast<std::uint64_t>(d.delivered) * k;
  }
  // Sleepers' drain is implicit in paid_through(now_), which the now_
  // advance below covers; only the nodes awake in the frame are charged.
  const bool battery_armed = config_.battery_mj > 0.0;
  for (const FastForwardState::NodeStateDelta& d : entry.states) {
    stats_.state_slots[d.node][kTransmitIdx] +=
        static_cast<std::uint64_t>(d.transmit_slots) * k;
    stats_.state_slots[d.node][kListenIdx] +=
        static_cast<std::uint64_t>(d.listen_slots) * k;
    stats_.wake_transitions[d.node] += static_cast<std::uint64_t>(d.wake_transitions) * k;
    if (battery_armed) {
      battery_[d.node] -= d.credit * static_cast<std::int64_t>(k);
      min_credit_ = std::min(min_credit_, battery_[d.node]);
    }
  }
  prev_awake_.reset_all();
  for (const std::uint32_t v : entry.end_prev_awake) prev_awake_.set(v);

  now_ += k * period;
  stats_.slots_run += k * period;
  ff.stats.frames_replayed += k;
  ff.stats.slots_replayed += k * period;
  if (ff.m_frames_replayed) ff.m_frames_replayed->inc(k);
  if (ff.m_slots_replayed) ff.m_slots_replayed->inc(k * period);
}

}  // namespace ttdc::sim
