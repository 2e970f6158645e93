// Frame-level fast-forwarding: memoized per-frame deltas for static
// stretches of a periodic-MAC simulation.
//
// The paper's schedules are periodic with frame length L, so whenever the
// world is unchanged across a frame — same topology epoch, same per-node
// queue contents (up to packet age), same dead/crashed/jamming sets, same
// previous-slot awake set — the frame's slot-by-slot outcome repeats
// EXACTLY. The engine exploits that: at a frame boundary it fingerprints
// the world, and when the fingerprint has been seen before it verifies the
// full memoized pre-state (hash collisions can never corrupt a run) and
// applies the frame's recorded delta in O(state) instead of stepping L
// slots. A memoized frame whose delta is a pure self-loop (no queue or
// awake-set change: the idle steady state of a lifetime run) is replayed k
// frames at a time, turning event-free stretches from O(slots) into
// O(events).
//
// The invalidation contract is exact, not heuristic — replay is vetoed (and
// the engine falls back to slot-accurate stepping) whenever ANY of these
// fires:
//   * the traffic source reports an emission inside the upcoming frame
//     (TrafficSource::next_emission — only lookahead-capable sources arm
//     the engine at all);
//   * a scheduled fault-plan event lands inside the frame;
//   * the battery model would cross a death boundary during the replayed
//     window (the exact death slot needs slot accuracy);
//   * the flight recorder is armed (replay emits no per-packet events);
//   * the stored pre-state fails verification against the live state.
// set_graph() (topology churn) bumps the graph epoch and clears the memo
// outright, and frames that consumed simulator randomness, killed a node,
// or transmitted under an armed Gilbert-Elliott/drift channel are never
// memoized in the first place (the taint checks in record).
//
// Golden SimStats equality between fast-forward on and off — across all
// five MACs, fault storms, and sizes — is the non-negotiable test for all
// of this (tests/test_fastforward.cpp); FastForwardStats deliberately
// lives OUTSIDE SimStats so that equality (and the campaign journal's
// byte-identity) holds by construction. See DESIGN.md §15.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/packet.hpp"

namespace ttdc::obs {
class Counter;  // obs/metrics.hpp
}

namespace ttdc::sim {

/// Fast-forward accounting, exposed via Simulator::fast_forward_stats() and
/// (when a metrics registry is wired) ttdc_sim_ff_* counters. NOT part of
/// SimStats: two runs differing only in the fast_forward flag must produce
/// bit-identical SimStats, and campaign journal contributions must stay
/// byte-identical.
struct FastForwardStats {
  std::uint64_t frames_replayed = 0;   // frames applied from the memo
  std::uint64_t slots_replayed = 0;    // slots covered by those frames
  std::uint64_t frames_recorded = 0;   // frames stepped AND memoized
  std::uint64_t frames_discarded = 0;  // frames stepped but tainted (not memoized)
  std::uint64_t memo_evictions = 0;    // whole-memo clears on capacity
  std::uint64_t graph_invalidations = 0;  // set_graph() memo clears
  // Fallback causes: frame boundaries where replay was vetoed and the
  // engine stepped slot-accurately instead (the per-cause histogram the
  // obs counters mirror).
  std::uint64_t fallback_arrival = 0;      // traffic emission inside the frame
  std::uint64_t fallback_fault_event = 0;  // fault-plan event inside the frame
  std::uint64_t fallback_battery = 0;      // death crossing inside the window
  std::uint64_t fallback_recorder = 0;     // armed flight recorder
  std::uint64_t fallback_verify = 0;       // fingerprint hit, pre-state mismatch
};

/// Internal engine state, owned by the Simulator when (and only when) the
/// arming conditions hold; every member is documented against the replay
/// algorithm in sim/fastforward.cpp.
struct FastForwardState {
  /// Queue-resident packet as fingerprinted and verified: identity fields
  /// that determine future behavior, with created_slot expressed as an AGE
  /// (now - created) so frames at different absolute times can match.
  /// Packet ids are deliberately excluded — they are labels, not behavior —
  /// and the replay mapping below carries the live ids through.
  struct PrePacket {
    std::uint64_t age = 0;
    std::uint32_t origin = 0;
    std::uint32_t destination = 0;
    std::uint32_t hops = 0;
  };
  struct PreQueue {
    std::uint32_t node = 0;
    std::vector<PrePacket> packets;
  };
  /// One post-state queue slot: which pre-state packet lands here (by its
  /// position in pre_queues) and how many hops it gained. Silent frames
  /// generate nothing, so every surviving packet maps to a pre-state one.
  struct PostPacket {
    std::uint32_t pre_queue = 0;  // index into Entry::pre_queues
    std::uint32_t pre_index = 0;  // position within that queue
    std::uint32_t hops_inc = 0;
  };
  struct PostQueue {
    std::uint32_t node = 0;
    std::vector<PostPacket> packets;
  };
  /// Sparse per-node increments over the frame, for the nodes awake in it.
  /// `credit` is the battery credit spent (Simulator::battery_): awake slots'
  /// surcharge over sleep plus wakeups. A pure sleeper's is zero — its sleep
  /// drain is implicit in the slot count — so it has no entry at all.
  struct NodeStateDelta {
    std::uint32_t node = 0;
    std::uint32_t transmit_slots = 0;
    std::uint32_t listen_slots = 0;
    std::uint32_t wake_transitions = 0;
    std::int64_t credit = 0;
  };
  struct OriginDelta {
    std::uint32_t node = 0;
    std::uint32_t delivered = 0;
  };

  struct Entry {
    // --- pre-state, verified field-by-field before any replay ---
    std::vector<PreQueue> pre_queues;           // every backlogged node, ascending
    std::vector<std::uint32_t> pre_prev_awake;  // members, ascending
    std::vector<std::uint32_t> pre_dead;
    std::vector<std::uint32_t> pre_down;     // fault world only
    std::vector<std::uint32_t> pre_jamming;  // fault world only
    // --- the frame's delta ---
    std::uint64_t transmissions = 0;
    std::uint64_t hop_successes = 0;
    std::uint64_t delivered = 0;
    std::uint64_t collisions = 0;
    std::uint64_t receiver_asleep = 0;
    std::uint64_t queue_drops = 0;
    std::vector<std::uint64_t> latency_samples;  // in delivery order
    std::vector<OriginDelta> delivered_by_origin;
    std::vector<NodeStateDelta> states;  // ascending by node
    std::vector<PostQueue> post_queues;
    std::vector<std::uint32_t> end_prev_awake;  // members, ascending
    /// True when the frame is a fixed point of the world (empty queues in
    /// and out, no deliveries, awake set unchanged): replayable k frames at
    /// a time with all scalar deltas scaled by k.
    bool self_loop = false;
  };

  /// Fingerprint -> memoized frame. Lookup-only (iteration order never
  /// escapes); cleared wholesale on set_graph() and on capacity overflow.
  std::unordered_map<std::uint64_t, Entry> memo;
  /// Bumped by set_graph(); folded into every fingerprint so stale entries
  /// can never match even transiently.
  std::uint64_t graph_epoch = 0;
  FastForwardStats stats;

  // Live metric handles (null without a metrics registry).
  obs::Counter* m_frames_replayed = nullptr;
  obs::Counter* m_slots_replayed = nullptr;
  obs::Counter* m_frames_recorded = nullptr;
  obs::Counter* m_fallback_arrival = nullptr;
  obs::Counter* m_fallback_fault_event = nullptr;
  obs::Counter* m_fallback_battery = nullptr;
  obs::Counter* m_fallback_recorder = nullptr;
  obs::Counter* m_fallback_verify = nullptr;

  // Recording scratch, reused across frames (no steady-state allocation
  // once warmed): pre-frame snapshots the record path diffs against.
  std::vector<std::uint64_t> pre_state_tx;      // per-node transmit slots
  std::vector<std::uint64_t> pre_state_listen;  // per-node listen slots
  std::vector<std::uint64_t> pre_wakes;
  std::vector<std::uint64_t> pre_delivered_by_origin;
  /// packet id -> (pre_queue index, position) for the post-state mapping.
  std::unordered_map<std::uint64_t, std::pair<std::uint32_t, std::uint32_t>> pre_packet_pos;
  /// Replay scratch: materialized source-queue contents during a rewrite.
  std::vector<std::vector<Packet>> rewrite_scratch;

  /// Memo capacity before a wholesale clear. Distinct world states in a
  /// lifetime run are few (idle frame per jam/crash combination, a handful
  /// of drain patterns); a tiny cache holds them all, and clearing on
  /// overflow keeps the worst case bounded without an LRU chain.
  static constexpr std::size_t kMemoCapacity = 64;
};

}  // namespace ttdc::sim
