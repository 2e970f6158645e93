// Post-mortem layer over a FlightRecorder ring: JSONL dump/load (the
// `ttdc-trace` interchange format) and the FlightLog query API answering
// the per-packet questions the aggregate counters cannot — worst-latency
// packet paths, per-node timelines, collision hot-spot rankings with
// explicit interferer causality, a truncation-aware self-consistency
// check for rings that wrapped mid-run, and the SimStats counters a
// complete stream rebuilds, cross-checked against the live run.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "sim/stats.hpp"

namespace ttdc::obs {

/// Inverse of flight_kind_name; false if `name` is not a known kind.
bool flight_kind_from_name(std::string_view name, FlightEvent::Kind& out);

/// Writes one event as a single JSON object line:
///   {"kind":"collided","slot":9041,"packet":77,"node":17,"peer":3,
///    "interferer_count":2,"interferers":[5,9]}
/// (aux only when non-zero, interferer fields only on kCollided).
void write_flight_jsonl(std::ostream& out, const FlightEvent& event);
void write_flight_jsonl(std::ostream& out, const std::vector<FlightEvent>& events);
/// Dumps `events` to `path`; false on I/O failure.
bool write_flight_jsonl_file(const std::string& path, const std::vector<FlightEvent>& events);

struct FlightParseResult {
  std::vector<FlightEvent> events;
  /// Lines that failed to parse (malformed kind, missing or malformed
  /// fields).
  std::vector<std::string> errors;
};

/// Parses flight JSONL back into events (the inverse of write_flight_jsonl;
/// round-tripping is exact and tested). Every numeric field is one whole
/// unsigned decimal token (no sign, space or trailing junk) within its
/// field's range: slot and packet 64 bits; node, peer and aux 32 bits;
/// interferer_count at most 255, with exactly min(count, kMaxInterferers)
/// 32-bit ids listed. Any other line goes to `errors`.
[[nodiscard]] FlightParseResult read_flight_jsonl(std::istream& in);
/// File convenience wrapper; throws std::runtime_error if unreadable.
[[nodiscard]] FlightParseResult read_flight_jsonl_file(const std::string& path);

/// The retained lifecycle of one packet, in recorded (chronological) order.
/// Because the ring evicts a strict prefix of the event stream, a retained
/// per-packet history is always a SUFFIX of the packet's full lifecycle;
/// `truncated` marks histories whose creation fell off the ring.
struct PacketHistory {
  static constexpr std::uint64_t kNoLatency = ~std::uint64_t{0};

  std::uint64_t packet_id = 0;
  std::vector<FlightEvent> events;
  bool truncated = false;   // first retained event is not kCreated
  bool delivered = false;   // a kDelivered event is retained
  std::uint32_t origin = FlightEvent::kNoNode;       // from kCreated/kDelivered if retained
  std::uint32_t destination = FlightEvent::kNoNode;  // from kCreated/kDelivered if retained
  std::uint64_t first_slot = 0;
  std::uint64_t last_slot = 0;
  /// End-to-end latency in slots (carried on the kDelivered event itself,
  /// so it survives ring truncation of the creation); kNoLatency otherwise.
  std::uint64_t latency = kNoLatency;
  /// Transmission attempts retained for this packet.
  std::uint64_t tx_attempts = 0;
  /// Attempts lost to collisions.
  std::uint64_t collisions = 0;
};

/// Every SimStats counter a complete flight stream rebuilds: the
/// stream-marked rows of sim::kCounterFields, in declaration order.
inline constexpr auto kStreamCounters = [] {
  constexpr auto kCount = static_cast<std::size_t>(
      std::ranges::count_if(sim::kCounterFields, &sim::CounterField::stream));
  std::array<sim::CounterField, kCount> out{};
  std::ranges::copy_if(sim::kCounterFields, out.begin(), &sim::CounterField::stream);
  return out;
}();

/// Immutable index over a flight-event stream (from a live ring or a
/// parsed dump). Construction is O(events log packets); queries are cheap.
class FlightLog {
 public:
  explicit FlightLog(std::vector<FlightEvent> events);

  [[nodiscard]] const std::vector<FlightEvent>& events() const { return events_; }

  /// Per-packet histories, ascending packet id.
  [[nodiscard]] const std::vector<PacketHistory>& packets() const { return packets_; }
  /// History of one packet, or nullptr if nothing of it is retained.
  [[nodiscard]] const PacketHistory* packet(std::uint64_t packet_id) const;

  /// Every event whose primary node is `node`, in stream order (the node's
  /// timeline: what node 17 saw, slot by slot).
  [[nodiscard]] std::vector<FlightEvent> node_timeline(std::uint32_t node) const;

  struct LatencyRecord {
    std::uint64_t packet_id = 0;
    std::uint32_t origin = FlightEvent::kNoNode;
    std::uint32_t destination = FlightEvent::kNoNode;
    std::uint64_t delivered_slot = 0;
    std::uint64_t latency = 0;
  };
  /// The k delivered packets with the largest end-to-end latency,
  /// descending (ties broken by ascending packet id). Robust to ring
  /// truncation: latency rides on the kDelivered event.
  [[nodiscard]] std::vector<LatencyRecord> worst_latency(std::size_t k) const;

  struct CollisionHotspot {
    std::uint32_t receiver = 0;
    std::uint64_t collisions = 0;  // kCollided events at this receiver
    std::uint64_t first_slot = 0;
    std::uint64_t last_slot = 0;
    /// Transmitters involved in collisions at this receiver (the event's
    /// transmitter plus its recorded interferers), with occurrence counts,
    /// descending (ties by ascending node id).
    std::vector<std::pair<std::uint32_t, std::uint64_t>> transmitters;
  };
  /// The k receivers losing the most receptions to collisions, descending
  /// (ties by ascending receiver id).
  [[nodiscard]] std::vector<CollisionHotspot> top_collisions(std::size_t k) const;

  /// Per-packet consistency audit, truncation-aware: every retained history
  /// must have monotone slots, a creation event only in first position, no
  /// events after a terminal (delivered/dropped/expired), and — for
  /// untruncated histories — a head-of-line before the first tx-attempt and
  /// a same-slot tx-attempt before every per-transmission outcome. Returns
  /// one human-readable line per violation (empty == consistent).
  [[nodiscard]] std::vector<std::string> self_check() const;

  /// The event-derived SimStats the stream rebuilds: every counter in
  /// kStreamCounters, delivered_by_origin (num_nodes entries; deliveries
  /// from a larger origin id are left out) and one latency sample per
  /// kDelivered. Every other field stays at its default.
  [[nodiscard]] sim::SimStats reconstructed_stats(std::size_t num_nodes = 0) const;

  /// Cross-checks reconstructed_stats() against the live run that recorded
  /// the stream: every kStreamCounters counter, delivered_by_origin, and
  /// the latency samples as a multiset (percentile() reorders the live
  /// samples in place). Valid only for a complete stream — a ring that did
  /// not wrap, armed for the whole run. Returns one human-readable line per
  /// mismatch (empty == the stream accounts for every counted event).
  [[nodiscard]] std::vector<std::string> self_check(const sim::SimStats& live) const;

 private:
  std::vector<FlightEvent> events_;
  std::vector<PacketHistory> packets_;
  std::map<std::uint64_t, std::size_t> packet_index_;
};

}  // namespace ttdc::obs
