#include "obs/flight_query.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace ttdc::obs {

namespace {

constexpr std::array<FlightEvent::Kind, FlightEvent::kNumKinds> kAllFlightKinds = {
    FlightEvent::Kind::kCreated,        FlightEvent::Kind::kEnqueued,
    FlightEvent::Kind::kHeadOfLine,     FlightEvent::Kind::kTxAttempt,
    FlightEvent::Kind::kCollided,       FlightEvent::Kind::kReceiverAsleep,
    FlightEvent::Kind::kChannelLoss,    FlightEvent::Kind::kSyncLoss,
    FlightEvent::Kind::kHopDelivered,   FlightEvent::Kind::kDelivered,
    FlightEvent::Kind::kDropped,        FlightEvent::Kind::kExpired,
    FlightEvent::Kind::kBurstLoss,      FlightEvent::Kind::kDriftLoss,
    FlightEvent::Kind::kFaultCrash,     FlightEvent::Kind::kFaultRecover,
    FlightEvent::Kind::kFaultBatterySpike,
    FlightEvent::Kind::kFaultJamStart,  FlightEvent::Kind::kFaultJamEnd,
};

// Flat one-line objects with known keys, so targeted field extraction is
// enough; every number is read whole and range-checked.
constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/// Reads the unsigned decimal token at [p, end) whole with std::from_chars
/// (no sign, no space, no overflow): at most `max` and followed by one of
/// `terminators`. Returns the terminator's position, or nullptr.
const char* read_uint(const char* p, const char* end, std::uint64_t max,
                      std::string_view terminators, std::uint64_t& out) {
  const auto [next, ec] = std::from_chars(p, end, out);
  if (ec != std::errc{} || out > max || next == end ||
      terminators.find(*next) == std::string_view::npos) {
    return nullptr;
  }
  return next;
}

enum class Field { kAbsent, kMalformed, kOk };

Field find_uint_field(const std::string& line, const std::string& key, std::uint64_t max,
                      std::uint64_t& out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return Field::kAbsent;
  const char* end = line.data() + line.size();
  return read_uint(line.data() + pos + needle.size(), end, max, ",}", out) != nullptr
             ? Field::kOk
             : Field::kMalformed;
}

bool find_string_field(const std::string& line, const std::string& key, std::string& out) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const auto start = pos + needle.size();
  const auto close = line.find('"', start);
  if (close == std::string::npos) return false;
  out = line.substr(start, close - start);
  return true;
}

/// Parses one write_flight_jsonl line into `e`; false if any field is
/// missing, malformed or out of range.
bool parse_flight_line(const std::string& line, FlightEvent& e) {
  std::string kind;
  std::uint64_t node = 0, peer = 0, aux = 0, count = 0;
  if (!find_string_field(line, "kind", kind) || !flight_kind_from_name(kind, e.kind) ||
      find_uint_field(line, "slot", kMaxU64, e.slot) != Field::kOk ||
      find_uint_field(line, "packet", kMaxU64, e.packet_id) != Field::kOk ||
      find_uint_field(line, "node", kMaxU32, node) != Field::kOk ||
      find_uint_field(line, "peer", kMaxU32, peer) != Field::kOk ||
      find_uint_field(line, "aux", kMaxU32, aux) == Field::kMalformed) {
    return false;
  }
  e.node = static_cast<std::uint32_t>(node);
  e.peer = static_cast<std::uint32_t>(peer);
  e.aux = static_cast<std::uint32_t>(aux);
  if (e.kind != FlightEvent::Kind::kCollided) return true;
  if (find_uint_field(line, "interferer_count", 255, count) != Field::kOk) return false;
  e.interferer_count = static_cast<std::uint8_t>(count);
  const std::string list = "\"interferers\":[";
  const auto open = line.find(list);
  if (open == std::string::npos) return false;
  const char* p = line.data() + open + list.size();
  const char* end = line.data() + line.size();
  const std::size_t stored = e.stored_interferers();
  if (stored == 0) return p != end && *p == ']';
  // Exactly `stored` ids: each but the last ends at ',', the last at ']'.
  for (std::size_t i = 0; i < stored; ++i) {
    std::uint64_t id = 0;
    p = read_uint(p, end, kMaxU32, i + 1 < stored ? "," : "]", id);
    if (p == nullptr) return false;
    e.interferers[i] = static_cast<std::uint32_t>(id);
    ++p;
  }
  return true;
}

/// True for kinds that end a packet's lifecycle.
bool is_terminal(FlightEvent::Kind kind) {
  return kind == FlightEvent::Kind::kDelivered || kind == FlightEvent::Kind::kDropped ||
         kind == FlightEvent::Kind::kExpired;
}

/// True for per-transmission outcomes that must share a slot with the
/// tx-attempt that caused them.
bool is_tx_outcome(FlightEvent::Kind kind) {
  switch (kind) {
    case FlightEvent::Kind::kCollided:
    case FlightEvent::Kind::kReceiverAsleep:
    case FlightEvent::Kind::kChannelLoss:
    case FlightEvent::Kind::kSyncLoss:
    case FlightEvent::Kind::kBurstLoss:
    case FlightEvent::Kind::kDriftLoss:
    case FlightEvent::Kind::kHopDelivered:
    case FlightEvent::Kind::kDelivered:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool flight_kind_from_name(std::string_view name, FlightEvent::Kind& out) {
  for (const FlightEvent::Kind kind : kAllFlightKinds) {
    if (name == flight_kind_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

void write_flight_jsonl(std::ostream& out, const FlightEvent& event) {
  out << "{\"kind\":\"" << flight_kind_name(event.kind) << "\",\"slot\":" << event.slot
      << ",\"packet\":" << event.packet_id << ",\"node\":" << event.node
      << ",\"peer\":" << event.peer;
  if (event.aux != 0) out << ",\"aux\":" << event.aux;
  if (event.kind == FlightEvent::Kind::kCollided) {
    out << ",\"interferer_count\":" << static_cast<unsigned>(event.interferer_count)
        << ",\"interferers\":[";
    for (std::size_t i = 0; i < event.stored_interferers(); ++i) {
      if (i != 0) out << ',';
      out << event.interferers[i];
    }
    out << ']';
  }
  out << "}\n";
}

void write_flight_jsonl(std::ostream& out, const std::vector<FlightEvent>& events) {
  for (const FlightEvent& e : events) write_flight_jsonl(out, e);
}

bool write_flight_jsonl_file(const std::string& path, const std::vector<FlightEvent>& events) {
  std::ofstream out(path);
  if (!out) return false;
  write_flight_jsonl(out, events);
  out.flush();
  return static_cast<bool>(out);
}

FlightParseResult read_flight_jsonl(std::istream& in) {
  FlightParseResult result;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    FlightEvent e;
    if (parse_flight_line(line, e)) {
      result.events.push_back(e);
    } else {
      result.errors.push_back(line);
    }
  }
  return result;
}

FlightParseResult read_flight_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_flight_jsonl_file: cannot open " + path);
  return read_flight_jsonl(in);
}

FlightLog::FlightLog(std::vector<FlightEvent> events) : events_(std::move(events)) {
  std::map<std::uint64_t, PacketHistory> by_packet;
  for (const FlightEvent& e : events_) {
    // Fault instants carry the kNoPacket sentinel: they belong to node
    // timelines, not to any packet history.
    if (e.packet_id == FlightEvent::kNoPacket) continue;
    PacketHistory& h = by_packet[e.packet_id];
    if (h.events.empty()) {
      h.packet_id = e.packet_id;
      h.first_slot = e.slot;
    }
    h.events.push_back(e);
    h.last_slot = e.slot;
    switch (e.kind) {
      case FlightEvent::Kind::kCreated:
        h.origin = e.node;
        h.destination = e.peer;
        break;
      case FlightEvent::Kind::kTxAttempt:
        ++h.tx_attempts;
        break;
      case FlightEvent::Kind::kCollided:
        ++h.collisions;
        break;
      case FlightEvent::Kind::kDelivered:
        h.delivered = true;
        h.latency = e.aux;
        h.destination = e.node;
        h.origin = e.peer;
        break;
      default:
        break;
    }
  }
  packets_.reserve(by_packet.size());
  for (auto& [id, h] : by_packet) {
    h.truncated = h.events.front().kind != FlightEvent::Kind::kCreated;
    packet_index_[id] = packets_.size();
    packets_.push_back(std::move(h));
  }
}

const PacketHistory* FlightLog::packet(std::uint64_t packet_id) const {
  const auto it = packet_index_.find(packet_id);
  return it == packet_index_.end() ? nullptr : &packets_[it->second];
}

std::vector<FlightEvent> FlightLog::node_timeline(std::uint32_t node) const {
  std::vector<FlightEvent> out;
  for (const FlightEvent& e : events_) {
    if (e.node == node) out.push_back(e);
  }
  return out;
}

std::vector<FlightLog::LatencyRecord> FlightLog::worst_latency(std::size_t k) const {
  std::vector<LatencyRecord> out;
  for (const PacketHistory& h : packets_) {
    if (!h.delivered) continue;
    LatencyRecord r;
    r.packet_id = h.packet_id;
    r.origin = h.origin;
    r.destination = h.destination;
    r.latency = h.latency;
    for (const FlightEvent& e : h.events) {
      if (e.kind == FlightEvent::Kind::kDelivered) r.delivered_slot = e.slot;
    }
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(), [](const LatencyRecord& a, const LatencyRecord& b) {
    if (a.latency != b.latency) return a.latency > b.latency;
    return a.packet_id < b.packet_id;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<FlightLog::CollisionHotspot> FlightLog::top_collisions(std::size_t k) const {
  struct Acc {
    std::uint64_t collisions = 0;
    std::uint64_t first_slot = 0;
    std::uint64_t last_slot = 0;
    std::map<std::uint32_t, std::uint64_t> transmitters;
  };
  std::map<std::uint32_t, Acc> by_receiver;
  for (const FlightEvent& e : events_) {
    if (e.kind != FlightEvent::Kind::kCollided) continue;
    Acc& a = by_receiver[e.node];
    if (a.collisions == 0) a.first_slot = e.slot;
    ++a.collisions;
    a.last_slot = e.slot;
    ++a.transmitters[e.peer];
    for (std::size_t i = 0; i < e.stored_interferers(); ++i) {
      ++a.transmitters[e.interferers[i]];
    }
  }
  std::vector<CollisionHotspot> out;
  out.reserve(by_receiver.size());
  for (const auto& [receiver, a] : by_receiver) {
    CollisionHotspot h;
    h.receiver = receiver;
    h.collisions = a.collisions;
    h.first_slot = a.first_slot;
    h.last_slot = a.last_slot;
    h.transmitters.assign(a.transmitters.begin(), a.transmitters.end());
    std::sort(h.transmitters.begin(), h.transmitters.end(),
              [](const auto& x, const auto& y) {
                if (x.second != y.second) return x.second > y.second;
                return x.first < y.first;
              });
    out.push_back(std::move(h));
  }
  std::sort(out.begin(), out.end(), [](const CollisionHotspot& a, const CollisionHotspot& b) {
    if (a.collisions != b.collisions) return a.collisions > b.collisions;
    return a.receiver < b.receiver;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<std::string> FlightLog::self_check() const {
  std::vector<std::string> violations;
  const auto report = [&](const PacketHistory& h, const std::string& what) {
    std::ostringstream os;
    os << "packet " << h.packet_id << ": " << what;
    violations.push_back(os.str());
  };
  for (const PacketHistory& h : packets_) {
    std::uint64_t prev_slot = 0;
    std::uint64_t last_tx_slot = ~std::uint64_t{0};
    bool saw_head_of_line = false;
    bool terminal_seen = false;
    for (std::size_t i = 0; i < h.events.size(); ++i) {
      const FlightEvent& e = h.events[i];
      if (i > 0 && e.slot < prev_slot) {
        report(h, "slots not monotone (" + std::to_string(e.slot) + " after " +
                      std::to_string(prev_slot) + ")");
      }
      prev_slot = e.slot;
      if (terminal_seen) {
        report(h, std::string("event '") + flight_kind_name(e.kind) +
                      "' after a terminal event");
        terminal_seen = false;  // one report per history, not per trailing event
      }
      if (e.kind == FlightEvent::Kind::kCreated && i != 0) {
        report(h, "creation event not in first position");
      }
      if (e.kind == FlightEvent::Kind::kHeadOfLine) saw_head_of_line = true;
      if (e.kind == FlightEvent::Kind::kTxAttempt) {
        last_tx_slot = e.slot;
        if (!h.truncated && !saw_head_of_line) {
          report(h, "tx-attempt before any head-of-line");
        }
      }
      if (!h.truncated && is_tx_outcome(e.kind) && last_tx_slot != e.slot) {
        report(h, std::string("outcome '") + flight_kind_name(e.kind) +
                      "' without a same-slot tx-attempt");
      }
      if (is_terminal(e.kind)) terminal_seen = true;
    }
  }
  return violations;
}

sim::SimStats FlightLog::reconstructed_stats(std::size_t num_nodes) const {
  sim::SimStats st;
  st.delivered_by_origin.assign(num_nodes, 0);
  for (const FlightEvent& e : events_) {
    switch (e.kind) {
      case FlightEvent::Kind::kCreated: ++st.generated; break;
      case FlightEvent::Kind::kTxAttempt: ++st.transmissions; break;
      case FlightEvent::Kind::kCollided: ++st.collisions; break;
      case FlightEvent::Kind::kReceiverAsleep: ++st.receiver_asleep; break;
      case FlightEvent::Kind::kChannelLoss: ++st.channel_losses; break;
      case FlightEvent::Kind::kSyncLoss: ++st.sync_losses; break;
      case FlightEvent::Kind::kBurstLoss: ++st.burst_losses; break;
      case FlightEvent::Kind::kDriftLoss: ++st.drift_losses; break;
      case FlightEvent::Kind::kHopDelivered: ++st.hop_successes; break;
      case FlightEvent::Kind::kDelivered:
        ++st.delivered;
        ++st.hop_successes;
        if (e.peer < num_nodes) ++st.delivered_by_origin[e.peer];
        st.latency.record(e.aux);
        break;
      case FlightEvent::Kind::kDropped:
      case FlightEvent::Kind::kExpired: ++st.queue_drops; break;
      case FlightEvent::Kind::kFaultCrash: ++st.fault_crashes; break;
      case FlightEvent::Kind::kFaultRecover: ++st.fault_recoveries; break;
      case FlightEvent::Kind::kFaultBatterySpike: ++st.fault_battery_spikes; break;
      case FlightEvent::Kind::kFaultJamStart: ++st.fault_jam_bursts; break;
      case FlightEvent::Kind::kEnqueued:
      case FlightEvent::Kind::kHeadOfLine:
      case FlightEvent::Kind::kFaultJamEnd: break;
    }
  }
  return st;
}

std::vector<std::string> FlightLog::self_check(const sim::SimStats& live) const {
  const sim::SimStats rebuilt = reconstructed_stats(live.delivered_by_origin.size());
  std::vector<std::string> mismatches;
  const auto expect = [&](const std::string& what, std::uint64_t stream, std::uint64_t actual) {
    if (stream != actual) {
      mismatches.push_back(what + ": stream " + std::to_string(stream) + " != live " +
                           std::to_string(actual));
    }
  };
  for (const StreamCounter& c : kStreamCounters) {
    expect(c.name, rebuilt.*c.field, live.*c.field);
  }
  // Live per-origin counts sum to live.delivered, so a delivery from an
  // origin outside the live range shows up as a shortfall here.
  for (std::size_t v = 0; v < live.delivered_by_origin.size(); ++v) {
    expect("delivered_by_origin[" + std::to_string(v) + "]", rebuilt.delivered_by_origin[v],
           live.delivered_by_origin[v]);
  }
  std::vector<std::uint64_t> stream_latency = rebuilt.latency.samples();
  std::vector<std::uint64_t> live_latency = live.latency.samples();
  std::sort(stream_latency.begin(), stream_latency.end());
  std::sort(live_latency.begin(), live_latency.end());
  if (stream_latency != live_latency) {
    mismatches.push_back("latency samples differ as a multiset (stream " +
                         std::to_string(stream_latency.size()) + " samples, live " +
                         std::to_string(live_latency.size()) + ")");
  }
  return mismatches;
}

}  // namespace ttdc::obs
