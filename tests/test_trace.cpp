// The simulator's packet event stream: a complete flight-recorder stream
// accounts for every event-derived SimStats counter (FlightLog::self_check
// against the live run), survives a JSONL round trip, and orders each
// packet's lifecycle.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "core/builders.hpp"
#include "net/topology.hpp"
#include "obs/flight_query.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace ttdc::sim {
namespace {

using core::DynamicBitset;
using core::Schedule;
using obs::FlightEvent;
using obs::FlightLog;
using obs::FlightRecorder;

std::string joined(const std::vector<std::string>& lines) {
  std::string all;
  for (const auto& line : lines) all += "  " + line + "\n";
  return all;
}

TEST(Trace, EventsReconstructAggregateCounters) {
  const Schedule s = core::non_sleeping_from_family(comb::tdma_family(4));
  DutyCycledScheduleMac mac(s);
  BernoulliTraffic traffic(4, 0.08);
  FlightRecorder ring(1 << 16);
  SimConfig config;
  config.seed = 11;
  config.packet_error_rate = 0.1;
  config.recorder = &ring;
  Simulator sim(net::ring_graph(4), mac, traffic, config);
  sim.run(4000);
  // Churn into two components: packets for the far side expire unroutable.
  net::Graph split(4);
  split.add_edge(0, 1);
  split.add_edge(2, 3);
  sim.set_graph(std::move(split));
  sim.run(1000);
  ASSERT_FALSE(ring.wrapped());

  std::map<FlightEvent::Kind, std::uint64_t> counts;
  for (const auto& e : ring.events()) ++counts[e.kind];
  const auto& st = sim.stats();
  EXPECT_EQ(counts[FlightEvent::Kind::kCreated], st.generated);
  EXPECT_EQ(counts[FlightEvent::Kind::kTxAttempt], st.transmissions);
  EXPECT_EQ(counts[FlightEvent::Kind::kDelivered], st.delivered);
  EXPECT_EQ(counts[FlightEvent::Kind::kCollided], st.collisions);
  EXPECT_EQ(counts[FlightEvent::Kind::kChannelLoss], st.channel_losses);
  EXPECT_EQ(counts[FlightEvent::Kind::kDropped] + counts[FlightEvent::Kind::kExpired],
            st.queue_drops);
  EXPECT_EQ(counts[FlightEvent::Kind::kHopDelivered] + counts[FlightEvent::Kind::kDelivered],
            st.hop_successes);
  EXPECT_GT(st.delivered, 0u);
  EXPECT_GT(st.channel_losses, 0u);
  EXPECT_GT(counts[FlightEvent::Kind::kExpired], 0u);
  const auto mismatches = FlightLog(ring.events()).self_check(st);
  EXPECT_TRUE(mismatches.empty()) << joined(mismatches);
}

TEST(Trace, PacketLifecycleIsOrdered) {
  // Follow a single packet on a 2-node link: created -> enqueued ->
  // head-of-line -> tx-attempt -> delivered, all in slot 0 with one id.
  std::vector<DynamicBitset> t = {DynamicBitset(2, {0}), DynamicBitset(2)};
  std::vector<DynamicBitset> r = {DynamicBitset(2, {1}), DynamicBitset(2, {0, 1})};
  const Schedule s(2, std::move(t), std::move(r));
  DutyCycledScheduleMac mac(s);
  Simulator* probe = nullptr;
  SaturatedFlows traffic({{0, 1}}, [&probe](std::size_t v) { return probe->queue_size(v); });
  FlightRecorder ring(64);
  SimConfig config;
  config.seed = 2;
  config.recorder = &ring;
  Simulator sim(net::path_graph(2), mac, traffic, config);
  probe = &sim;
  sim.run(2);  // one frame: generation + the single transmit slot

  const auto events = ring.events();
  using Kind = FlightEvent::Kind;
  const std::vector<Kind> lifecycle = {Kind::kCreated, Kind::kEnqueued, Kind::kHeadOfLine,
                                       Kind::kTxAttempt, Kind::kDelivered};
  ASSERT_GE(events.size(), lifecycle.size());
  for (std::size_t i = 0; i < lifecycle.size(); ++i) {
    EXPECT_EQ(events[i].kind, lifecycle[i]) << "event " << i;
    EXPECT_EQ(events[i].packet_id, events[0].packet_id) << "event " << i;
    EXPECT_EQ(events[i].slot, 0u) << "event " << i;
  }
  EXPECT_EQ(events[3].node, 0u);  // tx-attempt: transmitter -> next hop
  EXPECT_EQ(events[3].peer, 1u);
  EXPECT_EQ(events[4].node, 1u);  // delivered: destination, origin
  EXPECT_EQ(events[4].peer, 0u);
}

// ---------------------------------------------------------------------------
// JSONL stream -> FlightLog -> SimStats round trip.

TEST(TraceReplay, TenThousandSlotRoundTripMatchesLiveStatsExactly) {
  // A lossy, collision-prone run so every packet counter is exercised:
  // slotted ALOHA on a random degree-bounded graph plus channel/sync error
  // knobs.
  constexpr std::size_t kN = 25;
  util::Xoshiro256 rng(12);
  const net::Graph g = net::random_bounded_degree_graph(kN, 4, 2 * kN, rng);
  SlottedAlohaMac mac(kN, 0.15);
  BernoulliTraffic traffic(kN, 0.02);
  FlightRecorder ring(1 << 17);
  SimConfig config;
  config.seed = 777;
  config.packet_error_rate = 0.05;
  config.sync_miss_rate = 0.03;
  config.queue_capacity = 8;  // force queue drops too
  config.recorder = &ring;
  Simulator sim(g, mac, traffic, config);
  sim.run(10000);
  ASSERT_FALSE(ring.wrapped());

  const auto& live = sim.stats();
  ASSERT_GT(live.delivered, 0u);
  ASSERT_GT(live.collisions, 0u);
  ASSERT_GT(live.channel_losses, 0u);
  ASSERT_GT(live.sync_losses, 0u);
  ASSERT_GT(live.queue_drops, 0u);

  std::stringstream jsonl;
  obs::write_flight_jsonl(jsonl, ring.events());
  auto parsed = obs::read_flight_jsonl(jsonl);
  EXPECT_TRUE(parsed.errors.empty());
  EXPECT_EQ(parsed.events.size(), ring.seen());
  const FlightLog log(std::move(parsed.events));

  // The headline counters, exactly.
  const SimStats rebuilt = log.reconstructed_stats(kN);
  EXPECT_EQ(rebuilt.delivered, live.delivered);
  EXPECT_EQ(rebuilt.collisions, live.collisions);
  EXPECT_EQ(rebuilt.transmissions, live.transmissions);
  // And the full cross-check reports zero mismatches.
  const auto mismatches = log.self_check(live);
  EXPECT_TRUE(mismatches.empty()) << joined(mismatches);
}

TEST(TraceReplay, FileRoundTripAndMismatchDetection) {
  const std::string path = testing::TempDir() + "/ttdc_test_trace.jsonl";
  const Schedule s = core::non_sleeping_from_family(comb::tdma_family(4));
  DutyCycledScheduleMac mac(s);
  BernoulliTraffic traffic(4, 0.05);
  FlightRecorder ring(1 << 14);
  SimConfig config;
  config.seed = 5;
  config.recorder = &ring;
  Simulator sim(net::ring_graph(4), mac, traffic, config);
  sim.run(2000);
  ASSERT_FALSE(ring.wrapped());
  ASSERT_TRUE(obs::write_flight_jsonl_file(path, ring.events()));

  auto parsed = obs::read_flight_jsonl_file(path);
  std::remove(path.c_str());
  EXPECT_TRUE(parsed.errors.empty());
  const FlightLog log(std::move(parsed.events));
  const SimStats live = sim.stats();
  ASSERT_GT(live.delivered, 0u);
  EXPECT_TRUE(log.self_check(live).empty()) << joined(log.self_check(live));

  // Doctored live-stats copies must be flagged, one field at a time.
  SimStats doctored = live;
  doctored.delivered += 1;
  EXPECT_FALSE(log.self_check(doctored).empty());
  doctored = live;
  doctored.fault_jam_bursts = 1;
  EXPECT_FALSE(log.self_check(doctored).empty());
  doctored = live;
  doctored.delivered_by_origin[0] += 1;
  EXPECT_FALSE(log.self_check(doctored).empty());
  doctored = live;
  doctored.latency = LatencyStats{};
  for (const std::uint64_t sample : live.latency.samples()) {
    doctored.latency.record(sample + 1);  // same count, different multiset
  }
  EXPECT_FALSE(log.self_check(doctored).empty());

  EXPECT_THROW((void)obs::read_flight_jsonl_file("/nonexistent/dir/trace.jsonl"),
               std::runtime_error);
}

TEST(TraceReplay, MalformedLinesAreReportedNotFatal) {
  std::istringstream in(
      R"({"kind":"tx_attempt","slot":1,"packet":0,"node":0,"peer":1})"
      "\nnot json at all\n"
      R"({"kind":"unknown_kind","slot":2,"packet":1,"node":0,"peer":1})"
      "\n");
  auto parsed = obs::read_flight_jsonl(in);
  EXPECT_EQ(parsed.errors.size(), 2u);
  ASSERT_EQ(parsed.events.size(), 1u);
  const FlightLog log(std::move(parsed.events));
  EXPECT_EQ(log.reconstructed_stats().transmissions, 1u);
}

}  // namespace
}  // namespace ttdc::sim
