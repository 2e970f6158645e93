// Flight recorder: ring semantics, simulator wiring (golden-stats
// invariance, interferer causality against ground truth), JSONL round-trip,
// the FlightLog query API, truncated-ring self-consistency, the Perfetto
// exporter's structural validity, and campaign outlier capture.
//
// Dumps written by these tests land in the ctest working directory (the
// build tree) under flight_test_*.jsonl, so a failing CI job can upload
// them as artifacts for post-mortem.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/graph.hpp"
#include "net/topology.hpp"
#include "obs/flight_query.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/perfetto.hpp"
#include "obs/profile.hpp"
#include "runner/runner.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "support/scalar_only_mac.hpp"
#include "support/stats_equal.hpp"
#include "util/rng.hpp"

namespace {

using namespace ttdc;
using obs::FlightEvent;
using obs::FlightLog;
using obs::FlightRecorder;

FlightEvent make_event(std::uint64_t slot, std::uint64_t packet,
                       FlightEvent::Kind kind = FlightEvent::Kind::kTxAttempt) {
  FlightEvent e;
  e.slot = slot;
  e.packet_id = packet;
  e.kind = kind;
  e.node = 1;
  e.peer = 2;
  return e;
}

/// A small duty-cycled deployment shared by the simulator-wiring tests.
struct Scenario {
  std::size_t nodes = 30;
  std::size_t degree = 3;
  net::Graph graph;
  core::Schedule duty;

  Scenario()
      : graph(make_graph(nodes, degree)),
        duty(core::construct_duty_cycled(
            core::non_sleeping_from_family(
                comb::build_plan(comb::best_plan(nodes, degree), nodes)),
            degree, 4, 8)) {}

  static net::Graph make_graph(std::size_t n, std::size_t d) {
    util::Xoshiro256 rng(42);
    return net::random_bounded_degree_graph(n, d, 2 * n, rng);
  }

  /// `scalar_only` drives the MAC through sim::ScalarOnlyMac, the
  /// simulator's per-node reference path.
  sim::SimStats run(std::uint64_t slots, FlightRecorder* recorder,
                    bool scalar_only = false) const {
    sim::DutyCycledScheduleMac mac(duty);
    sim::ScalarOnlyMac scalar_mac(mac);
    sim::BernoulliTraffic traffic(nodes, 0.02);
    sim::SimConfig config;
    config.seed = 9;
    config.recorder = recorder;
    sim::Simulator sim(graph,
                       scalar_only ? static_cast<sim::MacProtocol&>(scalar_mac) : mac,
                       traffic, config);
    sim.run(slots);
    return sim.stats();
  }
};

// ------------------------------------------------------------ ring basics

TEST(FlightRecorderRing, EvictsOldestFirst) {
  FlightRecorder ring(4);
  for (std::uint64_t i = 0; i < 6; ++i) ring.record(make_event(i, i));
  EXPECT_EQ(ring.seen(), 6u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_TRUE(ring.wrapped());
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].slot, i + 2) << "oldest-first order after wrap";
  }
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.seen(), 0u);
  EXPECT_FALSE(ring.wrapped());
}

TEST(FlightRecorderRing, UnwrappedKeepsEverythingInOrder) {
  FlightRecorder ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) ring.record(make_event(i, i));
  EXPECT_FALSE(ring.wrapped());
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].slot, i);
}

// ------------------------------------------------------- simulator wiring

TEST(FlightRecorderSim, GoldenStatsUntouchedByRecording) {
  const Scenario sc;
  const sim::SimStats plain = sc.run(1200, nullptr);
  FlightRecorder ring(1 << 16);
  const sim::SimStats recorded = sc.run(1200, &ring);
  sim::expect_identical_stats(plain, recorded);
  EXPECT_GT(ring.seen(), 0u);

  // The per-node reference path with the recorder attached stays golden too.
  FlightRecorder scalar_ring(1 << 16);
  const sim::SimStats scalar = sc.run(1200, &scalar_ring, /*scalar_only=*/true);
  sim::expect_identical_stats(plain, scalar);
  // Both paths must emit the identical event stream, not merely the same
  // totals.
  EXPECT_TRUE(ring.events() == scalar_ring.events());
}

TEST(FlightRecorderSim, DisarmedRecorderStaysEmptyAndGolden) {
  const Scenario sc;
  const sim::SimStats plain = sc.run(600, nullptr);
  FlightRecorder ring(1 << 14);
  FlightRecorder::enable(false);
  const sim::SimStats disarmed = sc.run(600, &ring);
  FlightRecorder::enable(true);
  EXPECT_EQ(ring.seen(), 0u);
  sim::expect_identical_stats(plain, disarmed);
}

TEST(FlightRecorderSim, EventCountsMatchSimStats) {
  const Scenario sc;
  FlightRecorder ring(1 << 18);  // large enough: no eviction
  const sim::SimStats stats = sc.run(1500, &ring);
  ASSERT_FALSE(ring.wrapped());
  std::map<FlightEvent::Kind, std::uint64_t> counts;
  for (const auto& e : ring.events()) ++counts[e.kind];
  EXPECT_EQ(counts[FlightEvent::Kind::kCreated], stats.generated);
  EXPECT_EQ(counts[FlightEvent::Kind::kTxAttempt], stats.transmissions);
  EXPECT_EQ(counts[FlightEvent::Kind::kCollided], stats.collisions);
  EXPECT_EQ(counts[FlightEvent::Kind::kDelivered], stats.delivered);
  EXPECT_EQ(counts[FlightEvent::Kind::kReceiverAsleep], stats.receiver_asleep);
  EXPECT_EQ(counts[FlightEvent::Kind::kChannelLoss], stats.channel_losses);
  EXPECT_EQ(counts[FlightEvent::Kind::kSyncLoss], stats.sync_losses);
  EXPECT_EQ(counts[FlightEvent::Kind::kDropped] + counts[FlightEvent::Kind::kExpired],
            stats.queue_drops);
}

TEST(FlightRecorderSim, CollisionInterferersMatchGroundTruth) {
  const Scenario sc;
  FlightRecorder ring(1 << 18);
  sc.run(1500, &ring);
  ASSERT_FALSE(ring.wrapped());
  const auto events = ring.events();

  // Independent ground truth: the transmitting set of each slot is exactly
  // the slot's kTxAttempt events.
  std::map<std::uint64_t, std::set<std::uint32_t>> tx_by_slot;
  for (const auto& e : events) {
    if (e.kind == FlightEvent::Kind::kTxAttempt) tx_by_slot[e.slot].insert(e.node);
  }
  std::size_t checked = 0;
  for (const auto& e : events) {
    if (e.kind != FlightEvent::Kind::kCollided) continue;
    const auto& tx = tx_by_slot[e.slot];
    ASSERT_TRUE(tx.count(e.peer)) << "colliding transmitter must have transmitted";
    std::vector<std::uint32_t> expected;
    for (const std::uint32_t t : tx) {
      if (t != e.peer && sc.graph.neighbors(e.node).test(t)) expected.push_back(t);
    }
    ASSERT_GE(expected.size(), 1u) << "a collision needs at least one interferer";
    EXPECT_EQ(e.interferer_count, expected.size());
    const std::size_t stored = e.stored_interferers();
    ASSERT_LE(stored, expected.size());
    for (std::size_t i = 0; i < stored; ++i) {
      // The word-parallel recovery scans ascending node ids, matching the
      // sorted std::set order.
      EXPECT_EQ(e.interferers[i], expected[i]);
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u) << "scenario must actually produce collisions";
}

// --------------------------------------------------- round-trip + queries

TEST(FlightQuery, JsonlRoundTripIsExact) {
  const Scenario sc;
  FlightRecorder ring(1 << 18);
  sc.run(1000, &ring);
  const auto original = ring.events();
  ASSERT_FALSE(original.empty());

  std::stringstream ss;
  obs::write_flight_jsonl(ss, original);
  const auto parsed = obs::read_flight_jsonl(ss);
  EXPECT_TRUE(parsed.errors.empty());
  ASSERT_EQ(parsed.events.size(), original.size());
  EXPECT_TRUE(parsed.events == original);
}

TEST(FlightQuery, QueriesIdenticalOnReplayedStream) {
  const Scenario sc;
  FlightRecorder ring(1 << 18);
  sc.run(1500, &ring);

  const std::string path = "flight_test_roundtrip.jsonl";
  ASSERT_TRUE(obs::write_flight_jsonl_file(path, ring.events()));
  auto replayed = obs::read_flight_jsonl_file(path);
  ASSERT_TRUE(replayed.errors.empty());

  const FlightLog live(ring.events());
  const FlightLog replay(std::move(replayed.events));
  EXPECT_TRUE(live.self_check().empty());
  EXPECT_TRUE(replay.self_check().empty());
  ASSERT_EQ(live.packets().size(), replay.packets().size());

  const auto wl_live = live.worst_latency(10);
  const auto wl_replay = replay.worst_latency(10);
  ASSERT_EQ(wl_live.size(), wl_replay.size());
  for (std::size_t i = 0; i < wl_live.size(); ++i) {
    EXPECT_EQ(wl_live[i].packet_id, wl_replay[i].packet_id);
    EXPECT_EQ(wl_live[i].latency, wl_replay[i].latency);
    EXPECT_EQ(wl_live[i].delivered_slot, wl_replay[i].delivered_slot);
  }

  const auto tc_live = live.top_collisions(10);
  const auto tc_replay = replay.top_collisions(10);
  ASSERT_EQ(tc_live.size(), tc_replay.size());
  for (std::size_t i = 0; i < tc_live.size(); ++i) {
    EXPECT_EQ(tc_live[i].receiver, tc_replay[i].receiver);
    EXPECT_EQ(tc_live[i].collisions, tc_replay[i].collisions);
    EXPECT_TRUE(tc_live[i].transmitters == tc_replay[i].transmitters);
  }
  std::remove(path.c_str());
}

TEST(FlightQuery, WorstLatencyAndTopCollisionsMatchGroundTruth) {
  const Scenario sc;
  FlightRecorder ring(1 << 18);
  const sim::SimStats live = sc.run(1500, &ring);
  ASSERT_FALSE(ring.wrapped());
  const auto events = ring.events();
  const FlightLog log(events);

  // Ground-truth latencies from the raw ring: creation and final delivery
  // slots per packet id (independent of the aux latency FlightLog reads).
  std::map<std::uint64_t, std::uint64_t> created, delivered_at;
  for (const auto& e : events) {
    if (e.kind == FlightEvent::Kind::kCreated) created[e.packet_id] = e.slot;
    if (e.kind == FlightEvent::Kind::kDelivered) delivered_at[e.packet_id] = e.slot;
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> truth;  // (latency, id)
  for (const auto& [id, slot] : delivered_at) {
    truth.emplace_back(slot - created.at(id), id);
  }
  std::sort(truth.begin(), truth.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  const auto worst = log.worst_latency(5);
  ASSERT_EQ(worst.size(), std::min<std::size_t>(5, truth.size()));
  for (std::size_t i = 0; i < worst.size(); ++i) {
    EXPECT_EQ(worst[i].latency, truth[i].first);
    EXPECT_EQ(worst[i].packet_id, truth[i].second);
  }

  // Ground-truth collision counts per receiver: a tally of the raw
  // kCollided events, whose total is the live collision counter.
  std::map<std::uint32_t, std::uint64_t> collisions_at;
  std::uint64_t total = 0;
  for (const auto& e : events) {
    if (e.kind != FlightEvent::Kind::kCollided) continue;
    ++collisions_at[e.node];
    ++total;
  }
  EXPECT_EQ(total, live.collisions);
  ASSERT_GT(total, 0u);
  const auto hotspots = log.top_collisions(collisions_at.size());
  ASSERT_EQ(hotspots.size(), collisions_at.size());
  for (const auto& h : hotspots) {
    EXPECT_EQ(h.collisions, collisions_at.at(h.receiver));
  }
}

TEST(FlightQuery, NodeTimelineCoversOnlyThatNode) {
  const Scenario sc;
  FlightRecorder ring(1 << 16);
  sc.run(800, &ring);
  const FlightLog log(ring.events());
  const auto timeline = log.node_timeline(0);
  std::size_t expected = 0;
  for (const auto& e : log.events()) {
    if (e.node == 0) ++expected;
  }
  EXPECT_EQ(timeline.size(), expected);
  for (const auto& e : timeline) EXPECT_EQ(e.node, 0u);
}

// --------------------------------------------------------- truncated rings

TEST(FlightQuery, WrappedRingYieldsSelfConsistentSuffixHistories) {
  const Scenario sc;
  FlightRecorder big(1 << 18);
  FlightRecorder small(512);
  sc.run(1500, &big);
  sc.run(1500, &small);
  ASSERT_TRUE(small.wrapped());

  const FlightLog full(big.events());
  const FlightLog log(small.events());
  EXPECT_TRUE(log.self_check().empty())
      << "wrapped ring must still satisfy the per-packet audit";

  std::size_t truncated = 0;
  for (const auto& h : log.packets()) {
    truncated += h.truncated ? 1 : 0;
    // Ring eviction removes a strict prefix of the chronological stream,
    // so every retained history is a suffix of the full history.
    const auto* full_h = full.packet(h.packet_id);
    ASSERT_NE(full_h, nullptr);
    ASSERT_LE(h.events.size(), full_h->events.size());
    const std::size_t offset = full_h->events.size() - h.events.size();
    for (std::size_t i = 0; i < h.events.size(); ++i) {
      EXPECT_TRUE(h.events[i] == full_h->events[offset + i]);
    }
  }
  EXPECT_GT(truncated, 0u) << "a wrapped ring must truncate some history";

  // Latency queries survive truncation: the latency rides on kDelivered.
  for (const auto& r : log.worst_latency(20)) {
    const auto* full_h = full.packet(r.packet_id);
    ASSERT_NE(full_h, nullptr);
    EXPECT_EQ(r.latency, full_h->latency);
  }
}

TEST(FlightQuery, SelfCheckFlagsCorruptedStream) {
  std::vector<FlightEvent> events;
  events.push_back(make_event(10, 1, FlightEvent::Kind::kCreated));
  events.push_back(make_event(5, 1, FlightEvent::Kind::kTxAttempt));  // slot goes backwards
  const FlightLog log(events);
  EXPECT_FALSE(log.self_check().empty());

  std::vector<FlightEvent> after_terminal;
  after_terminal.push_back(make_event(1, 2, FlightEvent::Kind::kCreated));
  after_terminal.push_back(make_event(2, 2, FlightEvent::Kind::kDropped));
  after_terminal.push_back(make_event(3, 2, FlightEvent::Kind::kEnqueued));
  EXPECT_FALSE(FlightLog(after_terminal).self_check().empty());
}

TEST(FlightQuery, MalformedLinesAreReportedNotParsed) {
  std::stringstream ss;
  ss << R"({"kind":"created","slot":1,"packet":1,"node":0,"peer":5})" << "\n"
     << "not json at all\n"
     << R"({"kind":"no_such_kind","slot":2,"packet":1,"node":0,"peer":5})" << "\n";
  const auto parsed = obs::read_flight_jsonl(ss);
  EXPECT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.errors.size(), 2u);
}

TEST(FlightQuery, NumericFieldsAreWholeTokensInRange) {
  // A sign, an overflow, trailing junk or a value wider than its field is
  // an error, never a wrapped, truncated or prefix-read number.
  const std::vector<std::string> hostile = {
      R"({"kind":"created","slot":1,"packet":1,"node":-1,"peer":5})",
      R"({"kind":"created","slot":1,"packet":1,"node":4294967296,"peer":5})",
      R"({"kind":"created","slot":99999999999999999999999,"packet":1,"node":0,"peer":5})",
      R"({"kind":"created","slot":1,"packet":1,"node":12abc,"peer":5})",
      R"({"kind":"enqueued","slot":1,"packet":1,"node":0,"peer":5,"aux":4294967297})",
      R"({"kind":"collided","slot":1,"packet":1,"node":0,"peer":5,"interferer_count":256,"interferers":[1,2,3,4,5,6]})",
      R"({"kind":"created","slot": -5,"packet":1,"node":0,"peer":5})",
      // The interferer list must hold exactly min(count, 6) 32-bit ids.
      R"({"kind":"collided","slot":1,"packet":1,"node":0,"peer":5,"interferer_count":2,"interferers":[1]})",
      R"({"kind":"collided","slot":1,"packet":1,"node":0,"peer":5,"interferer_count":2,"interferers":[1,2,3]})",
      R"({"kind":"collided","slot":1,"packet":1,"node":0,"peer":5,"interferer_count":1,"interferers":[4294967296]})",
      R"({"kind":"collided","slot":1,"packet":1,"node":0,"peer":5,"interferer_count":1,"interferers":[-1]})",
      R"({"kind":"collided","slot":1,"packet":1,"node":0,"peer":5,"interferer_count":1})",
  };
  for (const std::string& line : hostile) {
    std::stringstream ss(line + "\n");
    const auto parsed = obs::read_flight_jsonl(ss);
    EXPECT_TRUE(parsed.events.empty()) << line;
    EXPECT_EQ(parsed.errors.size(), 1u) << line;
  }

  // The boundary values themselves round-trip exactly.
  FlightEvent fault = make_event(~std::uint64_t{0}, FlightEvent::kNoPacket,
                                 FlightEvent::Kind::kFaultRecover);
  fault.node = FlightEvent::kNoNode;
  fault.peer = FlightEvent::kNoNode;
  fault.aux = 4294967295u;
  FlightEvent collided = make_event(3, 4, FlightEvent::Kind::kCollided);
  collided.interferer_count = 255;
  for (std::uint32_t i = 0; i < FlightEvent::kMaxInterferers; ++i) {
    collided.interferers[i] = i == 0 ? FlightEvent::kNoNode : i;
  }
  FlightEvent lonely = make_event(5, 6, FlightEvent::Kind::kCollided);  // empty list
  const std::vector<FlightEvent> original = {fault, collided, lonely};

  std::stringstream ss;
  obs::write_flight_jsonl(ss, original);
  const auto parsed = obs::read_flight_jsonl(ss);
  EXPECT_TRUE(parsed.errors.empty());
  ASSERT_EQ(parsed.events.size(), original.size());
  EXPECT_TRUE(parsed.events == original);
  EXPECT_EQ(parsed.events[1].stored_interferers(), FlightEvent::kMaxInterferers);
}

// ------------------------------------------------------------- perfetto

TEST(Perfetto, ExportIsStructurallyValidTraceJson) {
  const Scenario sc;
  FlightRecorder ring(1 << 14);
  sc.run(600, &ring);
  const FlightLog log(ring.events());

  obs::Profiler& profiler = obs::Profiler::instance();
  profiler.reset();
  {
    obs::ProfilerSession session;
    TTDC_PROF_SCOPE("outer");
    for (int i = 0; i < 3; ++i) {
      TTDC_PROF_SCOPE("inner");
    }
  }

  std::stringstream ss;
  obs::write_perfetto_trace(ss, log, &profiler);
  const std::string json = ss.str();
  std::string error;
  EXPECT_TRUE(obs::json_validate(json, &error)) << error;
  const auto violations = obs::validate_trace_events(json);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(Perfetto, ValidatorRejectsBrokenJson) {
  std::string error;
  EXPECT_FALSE(obs::json_validate("{\"traceEvents\":[", &error));
  EXPECT_FALSE(obs::json_validate("{\"a\":1,}", &error));
  EXPECT_TRUE(obs::json_validate("{\"a\":[1,2,{\"b\":\"c\\\"d\"}]}", &error)) << error;
  EXPECT_FALSE(obs::validate_trace_events("{\"otherEvents\":[]}").empty());
  EXPECT_FALSE(obs::validate_trace_events("{\"traceEvents\":[{\"ph\":\"X\"}]}").empty())
      << "event without a name must be flagged";
}

// ------------------------------------------------------- campaign capture

TEST(CampaignFlightCapture, DumpsOutlierCellsAtBarrier) {
  runner::CampaignOptions options;
  options.master_seed = 77;
  options.num_workers = 2;
  runner::FlightCaptureOptions capture;
  capture.ring_capacity = 1 << 14;
  capture.dir = ".";
  capture.min_delivery_ratio = 0.95;  // ALOHA under load will miss this
  capture.max_dumps = 2;
  options.flight_capture = capture;

  util::Xoshiro256 rng(5);
  const net::Graph g = net::random_bounded_degree_graph(20, 3, 40, rng);

  runner::Campaign campaign(std::move(options));
  for (const double rate : {0.001, 0.2, 0.25}) {
    campaign.add("aloha_rate_" + std::to_string(rate), [&g, rate](runner::CellContext& ctx) {
      ASSERT_NE(ctx.flight_recorder(), nullptr);
      sim::SlottedAlohaMac mac(g.num_nodes(), 0.3);
      sim::BernoulliTraffic traffic(g.num_nodes(), rate);
      sim::SimConfig config;
      config.seed = ctx.seed();
      config.recorder = ctx.flight_recorder();
      sim::Simulator sim(g, mac, traffic, config);
      sim.run(400);
      ctx.record(sim.stats());
    });
  }
  const runner::CampaignResult result = campaign.run();

  ASSERT_FALSE(result.flight_dumps.empty());
  ASSERT_LE(result.flight_dumps.size(), 2u);
  for (const auto& dump : result.flight_dumps) {
    EXPECT_FALSE(dump.reason.empty());
    EXPECT_GT(dump.events, 0u);
    auto parsed = obs::read_flight_jsonl_file(dump.path);
    EXPECT_TRUE(parsed.errors.empty());
    EXPECT_EQ(parsed.events.size(), dump.events);
    EXPECT_TRUE(FlightLog(std::move(parsed.events)).self_check().empty());
    std::remove(dump.path.c_str());
  }
  // Ground truth from the per-cell stats: exactly the first max_dumps
  // below-threshold cells get dumped, in cell-index order.
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < result.cells.size() && expected.size() < 2; ++i) {
    if (result.cells[i].stats.delivery_ratio() < 0.95) expected.push_back(i);
  }
  ASSERT_EQ(result.flight_dumps.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.flight_dumps[i].cell_index, expected[i]);
  }
}

/// A one-cell campaign whose cell always trips min_delivery_ratio.
runner::Campaign starved_campaign(const std::string& dir, int* ran) {
  runner::CampaignOptions options;
  runner::FlightCaptureOptions capture;
  capture.dir = dir;
  capture.min_delivery_ratio = 0.95;
  options.flight_capture = capture;
  options.num_workers = 1;
  runner::Campaign campaign(std::move(options));
  campaign.add("starved", [ran](runner::CellContext& ctx) {
    ++*ran;
    sim::SimStats stats;
    stats.generated = 1;  // delivery ratio 0
    ctx.record(stats);
  });
  return campaign;
}

TEST(CampaignFlightCapture, MissingDumpDirIsRejectedBeforeAnyCellRuns) {
  const std::string file = testing::TempDir() + "/ttdc_flight_not_a_dir";
  ASSERT_TRUE(obs::write_flight_jsonl_file(file, {}));
  for (const std::string& dir : {std::string("/nonexistent/dir"), file}) {
    int ran = 0;
    runner::Campaign campaign = starved_campaign(dir, &ran);
    for (const bool serial : {false, true}) {
      try {
        (void)(serial ? campaign.run_serial() : campaign.run());
        ADD_FAILURE() << "dump dir '" << dir << "' was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(dir), std::string::npos) << e.what();
      }
    }
    EXPECT_EQ(ran, 0) << "a cell ran before the dump dir was checked";
  }
  std::remove(file.c_str());
}

TEST(CampaignFlightCapture, UnwritableDumpThrowsNamingThePath) {
  const std::string dir = testing::TempDir() + "/ttdc_flight_unwritable";
  // A directory squatting on the dump's file name makes the write fail.
  const std::string path = dir + "/flight_0_starved.jsonl";
  std::filesystem::create_directories(path);
  int ran = 0;
  runner::Campaign campaign = starved_campaign(dir, &ran);
  try {
    (void)campaign.run();
    ADD_FAILURE() << "a failed dump was dropped silently";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  EXPECT_EQ(ran, 1);
  std::filesystem::remove_all(dir);
}

}  // namespace
