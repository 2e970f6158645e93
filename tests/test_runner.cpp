// Campaign runner: deterministic seed derivation, shared artifact caches,
// order-independent aggregation, and nested parallel helpers.
#include "runner/runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "core/builders.hpp"
#include "core/tradeoff.hpp"
#include "net/topology.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ttdc::runner {
namespace {

using core::Schedule;

Schedule tdma_schedule(std::size_t n) {
  return core::non_sleeping_from_family(comb::tdma_family(n));
}

// `prefix + std::to_string(i)` trips GCC 12's -Wrestrict false positive
// (PR105329) through the operator+(const char*, string&&) overload; append
// instead.
std::string cell_name(const char* prefix, std::uint64_t i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

// A representative sim cell: convergecast over a grid under a TDMA MAC,
// using every shared-artifact channel (cached schedule, cached routing).
CellFn sim_cell(std::size_t rows, std::size_t cols, double rate, std::uint64_t slots) {
  return [=](CellContext& ctx) {
    const std::size_t n = rows * cols;
    auto schedule = ctx.artifacts().schedule(
        cell_name("tdma:n=", n), [n] { return tdma_schedule(n); });
    const net::Graph g = net::grid_graph(rows, cols);
    auto routing = ctx.artifacts().routing(g);
    sim::DutyCycledScheduleMac mac(*schedule);
    sim::ConvergecastTraffic traffic(n, 0, rate);
    sim::SimConfig cfg;
    cfg.seed = ctx.seed();
    cfg.shared_routing = routing.get();
    sim::Simulator sim(g, mac, traffic, cfg);
    sim.run(slots);
    ctx.record(sim.stats());
    ctx.metric("delivery_ratio", sim.stats().delivery_ratio());
  };
}

Campaign make_campaign(int workers, std::uint64_t master_seed = 0xCAFE) {
  CampaignOptions opts;
  opts.master_seed = master_seed;
  opts.num_workers = workers;
  Campaign c(opts);
  for (int i = 0; i < 6; ++i) c.add(cell_name("cell", static_cast<std::uint64_t>(i)), sim_cell(4, 4, 0.08, 600));
  return c;
}

TEST(CampaignRunner, AggregateIsBitIdenticalAcrossWorkerCounts) {
  const std::string serial = make_campaign(1).run_serial().aggregate_json();
  for (int workers : {1, 2, 8}) {
    Campaign c = make_campaign(workers);
    const CampaignResult r = c.run();
    EXPECT_EQ(r.aggregate_json(), serial) << "workers=" << workers;
    EXPECT_EQ(r.workers, workers);
  }
}

TEST(CampaignRunner, SeedsAreSplitMixChildrenOfTheMaster) {
  CampaignOptions opts;
  opts.master_seed = 99;
  opts.num_workers = 1;
  Campaign c(opts);
  std::vector<std::uint64_t> observed(3);
  for (int i = 0; i < 3; ++i) {
    c.add(cell_name("s", static_cast<std::uint64_t>(i)),
          [i, &observed](CellContext& ctx) { observed[static_cast<std::size_t>(i)] = ctx.seed(); });
  }
  (void)c.run();
  util::SplitMix64 sm(99);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(observed[i], sm.next()) << "cell " << i;
}

TEST(CampaignRunner, SharedArtifactsBuildOncePerKey) {
  Campaign c = make_campaign(8);
  (void)c.run();
  // 6 cells x 2 artifacts (schedule + routing) = 12 requests, 2 builds.
  EXPECT_EQ(c.artifacts().misses(), 2u);
  EXPECT_EQ(c.artifacts().hits(), 10u);
}

TEST(CampaignRunner, RoutingCacheDistinguishesDifferentAdjacency) {
  ArtifactStore store;
  auto r1 = store.routing(net::grid_graph(3, 3));
  auto r2 = store.routing(net::ring_graph(9));  // same n, different edges
  auto r3 = store.routing(net::grid_graph(3, 3));
  EXPECT_NE(r1.get(), r2.get());
  EXPECT_EQ(r1.get(), r3.get());
  EXPECT_EQ(store.misses(), 2u);
  EXPECT_EQ(store.hits(), 1u);
}

TEST(CampaignRunner, SharedRoutingMatchesPrivateRouting) {
  // A cell simulated against the store's shared fully-built table must
  // produce the same stats as one building its own lazy table.
  const std::size_t n = 12;
  const Schedule s = tdma_schedule(n);
  const net::Graph g = net::grid_graph(3, 4);

  auto run_once = [&](const net::RoutingTable* shared) {
    sim::DutyCycledScheduleMac mac(s);
    sim::ConvergecastTraffic traffic(n, 0, 0.1);
    sim::SimConfig cfg;
    cfg.seed = 7;
    cfg.shared_routing = shared;
    sim::Simulator sim(g, mac, traffic, cfg);
    sim.run(400);
    return sim.stats().delivered;
  };

  ArtifactStore store;
  auto shared = store.routing(g);
  EXPECT_EQ(run_once(shared.get()), run_once(nullptr));
}

TEST(CampaignRunner, SetGraphRevertsToInternalRouting) {
  const std::size_t n = 12;
  const Schedule s = tdma_schedule(n);
  ArtifactStore store;
  auto shared = store.routing(net::grid_graph(3, 4));
  sim::DutyCycledScheduleMac mac(s);
  sim::ConvergecastTraffic traffic(n, 0, 0.1);
  sim::SimConfig cfg;
  cfg.seed = 7;
  cfg.shared_routing = shared.get();
  sim::Simulator sim(net::grid_graph(3, 4), mac, traffic, cfg);
  sim.run(100);
  // After churn the shared table is stale; the simulator must route over
  // the new topology (ring: node n-1 is adjacent to 0, one hop).
  sim.set_graph(net::ring_graph(n));
  sim.run(400);
  EXPECT_GT(sim.stats().delivered, 0u);
}

TEST(CampaignRunner, CellsMayUseParallelHelpersReentrantly) {
  // Parallel helpers called from inside the worker team must degrade to
  // serial instead of deadlocking or racing the TSan handoff globals.
  CampaignOptions opts;
  opts.num_workers = 4;
  Campaign c(opts);
  std::vector<std::uint64_t> sums(4, 0);
  for (std::size_t i = 0; i < 4; ++i) {
    c.add(cell_name("p", i), [i, &sums](CellContext&) {
      sums[i] = util::parallel_sum(0, 1000, [](std::size_t j) { return std::uint64_t{j}; });
    });
  }
  (void)c.run();
  for (auto s : sums) EXPECT_EQ(s, 499500u);
}

TEST(CampaignRunner, MemoTradeoffMatchesDirectEvaluation) {
  const Schedule s = tdma_schedule(10);
  ArtifactStore store;
  auto tables = store.throughput(10, 3);
  for (std::size_t at = 1; at <= 4; ++at) {
    for (std::size_t ar = 1; ar <= 4; ++ar) {
      const auto direct = core::evaluate_tradeoff(s, std::size_t{3}, at, ar);
      const auto memo = core::evaluate_tradeoff(s, *tables, at, ar);
      EXPECT_EQ(memo.alpha_t_star, direct.alpha_t_star);
      EXPECT_EQ(memo.frame_length, direct.frame_length);
      EXPECT_EQ(memo.duty_cycle, direct.duty_cycle);
      EXPECT_EQ(memo.avg_throughput_bound, direct.avg_throughput_bound);
      EXPECT_EQ(memo.ratio_lower_bound, direct.ratio_lower_bound);
    }
  }
}

TEST(CampaignRunner, EmptyCampaignRunsClean) {
  Campaign c{CampaignOptions{}};
  const CampaignResult r = c.run();
  EXPECT_EQ(r.cells.size(), 0u);
  EXPECT_EQ(r.aggregate.generated, 0u);
  EXPECT_NE(r.aggregate_json().find("\"cells\":[]"), std::string::npos);
}


// TTDC_NUM_THREADS sizes the OpenMP team, so only a whole decimal in the
// range ttdc-campaign --workers takes is accepted; unset, empty and "0"
// mean auto. Checked through resolved_workers() alone: run() is never
// handed an out-of-range count.
TEST(CampaignRunner, NumThreadsEnvironmentIsValidated) {
  const char* saved = std::getenv("TTDC_NUM_THREADS");
  const std::optional<std::string> original =
      saved != nullptr ? std::optional<std::string>(saved) : std::nullopt;
  const Campaign c{CampaignOptions{}};
  const int automatic = util::hardware_parallelism();

  unsetenv("TTDC_NUM_THREADS");
  EXPECT_EQ(c.resolved_workers(), automatic);
  for (const auto& [value, expected] : std::vector<std::pair<std::string, int>>{
           {"", automatic}, {"0", automatic}, {"1", 1}, {"7", 7}, {"1024", 1024}}) {
    setenv("TTDC_NUM_THREADS", value.c_str(), 1);
    EXPECT_EQ(c.resolved_workers(), expected) << "'" << value << "'";
  }
  for (const std::string value :
       {"4abc", "+3", "100000", "99999999999", "-1", "1025", " 3", "3 ", "0x10", "abc"}) {
    setenv("TTDC_NUM_THREADS", value.c_str(), 1);
    try {
      (void)c.resolved_workers();
      ADD_FAILURE() << "accepted TTDC_NUM_THREADS='" << value << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("TTDC_NUM_THREADS"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
    }
  }
  // An explicit worker count never reads the variable.
  const Campaign pinned{CampaignOptions{.num_workers = 3}};
  EXPECT_EQ(pinned.resolved_workers(), 3);

  if (original) {
    setenv("TTDC_NUM_THREADS", original->c_str(), 1);
  } else {
    unsetenv("TTDC_NUM_THREADS");
  }
}
}  // namespace
}  // namespace ttdc::runner
