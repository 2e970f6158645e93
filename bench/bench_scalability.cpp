// E15 -- microbenchmarks of the machinery (google-benchmark): requirement
// checking, Construct(), the Theorem 2 evaluator, family construction, and
// raw simulator slot rate. After the suites, a direct micro-measurement
// checks that installing a bounded ring-buffer trace sink costs < 5% of the
// simulator's slot rate (the observability layer's hot-path budget).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "core/requirements.hpp"
#include "core/throughput.hpp"
#include "net/topology.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "runner/runner.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/timer.hpp"

using namespace ttdc;

namespace {

core::Schedule poly_schedule(std::uint32_t q, std::uint32_t k, std::size_t n) {
  return core::non_sleeping_from_family(comb::polynomial_family(q, k, n));
}

void BM_PolynomialFamilyBuild(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(q) * q;
  for (auto _ : state) {
    benchmark::DoNotOptimize(comb::polynomial_family(q, 1, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PolynomialFamilyBuild)->Arg(5)->Arg(9)->Arg(13)->Arg(25);

void BM_Requirement3Exact(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  const auto d = static_cast<std::size_t>(state.range(1));
  const core::Schedule s = poly_schedule(q, 1, static_cast<std::size_t>(q) * q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::check_requirement3_exact(s, d));
  }
}
BENCHMARK(BM_Requirement3Exact)
    ->Args({5, 2})
    ->Args({5, 3})
    ->Args({7, 2})
    ->Args({7, 3})
    ->Args({9, 2});

void BM_Requirement3Sampled(benchmark::State& state) {
  const core::Schedule s = poly_schedule(13, 2, 169);
  util::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::check_requirement3_sampled(s, 5, 1000, rng));
  }
}
BENCHMARK(BM_Requirement3Sampled);

void BM_ConstructDutyCycled(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(q) * q;
  const core::Schedule base = poly_schedule(q, 1, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::construct_duty_cycled(base, 3, 4, 8));
  }
}
BENCHMARK(BM_ConstructDutyCycled)->Arg(5)->Arg(9)->Arg(13);

// The bench/e2e schedule recipe (best_plan, D = 6, αT = 4, αR = n/3); at
// n = 5000 it is the metro workload's Construct. Informational, no gate.
void BM_ConstructDutyCycledE2eRecipe(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::Schedule base =
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, 6), n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::construct_duty_cycled(base, 6, 4, n / 3));
  }
}
BENCHMARK(BM_ConstructDutyCycledE2eRecipe)
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_Theorem2Evaluator(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  const core::Schedule s = poly_schedule(q, 1, static_cast<std::size_t>(q) * q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::average_throughput(s, 3));
  }
}
BENCHMARK(BM_Theorem2Evaluator)->Arg(5)->Arg(13)->Arg(25);

void BM_MinGuaranteedGreedy(benchmark::State& state) {
  const core::Schedule s = poly_schedule(9, 1, 81);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::min_guaranteed_slots_greedy(s, 3));
  }
}
BENCHMARK(BM_MinGuaranteedGreedy);

void BM_SimulatorSlotRate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(3);
  const net::Graph g = net::random_bounded_degree_graph(n, 4, 2 * n, rng);
  const core::Schedule duty = core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, 4), n)), 4, 4,
      n / 3);
  sim::DutyCycledScheduleMac mac(duty);
  sim::BernoulliTraffic traffic(n, 0.01);
  sim::Simulator sim(g, mac, traffic, {.seed = 7});
  for (auto _ : state) {
    sim.run(1000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorSlotRate)->Arg(25)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_SteinerBuild(benchmark::State& state) {
  const auto v = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(comb::steiner_triple_family(v));
  }
}
BENCHMARK(BM_SteinerBuild)->Arg(15)->Arg(63)->Arg(255);

// One timed run of the BM_SimulatorSlotRate(400) configuration, optionally
// with a RingBufferTraceSink receiving every trace event.
double slot_rate_once(const net::Graph& g, const core::Schedule& duty,
                      obs::RingBufferTraceSink* ring) {
  constexpr std::uint64_t kWarmup = 500, kTimed = 5000;
  sim::DutyCycledScheduleMac mac(duty);
  sim::BernoulliTraffic traffic(400, 0.01);
  sim::SimConfig config;
  config.seed = 7;
  if (ring != nullptr) config.trace = ring->fn();
  sim::Simulator sim(g, mac, traffic, config);
  sim.run(kWarmup);
  util::Timer timer;
  sim.run(kTimed);
  return static_cast<double>(kTimed) / timer.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReport report("scalability");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Ring-sink overhead budget: the in-memory trace sink must cost < 5%
  // of the n=400 simulator slot rate.
  constexpr std::size_t kN = 400;
  util::Xoshiro256 rng(3);
  const net::Graph g = net::random_bounded_degree_graph(kN, 4, 2 * kN, rng);
  const core::Schedule duty = core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(kN, 4), kN)), 4, 4,
      kN / 3);
  // Back-to-back untraced/traced pairs, scored by the MEDIAN of the
  // per-pair rate ratios: pairing cancels clock-frequency drift (both
  // members see the same CPU state) and the median discards load spikes
  // that best-of-N comparisons on this kind of shared hardware do not.
  //
  // The pairs run as runner campaign cells. A pair stays internally
  // sequential (untraced then traced on the same core, which is what makes
  // the ratio drift-free), and each cell owns a private ring sink so
  // concurrent cells never share a trace buffer; seen() counts are summed
  // afterwards. The median is robust to the extra cross-cell load a
  // multi-worker run adds, and both members of a pair see the same load.
  constexpr int kPairs = 15;
  struct PairResult {
    double untraced = 0.0, traced = 0.0, ratio = 0.0;
    std::uint64_t events_seen = 0;
  };
  std::vector<PairResult> pairs(kPairs);
  runner::Campaign campaign;
  for (int rep = 0; rep < kPairs; ++rep) {
    auto& out = pairs[static_cast<std::size_t>(rep)];
    std::string name = "pair";
    name += std::to_string(rep);
    campaign.add(std::move(name), [&g, &duty, &out](runner::CellContext&) {
      obs::RingBufferTraceSink ring(4096);
      slot_rate_once(g, duty, nullptr);  // per-cell warmup rep, untimed
      out.untraced = slot_rate_once(g, duty, nullptr);
      out.traced = slot_rate_once(g, duty, &ring);
      out.ratio = out.traced / out.untraced;
      out.events_seen = ring.seen();
    });
  }
  (void)campaign.run();
  std::vector<double> ratios;
  std::vector<double> untraced_rates, traced_rates;
  std::uint64_t events_seen = 0;
  for (const auto& p : pairs) {
    untraced_rates.push_back(p.untraced);
    traced_rates.push_back(p.traced);
    ratios.push_back(p.ratio);
    events_seen += p.events_seen;
  }
  std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2, ratios.end());
  const double median_ratio = ratios[kPairs / 2];
  const double untraced = *std::max_element(untraced_rates.begin(), untraced_rates.end());
  const double traced = *std::max_element(traced_rates.begin(), traced_rates.end());
  const double overhead_pct = 100.0 * (1.0 - median_ratio);
  const bool ok = overhead_pct < 5.0;
  std::cout << "\nring-sink overhead @ n=" << kN << ": untraced " << untraced
            << " slots/s, ring-traced " << traced << " slots/s, overhead "
            << overhead_pct << "% (budget 5%): " << (ok ? "CONFIRMED" : "FAILED") << "\n";
  report.param("n", kN);
  report.param("ring_capacity", static_cast<std::int64_t>(4096));
  report.metric("untraced_slots_per_sec", untraced);
  report.metric("ring_traced_slots_per_sec", traced);
  report.metric("ring_sink_overhead_pct", overhead_pct);
  report.metric("ring_events_seen", events_seen);
  report.metric("ok", ok ? 1 : 0);
  report.write();
  return ok ? 0 : 1;
}
