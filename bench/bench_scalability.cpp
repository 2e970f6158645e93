// E15 -- microbenchmarks of the machinery (google-benchmark): requirement
// checking, Construct(), the Theorem 2 evaluator, family construction, and
// raw simulator slot rate. Informational, no gate; the flight recorder's
// overhead budget is gated by bench_obs_recorder.
#include <benchmark/benchmark.h>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "core/requirements.hpp"
#include "core/throughput.hpp"
#include "net/topology.hpp"
#include "obs/report.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"

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
// n = 5000 it is the metro workload's Construct, and n = 20,000 (frame
// length 285,513) is the first size past the metro workload. Informational,
// no gate.
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
    ->Arg(20000)
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

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReport report("scalability");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report.write();
  return 0;
}
