// Slot-rate regression harness for the word-parallel simulator hot path
// (DESIGN.md §8): measures per-node-reference vs batched slots/sec for
// n in {50, 100, 200, 400, 800, 1600, 3200} under DutyCycledScheduleMac
// with no recorder, and gates on a >= 3x speedup at n = 400. The reference
// side is the same MAC behind ScalarOnlyMac (tests/support/), which hides
// its slot sets so the simulator drives it node by node. The 1600 and 3200
// rows ride along informationally (slots_per_sec metrics only, no gated
// *_speedup — the per-node path is far outside its design envelope there
// and the ratio is too noisy to gate; the metropolitan sizes proper are
// bench_megascale's job).
//
// An informational ladder, n<N>_saturated_batched_*, records the batched
// rate under SaturatedFlows (every node backlogged toward a neighbour), and
// another, n<N>_run1_batched_*, the batched rate when the timed window is
// driven as run(1) calls. Nothing observes between those calls, so each one
// continues the frame the previous call left open (DESIGN.md §8): the row
// measures a run() call's overhead on an open frame, and charges no
// partial span. One-slot spans arise only after an observer (stats() and
// the like) or set_graph() closes the frame.
// Emits BENCH_sim_hotpath.json (consumed by scripts/run_benches.sh
// --perf-check for regression tracking against the committed baseline).
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/topology.hpp"
#include "obs/report.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "support/scalar_only_mac.hpp"
#include "util/timer.hpp"

namespace {

using namespace ttdc;

constexpr std::uint64_t kWarmup = 2000;
constexpr int kPairs = 9;
constexpr int kSaturatedReps = 5;
constexpr int kRun1Reps = 5;
constexpr double kGateN = 400;
constexpr double kGateSpeedup = 3.0;

// Timed slots scale down with n so every row costs comparable wall time.
std::uint64_t timed_slots(std::size_t n) { return 4'000'000 / n; }

/// Every node backlogged toward one random neighbour (the worst case of
/// Theorems 2-4).
std::vector<std::pair<std::size_t, std::size_t>> saturated_flows(const net::Graph& g) {
  std::vector<std::pair<std::size_t, std::size_t>> flows;
  util::Xoshiro256 rng(5);
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const std::vector<std::size_t> neighbors = g.neighbor_list(v);
    if (!neighbors.empty()) flows.emplace_back(v, neighbors[rng.below(neighbors.size())]);
  }
  return flows;
}

/// `chunk` > 0 drives the timed window as run(chunk) calls instead of one.
double slot_rate_once(const net::Graph& g, const core::Schedule& duty, bool scalar_only,
                      bool saturated, std::uint64_t chunk = 0) {
  sim::DutyCycledScheduleMac mac(duty);
  sim::ScalarOnlyMac scalar_mac(mac);
  sim::Simulator* running = nullptr;
  std::unique_ptr<sim::TrafficSource> traffic;
  if (saturated) {
    traffic = std::make_unique<sim::SaturatedFlows>(
        saturated_flows(g), [&running](std::size_t v) { return running->queue_size(v); });
  } else {
    traffic = std::make_unique<sim::BernoulliTraffic>(g.num_nodes(), 0.01);
  }
  const sim::SimConfig config{.seed = 7};
  sim::MacProtocol& driven = scalar_only ? static_cast<sim::MacProtocol&>(scalar_mac) : mac;
  sim::Simulator sim(g, driven, *traffic, config);
  running = &sim;
  sim.run(kWarmup);
  const std::uint64_t timed = timed_slots(g.num_nodes());
  util::Timer timer;
  if (chunk == 0) {
    sim.run(timed);
  } else {
    for (std::uint64_t done = 0; done < timed; done += chunk) sim.run(chunk);
  }
  return static_cast<double>(timed) / timer.seconds();
}

double max_of(const std::vector<double>& v) { return *std::max_element(v.begin(), v.end()); }

}  // namespace

int main() {
  obs::BenchReport report("sim_hotpath");
  report.param("mac", "DutyCycledScheduleMac");
  report.param("reference", "scalar_only_mac");
  report.param("traffic", "bernoulli_0.01");
  report.param("pairs", static_cast<std::int64_t>(kPairs));
  report.param("saturated_reps", static_cast<std::int64_t>(kSaturatedReps));
  report.param("run1_reps", static_cast<std::int64_t>(kRun1Reps));
  report.param("warmup_slots", static_cast<std::int64_t>(kWarmup));
  report.param("gate_n", static_cast<std::int64_t>(kGateN));
  report.param("gate_speedup", kGateSpeedup);

  bool gate_ok = false;
  double gate_speedup = 0.0;
  std::cout << "simulator hot path (slots/sec; scalar = MAC behind ScalarOnlyMac)\n"
            << "    n     scalar/s    batched/s  speedup  sat.batched/s  run1.batched/s\n";
  for (std::size_t n : {50, 100, 200, 400, 800, 1600, 3200}) {
    util::Xoshiro256 rng(3);
    const net::Graph g = net::random_bounded_degree_graph(n, 4, 2 * n, rng);
    const core::Schedule duty = core::construct_duty_cycled(
        core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, 4), n)), 4, 4,
        n / 3);
    // Back-to-back scalar/batched pairs scored by the median per-pair
    // ratio: pairing cancels clock drift, the median discards load spikes
    // (same methodology as the ring-sink budget in bench_scalability).
    std::vector<double> ratios, scalar_rates, batched_rates;
    slot_rate_once(g, duty, /*scalar_only=*/false, /*saturated=*/false);  // warmup, untimed
    for (int rep = 0; rep < kPairs; ++rep) {
      const double s = slot_rate_once(g, duty, /*scalar_only=*/true, /*saturated=*/false);
      const double b = slot_rate_once(g, duty, /*scalar_only=*/false, /*saturated=*/false);
      scalar_rates.push_back(s);
      batched_rates.push_back(b);
      ratios.push_back(b / s);
    }
    std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2, ratios.end());
    const double speedup = ratios[kPairs / 2];
    // Saturated row: batched only (max over reps).
    std::vector<double> sat_batched_rates;
    for (int rep = 0; rep < kSaturatedReps; ++rep) {
      sat_batched_rates.push_back(
          slot_rate_once(g, duty, /*scalar_only=*/false, /*saturated=*/true));
    }
    // run(1) calls on open frames: batched only (max over reps).
    std::vector<double> run1_batched_rates;
    for (int rep = 0; rep < kRun1Reps; ++rep) {
      run1_batched_rates.push_back(slot_rate_once(g, duty, /*scalar_only=*/false,
                                                  /*saturated=*/false, /*chunk=*/1));
    }
    const double scalar = max_of(scalar_rates);
    const double batched = max_of(batched_rates);
    const double sat_batched = max_of(sat_batched_rates);
    const double run1_batched = max_of(run1_batched_rates);
    std::cout << "  " << n << "  " << scalar << "  " << batched << "  " << speedup << "x  "
              << sat_batched << "  " << run1_batched << "\n";
    std::string key = "n";
    key += std::to_string(n);
    report.metric(key + "_scalar_slots_per_sec", scalar);
    report.metric(key + "_batched_slots_per_sec", batched);
    report.metric(key + "_saturated_batched_slots_per_sec", sat_batched);
    report.metric(key + "_run1_batched_slots_per_sec", run1_batched);
    // The extended ladder rows (n > 800) are informational only: no
    // *_speedup key, so --perf-check never gates them.
    if (n <= 800) report.metric(key + "_speedup", speedup);
    if (static_cast<double>(n) == kGateN) {
      gate_speedup = speedup;
      gate_ok = speedup >= kGateSpeedup;
    }
  }
  std::cout << "\nbatched speedup @ n=" << kGateN << ": " << gate_speedup
            << "x (gate >= " << kGateSpeedup << "x): " << (gate_ok ? "CONFIRMED" : "FAILED")
            << "\n";
  report.metric("ok", gate_ok ? 1 : 0);
  report.write();
  return gate_ok ? 0 : 1;
}
