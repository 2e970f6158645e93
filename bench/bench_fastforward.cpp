// Fast-forward bench (DESIGN.md §15): a charged span's skip over its
// sender-free slots vs stepping every slot, on the workload it pays off on:
// a static-topology duty-cycled network with sparse lookahead traffic (the
// E21 lifetime regime: long silent stretches between convergecast
// arrivals). "On" runs the lookahead source bare, so the skip arms; "off"
// runs the same source behind OpaqueTraffic (tests/support/), which never
// skips. Gates:
//
//   * fastforward_speedup >= 10x: on vs off wall-clock on the
//     sparse-traffic run (SimStats asserted equal, every field, before
//     timing);
//   * disarmed_overhead <= 2%: on a workload with an arrival in every
//     frame, the armed skip must cost within 2% of the reference — skipping
//     never costs more than stepping.
//
// Rates are the MAX over interleaved reps (the bench_megascale idiom): on
// a shared box, co-tenant interference only ever slows a rep down, so the
// max estimates the uncontended rate and the ratio of maxes the
// uncontended speedup.
//
// Emits BENCH_fastforward.json; fastforward_speedup is regression-gated by
// scripts/run_benches.sh --perf-check.
//
// --smoke: short run, no gate failures — the CI Release job runs this to
// prove the skip stays engaged and golden-equal without paying for a
// calibrated run.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/domain_grid.hpp"
#include "net/topology.hpp"
#include "obs/report.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "support/opaque_traffic.hpp"
#include "util/timer.hpp"

namespace {

using namespace ttdc;

constexpr std::size_t kN = 400;
constexpr std::size_t kMaxDegree = 6;
constexpr double kBatteryMj = 1.0e7;  // outlives every timed window: no
                                      // death crossing inside a rep
constexpr double kGateSpeedup = 10.0;
constexpr double kGateOverhead = 0.02;
// Aggregate arrival gap for the sparse workload, in FRAMES (the n=400
// schedule's frame is ~2400 slots). 150 frames of silence per arrival: the
// slots stepped while packets are in flight stay a rounding error against
// the skipped stretch, yet every timed window still sees arrivals.
constexpr double kSparseGapFrames = 150.0;

struct World {
  net::Positions pos;
  net::DomainGrid grid;
  net::Graph graph;
  core::Schedule schedule;
};

World make_world(std::size_t n) {
  util::Xoshiro256 rng(0xFF5D ^ static_cast<std::uint64_t>(n));
  net::Positions pos = net::random_positions(n, rng);
  const double radius = std::min(0.4, std::sqrt(10.0 / static_cast<double>(n)));
  net::DomainGrid grid(pos, radius);
  net::Graph graph = net::unit_disk_graph(pos, radius, kMaxDegree, grid);
  core::Schedule schedule = core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, kMaxDegree), n)),
      kMaxDegree, 4, std::max<std::size_t>(4, n / 3));
  return {std::move(pos), std::move(grid), std::move(graph), std::move(schedule)};
}

double per_node_rate(double gap_slots) {
  // P(any arrival in a slot) ~ 1/gap; spread uniformly over n-1 origins.
  return 1.0 / (gap_slots * static_cast<double>(kN - 1));
}

struct RunResult {
  sim::SimStats stats;
  sim::ChargedSpanStats spans;
  double slots_per_sec = 0.0;
};

/// One run with the lookahead source bare (`skip`, so the skip arms) or
/// behind OpaqueTraffic (the reference that steps every slot).
RunResult run_once(const World& world, bool skip, double rate, std::uint64_t warmup,
                   std::uint64_t timed) {
  sim::DutyCycledScheduleMac mac(world.schedule);
  sim::LookaheadConvergecastTraffic traffic(kN, /*sink=*/0, rate, /*seed=*/0x5EED);
  sim::OpaqueTraffic opaque(traffic);
  sim::SimConfig cfg;
  cfg.seed = 0xE21;
  cfg.battery_mj = kBatteryMj;
  sim::Simulator sim(world.graph, mac,
                     skip ? static_cast<sim::TrafficSource&>(traffic) : opaque, cfg);
  sim.run(warmup);
  util::Timer timer;
  sim.run(timed);
  const double secs = timer.seconds();
  return {sim.stats(), sim.charged_span_stats(), static_cast<double>(timed) / secs};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int pairs = smoke ? 3 : 5;
  const World world = make_world(kN);
  const std::uint64_t period = world.schedule.frame_length();
  // Untimed warmup: routing columns built and the frame totals counted
  // before the timed window starts.
  const std::uint64_t warmup = 12 * period;
  const std::uint64_t timed = (smoke ? 30 : 600) * period;
  // The overhead gate compares two nearly equal rates, so its reps need to
  // be long enough (and numerous enough) that each side catches a quiet
  // stretch on a shared box — the ratio-of-maxes estimator only needs one
  // uncontended rep per side, but a 2% gate leaves little room for noise.
  const std::uint64_t overhead_timed = (smoke ? 20 : 300) * period;
  const int overhead_pairs = smoke ? 3 : 7;

  obs::BenchReport report("fastforward");
  report.param("n", static_cast<std::int64_t>(kN));
  report.param("mac", "duty_cycled_schedule");
  report.param("frame_length", static_cast<std::int64_t>(period));
  report.param("traffic", "lookahead_convergecast");
  report.param("sparse_gap_frames", kSparseGapFrames);
  report.param("battery_mj", kBatteryMj);
  report.param("pairs", static_cast<std::int64_t>(pairs));
  report.param("warmup_slots", static_cast<std::int64_t>(warmup));
  report.param("timed_slots", static_cast<std::int64_t>(timed));
  report.param("gate_speedup", kGateSpeedup);
  report.param("gate_overhead", kGateOverhead);
  report.param("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));

  bool ok = true;
  const double sparse_rate =
      per_node_rate(kSparseGapFrames * static_cast<double>(period));

  // Golden tripwire on the exact timed workload (warmup + timed window):
  // the skip must count the same world as stepping every slot, every
  // SimStats field (SimStats::operator==). The full cross-MAC matrix lives
  // in tests/test_fastforward.cpp.
  {
    const RunResult off = run_once(world, false, sparse_rate, warmup, timed);
    const RunResult on = run_once(world, true, sparse_rate, warmup, timed);
    if (off.stats != on.stats) {
      std::cout << "GOLDEN MISMATCH: skipping changed the stats\n";
      ok = false;
    }
    if (on.spans.skipped == 0) {
      std::cout << "ENGINE IDLE: sparse workload never skipped a slot\n";
      ok = false;
    }
    if (off.spans.skipped != 0) {
      std::cout << "REFERENCE SKIPPED: " << off.spans.skipped << " slots behind OpaqueTraffic\n";
      ok = false;
    }
    const double skipped_fraction =
        static_cast<double>(on.spans.skipped) / static_cast<double>(on.stats.slots_run);
    std::cout << "skipped fraction: " << skipped_fraction << " (" << on.spans.skipped
              << " of " << on.stats.slots_run << " slots)\n";
    report.metric("skipped_fraction", skipped_fraction);
  }

  // Speedup gate: sparse traffic, skip on vs off, max-paired rates.
  double speedup = 0.0;
  if (ok) {
    std::vector<double> on_rates, off_rates;
    run_once(world, true, sparse_rate, warmup, timed);  // warm caches, untimed
    for (int rep = 0; rep < pairs; ++rep) {
      off_rates.push_back(run_once(world, false, sparse_rate, warmup, timed).slots_per_sec);
      on_rates.push_back(run_once(world, true, sparse_rate, warmup, timed).slots_per_sec);
    }
    const double off = *std::max_element(off_rates.begin(), off_rates.end());
    const double on = *std::max_element(on_rates.begin(), on_rates.end());
    speedup = on / off;
    std::cout << "sparse: off " << off << " slots/s, on " << on << " slots/s, speedup "
              << speedup << "x\n";
    report.metric("off_slots_per_sec", off);
    report.metric("on_slots_per_sec", on);
    report.metric("fastforward_speedup", speedup);
  }

  // Overhead gate: arrivals in every frame keep packets in flight, so the
  // armed skip probes before most stepped slots and passes over fewer.
  // Compare against the reference that steps every slot of the identical
  // workload: skipping must never cost more than stepping.
  double overhead = 0.0;
  {
    // ~1 arrival per 200 slots in aggregate: every frame (~2400 slots)
    // contains one.
    const double dense_rate = per_node_rate(200.0);
    std::vector<double> armed_rates, off_rates;
    for (int rep = 0; rep < overhead_pairs; ++rep) {
      off_rates.push_back(
          run_once(world, false, dense_rate, warmup, overhead_timed).slots_per_sec);
      armed_rates.push_back(
          run_once(world, true, dense_rate, warmup, overhead_timed).slots_per_sec);
    }
    const double off = *std::max_element(off_rates.begin(), off_rates.end());
    const double armed = *std::max_element(armed_rates.begin(), armed_rates.end());
    overhead = off > armed ? off / armed - 1.0 : 0.0;
    std::cout << "arrival-every-frame: off " << off << " slots/s, armed " << armed
              << " slots/s, overhead " << overhead * 100.0 << "%\n";
    report.metric("armed_dense_slots_per_sec", armed);
    report.metric("reference_dense_slots_per_sec", off);
    report.metric("disarmed_overhead", overhead);
  }

  const bool speedup_ok = speedup >= kGateSpeedup;
  const bool overhead_ok = overhead <= kGateOverhead;
  std::cout << "\nfastforward speedup: " << speedup << "x (gate >= " << kGateSpeedup
            << "x): " << (speedup_ok ? "CONFIRMED" : "FAILED") << "\n"
            << "disarmed overhead: " << overhead * 100.0 << "% (gate <= "
            << kGateOverhead * 100.0 << "%): " << (overhead_ok ? "CONFIRMED" : "FAILED")
            << "\n";
  if (!smoke) ok = ok && speedup_ok && overhead_ok;
  report.metric("ok", ok ? 1 : 0);
  report.write();
  // Smoke mode proves golden equality and that the skip engages; it is too
  // short to hold the calibrated perf gates.
  return ok ? 0 : 1;
}
