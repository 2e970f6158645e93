// E23 -- the campaign engine itself: parallel simulation campaigns must be
// (a) bit-identical to the serial loop they replace and (b) actually faster
// on multi-core hosts.
//
// A replicated convergecast study (three TT schedule variants x several
// SplitMix64-derived seed replicas on a 5x5 grid) runs twice: once through
// Campaign::run_serial() and once through the work-stealing worker pool.
// The aggregate JSON of both runs is compared byte for byte -- this is the
// determinism contract of DESIGN.md §10 (child seeds are a function of
// (master_seed, cell_index) only; merges fold in cell-index order).
//
// Flags:
//   --smoke       reduced cell grid and no speedup gate (CI on small runners)
//   --perf-check  gate: parallel >= 3x serial wall-clock when >= 4 cores
//
// The aggregate-equality gate always applies. The committed baseline for
// scripts/run_benches.sh --perf-check lives in
// bench/baselines/BENCH_campaign.baseline.json; regenerate it by copying a
// fresh BENCH_campaign.json when the cell grid legitimately changes.
#include <cstring>
#include <iostream>
#include <string>

#include "combinatorics/constructions.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/topology.hpp"
#include "obs/report.hpp"
#include "runner/runner.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

using namespace ttdc;

int main(int argc, char** argv) {
  bool smoke = false, perf_check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--perf-check") == 0) perf_check = true;
  }
  constexpr std::size_t kRows = 5, kCols = 5, kN = kRows * kCols, kD = 4, kSink = 0;
  constexpr double kRate = 0.003;
  const std::uint64_t slots = smoke ? 3000 : 20000;
  const std::size_t replicas = smoke ? 2 : 8;

  obs::BenchReport report("campaign");
  report.param("grid", "5x5");
  report.param("rate_per_node_per_slot", kRate);
  report.param("slots", static_cast<std::int64_t>(slots));
  report.param("replicas", static_cast<std::int64_t>(replicas));
  report.param("smoke", smoke ? 1 : 0);
  util::print_banner("E23 / campaign engine: parallel == serial, and faster",
                     {{"grid", "5x5"},
                      {"slots", std::to_string(slots)},
                      {"replicas", std::to_string(replicas)},
                      {"smoke", smoke ? "yes" : "no"}});

  const net::Graph grid = net::grid_graph(kRows, kCols);
  struct Variant {
    const char* name;
    const char* key;
    std::size_t alpha_r;  // 0 = non-sleeping base
  };
  const Variant variants[] = {
      {"base", "base:poly(5,1)", 0},
      {"aR10", "duty:aR=10", 10},
      {"aR5", "duty:aR=5", 5},
  };

  const auto build_campaign = [&] {
    runner::Campaign campaign;
    for (const auto& v : variants) {
      for (std::size_t rep = 0; rep < replicas; ++rep) {
        std::string name(v.name);
        name += ":rep";
        name += std::to_string(rep);
        campaign.add(std::move(name), [&grid, &v, slots](runner::CellContext& ctx) {
          auto base = ctx.artifacts().schedule("base:poly(5,1)", [] {
            return core::non_sleeping_from_family(comb::polynomial_family(5, 1, kN));
          });
          auto schedule = v.alpha_r == 0
                              ? base
                              : ctx.artifacts().schedule(v.key, [&] {
                                  return core::construct_duty_cycled(*base, kD, 5, v.alpha_r);
                                });
          auto routing = ctx.artifacts().routing(grid);
          sim::DutyCycledScheduleMac mac(*schedule);
          sim::ConvergecastTraffic traffic(kN, kSink, kRate);
          sim::SimConfig cfg;
          cfg.seed = ctx.seed();  // SplitMix64 child of the campaign master seed
          cfg.shared_routing = routing.get();
          sim::Simulator sim(grid, mac, traffic, cfg);
          sim.run(slots);
          ctx.record(sim.stats());
          ctx.metric("delivery_ratio", sim.stats().delivery_ratio());
        });
      }
    }
    return campaign;
  };

  // Serial reference first (pays the artifact builds), then the pool.
  runner::Campaign serial_campaign = build_campaign();
  const runner::CampaignResult serial = serial_campaign.run_serial();
  runner::Campaign parallel_campaign = build_campaign();
  const runner::CampaignResult parallel = parallel_campaign.run();

  const bool equal = serial.aggregate_json() == parallel.aggregate_json();
  const double speedup = parallel.elapsed_seconds > 0.0
                             ? serial.elapsed_seconds / parallel.elapsed_seconds
                             : 0.0;
  const int cores = util::hardware_parallelism();
  const bool gate_speedup = perf_check && !smoke && cores >= 4;
  const bool speedup_ok = !gate_speedup || speedup >= 3.0;

  std::cout << serial.cells.size() << " cells, " << parallel.workers << " workers ("
            << cores << " cores)\n"
            << "serial   " << serial.elapsed_seconds << " s\n"
            << "parallel " << parallel.elapsed_seconds << " s  (speedup " << speedup
            << "x)\n"
            << "aggregate equality (bit-identical JSON): "
            << (equal ? "CONFIRMED" : "FAILED") << "\n";
  if (gate_speedup) {
    std::cout << "speedup gate (>= 3x on " << cores
              << " cores): " << (speedup_ok ? "CONFIRMED" : "FAILED") << "\n";
  } else {
    // A skipped gate is recorded as skipped, so "ok" never reads as a pass
    // the run did not make.
    const std::string reason = smoke         ? "smoke mode"
                               : !perf_check ? "no --perf-check"
                                             : std::to_string(cores) + " cores (< 4)";
    std::cout << "speedup gate: skipped (" << reason << ")\n";
    report.param("gate_skipped", "speedup >= 3x: " + reason);
  }

  const bool ok = equal && speedup_ok;
  report.metric("cells", serial.cells.size());
  report.metric("workers", parallel.workers);
  report.metric("cores", cores);
  report.metric("serial_seconds", serial.elapsed_seconds);
  report.metric("parallel_seconds", parallel.elapsed_seconds);
  report.metric("campaign_speedup", speedup);
  report.metric("aggregate_equal", equal ? 1 : 0);
  report.metric("artifact_hits", parallel_campaign.artifacts().hits());
  report.metric("artifact_misses", parallel_campaign.artifacts().misses());
  report.metric("aggregate_delivered", parallel.aggregate.delivered);
  report.metric("aggregate_generated", parallel.aggregate.generated);
  report.metric("ok", ok ? 1 : 0);
  report.write();
  return ok ? 0 : 1;
}
