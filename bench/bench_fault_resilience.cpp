// Fault injection under load (DESIGN.md §12): how much guaranteed
// throughput each MAC keeps as the deterministic fault plan ramps up, and
// what the fault machinery costs when it is NOT in use.
//
// Two halves:
//
//  1. Fault-intensity sweep. A convergecast campaign (runner resilience
//     armed: retries + quarantine) runs the MAC zoo — the TT duty-cycled
//     schedule, slotted ALOHA, uncoordinated sleep, S-MAC-style common
//     active period, and distance-2 coloring TDMA — at fault intensities
//     0 / 0.5 / 1.0 (crash + bursty link loss + jammer + battery spikes,
//     all seed-derived). Reported: delivery ratio per (mac, intensity).
//     The TT schedule's delivery must degrade gracefully — the sweep fails
//     if TT at full intensity delivers less than half of ALOHA at full
//     intensity (the paper's claim is robustness without topology
//     knowledge, not fragility).
//
//  2. Disarmed-cost gate. The fault subsystem compiled in but with no
//     FaultPlan armed must be invisible: a paired measurement (same seed,
//     interleaved reps) of disarmed vs armed-with-EMPTY-plan runs gates the
//     armed-empty overhead at <2%, with a disarmed/disarmed noise canary
//     that skips the gate (policy of bench_obs_recorder) when the host is
//     too loaded to resolve 2%. Armed-empty and disarmed runs must also
//     produce bit-identical SimStats, every field (SimStats::operator==) —
//     arming the machinery without faults may cost nanoseconds, never a
//     different result.
//
// The committed baseline (bench/baselines/BENCH_fault_resilience.baseline
// .json) carries fault_empty_plan_speedup (~1.0) for run_benches.sh
// --perf-check; absolute slots/sec are informational.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/topology.hpp"
#include "obs/report.hpp"
#include "runner/runner.hpp"
#include "sim/fault.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace ttdc;

constexpr std::size_t kN = 36;
constexpr std::size_t kD = 4;
constexpr double kMaxOverhead = 0.02;

net::Graph bench_graph() {
  util::Xoshiro256 rng(21);
  return net::random_bounded_degree_graph(kN, kD, 2 * kN, rng);
}

core::Schedule duty_schedule() {
  return core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(kN, kD), kN)), kD,
      4, kN / 3);
}

sim::FaultPlanConfig intensity_config(double x, std::uint64_t horizon) {
  sim::FaultPlanConfig fc;
  fc.horizon_slots = horizon;
  fc.crash_rate = 4e-5 * x;
  fc.mean_downtime_slots = 300;
  fc.link_loss.p_good_to_bad = 0.004 * x;
  fc.link_loss.p_bad_to_good = 0.05;
  fc.battery_spike_rate = 2e-5 * x;
  fc.battery_spike_mj = 2.0;
  fc.num_jammers = x >= 0.99 ? 1 : 0;
  fc.jam_duty = 0.05 * x;
  return fc;
}

std::unique_ptr<sim::MacProtocol> make_mac(const std::string& kind,
                                           const core::Schedule& duty,
                                           const net::Graph& g) {
  if (kind == "tt-duty") return std::make_unique<sim::DutyCycledScheduleMac>(duty);
  if (kind == "aloha") return std::make_unique<sim::SlottedAlohaMac>(kN, 0.08);
  if (kind == "uncoord") return std::make_unique<sim::UncoordinatedSleepMac>(kN, 0.4, 0.2);
  if (kind == "smac") return std::make_unique<sim::CommonActivePeriodMac>(kN, 20, 5, 0.2);
  return std::make_unique<sim::ColoringTdmaMac>(g);
}

enum class CostMode { kDisarmed, kDisarmedAgain, kArmedEmpty };

double cost_rate_once(const net::Graph& g, const core::Schedule& duty, CostMode mode,
                      std::uint64_t timed_slots, sim::SimStats* stats_out = nullptr) {
  sim::DutyCycledScheduleMac mac(duty);
  sim::BernoulliTraffic traffic(kN, 0.01);
  sim::SimConfig config{.seed = 7};
  // An EMPTY plan: machinery armed, zero faults scheduled. The contract is
  // that this is bit-identical to (and within noise of) not arming at all.
  sim::FaultPlanConfig empty;
  empty.horizon_slots = timed_slots + 1000;
  const sim::FaultPlan empty_plan(empty, kN, /*seed=*/99);
  if (mode == CostMode::kArmedEmpty) config.fault_plan = &empty_plan;
  sim::Simulator sim(g, mac, traffic, config);
  sim.run(1000);  // warmup
  util::Timer timer;
  sim.run(timed_slots);
  const double rate = static_cast<double>(timed_slots) / timer.seconds();
  if (stats_out != nullptr) *stats_out = sim.stats();
  return rate;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::uint64_t sweep_slots = smoke ? 4000 : 20000;
  // Long enough per rep (~10 ms) that the best-of-N rates resolve a 2%
  // contract on a shared host; the canary still skips the gate when not.
  const std::uint64_t timed_slots = smoke ? 8000 : 40000;
  const int pairs = smoke ? 5 : 15;
  const std::size_t replicas = smoke ? 2 : 4;

  obs::BenchReport report("fault_resilience");
  report.param("n", static_cast<std::int64_t>(kN));
  report.param("degree", static_cast<std::int64_t>(kD));
  report.param("sweep_slots", static_cast<std::int64_t>(sweep_slots));
  report.param("replicas", static_cast<std::int64_t>(replicas));
  report.param("max_overhead", kMaxOverhead);
  report.param("smoke", smoke ? 1 : 0);
  util::print_banner("E24 / fault injection: delivery vs intensity, disarmed-cost gate",
                     {{"n", std::to_string(kN)},
                      {"slots", std::to_string(sweep_slots)},
                      {"replicas", std::to_string(replicas)},
                      {"smoke", smoke ? "yes" : "no"}});

  const net::Graph g = bench_graph();
  const core::Schedule duty = duty_schedule();
  const char* macs[] = {"tt-duty", "aloha", "uncoord", "smac", "tdma"};
  const double intensities[] = {0.0, 0.5, 1.0};

  // ---- 1. fault-intensity sweep via a resilient campaign --------------
  runner::CampaignOptions copt;
  copt.master_seed = 0xfa01;
  runner::ResilienceOptions res;  // retries + quarantine armed, no journal
  copt.resilience = res;
  runner::Campaign campaign(copt);
  for (const char* mac_kind : macs) {
    for (const double x : intensities) {
      for (std::size_t rep = 0; rep < replicas; ++rep) {
        std::string name(mac_kind);
        name += ":i";
        name += std::to_string(static_cast<int>(x * 100));
        name += ":r";
        name += std::to_string(rep);
        campaign.add(std::move(name),
                     [&g, &duty, mac_kind, x, sweep_slots](runner::CellContext& ctx) {
                       auto mac = make_mac(mac_kind, duty, g);
                       sim::ConvergecastTraffic traffic(kN, /*sink=*/0, 0.002);
                       sim::SimConfig cfg;
                       cfg.seed = ctx.seed();
                       std::unique_ptr<sim::FaultPlan> plan;
                       if (x > 0.0) {
                         plan = std::make_unique<sim::FaultPlan>(
                             intensity_config(x, sweep_slots), kN, ctx.seed());
                         cfg.fault_plan = plan.get();
                       }
                       sim::Simulator sim(g, *mac, traffic, cfg);
                       sim.run(sweep_slots);
                       ctx.record(sim.stats());
                       ctx.metric("delivery_ratio", sim.stats().delivery_ratio());
                     });
      }
    }
  }
  const runner::CampaignResult sweep = campaign.run();

  // Fold per-(mac, intensity) delivery out of the per-cell metrics.
  util::Table table({"mac", "i=0.0", "i=0.5", "i=1.0"});
  double delivery[std::size(macs)][std::size(intensities)] = {};
  std::size_t cell = 0;
  for (std::size_t m = 0; m < std::size(macs); ++m) {
    for (std::size_t ix = 0; ix < std::size(intensities); ++ix) {
      double sum = 0.0;
      for (std::size_t rep = 0; rep < replicas; ++rep, ++cell) {
        sum += sweep.cells[cell].metrics.empty() ? 0.0
                                                 : sweep.cells[cell].metrics[0].second;
      }
      delivery[m][ix] = sum / static_cast<double>(replicas);
    }
    table.add_row({macs[m], delivery[m][0], delivery[m][1], delivery[m][2]});
  }
  std::cout << "mean delivery ratio by fault intensity (" << replicas
            << " replicas each, quarantined cells: " << sweep.quarantined.size()
            << ")\n"
            << table.to_text();
  for (std::size_t m = 0; m < std::size(macs); ++m) {
    std::string key(macs[m]);
    for (char& c : key) {
      if (c == '-') c = '_';
    }
    report.metric("delivery_" + key + "_i0", delivery[m][0]);
    report.metric("delivery_" + key + "_i50", delivery[m][1]);
    report.metric("delivery_" + key + "_i100", delivery[m][2]);
  }
  // Graceful degradation: the TT schedule under full fault load must not
  // collapse relative to contention MACs under the same load.
  const bool degrade_ok = delivery[0][2] >= 0.5 * delivery[1][2];
  std::cout << "TT@i=1.0 vs 0.5*ALOHA@i=1.0: " << delivery[0][2] << " vs "
            << 0.5 * delivery[1][2] << " (" << (degrade_ok ? "CONFIRMED" : "FAILED")
            << ")\n";

  // ---- 2. disarmed-cost gate ------------------------------------------
  cost_rate_once(g, duty, CostMode::kDisarmed, timed_slots);  // untimed warmup
  std::vector<double> off_rates, off2_rates, empty_rates;
  constexpr CostMode kModes[3] = {CostMode::kDisarmed, CostMode::kDisarmedAgain,
                                  CostMode::kArmedEmpty};
  for (int rep = 0; rep < pairs; ++rep) {
    double rates[3];
    for (int j = 0; j < 3; ++j) {
      const int m = (j + rep) % 3;
      rates[m] = cost_rate_once(g, duty, kModes[m], timed_slots);
    }
    off_rates.push_back(rates[0]);
    off2_rates.push_back(rates[1]);
    empty_rates.push_back(rates[2]);
  }
  const double off = *std::max_element(off_rates.begin(), off_rates.end());
  const double off2 = *std::max_element(off2_rates.begin(), off2_rates.end());
  const double empty = *std::max_element(empty_rates.begin(), empty_rates.end());
  const double noise = std::abs(off / off2 - 1.0);
  const double overhead = off / empty - 1.0;

  sim::SimStats disarmed_stats, empty_stats;
  cost_rate_once(g, duty, CostMode::kDisarmed, timed_slots, &disarmed_stats);
  cost_rate_once(g, duty, CostMode::kArmedEmpty, timed_slots, &empty_stats);
  const bool identical = disarmed_stats == empty_stats;  // every field

  std::cout << "\nfault machinery cost (best of " << pairs << " reps per mode)\n"
            << "  no plan:          " << off << " slots/s\n"
            << "  no plan (again):  " << off2 << " slots/s (noise canary "
            << noise * 100 << "%)\n"
            << "  empty plan armed: " << empty << " slots/s (overhead "
            << overhead * 100 << "%)\n"
            << "empty-plan run bit-identical to disarmed run: "
            << (identical ? "CONFIRMED" : "FAILED") << "\n";

  const bool measurable = noise <= kMaxOverhead / 2;
  const bool overhead_ok = overhead <= kMaxOverhead;
  if (!measurable) {
    std::ostringstream reason;
    reason << "noise canary " << noise * 100 << "% exceeds " << kMaxOverhead * 50
           << "%; host too loaded to resolve";
    std::cout << "overhead gate (<= " << kMaxOverhead * 100 << "%): SKIPPED (" << reason.str()
              << ")\n";
    report.param("gate_skipped", "empty-plan overhead: " + reason.str());
  } else {
    std::cout << "overhead gate (<= " << kMaxOverhead * 100
              << "%): " << (overhead_ok ? "CONFIRMED" : "FAILED") << "\n";
  }

  const bool ok = degrade_ok && identical && (!measurable || overhead_ok);
  report.metric("disarmed_slots_per_sec", off);
  report.metric("armed_empty_slots_per_sec", empty);
  report.metric("fault_empty_plan_speedup", off > 0.0 ? empty / off : 0.0);
  report.metric("noise_canary", noise);
  report.metric("armed_empty_overhead", overhead);
  report.metric("stats_identical", identical ? 1 : 0);
  report.metric("degrade_ok", degrade_ok ? 1 : 0);
  report.metric("gate_measurable", measurable ? 1 : 0);
  report.metric("quarantined_cells", sweep.quarantined.size());
  report.metric("ok", ok ? 1 : 0);
  report.write();
  return ok ? 0 : 1;
}
