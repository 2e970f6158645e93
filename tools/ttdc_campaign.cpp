// ttdc-campaign — run a convergecast simulation campaign from the command
// line, with the full resilience stack armed: per-cell retries, watchdog,
// quarantine, and the disk checkpoint journal.
//
// This is the driver behind the crash-resilience CI job: the job starts a
// campaign with --journal, SIGKILLs it mid-flight, reruns the same command,
// and asserts the resumed aggregate JSON is byte-identical to an
// uninterrupted run's. It is also a convenient way to poke at fault
// injection interactively:
//
//   ttdc-campaign --cells 24 --slots 20000 --journal /tmp/c.journal
//                 --out /tmp/aggregate.json --fault-intensity 0.5
//
// Exit code 0 on success (quarantined cells do NOT fail the run — they are
// flagged in the JSON), 2 on bad usage: an unknown flag, a missing value, or
// a numeric value that is malformed or out of range (the message names the
// flag).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "net/topology.hpp"
#include "runner/runner.hpp"
#include "sim/fault.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"

#include "flag_parse.hpp"

using namespace ttdc;
using tools::parse_int;
using tools::parse_real;

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --cells N             number of campaign cells, 1..1000000 (default 16)\n"
      << "  --slots N             slots per cell, >= 1 (default 20000)\n"
      << "  --rows N --cols N     grid topology shape, 1..1000 each (default 5x5)\n"
      << "  --rate R              per-node packet rate per slot, [0,1] (default 0.003)\n"
      << "  --seed S              campaign master seed; decimal, 0x hex or 0 octal\n"
      << "                        (default 0x5eed)\n"
      << "  --workers N           worker threads, 0..1024; 0 = auto (default 0)\n"
      << "  --serial              use the serial reference executor\n"
      << "  --journal PATH        checkpoint journal (enables kill-and-resume)\n"
      << "  --no-resume           ignore an existing journal (fresh run)\n"
      << "  --max-attempts N      tries per cell before quarantine, 1..1000 (default 3)\n"
      << "  --cell-timeout SEC    per-cell watchdog, >= 0; 0 disables (default 0)\n"
      << "  --fault-intensity X   0 disarms faults; (0,1] scales crash/link/jam\n"
      << "                        rates of the per-cell FaultPlan (default 0)\n"
      << "  --out PATH            write the aggregate JSON here (default stdout)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t cells = 16, rows = 5, cols = 5;
  std::uint64_t slots = 20000, master_seed = 0x5eed;
  double rate = 0.003, fault_intensity = 0.0, cell_timeout = 0.0;
  int workers = 0, max_attempts = 3;
  bool serial = false, resume = true;
  std::string journal_path, out_path;

  constexpr std::string_view kTool = "ttdc-campaign";
  constexpr std::uint64_t kAnyU64 = std::numeric_limits<std::uint64_t>::max();
  constexpr double kAnyReal = std::numeric_limits<double>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 < argc) return argv[++i];
      std::cerr << "ttdc-campaign: " << arg << " needs a value\n";
      return nullptr;
    };
    const char* v = nullptr;
    bool ok = true;
    if (arg == "--cells") {
      ok = (v = value()) && parse_int(kTool, arg, v, 1, 1'000'000, cells);
    } else if (arg == "--slots") {
      ok = (v = value()) && parse_int(kTool, arg, v, 1, kAnyU64, slots);
    } else if (arg == "--rows") {
      ok = (v = value()) && parse_int(kTool, arg, v, 1, 1000, rows);
    } else if (arg == "--cols") {
      ok = (v = value()) && parse_int(kTool, arg, v, 1, 1000, cols);
    } else if (arg == "--rate") {
      ok = (v = value()) && parse_real(kTool, arg, v, 0.0, 1.0, rate);
    } else if (arg == "--seed") {
      ok = (v = value()) && parse_int(kTool, arg, v, 0, kAnyU64, master_seed, /*base=*/0);
    } else if (arg == "--workers") {
      ok = (v = value()) && parse_int(kTool, arg, v, 0, 1024, workers);
    } else if (arg == "--serial") {
      serial = true;
    } else if (arg == "--journal") {
      ok = (v = value()) != nullptr;
      if (ok) journal_path = v;
    } else if (arg == "--no-resume") {
      resume = false;
    } else if (arg == "--max-attempts") {
      ok = (v = value()) && parse_int(kTool, arg, v, 1, 1000, max_attempts);
    } else if (arg == "--cell-timeout") {
      ok = (v = value()) && parse_real(kTool, arg, v, 0.0, kAnyReal, cell_timeout);
    } else if (arg == "--fault-intensity") {
      ok = (v = value()) && parse_real(kTool, arg, v, 0.0, 1.0, fault_intensity);
    } else if (arg == "--out") {
      ok = (v = value()) != nullptr;
      if (ok) out_path = v;
    } else {
      std::cerr << "ttdc-campaign: unknown option " << arg << '\n';
      return usage(argv[0]);
    }
    if (!ok) return 2;
  }

  const std::size_t n = rows * cols;
  const net::Graph grid = net::grid_graph(rows, cols);

  runner::CampaignOptions options;
  options.master_seed = master_seed;
  options.num_workers = workers;
  runner::ResilienceOptions res;
  res.max_attempts = max_attempts;
  res.cell_timeout_seconds = cell_timeout;
  res.journal_path = journal_path;
  res.resume = resume;
  options.resilience = res;

  runner::Campaign campaign(options);
  for (std::size_t c = 0; c < cells; ++c) {
    std::string name("cell");
    name += std::to_string(c);
    campaign.add(std::move(name),
                 [&grid, n, slots, rate, fault_intensity](runner::CellContext& ctx) {
                   // best_plan picks valid family parameters for any n (a
                   // fixed polynomial family only covers n <= q^(k+1)).
                   std::string key("base:best(n=");
                   key += std::to_string(n);
                   key += ",d=4)";
                   auto schedule = ctx.artifacts().schedule(key, [n] {
                     return core::non_sleeping_from_family(
                         comb::build_plan(comb::best_plan(n, 4), n));
                   });
                   auto routing = ctx.artifacts().routing(grid);
                   sim::DutyCycledScheduleMac mac(*schedule);
                   sim::ConvergecastTraffic traffic(n, /*sink=*/0, rate);
                   sim::SimConfig cfg;
                   cfg.seed = ctx.seed();
                   cfg.shared_routing = routing.get();
                   std::unique_ptr<sim::FaultPlan> plan;
                   if (fault_intensity > 0.0) {
                     sim::FaultPlanConfig fc;
                     fc.horizon_slots = slots;
                     fc.crash_rate = 2e-5 * fault_intensity;
                     fc.link_loss.p_good_to_bad = 0.002 * fault_intensity;
                     fc.link_loss.p_bad_to_good = 0.05;
                     fc.battery_spike_rate = 1e-5 * fault_intensity;
                     fc.battery_spike_mj = 5.0;
                     fc.num_jammers = fault_intensity >= 0.5 ? 1 : 0;
                     fc.jam_duty = 0.05 * fault_intensity;
                     // Plan randomness derives from the cell seed, never the
                     // simulator stream.
                     plan = std::make_unique<sim::FaultPlan>(fc, n, ctx.seed());
                     cfg.fault_plan = plan.get();
                   }
                   sim::Simulator sim(grid, mac, traffic, cfg);
                   // Chunked run so the cooperative watchdog can fire.
                   const std::uint64_t chunk = 1000;
                   for (std::uint64_t done = 0; done < slots;) {
                     const std::uint64_t step = std::min(chunk, slots - done);
                     sim.run(step);
                     done += step;
                     ctx.check_deadline();
                   }
                   ctx.record(sim.stats());
                   ctx.metric("delivery_ratio", sim.stats().delivery_ratio());
                 });
  }

  const runner::CampaignResult result = serial ? campaign.run_serial() : campaign.run();
  const std::string json = result.aggregate_json();
  if (out_path.empty()) {
    std::cout << json << '\n';
  } else {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::cerr << "error: cannot write " << out_path << '\n';
      return 1;
    }
    out << json << '\n';
  }
  std::cerr << result.cells.size() << " cells (" << result.resumed_cells
            << " resumed from journal, " << result.quarantined.size()
            << " quarantined) in " << result.elapsed_seconds << " s\n";
  for (const std::size_t q : result.quarantined) {
    std::cerr << "quarantined cell " << q << ": " << result.cells[q].error << '\n';
  }
  return 0;
}
