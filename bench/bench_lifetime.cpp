// E21 -- network lifetime: the metric duty cycling exists to maximize.
//
// Every node gets the same battery; light convergecast traffic runs until
// the network blacks out. For each MAC: slot of the first death, slots
// until half the nodes are dead, total packets delivered over the whole
// life of the network, and deliveries that happened AFTER the first death
// (the topology-transparent schedules keep serving survivors with zero
// reconfiguration as the topology shrinks).
//
// Runs as a runner campaign: one cell per MAC, schedules and the grid's
// BFS routing shared through the campaign ArtifactStore. Node death never
// edits the graph (dead nodes just stop transmitting), so the shared
// routing table stays valid for the whole run. Each cell keeps the
// experiment's original fixed seed; "lifetime x" is computed against the
// always-on row after the campaign, in cell-index order.
//
// Fast-forward (DESIGN.md §15): the lookahead convergecast source plus the
// periodic TT schedules let the simulator skip the slots in which nobody
// can send through the long quiet stretches of a lifetime run. Per-row and
// aggregate metrics split the work into slots actually simulated vs slots
// skipped so the split is visible in BENCH_lifetime history (stats are
// unchanged by skipping — only wall-clock and the split move).
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/topology.hpp"
#include "obs/report.hpp"
#include "runner/runner.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

using namespace ttdc;

int main() {
  constexpr std::size_t kRows = 5, kCols = 5, kN = kRows * kCols, kD = 4, kSink = 0;
  constexpr double kRate = 0.001;
  constexpr double kBatteryMj = 2000.0;  // ~3200 always-on slots
  constexpr std::uint64_t kMaxSlots = 400000;
  obs::BenchReport report("lifetime");
  report.param("grid", "5x5");
  report.param("battery_mj", kBatteryMj);
  report.param("rate_per_node_per_slot", kRate);
  report.param("max_slots", static_cast<std::int64_t>(kMaxSlots));
  util::print_banner("E21 / network lifetime under equal batteries",
                     {{"grid", "5x5"},
                      {"battery_mJ", std::to_string(kBatteryMj)},
                      {"rate", std::to_string(kRate)},
                      {"max_slots", std::to_string(kMaxSlots)}});

  const net::Graph grid = net::grid_graph(kRows, kCols);

  const auto base_schedule = [](runner::CellContext& ctx) {
    return ctx.artifacts().schedule("base:poly(5,1)", [] {
      return core::non_sleeping_from_family(comb::polynomial_family(5, 1, kN));
    });
  };
  const auto duty_schedule = [&base_schedule](runner::CellContext& ctx, std::size_t alpha_r) {
    auto base = base_schedule(ctx);
    std::string key = "duty:aR=";
    key += std::to_string(alpha_r);
    return ctx.artifacts().schedule(
        key, [&] { return core::construct_duty_cycled(*base, kD, 5, alpha_r); });
  };

  struct RowSpec {
    const char* name;
    std::function<std::unique_ptr<sim::MacProtocol>(runner::CellContext&)> make_mac;
  };
  std::vector<RowSpec> specs;
  specs.push_back({"TT non-sleeping", [&](runner::CellContext& ctx) {
                     return std::make_unique<sim::DutyCycledScheduleMac>(*base_schedule(ctx));
                   }});
  specs.push_back({"TT duty (aR=10)", [&](runner::CellContext& ctx) {
                     return std::make_unique<sim::DutyCycledScheduleMac>(*duty_schedule(ctx, 10));
                   }});
  specs.push_back({"TT duty (aR=5)", [&](runner::CellContext& ctx) {
                     return std::make_unique<sim::DutyCycledScheduleMac>(*duty_schedule(ctx, 5));
                   }});
  specs.push_back({"uncoord sleep p=0.3", [&](runner::CellContext&) {
                     return std::make_unique<sim::UncoordinatedSleepMac>(kN, 0.3, 0.5);
                   }});
  specs.push_back({"S-MAC-like 25% active", [&](runner::CellContext&) {
                     return std::make_unique<sim::CommonActivePeriodMac>(kN, 20, 5, 0.2);
                   }});

  struct LifeRow {
    std::uint64_t half_dead = 0, blackout = 0, delivered_at_first_death = 0;
    std::uint64_t skipped = 0;
  };
  std::vector<LifeRow> life(specs.size());

  runner::Campaign campaign;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    auto& out = life[i];
    campaign.add(spec.name, [&grid, &spec, &out](runner::CellContext& ctx) {
      auto routing = ctx.artifacts().routing(grid);
      auto mac = spec.make_mac(ctx);
      sim::LookaheadConvergecastTraffic traffic(kN, kSink, kRate, /*seed=*/77);
      sim::SimConfig config;
      config.seed = 77;  // the experiment's original fixed seed, not ctx.seed()
      config.battery_mj = kBatteryMj;
      config.shared_routing = routing.get();
      sim::Simulator sim(grid, *mac, traffic, config);
      while (sim.now() < kMaxSlots && sim.alive_count() > 0) {
        sim.run(1000);
        if (out.delivered_at_first_death == 0 && sim.stats().deaths > 0) {
          out.delivered_at_first_death = sim.stats().delivered;
        }
        if (out.half_dead == 0 && sim.stats().deaths >= kN / 2) out.half_dead = sim.now();
        if (sim.alive_count() == 0) out.blackout = sim.now();
      }
      out.skipped = sim.charged_span_stats().skipped;
      ctx.record(sim.stats());
    });
  }
  const runner::CampaignResult result = campaign.run();

  util::Table table({"mac", "first death (slot)", "half dead (slot)", "blackout (slot)",
                     "delivered total", "delivered after 1st death", "lifetime x",
                     "slots simulated", "slots skipped"});
  double always_on_first_death = 0.0;
  std::uint64_t total_simulated = 0, total_skipped = 0;
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const auto& st = result.cells[i].stats;
    const auto& out = life[i];
    const double first = static_cast<double>(st.first_death_slot);
    if (always_on_first_death == 0.0) always_on_first_death = first;
    // The split: slots a charged span skipped vs slots that ran through the
    // per-slot pipeline.
    const std::uint64_t simulated = st.slots_run - out.skipped;
    total_simulated += simulated;
    total_skipped += out.skipped;
    table.add_row({result.cells[i].name, static_cast<std::int64_t>(st.first_death_slot),
                   static_cast<std::int64_t>(out.half_dead),
                   static_cast<std::int64_t>(out.blackout),
                   static_cast<std::int64_t>(st.delivered),
                   static_cast<std::int64_t>(st.delivered - out.delivered_at_first_death),
                   first / always_on_first_death, static_cast<std::int64_t>(simulated),
                   static_cast<std::int64_t>(out.skipped)});
    std::string key = result.cells[i].name;
    for (char& c : key) {
      if (c == ' ' || c == '(' || c == ')' || c == '=' || c == '%' || c == '-') c = '_';
    }
    report.metric(key + "_first_death_slot", st.first_death_slot);
    report.metric(key + "_delivered_total", st.delivered);
    report.metric(key + "_lifetime_x", first / always_on_first_death);
    report.metric(key + "_slots_simulated", simulated);
    report.metric(key + "_slots_skipped", out.skipped);
  }
  report.metric("macs_compared", table.num_rows());
  report.metric("total_slots_simulated", total_simulated);
  report.metric("total_slots_skipped", total_skipped);
  report.write();
  std::cout << table.to_text();
  std::cout << "\nreading: duty cycling multiplies time-to-first-death roughly by the\n"
            << "awake-fraction ratio. Note the narrow first-death-to-blackout window for\n"
            << "the TT schedules: their balanced energy consumption (§7) drains all\n"
            << "batteries at the same rate, so the network serves at full strength until\n"
            << "the very end instead of losing coverage node by node -- and whatever\n"
            << "survives keeps being served with zero reconfiguration, since node death\n"
            << "only shrinks degrees, which topology transparency already covers.\n";
  return 0;
}
