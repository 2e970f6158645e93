// E1 -- Figure 1: on a specific topology, scheduling nodes to sleep can
// preserve throughput exactly.
//
// Regenerates the paper's Figure 1 claim with a machine-checked witness:
// a path network, the non-sleeping schedule <T>, and a duty-cycled <T, R'>
// whose guaranteed-success slot sets coincide on every link, then confirms
// the equality empirically in the slot simulator under saturated load.
#include <cstdio>
#include <iostream>

#include "core/builders.hpp"
#include "core/node_slots.hpp"
#include "core/throughput.hpp"
#include "net/graph.hpp"
#include "obs/report.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

using namespace ttdc;

namespace {

// Runs `frames` frames of saturated single-link traffic x -> y on the
// example topology and returns x's deliveries.
std::uint64_t simulate_link(const core::Figure1Example& ex, const core::Schedule& schedule,
                            std::size_t x, std::size_t y, std::uint64_t frames) {
  net::Graph g(ex.num_nodes);
  for (const auto& [a, b] : ex.edges) g.add_edge(a, b);
  sim::DutyCycledScheduleMac mac(schedule);
  sim::Simulator* sim_ptr = nullptr;
  // All of y's neighbors saturate toward y -- the worst case of §5.
  std::vector<std::pair<std::size_t, std::size_t>> flows;
  g.neighbors(y).for_each([&](std::size_t v) { flows.emplace_back(v, y); });
  sim::SaturatedFlows traffic(std::move(flows),
                              [&sim_ptr](std::size_t v) { return sim_ptr->queue_size(v); });
  sim::Simulator simulator(std::move(g), mac, traffic, {.seed = 1234});
  sim_ptr = &simulator;
  simulator.run(frames * schedule.frame_length());
  return simulator.stats().delivered_by_origin[x];
}

}  // namespace

int main() {
  obs::BenchReport report("fig1_example");
  util::print_banner("E1 / Figure 1: sleeping can preserve throughput on a fixed topology",
                     {{"frames", "50"}});
  const core::Figure1Example ex = core::figure1_example();
  report.param("frames", 50);
  report.param("num_nodes", ex.num_nodes);

  std::cout << "topology: path ";
  for (std::size_t i = 0; i < ex.num_nodes; ++i) std::cout << (i ? " - " : "") << i;
  std::cout << "\nnon-sleeping duty cycle: " << ex.non_sleeping.duty_cycle()
            << "   duty-cycled duty cycle: " << ex.duty_cycled.duty_cycle() << "\n\n";

  util::Table table({"link", "guaranteed slots <T>", "guaranteed slots <T,R'>",
                     "sim deliveries/frame <T>", "sim deliveries/frame <T,R'>", "equal"});
  constexpr std::uint64_t kFrames = 50;
  bool all_equal = true;
  const core::NodeSlots non_sleeping(ex.non_sleeping);
  const core::NodeSlots duty_cycled(ex.duty_cycled);
  for (const auto& [a, b] : ex.edges) {
    for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
      std::vector<std::size_t> s;
      for (const auto& [p, q] : ex.edges) {
        if (p == y && q != x) s.push_back(q);
        if (q == y && p != x) s.push_back(p);
      }
      const auto ns = non_sleeping.guaranteed_slot_count(x, y, s);
      const auto dc = duty_cycled.guaranteed_slot_count(x, y, s);
      const auto sim_ns = simulate_link(ex, ex.non_sleeping, x, y, kFrames);
      const auto sim_dc = simulate_link(ex, ex.duty_cycled, x, y, kFrames);
      const bool equal = ns == dc && sim_ns == sim_dc && sim_ns == kFrames * ns;
      all_equal &= equal;
      char link[32];
      std::snprintf(link, sizeof link, "%zu -> %zu", x, y);
      table.add_row({std::string(link), static_cast<std::int64_t>(ns),
                     static_cast<std::int64_t>(dc),
                     static_cast<double>(sim_ns) / static_cast<double>(kFrames),
                     static_cast<double>(sim_dc) / static_cast<double>(kFrames),
                     std::string(equal ? "yes" : "NO")});
    }
  }
  std::cout << table.to_text();
  std::cout << "\nresult: throughput preserved on every link while duty cycle fell from "
            << ex.non_sleeping.duty_cycle() << " to " << ex.duty_cycled.duty_cycle() << ": "
            << (all_equal ? "CONFIRMED" : "FAILED") << "\n";
  report.metric("links_checked", table.num_rows());
  report.metric("duty_cycle_non_sleeping", ex.non_sleeping.duty_cycle());
  report.metric("duty_cycle_duty_cycled", ex.duty_cycled.duty_cycle());
  report.metric("ok", all_equal ? 1 : 0);
  report.write();
  return all_equal ? 0 : 1;
}
