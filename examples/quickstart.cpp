// Quickstart: design a topology-transparent duty-cycling schedule for a
// 30-node network with max degree 3, inspect it, and verify it.
//
//   1. pick a cover-free family for (n, D);
//   2. turn it into the non-sleeping schedule <T>;
//   3. Construct() the duty-cycled (αT, αR)-schedule (paper, Figure 2);
//   4. check Requirement 3, throughput, and energy numbers;
//   5. run it in the simulator with the observability layer attached
//      (a post-mortem flight ring, then its counts as Prometheus text).
#include <iostream>

#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "core/requirements.hpp"
#include "core/throughput.hpp"
#include "net/topology.hpp"
#include "obs/export.hpp"
#include "obs/flight_query.hpp"
#include "obs/metrics.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

int main() {
  using namespace ttdc;
  constexpr std::size_t kNodes = 30;        // network size bound n
  constexpr std::size_t kMaxDegree = 3;     // degree bound D
  constexpr std::size_t kAlphaT = 4;        // transmitters allowed per slot
  constexpr std::size_t kAlphaR = 8;        // receivers allowed per slot

  // 1. Plan: which construction gives the shortest frame for (n, D)?
  const comb::FamilyPlan plan = comb::best_plan(kNodes, kMaxDegree);
  std::cout << "plan: " << plan.to_string() << "\n";

  // 2. Non-sleeping schedule <T> from the cover-free family.
  const core::Schedule base =
      core::non_sleeping_from_family(comb::build_plan(plan, kNodes));
  std::cout << "non-sleeping <T>: L=" << base.frame_length()
            << ", transmitters/slot in [" << base.min_transmitters() << ", "
            << base.max_transmitters() << "]\n";

  // 3. Duty-cycle it: at most kAlphaT transmitters + kAlphaR receivers awake
  //    per slot; everyone else sleeps.
  const core::Schedule duty =
      core::construct_duty_cycled(base, kMaxDegree, kAlphaT, kAlphaR);
  std::cout << "duty-cycled <T,R>: L=" << duty.frame_length()
            << ", duty cycle=" << duty.duty_cycle() << " (was 1.0)\n";

  // 4. Machine-check topology transparency (Requirement 3, exact).
  if (const auto violation = core::check_requirement3_exact(duty, kMaxDegree)) {
    std::cout << "VIOLATION: " << violation->to_string() << "\n";
    return 1;
  }
  std::cout << "verified: every node reaches every possible neighbor "
               "collision-free in every frame, for EVERY topology with n<="
            << kNodes << ", degree<=" << kMaxDegree << "\n";

  // 5. Throughput numbers (worst case, Definitions 1-2 / Theorems 2, 4).
  const long double ave = core::average_throughput(duty, kMaxDegree);
  const long double best =
      core::throughput_upper_bound_alpha(kNodes, kMaxDegree, kAlphaT, kAlphaR);
  const std::size_t min_slots = core::min_guaranteed_slots_exact(duty, kMaxDegree);
  std::cout << "average worst-case throughput: " << static_cast<double>(ave) << " (bound "
            << static_cast<double>(best) << ", ratio " << static_cast<double>(ave / best)
            << ")\n";
  std::cout << "minimum guaranteed deliveries per frame on any link: " << min_slots << "\n";
  std::cout << "worst-case per-link latency bound: " << duty.frame_length() << " slots\n";

  // 6. Simulate an actual deployment with observability attached: a
  //    bounded flight ring keeps the last packet events for post-mortem,
  //    and after run() the run's SimStats are published into a registry
  //    (every counter as ttdc_sim_<name>_total, plus ratios and the
  //    latency histogram).
  util::Xoshiro256 rng(42);
  const net::Graph g =
      net::random_bounded_degree_graph(kNodes, kMaxDegree, 2 * kNodes, rng);
  sim::DutyCycledScheduleMac mac(duty);
  sim::BernoulliTraffic traffic(kNodes, 0.01);
  obs::FlightRecorder ring(64);
  sim::SimConfig config;
  config.seed = 1;
  config.recorder = &ring;
  sim::Simulator sim(g, mac, traffic, config);
  sim.run(20 * duty.frame_length());

  obs::MetricsRegistry metrics;
  obs::publish_sim_stats(sim.stats(), metrics);
  std::cout << "\n-- run metrics (Prometheus text exposition) --\n"
            << obs::prometheus_text(metrics);
  std::cout << "-- last flight events (" << ring.size() << " of " << ring.seen()
            << " seen) --\n";
  obs::write_flight_jsonl(std::cout, ring.events());
  return 0;
}
