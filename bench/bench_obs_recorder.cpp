// Flight-recorder cost contract (DESIGN.md §11): the recorder compiled in
// but absent (SimConfig::recorder == nullptr) or disarmed
// (FlightRecorder::enable(false)) must be invisible on the hot path — that
// is re-gated where it matters, in bench_sim_hotpath's 3x scalar/batched
// gate, which now runs with the recorder code compiled in. This bench gates
// the ARMED cost: a recording run may be at most 10% slower than the same
// run without a recorder. Gated on the ratio of best rates across reps:
// scheduler noise on shared hardware only ever slows a rep down, so the
// fastest rep per mode is the least-perturbed estimate of the true rate
// and their ratio is stable where per-pair medians swing by 20%+ under
// load (the per-pair medians are still reported informationally).
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/topology.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/report.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/timer.hpp"

namespace {

using namespace ttdc;

constexpr std::size_t kNodes = 200;
constexpr std::size_t kDegree = 4;
constexpr std::uint64_t kWarmup = 1000;
constexpr std::uint64_t kTimedSlots = 8'000;
constexpr int kPairs = 31;
constexpr double kMaxOverhead = 0.10;
// 4096 events keep the ring (56 B/event) inside L2: what this gates is the
// CPU cost of recording, and a multi-MB ring instead measures how loaded
// the memory system happens to be (the ring wraps either way, so the
// per-event work is identical to a capture-sized ring).
constexpr std::size_t kRingCapacity = 1 << 12;

enum class Mode { kOff, kDisarmed, kArmed };

double slot_rate_once(const net::Graph& g, const core::Schedule& duty, Mode mode) {
  sim::DutyCycledScheduleMac mac(duty);
  sim::BernoulliTraffic traffic(g.num_nodes(), 0.01);
  obs::FlightRecorder recorder(kRingCapacity);
  obs::FlightRecorder::enable(mode != Mode::kDisarmed);
  sim::SimConfig config{.seed = 7};
  if (mode != Mode::kOff) config.recorder = &recorder;
  sim::Simulator sim(g, mac, traffic, config);
  sim.run(kWarmup);
  util::Timer timer;
  sim.run(kTimedSlots);
  const double rate = static_cast<double>(kTimedSlots) / timer.seconds();
  obs::FlightRecorder::enable(true);  // restore the global default
  return rate;
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  obs::BenchReport report("obs_recorder");
  report.param("mac", "DutyCycledScheduleMac");
  report.param("traffic", "bernoulli_0.01");
  report.param("n", static_cast<std::int64_t>(kNodes));
  report.param("pairs", static_cast<std::int64_t>(kPairs));
  report.param("ring_capacity", static_cast<std::int64_t>(kRingCapacity));
  report.param("max_overhead", kMaxOverhead);

  util::Xoshiro256 rng(3);
  const net::Graph g = net::random_bounded_degree_graph(kNodes, kDegree, 2 * kNodes, rng);
  const core::Schedule duty = core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(kNodes, kDegree), kNodes)),
      kDegree, 4, kNodes / 3);

  slot_rate_once(g, duty, Mode::kOff);  // shared warmup rep, untimed
  std::vector<double> off_rates, disarmed_rates, armed_rates;
  std::vector<double> disarmed_overheads, armed_overheads;
  constexpr Mode kModes[3] = {Mode::kOff, Mode::kDisarmed, Mode::kArmed};
  for (int rep = 0; rep < kPairs; ++rep) {
    // Rotate the mode order so a periodic external load cannot phase-lock
    // onto one mode's position within the triple.
    double rates[3];
    for (int j = 0; j < 3; ++j) {
      const int m = (j + rep) % 3;
      rates[m] = slot_rate_once(g, duty, kModes[m]);
    }
    off_rates.push_back(rates[0]);
    disarmed_rates.push_back(rates[1]);
    armed_rates.push_back(rates[2]);
    disarmed_overheads.push_back(rates[0] / rates[1] - 1.0);
    armed_overheads.push_back(rates[0] / rates[2] - 1.0);
  }
  const double off = *std::max_element(off_rates.begin(), off_rates.end());
  const double disarmed = *std::max_element(disarmed_rates.begin(), disarmed_rates.end());
  const double armed = *std::max_element(armed_rates.begin(), armed_rates.end());
  const double disarmed_overhead = off / disarmed - 1.0;
  const double armed_overhead = off / armed - 1.0;

  std::cout << "flight recorder cost (n=" << kNodes << ", " << kTimedSlots
            << " timed slots, best of " << kPairs << " reps per mode)\n"
            << "  no recorder:        " << off << " slots/s\n"
            << "  attached, disarmed: " << disarmed << " slots/s (overhead "
            << disarmed_overhead * 100 << "%)\n"
            << "  attached, armed:    " << armed << " slots/s (overhead "
            << armed_overhead * 100 << "%)\n";

  report.metric("off_slots_per_sec", off);
  report.metric("disarmed_slots_per_sec", disarmed);
  report.metric("armed_slots_per_sec", armed);
  report.metric("disarmed_overhead", disarmed_overhead);
  report.metric("armed_overhead", armed_overhead);
  report.metric("disarmed_overhead_pair_median", median(disarmed_overheads));
  report.metric("armed_overhead_pair_median", median(armed_overheads));

  // The disarmed configuration truly costs ~0 (one relaxed load + branch),
  // so |disarmed_overhead| is a direct read of this run's measurement
  // error. When it exceeds half the gate budget the environment cannot
  // resolve a 10% contract and the hard gate would only flake — report
  // and skip, same policy as bench_campaign's <4-core speedup skip.
  const bool measurable = std::abs(disarmed_overhead) <= kMaxOverhead / 2;
  const bool ok = armed_overhead <= kMaxOverhead;
  if (!measurable) {
    std::ostringstream reason;
    reason << "noise canary " << disarmed_overhead * 100 << "% exceeds " << kMaxOverhead * 50
           << "%; environment too loaded to resolve the gate";
    std::cout << "\narmed overhead " << armed_overhead * 100 << "% (gate <= "
              << kMaxOverhead * 100 << "%): SKIPPED (" << reason.str() << ")\n";
    report.param("gate_skipped", "armed overhead: " + reason.str());
  } else {
    std::cout << "\narmed overhead " << armed_overhead * 100 << "% (gate <= "
              << kMaxOverhead * 100 << "%): " << (ok ? "CONFIRMED" : "FAILED") << "\n";
  }
  report.metric("gate_measurable", measurable ? 1 : 0);
  report.metric("ok", (!measurable || ok) ? 1 : 0);
  report.write();
  return (!measurable || ok) ? 0 : 1;
}
