// Metropolitan-scale pipeline bench (DESIGN.md §13): slots/sec at n in
// {1e3, 1e4, 1e5} under a low-duty round-robin schedule (2 awake slots per
// frame of 8192 ≈ 0.02% duty — the regime where the expected active
// population per slot is ≪ n, which is where metropolitan-scale duty
// cycling lives). Above 256 nodes every util::SlotSet follows its
// population, so a slot costs O(active members), not O(n). Gate:
//
//   * n = 10^4 runs at least as many slots/sec as n = 800 under the
//     classic regime (frame 41, ~5% duty — the densest schedule
//     bench_sim_hotpath tops out at): "a 12.5x bigger city, same
//     wall-clock".
//
// Rates are the MAX over reps: on a shared box, co-tenant interference only
// ever slows a rep down, so the max of several reps estimates the
// uncontended rate.
//
// Before anything at a size is timed, its stats are asserted equal to the
// same MAC behind ScalarOnlyMac (tests/support/), so a rate is never bought
// with a behaviour change (the full cross-MAC golden matrix lives in
// tests/test_megascale.cpp). Emits BENCH_megascale.json.
//
// --smoke: small sizes, few reps, no gate failures — the CI Release job
// runs this to prove the megascale path stays alive without paying for a
// full calibrated run.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "obs/report.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "support/scalar_only_mac.hpp"
#include "util/slot_set.hpp"
#include "util/timer.hpp"

namespace {

using namespace ttdc;

constexpr std::size_t kFrame = 8192;    // duty cycle 2/kFrame ≈ 0.024%
constexpr std::size_t kMaxDegree = 6;
constexpr std::size_t kBatch = 1;       // packets injected per slot; O(batch)
                                        // traffic keeps the common per-slot
                                        // work small so the slot pipeline
                                        // is what gets measured
constexpr std::size_t kQueueCap = 4;    // small sensor buffers; keeps the
                                        // queue arena cache-resident
constexpr std::uint64_t kWarmup = 2000;
constexpr std::size_t kGateN = 10000;
constexpr std::size_t kReferenceN = 800;
constexpr std::size_t kReferenceFrame = 41;  // ~4.9% duty: the classic regime

/// Synthetic low-duty schedule, built directly as SlotSets so fill cost is
/// O(active): in slot t (mod frame) the residue class t transmits and the
/// residue class t+1 listens. Senders are naive (no receiver gating), so
/// every transmitter fires in its slot.
class RoundRobinMac final : public sim::MacProtocol {
 public:
  RoundRobinMac(std::size_t n, std::size_t frame) : frame_(frame) {
    members_.assign(frame, util::SlotSet(n));
    for (std::size_t v = 0; v < n; ++v) members_[v % frame].set(v);
  }

  void begin_slot(std::uint64_t slot, util::Xoshiro256&) override {
    cur_ = static_cast<std::size_t>(slot % frame_);
  }
  [[nodiscard]] bool can_receive(std::size_t v) const override {
    return v % frame_ == (cur_ + 1) % frame_;
  }
  [[nodiscard]] bool wants_transmit(std::size_t v, std::size_t) const override {
    return v % frame_ == cur_;
  }
  [[nodiscard]] sim::RadioState idle_state(std::size_t v) const override {
    return can_receive(v) ? sim::RadioState::kListen : sim::RadioState::kSleep;
  }
  bool fill_slot_sets(util::SlotSet& receivers, util::SlotSet& transmitters) const override {
    transmitters.copy_from(members_[cur_]);
    receivers.copy_from(members_[(cur_ + 1) % frame_]);
    return true;
  }

 private:
  std::size_t frame_;
  std::size_t cur_ = 0;
  std::vector<util::SlotSet> members_;
};

net::Graph make_world(std::size_t n) {
  util::Xoshiro256 rng(0xC170 ^ static_cast<std::uint64_t>(n));
  const net::Positions pos = net::random_positions(n, rng);
  const double radius = std::min(0.4, std::sqrt(10.0 / static_cast<double>(n)));
  return net::unit_disk_graph(pos, radius, kMaxDegree);
}

sim::SimConfig base_config() {
  sim::SimConfig cfg;
  cfg.seed = 11;
  cfg.drop_unroutable = true;  // islands shed load instead of accumulating
  cfg.queue_capacity = kQueueCap;
  return cfg;
}

double slot_rate_once(const net::Graph& world, std::size_t frame, std::uint64_t timed) {
  const std::size_t n = world.num_nodes();
  RoundRobinMac mac(n, frame);
  sim::BatchArrivalTraffic traffic(n, /*sink=*/0, kBatch);
  sim::Simulator sim(world, mac, traffic, base_config());
  sim.run(kWarmup);
  util::Timer timer;
  sim.run(timed);
  return static_cast<double>(timed) / timer.seconds();
}

/// Equality tripwire before timing anything: the MAC's slot sets and the
/// same MAC behind ScalarOnlyMac must count the same world. (The thorough
/// matrix is tests/test_megascale.cpp.)
bool stats_agree(const net::Graph& world) {
  const auto run = [&](bool scalar_only) {
    const std::size_t n = world.num_nodes();
    RoundRobinMac mac(n, kFrame);
    sim::ScalarOnlyMac scalar(mac);
    sim::BatchArrivalTraffic traffic(n, 0, kBatch);
    sim::Simulator sim(world, scalar_only ? static_cast<sim::MacProtocol&>(scalar) : mac,
                       traffic, base_config());
    sim.run(2000);
    return sim.stats();
  };
  const sim::SimStats scalar = run(true);
  const sim::SimStats batched = run(false);
  return scalar.delivered == batched.delivered && scalar.collisions == batched.collisions &&
         scalar.transmissions == batched.transmissions &&
         scalar.hop_successes == batched.hop_successes &&
         scalar.receiver_asleep == batched.receiver_asleep &&
         scalar.queue_drops == batched.queue_drops;
}

std::uint64_t timed_slots(std::size_t n, bool smoke) {
  // Floor high enough that a rep amortizes cold caches on a freshly
  // constructed simulator; the gate size covers a rep in ~10 ms.
  const std::uint64_t scaled = 16'000'000 / n;
  const std::uint64_t slots = scaled < 20'000 ? 20'000 : scaled;
  return smoke ? slots / 20 : slots;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int reps = smoke ? 3 : 7;

  obs::BenchReport report("megascale");
  report.param("mac", "round_robin_frame_8192");
  report.param("duty_cycle", 2.0 / static_cast<double>(kFrame));
  report.param("reference_duty_cycle", 2.0 / static_cast<double>(kReferenceFrame));
  report.param("traffic", "batch_arrival_1_per_slot");
  report.param("reps", static_cast<std::int64_t>(reps));
  report.param("warmup_slots", static_cast<std::int64_t>(kWarmup));
  report.param("gate_n", static_cast<std::int64_t>(kGateN));
  report.param("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));

  bool ok = true;
  double gate_rate = 0.0, reference_rate = 0.0;

  // Reference row: n = 800 at its own classic schedule density (the regime
  // bench_sim_hotpath tops out at). The gate asks n = 10^4 to beat this
  // rate at 12.5x the n and 1/200th the duty.
  {
    const net::Graph world = make_world(kReferenceN);
    std::vector<double> rates;
    for (int rep = 0; rep < reps; ++rep) {
      rates.push_back(slot_rate_once(world, kReferenceFrame, timed_slots(kReferenceN, smoke)));
    }
    reference_rate = *std::max_element(rates.begin(), rates.end());
    std::cout << "reference @ n=" << kReferenceN << " (frame " << kReferenceFrame
              << "): " << reference_rate << " slots/s\n";
    report.metric("n800_frame41_slots_per_sec", reference_rate);
  }

  std::cout << "megascale (frame " << kFrame << ", slots/sec)\n"
            << "       n      slots/s\n";
  std::vector<std::size_t> sizes = smoke ? std::vector<std::size_t>{1000, 10000}
                                         : std::vector<std::size_t>{1000, 10000, 100000};
  for (const std::size_t n : sizes) {
    const net::Graph world = make_world(n);
    if (!stats_agree(world)) {
      std::cout << "  n=" << n << ": MISMATCH (batched vs ScalarOnlyMac stats differ)\n";
      ok = false;
      continue;
    }
    const std::uint64_t timed = timed_slots(n, smoke);
    std::vector<double> rates;
    slot_rate_once(world, kFrame, timed);  // warm caches, untimed
    for (int rep = 0; rep < reps; ++rep) rates.push_back(slot_rate_once(world, kFrame, timed));
    const double rate = *std::max_element(rates.begin(), rates.end());
    std::cout << "  " << n << "  " << rate << "\n";
    std::string key = "n";
    key += std::to_string(n);
    report.metric(key + "_slots_per_sec", rate);
    if (n == kGateN) gate_rate = rate;
  }

  const bool scale_ok = gate_rate >= reference_rate;
  std::cout << "\nn=" << kGateN << " (" << gate_rate << " slots/s) vs n=" << kReferenceN
            << " frame " << kReferenceFrame << " (" << reference_rate
            << " slots/s): " << (scale_ok ? "CONFIRMED" : "FAILED") << "\n";
  report.metric("n10000_scale_ratio", reference_rate > 0.0 ? gate_rate / reference_rate : 0.0);
  if (!smoke) ok = ok && scale_ok;
  report.metric("ok", ok ? 1 : 0);
  report.write();
  // Smoke mode proves the path runs and the two MAC paths agree; it is too
  // short to hold the calibrated perf gate.
  return ok ? 0 : 1;
}
