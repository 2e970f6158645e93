// Metropolitan-scale pipeline bench (DESIGN.md §13): dense batched vs
// hybrid sparse/dense pipeline at n in {1e3, 1e4, 1e5} under a low-duty
// round-robin schedule (2 awake slots per frame of 8192 ≈ 0.02% duty — the
// regime where the expected active population per slot is ≪ n, which is
// where metropolitan-scale duty cycling lives). Gates:
//
//   * hybrid >= 5x dense at n = 10^4 (max-rate-paired speedup);
//   * hybrid at n = 10^4 runs at least as many slots/sec as the dense
//     pipeline manages at n = 800 under its own classic regime (frame 41,
//     ~5% duty — the densest schedule bench_sim_hotpath tops out at):
//     "a 12.5x bigger city, same wall-clock".
//
// Rates are the MAX over interleaved reps, and the gated speedup is the
// ratio of maxes: on a shared box, co-tenant interference only ever slows
// a rep down, so the max of several reps estimates the uncontended rate
// and the ratio of maxes the uncontended speedup. (Median-of-ratios — the
// bench_sim_hotpath idiom — needs a majority of quiet reps; max-pairing
// needs only one per side.)
//
// The workload is identical for both pipelines and the stats are asserted
// equal before anything is timed, so the speedup is never bought with a
// behavior change (the full cross-MAC golden matrix lives in
// tests/test_megascale.cpp). Emits BENCH_megascale.json; the *_speedup
// metric is regression-gated by scripts/run_benches.sh --perf-check.
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
#include "util/slot_set.hpp"
#include "util/timer.hpp"

namespace {

using namespace ttdc;

constexpr std::size_t kFrame = 8192;    // duty cycle 2/kFrame ≈ 0.024%
constexpr std::size_t kMaxDegree = 6;
constexpr std::size_t kBatch = 1;       // packets injected per slot; O(batch)
                                        // traffic keeps the common per-slot
                                        // work small so the pipelines are
                                        // what gets compared
constexpr std::size_t kQueueCap = 4;    // small sensor buffers; keeps the
                                        // queue arena cache-resident
constexpr std::uint64_t kWarmup = 2000;
constexpr double kGateSpeedup = 5.0;
constexpr std::size_t kGateN = 10000;
constexpr std::size_t kReferenceN = 800;
constexpr std::size_t kReferenceFrame = 41;  // ~4.9% duty: the dense
                                             // pipeline's comfort zone

/// Synthetic low-duty schedule, built directly as SlotSets so fill cost is
/// O(active) on the hybrid pipeline: in slot t (mod frame) the residue
/// class t transmits and the residue class t+1 listens. Senders are naive
/// (no receiver gating), so every transmitter fires in its slot and the
/// dense pipeline pays its full word-parallel phase costs each slot.
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

sim::SimConfig base_config(bool hybrid) {
  sim::SimConfig cfg;
  cfg.seed = 11;
  cfg.drop_unroutable = true;  // islands shed load instead of accumulating
  cfg.queue_capacity = kQueueCap;
  cfg.hybrid_pipeline = hybrid;
  return cfg;
}

double slot_rate_once(const net::Graph& world, bool hybrid, std::size_t frame,
                      std::uint64_t timed) {
  const std::size_t n = world.num_nodes();
  RoundRobinMac mac(n, frame);
  sim::BatchArrivalTraffic traffic(n, /*sink=*/0, kBatch);
  sim::Simulator sim(world, mac, traffic, base_config(hybrid));
  sim.run(kWarmup);
  util::Timer timer;
  sim.run(timed);
  return static_cast<double>(timed) / timer.seconds();
}

/// Equality tripwire before timing anything: the two pipelines must count
/// the same world. (The thorough matrix is tests/test_megascale.cpp.)
bool stats_agree(const net::Graph& world) {
  const auto run = [&](bool hybrid) {
    const std::size_t n = world.num_nodes();
    RoundRobinMac mac(n, kFrame);
    sim::BatchArrivalTraffic traffic(n, 0, kBatch);
    sim::Simulator sim(world, mac, traffic, base_config(hybrid));
    sim.run(2000);
    return sim.stats();
  };
  const sim::SimStats dense = run(false);
  const sim::SimStats hybrid = run(true);
  return dense.delivered == hybrid.delivered && dense.collisions == hybrid.collisions &&
         dense.transmissions == hybrid.transmissions &&
         dense.hop_successes == hybrid.hop_successes &&
         dense.receiver_asleep == hybrid.receiver_asleep &&
         dense.queue_drops == hybrid.queue_drops;
}

std::uint64_t timed_slots(std::size_t n, bool smoke) {
  // Floor high enough that a rep amortizes cold caches on a freshly
  // constructed simulator; the hybrid pipeline at the gate size covers a
  // rep in ~10 ms.
  const std::uint64_t scaled = 16'000'000 / n;
  const std::uint64_t slots = scaled < 20'000 ? 20'000 : scaled;
  return smoke ? slots / 20 : slots;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int pairs = smoke ? 3 : 7;

  obs::BenchReport report("megascale");
  report.param("mac", "round_robin_frame_8192");
  report.param("duty_cycle", 2.0 / static_cast<double>(kFrame));
  report.param("reference_duty_cycle", 2.0 / static_cast<double>(kReferenceFrame));
  report.param("traffic", "batch_arrival_1_per_slot");
  report.param("pairs", static_cast<std::int64_t>(pairs));
  report.param("warmup_slots", static_cast<std::int64_t>(kWarmup));
  report.param("gate_n", static_cast<std::int64_t>(kGateN));
  report.param("gate_speedup", kGateSpeedup);
  report.param("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));

  bool ok = true;
  double gate_speedup = 0.0, gate_hybrid_rate = 0.0, reference_dense_rate = 0.0;

  // Dense reference row: the pre-megascale pipeline at its own classic
  // size AND schedule density (the regime the existing bench_sim_hotpath
  // tops out at). The second gate asks the hybrid pipeline to beat this
  // rate at 12.5x the n and 1/200th the duty.
  {
    const net::Graph world = make_world(kReferenceN);
    std::vector<double> rates;
    for (int rep = 0; rep < pairs; ++rep) {
      rates.push_back(
          slot_rate_once(world, false, kReferenceFrame, timed_slots(kReferenceN, smoke)));
    }
    reference_dense_rate = *std::max_element(rates.begin(), rates.end());
    std::cout << "dense reference @ n=" << kReferenceN << " (frame " << kReferenceFrame
              << "): " << reference_dense_rate << " slots/s\n";
    report.metric("n800_dense_slots_per_sec", reference_dense_rate);
  }

  std::cout << "megascale: dense vs hybrid pipeline (slots/sec)\n"
            << "       n      dense/s     hybrid/s  speedup\n";
  std::vector<std::size_t> sizes = smoke ? std::vector<std::size_t>{1000, 10000}
                                         : std::vector<std::size_t>{1000, 10000, 100000};
  for (const std::size_t n : sizes) {
    const net::Graph world = make_world(n);
    if (!stats_agree(world)) {
      std::cout << "  n=" << n << ": PIPELINE MISMATCH (dense vs hybrid stats differ)\n";
      ok = false;
      continue;
    }
    const std::uint64_t timed = timed_slots(n, smoke);
    std::vector<double> dense_rates, hybrid_rates;
    slot_rate_once(world, true, kFrame, timed);  // warm caches, untimed
    for (int rep = 0; rep < pairs; ++rep) {
      dense_rates.push_back(slot_rate_once(world, false, kFrame, timed));
      hybrid_rates.push_back(slot_rate_once(world, true, kFrame, timed));
    }
    const double dense = *std::max_element(dense_rates.begin(), dense_rates.end());
    const double hybrid = *std::max_element(hybrid_rates.begin(), hybrid_rates.end());
    const double speedup = hybrid / dense;
    std::cout << "  " << n << "  " << dense << "  " << hybrid << "  " << speedup << "x\n";
    std::string key = "n";
    key += std::to_string(n);
    report.metric(key + "_dense_slots_per_sec", dense);
    report.metric(key + "_hybrid_slots_per_sec", hybrid);
    // Only the calibrated gate row is named *_speedup (the suffix
    // scripts/run_benches.sh --perf-check regression-gates); the other
    // sizes ride along informationally as *_ratio.
    report.metric(key + (n == kGateN ? "_speedup" : "_ratio"), speedup);
    if (n == kGateN) {
      gate_speedup = speedup;
      gate_hybrid_rate = hybrid;
    }
  }

  const bool speedup_ok = gate_speedup >= kGateSpeedup;
  const bool scale_ok = gate_hybrid_rate >= reference_dense_rate;
  std::cout << "\nhybrid speedup @ n=" << kGateN << ": " << gate_speedup << "x (gate >= "
            << kGateSpeedup << "x): " << (speedup_ok ? "CONFIRMED" : "FAILED") << "\n"
            << "hybrid @ n=" << kGateN << " (" << gate_hybrid_rate
            << " slots/s) vs dense @ n=" << kReferenceN << " (" << reference_dense_rate
            << " slots/s): " << (scale_ok ? "CONFIRMED" : "FAILED") << "\n";
  if (!smoke) ok = ok && speedup_ok && scale_ok;
  report.metric("ok", ok ? 1 : 0);
  report.write();
  // Smoke mode proves the path runs and the pipelines agree; it is too
  // short to hold the calibrated perf gates.
  return ok ? 0 : 1;
}
