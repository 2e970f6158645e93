#include "sim/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>

namespace ttdc::sim {

double LatencyStats::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (auto s : samples_) sum += static_cast<double>(s);
  return sum / static_cast<double>(samples_.size());
}

std::uint64_t LatencyStats::max() const {
  if (samples_.empty()) return 0;
  return *std::max_element(samples_.begin(), samples_.end());
}

std::uint64_t LatencyStats::percentile(double pct) const {
  if (samples_.empty()) return 0;
  const double rank = pct / 100.0 * static_cast<double>(samples_.size());
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
  idx = std::min(idx, samples_.size() - 1);
  std::nth_element(samples_.begin(), samples_.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples_.end());
  return samples_[idx];
}

double SimStats::awake_fraction() const {
  std::uint64_t awake = 0, total = 0;
  for (const auto& per_node : state_slots) {
    awake += per_node[0] + per_node[1] + per_node[2];  // TX + RX + LISTEN
    total += per_node[0] + per_node[1] + per_node[2] + per_node[3];
  }
  return total == 0 ? 0.0 : static_cast<double>(awake) / static_cast<double>(total);
}

double SimStats::total_energy_mj(const EnergyModel& model) const {
  double total = 0.0;
  static constexpr std::array<RadioState, 4> kStates = {
      RadioState::kTransmit, RadioState::kReceive, RadioState::kListen, RadioState::kSleep};
  for (const auto& per_node : state_slots) {
    for (std::size_t s = 0; s < 4; ++s) total += model.energy_mj(kStates[s], per_node[s]);
  }
  for (std::uint64_t wakes : wake_transitions) {
    total += model.wakeup_mj * static_cast<double>(wakes);
  }
  return total;
}

double SimStats::energy_per_delivery_mj(const EnergyModel& model) const {
  if (delivered == 0) return std::numeric_limits<double>::infinity();
  return total_energy_mj(model) / static_cast<double>(delivered);
}

namespace {

void add_padded(std::vector<std::uint64_t>& into, const std::vector<std::uint64_t>& from) {
  if (from.size() > into.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

}  // namespace

void SimStats::merge(const SimStats& other) {
  for (const CounterField& c : kCounterFields) {
    std::uint64_t& into = this->*c.field;
    const std::uint64_t from = other.*c.field;
    into = c.merge == MergeRule::kMin ? std::min(into, from) : into + from;
  }
  latency.merge(other.latency);
  if (other.state_slots.size() > state_slots.size()) {
    state_slots.resize(other.state_slots.size(), {0, 0, 0, 0});
  }
  for (std::size_t v = 0; v < other.state_slots.size(); ++v) {
    for (std::size_t s = 0; s < 4; ++s) state_slots[v][s] += other.state_slots[v][s];
  }
  add_padded(delivered_by_origin, other.delivered_by_origin);
  add_padded(wake_transitions, other.wake_transitions);
  partial = partial || other.partial;
}

std::string SimStats::summary(const EnergyModel& model) const {
  std::ostringstream os;
  os << "slots=" << slots_run << " generated=" << generated << " delivered=" << delivered
     << " (ratio " << delivery_ratio() << ")\n"
     << "tx=" << transmissions << " hop_ok=" << hop_successes << " collisions=" << collisions
     << " rx_asleep=" << receiver_asleep << " chan_loss=" << channel_losses
     << " sync_loss=" << sync_losses << " drops=" << queue_drops << '\n'
     << "latency: mean=" << latency.mean() << " p50=" << latency.percentile(50)
     << " p95=" << latency.percentile(95) << " max=" << latency.max() << " slots\n"
     << "awake_fraction=" << awake_fraction() << " energy=" << total_energy_mj(model)
     << " mJ (" << energy_per_delivery_mj(model) << " mJ/delivery)";
  if (fault_crashes + fault_recoveries + fault_battery_spikes + fault_jam_bursts +
          burst_losses + drift_losses >
      0) {
    os << "\nfaults: crashes=" << fault_crashes << " recoveries=" << fault_recoveries
       << " spikes=" << fault_battery_spikes << " jam_bursts=" << fault_jam_bursts
       << " burst_loss=" << burst_losses << " drift_loss=" << drift_losses;
  }
  if (partial) os << "\nPARTIAL: quarantined cells missing from this aggregate";
  return os.str();
}

}  // namespace ttdc::sim
