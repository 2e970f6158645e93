#include "core/energy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/node_slots.hpp"

namespace ttdc::core {

BalanceReport balance_report(const Schedule& schedule) {
  BalanceReport report;
  report.min_active_per_slot = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < schedule.frame_length(); ++i) {
    const std::size_t active = schedule.transmit_sizes()[i] + schedule.receive_sizes()[i];
    report.min_active_per_slot = std::min(report.min_active_per_slot, active);
    report.max_active_per_slot = std::max(report.max_active_per_slot, active);
  }
  report.min_active_per_node = std::numeric_limits<std::size_t>::max();
  double sum = 0.0, sum_sq = 0.0;
  const NodeSlots slots(schedule);
  for (std::size_t x = 0; x < schedule.num_nodes(); ++x) {
    const std::size_t active = slots.tran(x).count() + slots.recv(x).count();
    report.min_active_per_node = std::min(report.min_active_per_node, active);
    report.max_active_per_node = std::max(report.max_active_per_node, active);
    const double duty =
        static_cast<double>(active) / static_cast<double>(schedule.frame_length());
    sum += duty;
    sum_sq += duty * duty;
  }
  const double n = static_cast<double>(schedule.num_nodes());
  const double mean = sum / n;
  report.node_duty_stddev = std::sqrt(std::max(0.0, sum_sq / n - mean * mean));
  return report;
}

std::vector<std::size_t> per_node_wake_transitions(const Schedule& schedule) {
  const std::size_t L = schedule.frame_length();
  std::vector<std::size_t> out(schedule.num_nodes(), 0);
  const NodeSlots slots(schedule);
  for (std::size_t x = 0; x < schedule.num_nodes(); ++x) {
    const DynamicBitset active = slots.tran(x) | slots.recv(x);
    std::size_t wakes = 0;
    for (std::size_t i = 0; i < L; ++i) {
      if (active.test(i) && !active.test((i + L - 1) % L)) ++wakes;
    }
    out[x] = wakes;
  }
  return out;
}

std::size_t total_wake_transitions(const Schedule& schedule) {
  std::size_t total = 0;
  for (std::size_t w : per_node_wake_transitions(schedule)) total += w;
  return total;
}

}  // namespace ttdc::core
