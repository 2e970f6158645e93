// Per-slot battery drain of one node under a schedule, computed from the
// schedule alone: an oracle for exact death slots that does not run the
// simulator. Exact when the node's radio state is a pure function of the
// slot — a silent network, or a node that transmits in every one of its T
// slots and never receives a packet to forward.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/schedule.hpp"
#include "sim/radio.hpp"

namespace ttdc::sim {

/// Millijoules to the simulator's integer battery units (1e9 per mJ).
inline std::int64_t units(double mj) { return std::llround(mj * 1e9); }

/// Cumulative drain (battery units) of node v through each slot of
/// [0, horizon) under `schedule`, when v transmits in every one of its T
/// slots iff `transmits` and otherwise follows the schedule: the per-slot
/// radio-state cost plus a wakeup on every sleep -> awake step, from boot.
inline std::vector<std::int64_t> model_drain(const core::Schedule& schedule, std::size_t v,
                                             bool transmits, const EnergyModel& e,
                                             std::uint64_t horizon) {
  const std::size_t frame = schedule.frame_length();
  std::vector<std::int64_t> drain;
  std::int64_t spent = 0;
  bool was_awake = false;
  for (std::uint64_t t = 0; t < horizon; ++t) {
    const std::size_t i = t % frame;
    RadioState s = schedule.receivers(i).test(v) ? RadioState::kListen : RadioState::kSleep;
    if (transmits && schedule.transmitters(i).test(v)) s = RadioState::kTransmit;
    spent += units(e.energy_mj(s, 1));
    const bool awake = s != RadioState::kSleep;
    if (awake && !was_awake) spent += units(e.wakeup_mj);
    was_awake = awake;
    drain.push_back(spent);
  }
  return drain;
}

/// First slot whose cumulative drain reaches `budget` (the node's death
/// slot), or drain.size() if none does.
inline std::uint64_t model_death_slot(const std::vector<std::int64_t>& drain,
                                      std::int64_t budget) {
  std::uint64_t t = 0;
  while (t < drain.size() && drain[t] < budget) ++t;
  return t;
}

}  // namespace ttdc::sim
