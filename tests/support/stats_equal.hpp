// Field-by-field SimStats equality for the golden tests: every counter
// (fault counters included), every per-node vector, and the latency samples
// in recording order. The golden contract is bit-identity, so everything is
// compared exactly. Compare before any percentile() query: it reorders the
// samples in place.
#pragma once

#include <gtest/gtest.h>

#include "sim/stats.hpp"

namespace ttdc::sim {

inline void expect_identical_stats(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.slots_run, b.slots_run);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.hop_successes, b.hop_successes);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.receiver_asleep, b.receiver_asleep);
  EXPECT_EQ(a.channel_losses, b.channel_losses);
  EXPECT_EQ(a.sync_losses, b.sync_losses);
  EXPECT_EQ(a.queue_drops, b.queue_drops);
  EXPECT_EQ(a.burst_losses, b.burst_losses);
  EXPECT_EQ(a.drift_losses, b.drift_losses);
  EXPECT_EQ(a.fault_crashes, b.fault_crashes);
  EXPECT_EQ(a.fault_recoveries, b.fault_recoveries);
  EXPECT_EQ(a.fault_battery_spikes, b.fault_battery_spikes);
  EXPECT_EQ(a.fault_jam_bursts, b.fault_jam_bursts);
  EXPECT_EQ(a.latency.samples(), b.latency.samples());
  EXPECT_EQ(a.state_slots, b.state_slots);
  EXPECT_EQ(a.delivered_by_origin, b.delivered_by_origin);
  EXPECT_EQ(a.wake_transitions, b.wake_transitions);
  EXPECT_EQ(a.first_death_slot, b.first_death_slot);
  EXPECT_EQ(a.deaths, b.deaths);
}

}  // namespace ttdc::sim
