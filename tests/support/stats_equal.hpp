// SimStats equality for the golden tests, one message per field: every
// kCounterFields counter by name, the latency samples in recording order,
// every per-node vector and partial, then operator== over the whole record
// so a field missing from this list still fails. The golden contract is
// bit-identity, so everything is compared exactly. Compare before any
// percentile() query: it reorders the samples in place.
#pragma once

#include <gtest/gtest.h>

#include "sim/stats.hpp"

namespace ttdc::sim {

inline void expect_identical_stats(const SimStats& a, const SimStats& b) {
  for (const CounterField& c : kCounterFields) EXPECT_EQ(a.*c.field, b.*c.field) << c.name;
  EXPECT_EQ(a.latency.samples(), b.latency.samples());
  EXPECT_EQ(a.state_slots, b.state_slots);
  EXPECT_EQ(a.delivered_by_origin, b.delivered_by_origin);
  EXPECT_EQ(a.wake_transitions, b.wake_transitions);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_TRUE(a == b) << "SimStats::operator== compares every field";
}

}  // namespace ttdc::sim
