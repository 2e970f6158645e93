// The byte formats that carry SimStats out of a run: the campaign journal's
// line, CampaignResult::aggregate_json() and the Prometheus text of
// publish_sim_stats. Each is pinned on a record whose counters all differ,
// so a dropped or reordered field changes the bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "runner/journal.hpp"
#include "runner/runner.hpp"
#include "sim/stats.hpp"

namespace ttdc {
namespace {

/// Every counter distinct, one death, partial set.
sim::SimStats distinct_stats() {
  sim::SimStats s;
  s.slots_run = 1000;
  s.generated = 201;
  s.delivered = 102;
  s.hop_successes = 103;
  s.transmissions = 104;
  s.collisions = 105;
  s.receiver_asleep = 106;
  s.channel_losses = 107;
  s.sync_losses = 108;
  s.queue_drops = 109;
  for (const std::uint64_t v : {7u, 3u, 12u, 3u, 50u}) s.latency.record(v);
  s.state_slots = {{1, 2, 3, 994}, {5, 6, 7, 982}};
  s.delivered_by_origin = {60, 42};
  s.wake_transitions = {8, 9};
  s.first_death_slot = 777;
  s.deaths = 1;
  s.fault_crashes = 111;
  s.fault_recoveries = 112;
  s.fault_battery_spikes = 113;
  s.fault_jam_bursts = 114;
  s.burst_losses = 115;
  s.drift_losses = 116;
  s.partial = true;
  return s;
}

TEST(StatsFormats, JournalLineIsPinned) {
  runner::JournalEntry e;
  e.index = 4;
  e.stats = distinct_stats();
  EXPECT_EQ(runner::CampaignJournal::serialize_entry(e),
            "cell 4 1 0 0  S 1000 201 102 103 104 105 106 107 108 109 777 1 111 112 113 114 "
            "115 116 1 L 5 7 3 12 3 50 V 2 1 2 3 994 5 6 7 982 O 2 60 42 W 2 8 9 M 0");
}

TEST(StatsFormats, AggregateJsonIsPinned) {
  runner::CampaignResult r;
  r.aggregate = distinct_stats();
  runner::CellResult kept;
  kept.name = "tt \"a\"";
  kept.metrics = {{"delivery_ratio", 0.25}, {"hops", 3.0}};
  runner::CellResult dropped;
  dropped.name = "aloha";
  dropped.quarantined = true;
  r.cells = {kept, dropped};
  r.quarantined = {1};
  EXPECT_EQ(r.aggregate_json(),
            R"({"cells":[{"name":"tt \"a\"","metrics":{"delivery_ratio":0.25,"hops":3}},)"
            R"({"name":"aloha","metrics":{}}],)"
            R"("aggregate":{"slots_run":1000,"generated":201,"delivered":102,"hop_successes":103,)"
            R"("transmissions":104,"collisions":105,)"
            R"("receiver_asleep":106,"channel_losses":107,"sync_losses":108,"queue_drops":109,)"
            R"("deaths":1,"first_death_slot":777,"fault_crashes":111,"fault_recoveries":112,)"
            R"("fault_battery_spikes":113,"fault_jam_bursts":114,)"
            R"("burst_losses":115,"drift_losses":116,"partial":true,)"
            R"("latency":{"count":5,"mean":15,"p50":7,"p95":50,"max":50}},"quarantined":[1]})");

  // first_death_slot reads null while nobody has died.
  r.aggregate.first_death_slot = ~std::uint64_t{0};
  EXPECT_NE(r.aggregate_json().find(",\"deaths\":1,\"first_death_slot\":null,"),
            std::string::npos);
}

TEST(StatsFormats, PublishedPrometheusTextIsPinned) {
  obs::MetricsRegistry registry;
  obs::publish_sim_stats(distinct_stats(), registry);
  EXPECT_EQ(obs::prometheus_text(registry),
            R"(# HELP ttdc_sim_awake_fraction fraction of node-slots not asleep
# TYPE ttdc_sim_awake_fraction gauge
ttdc_sim_awake_fraction 0.012
# HELP ttdc_sim_burst_losses_total SimStats::burst_losses
# TYPE ttdc_sim_burst_losses_total counter
ttdc_sim_burst_losses_total 115
# HELP ttdc_sim_channel_losses_total SimStats::channel_losses
# TYPE ttdc_sim_channel_losses_total counter
ttdc_sim_channel_losses_total 107
# HELP ttdc_sim_collisions_total SimStats::collisions
# TYPE ttdc_sim_collisions_total counter
ttdc_sim_collisions_total 105
# HELP ttdc_sim_deaths_total SimStats::deaths
# TYPE ttdc_sim_deaths_total counter
ttdc_sim_deaths_total 1
# HELP ttdc_sim_delivered_total SimStats::delivered
# TYPE ttdc_sim_delivered_total counter
ttdc_sim_delivered_total 102
# HELP ttdc_sim_delivery_ratio delivered / generated
# TYPE ttdc_sim_delivery_ratio gauge
ttdc_sim_delivery_ratio 0.5074626865671642
# HELP ttdc_sim_drift_losses_total SimStats::drift_losses
# TYPE ttdc_sim_drift_losses_total counter
ttdc_sim_drift_losses_total 116
# HELP ttdc_sim_fault_battery_spikes_total SimStats::fault_battery_spikes
# TYPE ttdc_sim_fault_battery_spikes_total counter
ttdc_sim_fault_battery_spikes_total 113
# HELP ttdc_sim_fault_crashes_total SimStats::fault_crashes
# TYPE ttdc_sim_fault_crashes_total counter
ttdc_sim_fault_crashes_total 111
# HELP ttdc_sim_fault_jam_bursts_total SimStats::fault_jam_bursts
# TYPE ttdc_sim_fault_jam_bursts_total counter
ttdc_sim_fault_jam_bursts_total 114
# HELP ttdc_sim_fault_recoveries_total SimStats::fault_recoveries
# TYPE ttdc_sim_fault_recoveries_total counter
ttdc_sim_fault_recoveries_total 112
# HELP ttdc_sim_generated_total SimStats::generated
# TYPE ttdc_sim_generated_total counter
ttdc_sim_generated_total 201
# HELP ttdc_sim_hop_success_ratio hop successes / transmissions
# TYPE ttdc_sim_hop_success_ratio gauge
ttdc_sim_hop_success_ratio 0.99038461538461542
# HELP ttdc_sim_hop_successes_total SimStats::hop_successes
# TYPE ttdc_sim_hop_successes_total counter
ttdc_sim_hop_successes_total 103
# HELP ttdc_sim_latency_max_slots max delivery latency
# TYPE ttdc_sim_latency_max_slots gauge
ttdc_sim_latency_max_slots 50
# HELP ttdc_sim_latency_mean_slots mean delivery latency
# TYPE ttdc_sim_latency_mean_slots gauge
ttdc_sim_latency_mean_slots 15
# HELP ttdc_sim_latency_p50_slots median delivery latency
# TYPE ttdc_sim_latency_p50_slots gauge
ttdc_sim_latency_p50_slots 7
# HELP ttdc_sim_latency_p95_slots 95th-percentile delivery latency
# TYPE ttdc_sim_latency_p95_slots gauge
ttdc_sim_latency_p95_slots 50
# HELP ttdc_sim_latency_slots end-to-end delivery latency in slots
# TYPE ttdc_sim_latency_slots histogram
ttdc_sim_latency_slots_bucket{le="1"} 0
ttdc_sim_latency_slots_bucket{le="2"} 0
ttdc_sim_latency_slots_bucket{le="4"} 2
ttdc_sim_latency_slots_bucket{le="8"} 3
ttdc_sim_latency_slots_bucket{le="16"} 4
ttdc_sim_latency_slots_bucket{le="32"} 4
ttdc_sim_latency_slots_bucket{le="64"} 5
ttdc_sim_latency_slots_bucket{le="128"} 5
ttdc_sim_latency_slots_bucket{le="256"} 5
ttdc_sim_latency_slots_bucket{le="512"} 5
ttdc_sim_latency_slots_bucket{le="1024"} 5
ttdc_sim_latency_slots_bucket{le="4096"} 5
ttdc_sim_latency_slots_bucket{le="16384"} 5
ttdc_sim_latency_slots_bucket{le="+Inf"} 5
ttdc_sim_latency_slots_sum 75
ttdc_sim_latency_slots_count 5
# HELP ttdc_sim_queue_drops_total SimStats::queue_drops
# TYPE ttdc_sim_queue_drops_total counter
ttdc_sim_queue_drops_total 109
# HELP ttdc_sim_receiver_asleep_total SimStats::receiver_asleep
# TYPE ttdc_sim_receiver_asleep_total counter
ttdc_sim_receiver_asleep_total 106
# HELP ttdc_sim_slots_run_total SimStats::slots_run
# TYPE ttdc_sim_slots_run_total counter
ttdc_sim_slots_run_total 1000
# HELP ttdc_sim_sync_losses_total SimStats::sync_losses
# TYPE ttdc_sim_sync_losses_total counter
ttdc_sim_sync_losses_total 108
# HELP ttdc_sim_transmissions_total SimStats::transmissions
# TYPE ttdc_sim_transmissions_total counter
ttdc_sim_transmissions_total 104
)");
}

}  // namespace
}  // namespace ttdc
