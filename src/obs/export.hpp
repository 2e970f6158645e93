// Exporters: Prometheus text exposition for a metrics snapshot, and the
// bridge that publishes SimStats into a MetricsRegistry at read time.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/stats.hpp"

namespace ttdc::obs {

/// True iff `name` is a valid Prometheus metric name:
/// [a-zA-Z_:][a-zA-Z0-9_:]*.
[[nodiscard]] bool prometheus_valid_metric_name(const std::string& name);

/// True iff `name` is a valid Prometheus label name: [a-zA-Z_][a-zA-Z0-9_]*
/// (no colons, unlike metric names).
[[nodiscard]] bool prometheus_valid_label_name(const std::string& name);

/// HELP-line escaping per the text exposition format: backslash -> `\\`,
/// newline -> `\n` (HELP text is the one place arbitrary prose enters the
/// exposition, and an unescaped newline corrupts every line after it).
[[nodiscard]] std::string prometheus_escape_help(const std::string& help);

/// Prometheus text exposition format (version 0.0.4): # HELP / # TYPE
/// headers, `_bucket{le=...}` / `_sum` / `_count` series for histograms.
/// Metric names are sanitized to satisfy prometheus_valid_metric_name;
/// HELP text is escaped with prometheus_escape_help.
[[nodiscard]] std::string prometheus_text(const std::vector<MetricSnapshot>& snapshot);

/// Convenience: snapshot + render in one call.
[[nodiscard]] std::string prometheus_text(const MetricsRegistry& registry);

/// The one bridge from SimStats to a registry, called at read time (after
/// run(); a campaign publishes CampaignResult::aggregate): every counter
/// once as the counter `<prefix>_<name>_total` (slots_run, the
/// kStreamCounters, deaths), the derived ratios and latency summaries as
/// gauges, and the latency samples as the `<prefix>_latency_slots`
/// histogram. A later call overwrites what an earlier one wrote.
void publish_sim_stats(const sim::SimStats& stats, MetricsRegistry& registry,
                       const std::string& prefix = "ttdc_sim");

}  // namespace ttdc::obs
