// The observability layer: metrics registry + Prometheus exposition,
// latency percentile correctness under interleaved queries, profiling
// scopes, and the BENCH_*.json report writer. The packet event stream is
// covered by test_trace.cpp and test_flight_recorder.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "sim/stats.hpp"
#include "util/rng.hpp"

namespace ttdc::obs {
namespace {

// ---------------------------------------------------------------------------
// LatencyStats: the interleaved record()/percentile() regression.

TEST(LatencyStats, InterleavedRecordAndPercentileStaysCorrect) {
  // The old implementation cached a sorted flag that record() forgot to
  // reset, so a percentile probe mid-run froze the distribution. Interleave
  // queries with appends and check against a freshly-built oracle each time.
  sim::LatencyStats stats;
  std::vector<std::uint64_t> oracle;
  util::Xoshiro256 rng(99);
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 7; ++k) {
      const std::uint64_t v = rng.below(1000);
      stats.record(v);
      oracle.push_back(v);
    }
    for (const double pct : {0.0, 50.0, 90.0, 100.0}) {
      std::vector<std::uint64_t> sorted = oracle;
      std::sort(sorted.begin(), sorted.end());
      const double rank = pct / 100.0 * static_cast<double>(sorted.size());
      std::size_t idx =
          rank <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
      idx = std::min(idx, sorted.size() - 1);
      ASSERT_EQ(stats.percentile(pct), sorted[idx])
          << "pct=" << pct << " after " << oracle.size() << " samples";
    }
  }
  EXPECT_EQ(stats.count(), oracle.size());
}

TEST(LatencyStats, PercentileNearestRankOnKnownValues) {
  sim::LatencyStats stats;
  for (const std::uint64_t v : {15u, 20u, 35u, 40u, 50u}) stats.record(v);
  EXPECT_EQ(stats.percentile(0), 15u);
  EXPECT_EQ(stats.percentile(30), 20u);
  EXPECT_EQ(stats.percentile(40), 20u);
  EXPECT_EQ(stats.percentile(50), 35u);
  EXPECT_EQ(stats.percentile(100), 50u);
  EXPECT_EQ(stats.max(), 50u);
}

TEST(LatencyStats, EmptyPercentileIsZero) {
  const sim::LatencyStats stats;
  EXPECT_EQ(stats.percentile(50), 0u);
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(Metrics, CounterGaugeHistogramRoundTrip) {
  MetricsRegistry registry;
  Counter& c = registry.counter("events_total", "event count");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&registry.counter("events_total"), &c);  // same handle, idempotent

  Gauge& g = registry.gauge("queue_depth");
  g.set(3.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);

  Histogram& h = registry.histogram("latency", {1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(5000.0);  // only the implicit +Inf bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 5005.5);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{1, 1, 0}));

  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);  // map-ordered: counter, gauge, histogram
  bool saw_counter = false, saw_hist = false;
  for (const auto& s : snapshot) {
    if (s.name == "events_total") {
      EXPECT_EQ(s.type, MetricSnapshot::Type::kCounter);
      EXPECT_EQ(s.counter_value, 42u);
      saw_counter = true;
    }
    if (s.name == "latency") {
      EXPECT_EQ(s.type, MetricSnapshot::Type::kHistogram);
      EXPECT_EQ(s.count, 3u);
      saw_hist = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
}

TEST(Metrics, PrometheusTextExposition) {
  MetricsRegistry registry;
  registry.counter("ttdc_demo_total", "demo counter").inc(7);
  registry.gauge("ttdc demo gauge").set(1.25);  // spaces must be sanitized
  Histogram& h = registry.histogram("ttdc_lat", {1.0, 8.0});
  h.observe(0.5);
  h.observe(2.0);
  h.observe(100.0);

  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("# TYPE ttdc_demo_total counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP ttdc_demo_total demo counter"), std::string::npos);
  EXPECT_NE(text.find("ttdc_demo_total 7"), std::string::npos);
  EXPECT_NE(text.find("ttdc_demo_gauge 1.25"), std::string::npos);
  // Histogram buckets are cumulative and end with +Inf == count.
  EXPECT_NE(text.find("ttdc_lat_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("ttdc_lat_bucket{le=\"8\"} 2"), std::string::npos);
  EXPECT_NE(text.find("ttdc_lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("ttdc_lat_count 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Prometheus exposition conformance (text format 0.0.4).

TEST(Metrics, PrometheusHelpTextIsEscaped) {
  MetricsRegistry registry;
  registry.counter("ttdc_esc_total", "line one\nline two with back\\slash").inc(1);
  const std::string text = prometheus_text(registry);
  // The HELP line must stay a single line: newline -> \n, backslash -> \\.
  EXPECT_NE(
      text.find("# HELP ttdc_esc_total line one\\nline two with back\\\\slash\n"),
      std::string::npos)
      << text;
  // No raw newline may survive inside the HELP text: the entire escaped
  // help, including the tail after the original newline, stays on the one
  // physical HELP line.
  const auto help_pos = text.find("# HELP");
  const auto eol = text.find('\n', help_pos);
  const std::string help_line = text.substr(help_pos, eol - help_pos);
  EXPECT_NE(help_line.find("back\\\\slash"), std::string::npos) << help_line;
  EXPECT_NE(help_line.find("\\n"), std::string::npos) << help_line;
}

TEST(Metrics, PrometheusNameValidation) {
  EXPECT_TRUE(prometheus_valid_metric_name("ttdc_sim_delivered_total"));
  EXPECT_TRUE(prometheus_valid_metric_name("ns:subsystem:name"));
  EXPECT_TRUE(prometheus_valid_metric_name("_leading_underscore"));
  EXPECT_FALSE(prometheus_valid_metric_name(""));
  EXPECT_FALSE(prometheus_valid_metric_name("9starts_with_digit"));
  EXPECT_FALSE(prometheus_valid_metric_name("has space"));
  EXPECT_FALSE(prometheus_valid_metric_name("has-dash"));

  EXPECT_TRUE(prometheus_valid_label_name("le"));
  EXPECT_TRUE(prometheus_valid_label_name("instance_id"));
  EXPECT_FALSE(prometheus_valid_label_name("with:colon"));  // labels ban colons
  EXPECT_FALSE(prometheus_valid_label_name("1bad"));
}

TEST(Metrics, PrometheusEveryExposedNameIsValid) {
  MetricsRegistry registry;
  registry.counter("good_name_total").inc(1);
  registry.gauge("9leading digit & punctuation!").set(2);
  registry.histogram("spaced out name", {1.0}).observe(0.5);
  const std::string text = prometheus_text(registry);
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto cut = line.find_first_of(" {");
    ASSERT_NE(cut, std::string::npos) << line;
    EXPECT_TRUE(prometheus_valid_metric_name(line.substr(0, cut)))
        << "invalid exposed metric name in: " << line;
  }
}

TEST(Metrics, PrometheusEscapeHelpIsIdempotentOnCleanText) {
  EXPECT_EQ(prometheus_escape_help("plain help text"), "plain help text");
  EXPECT_EQ(prometheus_escape_help("a\\b\nc"), "a\\\\b\\nc");
  EXPECT_EQ(prometheus_escape_help(""), "");
}

// ---------------------------------------------------------------------------
// Publishing SimStats into a registry (test_fault.cpp checks every counter
// on the fault storm).

TEST(SimMetrics, PublishSimStatsExportsDerivedGauges) {
  MetricsRegistry registry;
  sim::SimStats stats;
  stats.slots_run = 100;
  stats.generated = 50;
  stats.delivered = 40;
  stats.transmissions = 60;
  stats.hop_successes = 45;
  publish_sim_stats(stats, registry, "demo");
  bool saw_ratio = false;
  for (const auto& snap : registry.snapshot()) {
    if (snap.name == "demo_delivery_ratio") {
      EXPECT_DOUBLE_EQ(snap.gauge_value, 0.8);
      saw_ratio = true;
    }
  }
  EXPECT_TRUE(saw_ratio);
}

// ---------------------------------------------------------------------------
// Profiling scopes.

TEST(Profiler, ScopesAccumulateOnlyWhenEnabled) {
  Profiler::instance().reset();
  Profiler::enable(false);
  {
    TTDC_PROF_SCOPE("test.disabled_scope");
  }
  {
    ProfilerSession session;
    for (int i = 0; i < 3; ++i) {
      TTDC_PROF_SCOPE("test.enabled_scope");
    }
  }
  EXPECT_FALSE(Profiler::enabled());  // session restored the flag
  std::uint64_t disabled_calls = 0, enabled_calls = 0;
  for (const auto& s : Profiler::instance().samples()) {
    if (s.name == "test.disabled_scope") disabled_calls = s.calls;
    if (s.name == "test.enabled_scope") enabled_calls = s.calls;
  }
  EXPECT_EQ(disabled_calls, 0u);
  EXPECT_EQ(enabled_calls, 3u);

  MetricsRegistry registry;
  Profiler::instance().publish(registry);
  bool saw = false;
  for (const auto& snap : registry.snapshot()) {
    if (snap.name == "prof_test_enabled_scope_calls") {
      EXPECT_DOUBLE_EQ(snap.gauge_value, 3.0);
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
  EXPECT_NE(Profiler::instance().report().find("test.enabled_scope"), std::string::npos);
}

namespace {
void spin_for_microseconds(int us) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start < std::chrono::microseconds(us)) {
  }
}
}  // namespace

TEST(Profiler, HierarchicalSpansTrackParentChildAndSelfTime) {
  Profiler& prof = Profiler::instance();
  prof.reset();
  {
    ProfilerSession session;
    for (int i = 0; i < 2; ++i) {
      TTDC_PROF_SCOPE("span.outer");
      spin_for_microseconds(200);
      for (int j = 0; j < 3; ++j) {
        TTDC_PROF_SCOPE("span.inner");
        spin_for_microseconds(100);
      }
    }
    {
      // The same site under no parent must become a distinct root span.
      TTDC_PROF_SCOPE("span.inner");
      spin_for_microseconds(50);
    }
  }

  const auto spans = prof.span_samples();
  const Profiler::SpanSample* outer = nullptr;
  const Profiler::SpanSample* nested_inner = nullptr;
  const Profiler::SpanSample* root_inner = nullptr;
  for (const auto& s : spans) {
    if (s.name == "span.outer" && s.depth == 0) outer = &s;
    if (s.name == "span.inner" && s.depth == 1) nested_inner = &s;
    if (s.name == "span.inner" && s.depth == 0) root_inner = &s;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(nested_inner, nullptr);
  ASSERT_NE(root_inner, nullptr) << "same site under a different parent must split";

  EXPECT_EQ(outer->calls, 2u);
  EXPECT_EQ(nested_inner->calls, 6u);
  EXPECT_EQ(root_inner->calls, 1u);
  EXPECT_EQ(nested_inner->path, "span.outer/span.inner");
  EXPECT_EQ(root_inner->path, "span.inner");

  // Self time excludes children: outer spent ~400us itself and ~600us in
  // inner, so self < total, and total >= children's total.
  EXPECT_LT(outer->self_seconds, outer->total_seconds);
  EXPECT_GE(outer->total_seconds, nested_inner->total_seconds);
  EXPECT_GT(nested_inner->self_seconds, 0.0);

  // The flat view aggregates both inner spans by name (backward compat).
  std::uint64_t flat_inner_calls = 0;
  for (const auto& s : prof.samples()) {
    if (s.name == "span.inner") flat_inner_calls = s.calls;
  }
  EXPECT_EQ(flat_inner_calls, 7u);

  // span_report renders the tree with the child indented under its parent.
  const std::string tree = prof.span_report();
  const auto outer_pos = tree.find("span.outer");
  const auto inner_pos = tree.find("span.inner", outer_pos);
  ASSERT_NE(outer_pos, std::string::npos);
  ASSERT_NE(inner_pos, std::string::npos);
}

TEST(Profiler, PublishIncludesSelfSeconds) {
  Profiler& prof = Profiler::instance();
  prof.reset();
  {
    ProfilerSession session;
    TTDC_PROF_SCOPE("pub.site");
  }
  MetricsRegistry registry;
  prof.publish(registry);
  bool saw_self = false;
  for (const auto& snap : registry.snapshot()) {
    if (snap.name == "prof_pub_site_self_seconds") saw_self = true;
  }
  EXPECT_TRUE(saw_self);
}

TEST(Profiler, SpansAreThreadSafeUnderOpenMp) {
  Profiler& prof = Profiler::instance();
  prof.reset();
  constexpr int kIters = 400;
  {
    ProfilerSession session;
#pragma omp parallel for num_threads(4)
    for (int i = 0; i < kIters; ++i) {
      TTDC_PROF_SCOPE("omp.outer");
      {
        TTDC_PROF_SCOPE("omp.inner");
      }
    }
  }
  std::uint64_t outer_calls = 0, inner_calls = 0;
  for (const auto& s : prof.span_samples()) {
    if (s.name == "omp.outer") outer_calls += s.calls;
    if (s.name == "omp.inner") inner_calls += s.calls;
  }
  EXPECT_EQ(outer_calls, static_cast<std::uint64_t>(kIters));
  EXPECT_EQ(inner_calls, static_cast<std::uint64_t>(kIters));
}

// ---------------------------------------------------------------------------
// Bench reports.

TEST(BenchReport, JsonSchemaAndFileOutput) {
  BenchReport report("unit_test");
  report.param("n", 25);
  report.param("label", "abc\"def");  // needs escaping
  report.param("rate", 0.25);
  report.param("enabled", true);
  report.metric("delivered", std::uint64_t{123});
  report.metric("ratio", 0.5);
  report.metric("bad", std::numeric_limits<double>::quiet_NaN());

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"name\":\"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":25"), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"abc\\\"def\""), std::string::npos);
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"delivered\":123"), std::string::npos);
  EXPECT_NE(json.find("\"bad\":null"), std::string::npos);  // NaN -> null
  EXPECT_NE(json.find("\"elapsed_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"host.cores\":"), std::string::npos);  // every report names its host
  EXPECT_NE(json.find("\"host.cpu\":\""), std::string::npos);

  const std::string dir = testing::TempDir();
  ASSERT_TRUE(report.write_to(dir));
  const std::string path = dir + "/BENCH_unit_test.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"name\":\"unit_test\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ttdc::obs
