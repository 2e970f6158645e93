// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// No hot path writes here. The simulator counts into SimStats, and a
// finished (or in-flight) record is published at read time:
// obs::publish_sim_stats (export.hpp) for SimStats, Profiler::publish for
// the profiling spans. Values are relaxed atomics, so one thread may
// snapshot() while another publishes. Header-only because profile.hpp,
// which the instrumented libraries include, publishes into it without a
// link dependency on ttdc_obs (which itself links ttdc_sim).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ttdc::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// Overwrites the count (a publisher copying a finished record).
  void set(std::uint64_t value) { value_.store(value, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (Prometheus semantics: bucket i counts samples
/// <= upper_bounds[i]; a +Inf bucket is implicit in count()).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds)
      : bounds_(std::move(upper_bounds)),
        buckets_(std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size())) {}

  void observe(double v) {
    count_.fetch_add(1, std::memory_order_relaxed);
    double sum = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(sum, sum + v, std::memory_order_relaxed)) {
    }
    // Bucket lists are short (tens); a linear scan beats binary search.
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      if (v <= bounds_[i]) {
        buckets_[i].fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    // Falls only into the implicit +Inf bucket (== count()).
  }

  /// Empties every bucket, the count and the sum (a publisher refilling
  /// the histogram from a finished record).
  void reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      buckets_[i].store(0, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Non-cumulative per-bucket counts (without the +Inf bucket).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const {
    std::vector<std::uint64_t> out(bounds_.size());
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of one metric, for exporters.
struct MetricSnapshot {
  enum class Type { kCounter, kGauge, kHistogram };
  std::string name;
  std::string help;
  Type type = Type::kCounter;
  std::uint64_t counter_value = 0;                  // kCounter
  double gauge_value = 0.0;                         // kGauge
  std::vector<double> bounds;                       // kHistogram
  std::vector<std::uint64_t> buckets;               // kHistogram, non-cumulative
  std::uint64_t count = 0;                          // kHistogram
  double sum = 0.0;                                 // kHistogram
};

/// Owns metrics by name; handles returned by counter()/gauge()/histogram()
/// stay valid for the registry's lifetime. Registration takes a lock;
/// increments on the returned handles are lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help = "") {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& e = entries_[name];
    if (!e.counter) {
      e.counter = std::make_unique<Counter>();
      if (!help.empty()) e.help = help;
    }
    return *e.counter;
  }

  Gauge& gauge(const std::string& name, const std::string& help = "") {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& e = entries_[name];
    if (!e.gauge) {
      e.gauge = std::make_unique<Gauge>();
      if (!help.empty()) e.help = help;
    }
    return *e.gauge;
  }

  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds,
                       const std::string& help = "") {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& e = entries_[name];
    if (!e.histogram) {
      e.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
      if (!help.empty()) e.help = help;
    }
    return *e.histogram;
  }

  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<MetricSnapshot> out;
    out.reserve(entries_.size());
    for (const auto& [name, e] : entries_) {
      if (e.counter) {
        MetricSnapshot s;
        s.name = name;
        s.help = e.help;
        s.type = MetricSnapshot::Type::kCounter;
        s.counter_value = e.counter->value();
        out.push_back(std::move(s));
      }
      if (e.gauge) {
        MetricSnapshot s;
        s.name = name;
        s.help = e.help;
        s.type = MetricSnapshot::Type::kGauge;
        s.gauge_value = e.gauge->value();
        out.push_back(std::move(s));
      }
      if (e.histogram) {
        MetricSnapshot s;
        s.name = name;
        s.help = e.help;
        s.type = MetricSnapshot::Type::kHistogram;
        s.bounds = e.histogram->bounds();
        s.buckets = e.histogram->bucket_counts();
        s.count = e.histogram->count();
        s.sum = e.histogram->sum();
        out.push_back(std::move(s));
      }
    }
    return out;
  }

 private:
  // One name may in principle host different kinds; in practice callers
  // keep names unique per kind, and snapshot() emits whatever exists.
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace ttdc::obs
