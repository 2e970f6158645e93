#include "obs/export.hpp"

#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/flight_query.hpp"

namespace ttdc::obs {

namespace {

std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')) c = '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out.front()))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

void write_double(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else {
    os << v;
  }
}

}  // namespace

bool prometheus_valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_' || c == ':';
  };
  if (!head(name.front())) return false;
  for (const char c : name) {
    if (!(head(c) || std::isdigit(static_cast<unsigned char>(c)) != 0)) return false;
  }
  return true;
}

bool prometheus_valid_label_name(const std::string& name) {
  // Same as a metric name minus the colon (colons are reserved for
  // recording rules).
  return prometheus_valid_metric_name(name) && name.find(':') == std::string::npos;
}

std::string prometheus_escape_help(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string prometheus_text(const std::vector<MetricSnapshot>& snapshot) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const MetricSnapshot& m : snapshot) {
    const std::string name = sanitize(m.name);
    if (!m.help.empty()) {
      os << "# HELP " << name << ' ' << prometheus_escape_help(m.help) << '\n';
    }
    switch (m.type) {
      case MetricSnapshot::Type::kCounter:
        os << "# TYPE " << name << " counter\n";
        os << name << ' ' << m.counter_value << '\n';
        break;
      case MetricSnapshot::Type::kGauge:
        os << "# TYPE " << name << " gauge\n";
        os << name << ' ';
        write_double(os, m.gauge_value);
        os << '\n';
        break;
      case MetricSnapshot::Type::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < m.bounds.size(); ++i) {
          cumulative += m.buckets[i];
          os << name << "_bucket{le=\"";
          write_double(os, m.bounds[i]);
          os << "\"} " << cumulative << '\n';
        }
        os << name << "_bucket{le=\"+Inf\"} " << m.count << '\n';
        os << name << "_sum ";
        write_double(os, m.sum);
        os << '\n';
        os << name << "_count " << m.count << '\n';
        break;
      }
    }
  }
  return os.str();
}

std::string prometheus_text(const MetricsRegistry& registry) {
  return prometheus_text(registry.snapshot());
}

void publish_sim_stats(const sim::SimStats& stats, MetricsRegistry& registry,
                       const std::string& prefix) {
  const auto count = [&](const std::string& name, std::uint64_t value) {
    registry.counter(prefix + "_" + name + "_total", "SimStats::" + name).set(value);
  };
  count("slots_run", stats.slots_run);
  for (const StreamCounter& c : kStreamCounters) count(c.name, stats.*c.field);
  count("deaths", stats.deaths);

  // Every sample is a whole number of slots, so the double sum is exact and
  // the histogram does not depend on the order percentile() leaves behind.
  Histogram& latency =
      registry.histogram(prefix + "_latency_slots",
                         {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384},
                         "end-to-end delivery latency in slots");
  latency.reset();
  for (const std::uint64_t slots : stats.latency.samples()) {
    latency.observe(static_cast<double>(slots));
  }

  const auto g = [&](const char* suffix, const char* help) -> Gauge& {
    return registry.gauge(prefix + std::string(suffix), help);
  };
  g("_delivery_ratio", "delivered / generated").set(stats.delivery_ratio());
  g("_hop_success_ratio", "hop successes / transmissions").set(stats.success_ratio());
  g("_awake_fraction", "fraction of node-slots not asleep").set(stats.awake_fraction());
  g("_latency_mean_slots", "mean delivery latency").set(stats.latency.mean());
  g("_latency_p50_slots", "median delivery latency")
      .set(static_cast<double>(stats.latency.percentile(50)));
  g("_latency_p95_slots", "95th-percentile delivery latency")
      .set(static_cast<double>(stats.latency.percentile(95)));
  g("_latency_max_slots", "max delivery latency")
      .set(static_cast<double>(stats.latency.max()));
}

}  // namespace ttdc::obs
