#include "obs/report.hpp"

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

namespace ttdc::obs {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_scalar(const JsonScalar& v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  if (const auto* s = std::get_if<std::string>(&v)) {
    return json_string(*s);
  } else if (const auto* i = std::get_if<std::int64_t>(&v)) {
    os << *i;
  } else if (const auto* d = std::get_if<double>(&v)) {
    if (std::isfinite(*d)) {
      os << *d;
    } else {
      os << "null";
    }
  } else {
    os << (std::get<bool>(v) ? "true" : "false");
  }
  return os.str();
}

namespace {

struct Host {
  std::int64_t cores = 1;
  std::string cpu = "unknown";
};

/// The host a report is measured on: the CPUs this process may run on and
/// the first "model name" in /proc/cpuinfo ("unknown" where unreadable).
Host probe_host() {
  Host host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) host.cores = CPU_COUNT(&set);
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    const auto start = colon == std::string::npos ? colon : line.find_first_not_of(' ', colon + 1);
    if (start != std::string::npos) host.cpu = line.substr(start);
    break;
  }
  return host;
}

}  // namespace

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {
  // Every report names its host, so numbers from different machines are
  // never compared unawares (scripts/bench_trend.py flags a mismatch).
  const Host host = probe_host();
  param_int("host.cores", host.cores);
  params_.emplace_back("host.cpu", host.cpu);
}

void BenchReport::param(const std::string& key, const std::string& value) {
  params_.emplace_back(key, value);
}
void BenchReport::param(const std::string& key, const char* value) {
  params_.emplace_back(key, std::string(value));
}
void BenchReport::param(const std::string& key, double value) {
  params_.emplace_back(key, value);
}
void BenchReport::param(const std::string& key, bool value) { params_.emplace_back(key, value); }
void BenchReport::param_int(const std::string& key, std::int64_t value) {
  params_.emplace_back(key, value);
}

void BenchReport::metric(const std::string& key, double value) {
  metrics_.emplace_back(key, value);
}
void BenchReport::metric_int(const std::string& key, std::int64_t value) {
  metrics_.emplace_back(key, value);
}

namespace {

void write_object(std::ostringstream& os,
                  const std::vector<std::pair<std::string, JsonScalar>>& kv) {
  os << '{';
  bool first = true;
  for (const auto& [key, value] : kv) {
    if (!first) os << ',';
    first = false;
    os << json_string(key) << ':' << json_scalar(value);
  }
  os << '}';
}

}  // namespace

std::string BenchReport::to_json() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"name\":" << json_string(name_) << ",\"params\":";
  write_object(os, params_);
  os << ",\"metrics\":";
  write_object(os, metrics_);
  os << ",\"elapsed_seconds\":" << timer_.seconds() << "}\n";
  return os.str();
}

bool BenchReport::write() const {
  const char* dir = std::getenv("TTDC_BENCH_DIR");
  return write_to(dir != nullptr && *dir != '\0' ? dir : ".");
}

bool BenchReport::write_to(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) return false;
  out << to_json();
  out.flush();
  const bool ok = static_cast<bool>(out);
  if (ok) std::cout << "[bench report] wrote " << path << "\n";
  return ok;
}

}  // namespace ttdc::obs
