// Machine-readable bench reporting: every bench binary builds a BenchReport
// and write()s it as BENCH_<name>.json so the perf trajectory of the repo
// is diffable run over run.
//
// Schema (documented in DESIGN.md §7):
//   {
//     "name": "<bench name>",
//     "params": { "host.cores": <int>, "host.cpu": "<model>",
//                 "<key>": <string|int|double|bool>, ... },
//     "metrics": { "<key>": <number|null>, ... },   // null = non-finite
//     "elapsed_seconds": <double>
//   }
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "util/timer.hpp"

namespace ttdc::obs {

/// JSON-representable scalar for params/metrics.
using JsonScalar = std::variant<std::string, std::int64_t, double, bool>;

/// Renders a scalar as a JSON value (strings escaped; non-finite doubles
/// become null, which every JSON consumer can ingest).
[[nodiscard]] std::string json_scalar(const JsonScalar& v);

/// Escapes and quotes a string per RFC 8259.
[[nodiscard]] std::string json_string(const std::string& s);

class BenchReport {
 public:
  /// Starts the wall-clock timer; `name` becomes BENCH_<name>.json. The
  /// params start with the host: `host.cores` (CPUs this process may run
  /// on) and `host.cpu` (the CPU model).
  explicit BenchReport(std::string name);

  void param(const std::string& key, const std::string& value);
  void param(const std::string& key, const char* value);
  void param(const std::string& key, double value);
  void param(const std::string& key, bool value);
  /// Any integer type (exact-match template so literals don't hit the
  /// double/bool overloads by conversion).
  template <typename T, std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                                         int> = 0>
  void param(const std::string& key, T value) {
    param_int(key, static_cast<std::int64_t>(value));
  }

  void metric(const std::string& key, double value);
  template <typename T, std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                                         int> = 0>
  void metric(const std::string& key, T value) {
    metric_int(key, static_cast<std::int64_t>(value));
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double elapsed_seconds() const { return timer_.seconds(); }

  /// Serializes the report (elapsed_seconds sampled now).
  [[nodiscard]] std::string to_json() const;

  /// Writes BENCH_<name>.json into $TTDC_BENCH_DIR (or the working
  /// directory when unset); returns false on I/O failure. Also prints a
  /// one-line confirmation to stdout so bench logs show where it went.
  bool write() const;
  bool write_to(const std::string& dir) const;

 private:
  void param_int(const std::string& key, std::int64_t value);
  void metric_int(const std::string& key, std::int64_t value);

  std::string name_;
  util::Timer timer_;
  std::vector<std::pair<std::string, JsonScalar>> params_;
  std::vector<std::pair<std::string, JsonScalar>> metrics_;
};

}  // namespace ttdc::obs
