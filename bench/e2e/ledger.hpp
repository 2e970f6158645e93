// Harness-side tracing for the end-to-end benchmark: timestamped spans the
// harness opens around every layer call it makes, the per-rep profiler
// deltas the per-layer ledger is computed from, and the Perfetto export.
//
// A Span does two things on a traced rep. It appends a {name, start, end,
// parent, thread} record to a SpanLog (kept in memory, written at exit), and
// it opens an obs::ProfScope of the same name, so the in-program
// TTDC_PROF_SCOPE spans (sim.step.*, mac.fill_slot_sets.*, sim.ff.replay,
// core.construct_duty_cycled, runner.*) nest beneath the harness's spans in
// the profiler's tree. On an untraced rep the log is null and a Span does
// nothing at all.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/profile.hpp"

namespace ttdc::e2e {

class SpanLog {
 public:
  struct Record {
    std::string name;
    int parent = -1;  // index of the enclosing span, -1 at the root
    int thread = 0;   // small per-process thread number
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open
  };

  SpanLog() : origin_(std::chrono::steady_clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Appends an open record; thread-safe (campaign cells open spans from
  /// every worker).
  int open(const std::string& name, int parent);
  void close(int id);

  /// Snapshot of every record (open ones carry end_ns == -1).
  [[nodiscard]] std::vector<Record> records() const;
  [[nodiscard]] std::size_t size() const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Record> records_;  // guarded by mu_
};

/// RAII harness span; a no-op when `log` is null.
class Span {
 public:
  /// Child of this thread's innermost open Span.
  Span(SpanLog* log, const char* name);
  /// Child of `parent`, for work handed to another thread (campaign cells
  /// run on pool workers but belong to the campaign span).
  Span(SpanLog* log, const char* name, int parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_ = -1;
  int saved_current_ = -1;
  std::optional<obs::ProfScope> prof_;
};

/// Flat profiler accounting for one name, summed over every parent it ran
/// under and over every thread.
struct ProfEntry {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
using ProfTable = std::map<std::string, ProfEntry>;

/// The profiler's current flat totals.
[[nodiscard]] ProfTable profiler_snapshot();
/// after - before, name by name (the accounting of one rep).
[[nodiscard]] ProfTable profiler_delta(const ProfTable& after, const ProfTable& before);

/// Writes the Perfetto trace: the profiler span tree (flame layout, from
/// obs::write_perfetto_trace with an empty FlightLog) plus the harness's
/// timestamped spans on their own track, then re-reads the file and checks
/// it with obs::validate_trace_events. Returns the violations (empty ==
/// written and valid).
[[nodiscard]] std::vector<std::string> write_trace(const std::string& path, const SpanLog& log);

}  // namespace ttdc::e2e
