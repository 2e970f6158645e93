// The four end-to-end workloads (bench/e2e/README.md has the catalogue and
// why each was chosen). Every workload builds its inputs from one seed with
// the same recipe — a random geometric graph, best_plan ->
// non_sleeping_from_family -> construct_duty_cycled — and splits a rep into
// an untimed-by-the-caller set-up (setup_s) and a timed unit (wall_s).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/fastforward.hpp"
#include "sim/stats.hpp"

namespace ttdc::e2e {

class SpanLog;  // ledger.hpp

/// The scalar SimStats counters the ledger reads. The harness keeps every
/// rep's outcome, so the per-node and latency vectors stay out of it (they
/// would grow the process's peak RSS with the rep count).
struct Counters {
  explicit Counters(const sim::SimStats& s = {})
      : slots_run(s.slots_run), generated(s.generated), delivered(s.delivered),
        hop_successes(s.hop_successes), transmissions(s.transmissions), partial(s.partial) {}
  std::uint64_t slots_run, generated, delivered, hop_successes, transmissions;
  bool partial;
};

/// A readable output check, printed as `<workload>.<name> <value> <unit>`.
struct Check {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a finished rep produced: the output check and the exact work
/// counts the per-layer ledger needs. Collected after the timed unit.
struct RepOutcome {
  /// FNV-1a 64 over the canonical SimStats (campaign: aggregate_json()).
  std::uint64_t digest = 0;
  /// The simulation's counters (campaign: of the merged aggregate).
  Counters stats;
  /// Fast-forward accounting, summed over the rep's simulators.
  sim::FastForwardStats ff;
  /// Frame length of the workload's topology-transparent schedule.
  std::size_t frame_length = 0;
  /// Campaign only: cells attempted and cells quarantined.
  std::uint64_t cells = 0;
  std::uint64_t failed_cells = 0;
  std::uint64_t artifact_hits = 0;
  std::uint64_t artifact_misses = 0;
  std::uint64_t journal_bytes = 0;
  std::vector<Check> checks;
};

struct WorkloadContext {
  std::uint64_t seed = 1;
  /// Non-null on traced reps: the harness's span log.
  SpanLog* spans = nullptr;
  /// Campaign worker-pool size.
  int workers = 1;
  /// Directory for the campaign journal (inside the checkout).
  std::string scratch_dir = ".";
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input: topology, family, schedule, MAC, traffic, and the
  /// simulator (campaign: the cell list and the shared topologies).
  virtual void setup() = 0;
  /// The timed unit.
  virtual void run() = 0;
  /// Digest, counters and checks of the finished run.
  [[nodiscard]] virtual RepOutcome outcome() = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const WorkloadContext& ctx);

/// The canonical SimStats digest: every counter, the latency samples in
/// stored order, and the per-node vectors.
[[nodiscard]] std::uint64_t stats_digest(const sim::SimStats& stats);

}  // namespace ttdc::e2e
