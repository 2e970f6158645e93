// ttdc::runner — parallel simulation campaigns with deterministic results.
//
// A Campaign is a declarative list of cells (one simulation or evaluation
// each: a (schedule, seed) replicate, a battery run, one grid point of a
// parameter sweep). run() executes the cells on a team of workers pulling
// from a shared atomic queue (util::parallel_workers), run_serial() on a
// plain loop; both produce THE SAME aggregate, bit for bit, because:
//
//   * seeds are derived, not drawn: cell i's RNG seed is the i-th output of
//     SplitMix64(master_seed), fixed by the cell's position in the list and
//     independent of which worker runs it or in what order;
//   * cells write into pre-sized result slots, and the aggregate is merged
//     at the join barrier in cell-index order (SimStats::merge /
//     LatencyStats::merge are exact under a fixed fold order);
//   * shared artifacts (runner/cache.hpp) are pure functions of their keys,
//     so a cache hit equals a private rebuild;
//   * each cell records packet events into its own flight ring, dumped at
//     the barrier in cell-index order — never an interleaving, never a
//     data race on a shared ring.
//
// The determinism contract is what makes the parallelism trustworthy: a
// campaign's numbers can be compared across machines and worker counts, and
// bench_campaign's --perf-check gate enforces exactly that equality.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "runner/cache.hpp"
#include "runner/journal.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "util/timer.hpp"

namespace ttdc::runner {

class Campaign;

/// Thrown by CellContext::check_deadline() when a cell exhausts its
/// wall-clock budget; the runner quarantines the cell WITHOUT retrying (a
/// deterministic cell would only time out again).
class CellTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-cell execution context, handed to the cell body. Everything a cell
/// reads from it is either immutable for the campaign's duration
/// (index/name/seed, the artifact store) or private to the cell (the stats
/// accumulator and flight ring), so cell bodies need no synchronization of
/// their own.
class CellContext {
 public:
  /// Position of this cell in the campaign's list (also its result slot).
  [[nodiscard]] std::size_t index() const { return index_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// This cell's independent seed: the index()-th SplitMix64 output of the
  /// campaign master seed. Feed it to SimConfig::seed / topology
  /// generators; never mix the master seed in directly.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Campaign-wide artifact cache (thread-safe; see cache.hpp).
  [[nodiscard]] ArtifactStore& artifacts() const { return *artifacts_; }

  /// Campaign-level metrics registry, or nullptr when the campaign has
  /// none. Handles are atomic, so wiring it into SimConfig::metrics from
  /// many cells at once is safe, and the end-of-campaign snapshot is a sum
  /// over cells — order-independent by construction.
  [[nodiscard]] obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Folds a finished simulation's stats into this cell's contribution to
  /// the campaign aggregate (callable multiple times per cell).
  void record(const sim::SimStats& stats) { stats_.merge(stats); }

  /// Publishes a named scalar result (a grid point's duty cycle, a
  /// delivery ratio...). Kept in insertion order; surfaces in
  /// CampaignResult per cell and in the aggregate JSON.
  void metric(std::string key, double value) {
    metrics_out_.emplace_back(std::move(key), value);
  }

  /// This cell's private flight-recorder ring, or nullptr when the
  /// campaign has no flight capture configured. Cells wire it into
  /// SimConfig::recorder (never a shared ring, which would interleave
  /// workers); the campaign inspects the ring at the join barrier and
  /// dumps it only for outlier cells.
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const { return flight_.get(); }

  /// Which attempt this execution is (1 on the first try; retries replay
  /// the SAME seed, so a successful retry is bit-identical to a first-try
  /// success).
  [[nodiscard]] std::uint32_t attempt() const { return attempts_; }

  /// Watchdog probes (always false / no-op without a cell timeout). The
  /// watchdog is cooperative: long-running cell bodies call
  /// check_deadline() between simulation chunks; the runner additionally
  /// checks the budget after the body returns.
  [[nodiscard]] bool deadline_exceeded() const {
    return deadline_seconds_ > 0.0 && attempt_timer_.seconds() > deadline_seconds_;
  }
  /// Throws CellTimeout once the budget is exhausted.
  void check_deadline() const;

 private:
  friend class Campaign;
  std::size_t index_ = 0;
  std::string name_;
  std::uint64_t seed_ = 0;
  ArtifactStore* artifacts_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  sim::SimStats stats_;
  std::vector<std::pair<std::string, double>> metrics_out_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  // Resilience bookkeeping (owned by the runner, read-only to cell bodies).
  std::uint32_t attempts_ = 1;
  bool quarantined_ = false;
  bool done_ = false;  ///< set when resumed from a journal: skip execution
  std::string error_;
  double deadline_seconds_ = 0.0;
  util::Timer attempt_timer_;
};

using CellFn = std::function<void(CellContext&)>;

/// One cell's outcome, in campaign order.
struct CellResult {
  std::string name;
  sim::SimStats stats;
  std::vector<std::pair<std::string, double>> metrics;
  /// Attempts consumed (1 = first try succeeded; > 1 = retried).
  std::uint32_t attempts = 1;
  /// True when the cell exhausted its retries or timed out: its stats are
  /// EXCLUDED from the aggregate and the aggregate is flagged partial.
  bool quarantined = false;
  /// The final failure, when quarantined.
  std::string error;
  /// True when this cell was restored from the campaign journal instead of
  /// executing.
  bool resumed = false;
};

/// One outlier cell's captured flight ring, dumped at the join barrier.
struct FlightDump {
  std::size_t cell_index = 0;
  std::string cell_name;
  std::string path;     ///< JSONL file written under FlightCaptureOptions::dir
  std::string reason;   ///< human-readable trigger ("p99 latency 210 > 150")
  std::size_t events = 0;
};

struct CampaignResult {
  /// All non-quarantined cells' SimStats merged in cell-index order. When
  /// any cell is quarantined, aggregate.partial is true — a degraded
  /// campaign is explicitly flagged, never silently smaller.
  sim::SimStats aggregate;
  std::vector<CellResult> cells;
  /// Indices of quarantined cells (empty on a clean run).
  std::vector<std::size_t> quarantined;
  /// Cells restored from the journal instead of executing.
  std::size_t resumed_cells = 0;
  /// Flight rings dumped for outlier cells (cell-index order, capped at
  /// FlightCaptureOptions::max_dumps). Empty when capture is off or no
  /// cell tripped a trigger.
  std::vector<FlightDump> flight_dumps;
  double elapsed_seconds = 0.0;
  /// Workers requested for the run (1 for run_serial()).
  int workers = 1;

  /// Canonical JSON of everything deterministic: per-cell scalar metrics
  /// (in cell order) and the aggregate counters + latency summary. Doubles
  /// print at max_digits10, so string equality == bit equality. Timing is
  /// deliberately excluded; two runs of the same campaign at any worker
  /// counts must produce identical strings (tested, and enforced by
  /// bench_campaign --perf-check).
  [[nodiscard]] std::string aggregate_json() const;
};

/// Post-mortem capture for outlier cells: every cell records into a
/// private flight ring, and at the join barrier the campaign dumps the
/// rings of cells that tripped a trigger — the slow tail explains itself
/// without rerunning. Triggers with value 0 are disabled.
struct FlightCaptureOptions {
  /// Per-cell ring capacity in events (bounded memory per worker).
  std::size_t ring_capacity = 1 << 16;
  /// Directory for dump files (`flight_<index>_<name>.jsonl`). It must
  /// exist: run() and run_serial() throw std::invalid_argument before any
  /// cell runs when it does not, and std::runtime_error at the barrier
  /// when a dump cannot be written.
  std::string dir = ".";
  /// Dump a cell whose p99 end-to-end latency (slots) exceeds this.
  double latency_p99_threshold = 0.0;
  /// Dump a cell whose delivery ratio falls below this.
  double min_delivery_ratio = 0.0;
  /// At most this many dumps per run (worst offenders by cell order).
  std::size_t max_dumps = 4;
};

/// Harness resilience: retries, watchdog, quarantine, checkpoint journal.
/// All off by default — a campaign without ResilienceOptions behaves
/// exactly as before.
struct ResilienceOptions {
  /// Maximum executions per cell (1 = fail immediately). A failed attempt
  /// is retried with the SAME derived seed, so a flaky-environment failure
  /// (OOM kill recovered, filesystem hiccup) reruns bit-identically; after
  /// the last attempt the cell is quarantined.
  int max_attempts = 3;
  /// Backoff before retry k is `backoff_base_seconds * 2^(k-1)` (capped at
  /// backoff_max_seconds). Wall-clock only; never affects results.
  double backoff_base_seconds = 0.01;
  double backoff_max_seconds = 1.0;
  /// Per-cell wall-clock watchdog; 0 disables. Cooperative
  /// (CellContext::check_deadline) plus a post-hoc check when the body
  /// returns. A timed-out cell is quarantined WITHOUT retry. Wall-clock
  /// dependent — keep it out of campaigns gated on bit-identity.
  double cell_timeout_seconds = 0.0;
  /// Checkpoint journal path; empty disables journaling. Every completed
  /// (or quarantined) cell appends one checksummed line; see journal.hpp.
  std::string journal_path;
  /// When true and journal_path holds a journal matching this campaign's
  /// identity, its cells are restored instead of executed — kill-and-resume
  /// with a bit-identical final aggregate. When false the journal is
  /// overwritten.
  bool resume = true;
};

struct CampaignOptions {
  /// Master seed; cell i derives its own via SplitMix64 (see
  /// CellContext::seed).
  std::uint64_t master_seed = 0x5eed;
  /// Retry / watchdog / quarantine / checkpoint-resume behavior; absent =
  /// fail-fast (any cell exception propagates), no journal.
  std::optional<ResilienceOptions> resilience;
  /// When set, arms per-cell flight recorders and dumps outlier cells'
  /// rings at the barrier (see FlightCaptureOptions).
  std::optional<FlightCaptureOptions> flight_capture;
  /// Worker team size for run(). 0 = $TTDC_NUM_THREADS when set to a whole
  /// number in 1..1024, else the OpenMP default
  /// (util::hardware_parallelism); the variable unset, empty or "0" means
  /// that default too.
  int num_workers = 0;
  /// Optional campaign-level metrics registry (see CellContext::metrics).
  obs::MetricsRegistry* metrics = nullptr;
};

class Campaign {
 public:
  explicit Campaign(CampaignOptions options = {});

  /// Appends a cell; the position in the list fixes its seed.
  void add(std::string name, CellFn fn);

  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  [[nodiscard]] ArtifactStore& artifacts() { return *artifacts_; }

  /// Executes all cells on a worker team pulling cell indices from a
  /// shared atomic counter; merges at the barrier.
  [[nodiscard]] CampaignResult run();

  /// Reference executor: same cells, same seeds, one plain loop. The
  /// comparator for the speedup and equality gates.
  [[nodiscard]] CampaignResult run_serial();

  /// The worker count run() will use (options resolved against the
  /// environment). Throws std::invalid_argument naming TTDC_NUM_THREADS
  /// and its value when the variable holds anything else than unset,
  /// empty or a whole decimal in 0..1024.
  [[nodiscard]] int resolved_workers() const;

 private:
  struct Cell {
    std::string name;
    CellFn fn;
  };

  void run_cell(std::size_t index, CellContext& ctx);
  void run_cell_resilient(std::size_t index, CellContext& ctx);
  void execute_cell_body(std::size_t index, CellContext& ctx);
  /// Restores journaled cells into `contexts` and opens the journal for
  /// appending (no-op without ResilienceOptions::journal_path).
  void prepare_journal(std::vector<CellContext>& contexts);
  [[nodiscard]] JournalIdentity identity() const;
  CampaignResult merge(std::vector<CellContext>& contexts, double elapsed, int workers);

  CampaignOptions options_;
  std::vector<Cell> cells_;
  std::vector<std::uint64_t> seeds_;
  // Heap-pinned (ArtifactStore owns a mutex and is immovable) so Campaign
  // itself stays movable and cells' cached &artifacts() stay valid.
  std::unique_ptr<ArtifactStore> artifacts_;
  // Live checkpoint journal for the current run (heap-pinned: owns a mutex).
  std::unique_ptr<CampaignJournal> journal_;
};

}  // namespace ttdc::runner
