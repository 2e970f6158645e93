#include "runner/runner.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "obs/flight_query.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace ttdc::runner {

void CellContext::check_deadline() const {
  if (deadline_exceeded()) {
    throw CellTimeout("cell '" + name_ + "' exceeded its " +
                      std::to_string(deadline_seconds_) + "s watchdog budget");
  }
}

Campaign::Campaign(CampaignOptions options)
    : options_(std::move(options)), artifacts_(std::make_unique<ArtifactStore>()) {}

void Campaign::add(std::string name, CellFn fn) {
  cells_.push_back(Cell{std::move(name), std::move(fn)});
  // seed_i is the i-th SplitMix64 output of the master seed — a function of
  // (master_seed, i) only, so appending cells never perturbs earlier seeds.
  util::SplitMix64 sm(options_.master_seed);
  seeds_.resize(cells_.size());
  for (auto& s : seeds_) s = sm.next();
}

int Campaign::resolved_workers() const {
  if (options_.num_workers > 0) return options_.num_workers;
  if (const char* env = std::getenv("TTDC_NUM_THREADS"); env != nullptr && *env != '\0') {
    // A whole decimal in 1..1024, the range ttdc-campaign --workers takes;
    // "0" means auto like an unset variable. Anything else would reach the
    // OpenMP team size, so it is an error rather than a guess.
    const std::string_view text(env);
    int parsed = 0;
    const auto [next, ec] = std::from_chars(text.data(), text.data() + text.size(), parsed);
    if (ec != std::errc{} || next != text.data() + text.size() || parsed < 0 ||
        parsed > 1024) {
      throw std::invalid_argument("TTDC_NUM_THREADS='" + std::string(text) +
                                  "': expected a whole number of worker threads in 0..1024");
    }
    if (parsed > 0) return parsed;
  }
  return util::hardware_parallelism();
}

void Campaign::execute_cell_body(std::size_t index, CellContext& ctx) {
  ctx.index_ = index;
  ctx.name_ = cells_[index].name;
  ctx.seed_ = seeds_[index];
  ctx.artifacts_ = artifacts_.get();
  if (options_.flight_capture) {
    ctx.flight_ =
        std::make_unique<obs::FlightRecorder>(options_.flight_capture->ring_capacity);
  }
  if (options_.resilience) {
    ctx.deadline_seconds_ = options_.resilience->cell_timeout_seconds;
  }
  ctx.attempt_timer_.restart();
  cells_[index].fn(ctx);
}

void Campaign::run_cell(std::size_t index, CellContext& ctx) {
  TTDC_PROF_SCOPE("runner.run_cell");
  if (ctx.done_) return;  // restored from the journal
  if (!options_.resilience) {
    // Fail-fast legacy path: exceptions propagate out of the run.
    execute_cell_body(index, ctx);
    return;
  }
  run_cell_resilient(index, ctx);
  if (journal_) {
    JournalEntry entry;
    entry.index = index;
    entry.attempts = ctx.attempts_;
    entry.quarantined = ctx.quarantined_;
    entry.error = ctx.error_;
    entry.stats = ctx.stats_;
    entry.metrics = ctx.metrics_out_;
    journal_->append(entry);
  }
}

void Campaign::run_cell_resilient(std::size_t index, CellContext& ctx) {
  const ResilienceOptions& res = *options_.resilience;
  const int max_attempts = std::max(1, res.max_attempts);
  const auto quarantine = [&](const std::string& why) {
    // Discard any half-built contribution: a quarantined cell must be
    // absent from the aggregate entirely (and flagged), never half-counted.
    ctx.stats_ = sim::SimStats{};
    ctx.metrics_out_.clear();
    ctx.quarantined_ = true;
    ctx.error_ = why;
  };
  for (int attempt = 1;; ++attempt) {
    // A fresh context per attempt: retries replay the cell's derived seed
    // against clean accumulators, so a successful retry is bit-identical
    // to a first-try success.
    ctx = CellContext{};
    ctx.attempts_ = static_cast<std::uint32_t>(attempt);
    try {
      execute_cell_body(index, ctx);
      if (ctx.deadline_exceeded()) {
        quarantine("cell '" + cells_[index].name + "' exceeded its " +
                   std::to_string(res.cell_timeout_seconds) + "s watchdog budget");
      }
      return;
    } catch (const CellTimeout& e) {
      // Deterministic cells time out deterministically; retrying would
      // only burn another budget. Straight to quarantine.
      quarantine(e.what());
      return;
    } catch (const std::exception& e) {
      if (attempt >= max_attempts) {
        quarantine(e.what());
        return;
      }
    } catch (...) {
      if (attempt >= max_attempts) {
        quarantine("unknown error");
        return;
      }
    }
    // Exponential backoff before the retry (wall-clock only; results are
    // unaffected by how long we waited).
    const double delay = std::min(res.backoff_base_seconds * static_cast<double>(1 << (attempt - 1)),
                                  res.backoff_max_seconds);
    if (delay > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
  }
}

JournalIdentity Campaign::identity() const {
  std::vector<std::string> names;
  names.reserve(cells_.size());
  for (const Cell& c : cells_) names.push_back(c.name);
  return JournalIdentity{options_.master_seed, cells_.size(), names_digest(names)};
}

void Campaign::prepare_journal(std::vector<CellContext>& contexts) {
  journal_.reset();
  if (!options_.resilience || options_.resilience->journal_path.empty()) return;
  const JournalIdentity id = identity();
  CampaignJournal::LoadResult prior;
  if (options_.resilience->resume) {
    prior = CampaignJournal::load(options_.resilience->journal_path, id);
  }
  // Open (and rewrite the valid prefix of) the journal BEFORE consuming the
  // loaded entries — the rewrite is what truncates a SIGKILL-torn tail.
  journal_ = std::make_unique<CampaignJournal>(options_.resilience->journal_path, id, prior);
  for (auto& [index, entry] : prior.entries) {
    CellContext& ctx = contexts[index];
    ctx.index_ = index;
    ctx.name_ = cells_[index].name;
    ctx.seed_ = seeds_[index];
    ctx.stats_ = std::move(entry.stats);
    ctx.metrics_out_ = std::move(entry.metrics);
    ctx.attempts_ = entry.attempts;
    ctx.quarantined_ = entry.quarantined;
    ctx.error_ = std::move(entry.error);
    ctx.done_ = true;
  }
}

namespace {

/// Rejects a flight-capture directory that is not an existing directory,
/// before any cell runs: the rings are the campaign's only event capture,
/// so an outlier must never go undumped for want of a place to write it.
void require_flight_dir(const std::optional<FlightCaptureOptions>& capture) {
  std::error_code ec;
  if (capture && !std::filesystem::is_directory(capture->dir, ec)) {
    throw std::invalid_argument("flight capture: '" + capture->dir +
                                "' is not an existing directory");
  }
}

std::string sanitize_for_filename(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    if (!keep) c = '_';
  }
  return out;
}

/// Returns a non-empty trigger description if `stats` makes the cell an
/// outlier under `opt`.
std::string outlier_reason(const FlightCaptureOptions& opt, const sim::SimStats& stats) {
  std::ostringstream os;
  if (opt.latency_p99_threshold > 0.0) {
    // percentile() reorders the samples it reads, and `stats` is the cell's
    // record: query a copy.
    const sim::LatencyStats latency = stats.latency;
    const double p99 = static_cast<double>(latency.percentile(99));
    if (p99 > opt.latency_p99_threshold) {
      os << "p99 latency " << p99 << " > " << opt.latency_p99_threshold;
      return os.str();
    }
  }
  if (opt.min_delivery_ratio > 0.0 && stats.delivery_ratio() < opt.min_delivery_ratio) {
    os << "delivery ratio " << stats.delivery_ratio() << " < " << opt.min_delivery_ratio;
    return os.str();
  }
  return {};
}

}  // namespace

CampaignResult Campaign::merge(std::vector<CellContext>& contexts, double elapsed,
                               int workers) {
  CampaignResult result;
  result.elapsed_seconds = elapsed;
  result.workers = workers;
  result.cells.reserve(contexts.size());
  for (auto& ctx : contexts) {
    if (ctx.done_) ++result.resumed_cells;
    if (ctx.quarantined_) {
      // A quarantined cell contributes NOTHING to the aggregate; the
      // aggregate is flagged partial instead of being silently smaller.
      result.quarantined.push_back(ctx.index_);
      result.aggregate.partial = true;
    } else {
      // Fixed fold order (cell index) regardless of completion order: this
      // is what makes the double-summed aggregates bit-identical across
      // worker counts.
      result.aggregate.merge(ctx.stats_);
    }
    if (options_.flight_capture && ctx.flight_ != nullptr &&
        result.flight_dumps.size() < options_.flight_capture->max_dumps) {
      const std::string reason = outlier_reason(*options_.flight_capture, ctx.stats_);
      if (!reason.empty()) {
        FlightDump dump;
        dump.cell_index = ctx.index_;
        dump.cell_name = ctx.name_;
        dump.reason = reason;
        const std::vector<obs::FlightEvent> events = ctx.flight_->events();
        dump.events = events.size();
        dump.path = options_.flight_capture->dir + "/flight_" +
                    std::to_string(ctx.index_) + "_" + sanitize_for_filename(ctx.name_) +
                    ".jsonl";
        if (!obs::write_flight_jsonl_file(dump.path, events)) {
          throw std::runtime_error("flight capture: cannot write " + dump.path);
        }
        result.flight_dumps.push_back(std::move(dump));
      }
    }
    CellResult cell;
    cell.name = std::move(ctx.name_);
    cell.stats = std::move(ctx.stats_);
    cell.metrics = std::move(ctx.metrics_out_);
    cell.attempts = ctx.attempts_;
    cell.quarantined = ctx.quarantined_;
    cell.error = std::move(ctx.error_);
    cell.resumed = ctx.done_;
    result.cells.push_back(std::move(cell));
  }
  return result;
}

CampaignResult Campaign::run() {
  require_flight_dir(options_.flight_capture);
  const int workers = resolved_workers();
  util::Timer timer;
  std::vector<CellContext> contexts(cells_.size());
  prepare_journal(contexts);
  std::atomic<std::size_t> next{0};
  util::parallel_workers(workers, [&](std::size_t) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= contexts.size()) break;
      run_cell(i, contexts[i]);
    }
  });
  return merge(contexts, timer.seconds(), workers);
}

CampaignResult Campaign::run_serial() {
  require_flight_dir(options_.flight_capture);
  util::Timer timer;
  std::vector<CellContext> contexts(cells_.size());
  prepare_journal(contexts);
  for (std::size_t i = 0; i < contexts.size(); ++i) run_cell(i, contexts[i]);
  return merge(contexts, timer.seconds(), 1);
}

std::string CampaignResult::aggregate_json() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) os << ',';
    os << "{\"name\":" << obs::json_string(cells[i].name) << ",\"metrics\":{";
    for (std::size_t m = 0; m < cells[i].metrics.size(); ++m) {
      if (m != 0) os << ',';
      os << obs::json_string(cells[i].metrics[m].first) << ':'
         << obs::json_scalar(cells[i].metrics[m].second);
    }
    os << "}}";
  }
  const sim::SimStats& a = aggregate;
  os << "],\"aggregate\":{";
  // The key order predates kCounterFields and its bytes are pinned: deaths
  // comes before first_death_slot, which reads null while nobody has died.
  const char* sep = "";
  for (const sim::CounterField& c : sim::kCounterFields) {
    if (c.field == &sim::SimStats::first_death_slot) continue;  // follows deaths
    os << sep << '"' << c.name << "\":" << a.*c.field;
    sep = ",";
    if (c.field == &sim::SimStats::deaths) {
      os << ",\"first_death_slot\":";
      if (a.first_death_slot == ~std::uint64_t{0}) {
        os << "null";
      } else {
        os << a.first_death_slot;
      }
    }
  }
  os << ",\"partial\":" << (a.partial ? "true" : "false")
     << ",\"latency\":{\"count\":" << a.latency.count()
     << ",\"mean\":" << obs::json_scalar(a.latency.mean())
     << ",\"p50\":" << a.latency.percentile(50) << ",\"p95\":" << a.latency.percentile(95)
     << ",\"max\":" << a.latency.max() << "}},\"quarantined\":[";
  for (std::size_t i = 0; i < quarantined.size(); ++i) {
    if (i != 0) os << ',';
    os << quarantined[i];
  }
  os << "]}";
  return os.str();
}

}  // namespace ttdc::runner
