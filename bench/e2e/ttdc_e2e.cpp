// ttdc_e2e — the end-to-end benchmark harness (bench/e2e/README.md).
//
//   ttdc_e2e --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//            [--expected FILE] [--out-dir DIR] [--scratch-dir DIR]
//            [--git-sha SHA]
//
// Runs ONE workload in this process: an untimed warm-up rep, then timed
// reps (a fresh set-up followed by the timed unit) for --seconds of
// measurement, or a fixed number of reps without --seconds. Each rep's
// output is checked against the digest of the first rep and, for the seeds
// recorded in --expected, against the committed digest.
//
// Untraced (--trace 0) it reports the end-to-end metrics: the median
// set-up time, the best timed-unit time and the best simulated-slots rate
// over the run's reps, and the process's peak RSS. Traced (--trace 1) it
// spends half the budget on untraced reps and half on reps under the
// harness's spans and an obs::ProfilerSession, and reports the per-layer
// ledger (medians over the traced reps) and the tracing overhead;
// end-to-end metrics are never read from traced reps.
//
// Every metric prints as `<workload>.<name> <value> <unit>`; the last line
// of stdout is one JSON object {correct, attempted, failed, metrics}. Exit
// status is 0 only when every check passed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace {

using namespace ttdc;
using e2e::ProfTable;
using e2e::RepOutcome;
using e2e::SpanLog;

constexpr int kCampaignMaxWorkers = 4;
// setup_s is a median over every set-up of the run; workloads with a cheap
// set-up top the sample up to this many with set-up-only reps.
constexpr std::size_t kMinSetupSamples = 21;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  // 0: run a fixed rep count instead
  int reps = 0;          // used without --seconds
  bool warmup = true;
  bool trace = false;
  std::string expected_path;
  std::string out_dir;
  std::string scratch_dir;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ttdc_e2e: " << why
            << "\nusage: ttdc_e2e --workload lifetime|saturated|metro|campaign [--seed S]"
               " [--seconds T] [--trace 0|1] [--smoke] [--expected FILE]"
               " [--out-dir DIR] [--scratch-dir DIR] [--git-sha SHA]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options opt;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value);
      if (s == 0 || s > 600) usage("--seconds must be in [1, 600]");
      opt.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--expected") {
      opt.expected_path = value;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else if (flag == "--scratch-dir") {
      opt.scratch_dir = value;
    } else if (flag == "--git-sha") {
      opt.git_sha = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = e2e::workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    usage("unknown or missing --workload '" + opt.workload + "'");
  }
  if (smoke) {
    opt.reps = 1;
    opt.seconds = 0.0;
    opt.warmup = false;
  } else {
    // About 10 s of measurement per workload.
    const std::map<std::string, int> defaults = {
        {"lifetime", 5}, {"saturated", 7}, {"metro", 4}, {"campaign", 5}};
    opt.reps = defaults.at(opt.workload);
  }
  if (opt.out_dir.empty()) opt.out_dir = ".";
  if (opt.scratch_dir.empty()) opt.scratch_dir = opt.out_dir;
  return opt;
}

// --- host provenance -------------------------------------------------------

struct Host {
  int cores = 1;
  std::string cpu = "unknown";
};

Host probe_host() {
  Host host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) host.cores = CPU_COUNT(&set);
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        host.cpu = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  return host;
}

/// bench/e2e/expected.txt: the host the committed numbers were recorded on
/// and the expected output digests.
///   host.cores <n>
///   host.cpu <model name>
///   digest <workload> <seed> <0x...>
struct Expected {
  std::optional<int> cores;
  std::optional<std::string> cpu;
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> digests;
};

Expected load_expected(const std::string& path) {
  Expected e;
  if (path.empty()) return e;
  std::ifstream in(path);
  if (!in) usage("cannot read --expected " + path);
  for (std::string line; std::getline(in, line);) {
    std::istringstream is(line);
    std::string key;
    if (!(is >> key) || key[0] == '#') continue;
    if (key == "host.cores") {
      int cores = 0;
      if (is >> cores) e.cores = cores;
    } else if (key == "host.cpu") {
      std::string rest;
      std::getline(is >> std::ws, rest);
      e.cpu = rest;
    } else if (key == "digest") {
      std::string workload, digest;
      std::uint64_t seed = 0;
      if (is >> workload >> seed >> digest) {
        e.digests[{workload, seed}] = std::strtoull(digest.c_str(), nullptr, 16);
      }
    }
  }
  return e;
}

// --- statistics ------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- reps ------------------------------------------------------------------

struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  RepOutcome outcome;
  ProfTable prof;  // traced reps: this rep's profiler accounting
  std::size_t span_begin = 0, span_end = 0;  // traced reps: records in the log
};

Rep run_rep(const std::string& name, const e2e::WorkloadContext& ctx) {
  Rep rep;
  const std::unique_ptr<e2e::Workload> workload = e2e::make_workload(name, ctx);
  util::Timer timer;
  {
    e2e::Span span(ctx.spans, "e2e.setup");
    workload->setup();
  }
  rep.setup_s = timer.seconds();
  timer.restart();
  {
    e2e::Span span(ctx.spans, "e2e.run");
    workload->run();
  }
  rep.wall_s = timer.seconds();
  rep.outcome = workload->outcome();
  return rep;
}

double setup_only(const std::string& name, const e2e::WorkloadContext& ctx) {
  const std::unique_ptr<e2e::Workload> workload = e2e::make_workload(name, ctx);
  util::Timer timer;
  workload->setup();
  return timer.seconds();
}

/// Moves the calling thread to the next CPU of the process's affinity mask
/// before each rep of a single-threaded workload, and restores the mask at
/// scope exit. On a shared VM one vCPU can run ~1.7x slower than its
/// siblings for tens of seconds (another tenant on the same host core); a
/// process left on that vCPU would time it, not the code. With reps spread
/// over every CPU, the best rep measures the code.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    CPU_ZERO(&original_);
    if (!enabled || sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The per-layer ledger of one traced rep. The first block is universal
/// (every workload reports it; BENCHMARK.json lists it); `runner_out`
/// receives the campaign pool's own timings, which exist only there.
std::vector<Metric> ledger(const Rep& rep, const std::vector<SpanLog::Record>& records,
                           int workers, std::vector<Metric>& runner_out) {
  const auto entry = [&](const std::string& n) {
    const auto it = rep.prof.find(n);
    return it == rep.prof.end() ? e2e::ProfEntry{} : it->second;
  };
  const auto total = [&](const std::string& n) { return entry(n).total_s; };
  const auto self = [&](const std::string& n) { return entry(n).self_s; };
  const RepOutcome& o = rep.outcome;
  const double stepped = static_cast<double>(entry("sim.step").calls);
  const auto ns_per_slot = [&](double seconds) { return ratio(seconds * 1e9, stepped); };
  double mac_fill_s = 0.0;
  for (const auto& [n, e] : rep.prof) {
    if (n.rfind("mac.fill_slot_sets.", 0) == 0) mac_fill_s += e.self_s;
  }
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const double slots = count(o.stats.slots_run);
  std::vector<Metric> m = {
      {"net.topology_s", total("net.topology"), "s"},
      {"net.routing.columns", count(entry("net.routing.build_column").calls), "count"},
      {"net.routing.build_column_s", total("net.routing.build_column"), "s"},
      {"comb.family_s", total("comb.family"), "s"},
      {"core.non_sleeping_s", total("core.non_sleeping"), "s"},
      {"core.construct_s", total("core.construct"), "s"},
      {"core.frame_length", count(o.frame_length), "slots"},
      {"sim.ctor_s", total("sim.ctor"), "s"},
      {"sim.run_s", total("sim.run"), "s"},
      {"sim.run.unstepped_s", std::max(0.0, total("sim.run") - total("sim.step")), "s"},
      {"sim.slots_stepped", stepped, "slots"},
      {"sim.slots_replayed", count(o.ff.slots_replayed), "slots"},
      {"sim.step.ns_per_slot", ns_per_slot(total("sim.step")), "ns/slot"},
      {"sim.step.self.ns_per_slot", ns_per_slot(self("sim.step")), "ns/slot"},
      {"sim.step.traffic.ns_per_slot", ns_per_slot(self("sim.step.traffic")), "ns/slot"},
      {"sim.mac.fill.ns_per_slot", ns_per_slot(mac_fill_s), "ns/slot"},
      {"sim.step.collect.ns_per_slot", ns_per_slot(self("sim.step.collect")), "ns/slot"},
      {"sim.step.resolve.ns_per_slot", ns_per_slot(self("sim.step.resolve")), "ns/slot"},
      {"sim.step.energy.ns_per_slot", ns_per_slot(self("sim.step.energy")), "ns/slot"},
      {"sim.transmissions_per_slot", ratio(count(o.stats.transmissions), slots), "ratio"},
      {"sim.hop_success_ratio", ratio(count(o.stats.hop_successes), count(o.stats.transmissions)),
       "ratio"},
      {"sim.delivery_ratio", ratio(count(o.stats.delivered), count(o.stats.generated)), "ratio"},
      {"ff.replayed_fraction", ratio(count(o.ff.slots_replayed), slots), "ratio"},
      {"ff.frames_replayed", count(o.ff.frames_replayed), "count"},
      {"ff.frames_recorded", count(o.ff.frames_recorded), "count"},
      {"ff.frames_discarded", count(o.ff.frames_discarded), "count"},
      {"ff.memo_evictions", count(o.ff.memo_evictions), "count"},
      {"ff.fallback_arrival", count(o.ff.fallback_arrival), "count"},
      {"ff.fallback_battery", count(o.ff.fallback_battery), "count"},
      {"ff.fallback_verify", count(o.ff.fallback_verify), "count"},
      {"ff.replays_per_recording",
       ratio(count(o.ff.frames_replayed), count(o.ff.frames_recorded)), "ratio"},
      {"runner.artifact_hits", count(o.artifact_hits), "count"},
      {"runner.artifact_misses", count(o.artifact_misses), "count"},
      {"runner.journal_bytes", count(o.journal_bytes), "bytes"},
  };

  // Campaign pool timings, from the harness's own cell spans.
  const SpanLog::Record* campaign = nullptr;
  int campaign_id = -1;
  for (std::size_t i = rep.span_begin; i < rep.span_end; ++i) {
    if (records[i].name == "runner.campaign") {
      campaign = &records[i];
      campaign_id = static_cast<int>(i);
    }
  }
  if (campaign != nullptr) {
    std::vector<double> cell_ms;
    double busy_s = 0.0;
    std::int64_t first_start = campaign->end_ns, last_end = campaign->start_ns;
    for (std::size_t i = rep.span_begin; i < rep.span_end; ++i) {
      const SpanLog::Record& r = records[i];
      if (r.name != "runner.cell" || r.parent != campaign_id) continue;
      cell_ms.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-6);
      busy_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
      first_start = std::min(first_start, r.start_ns);
      last_end = std::max(last_end, r.end_ns);
    }
    const double campaign_s = static_cast<double>(campaign->end_ns - campaign->start_ns) * 1e-9;
    if (!cell_ms.empty()) {
      runner_out = {
          {"runner.cells", static_cast<double>(cell_ms.size()), "count"},
          {"runner.cell_ms_p50", quantile(cell_ms, 0.5), "ms"},
          {"runner.cell_ms_p90", quantile(cell_ms, 0.9), "ms"},
          {"runner.busy_frac", ratio(busy_s, workers * campaign_s), "ratio"},
          {"runner.dispatch_s", static_cast<double>(first_start - campaign->start_ns) * 1e-9, "s"},
          {"runner.barrier_s", static_cast<double>(campaign->end_ns - last_end) * 1e-9, "s"},
          {"runner.run_cell.self_s", self("runner.run_cell"), "s"},
      };
    }
  }
  return m;
}

/// Medians, metric by metric, over per-rep metric lists of identical shape.
std::vector<Metric> median_metrics(const std::vector<std::vector<Metric>>& per_rep) {
  std::vector<Metric> out;
  if (per_rep.empty()) return out;
  for (std::size_t k = 0; k < per_rep.front().size(); ++k) {
    std::vector<double> values;
    for (const auto& rep : per_rep) values.push_back(rep[k].value);
    out.push_back({per_rep.front()[k].name, median(values), per_rep.front()[k].unit});
  }
  return out;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) os << ", ";
    os << obs::json_string(metrics[i].name)
       << ": {\"value\": " << obs::json_scalar(metrics[i].value)
       << ", \"unit\": " << obs::json_string(metrics[i].unit) << '}';
  }
  os << '}';
  return os.str();
}

std::string json_samples(const std::string& name, const std::vector<double>& v) {
  std::ostringstream os;
  os << obs::json_string(name) << ": {\"n\": " << v.size();
  if (!v.empty()) {
    os << ", \"min\": " << obs::json_scalar(quantile(v, 0.0))
       << ", \"p25\": " << obs::json_scalar(quantile(v, 0.25))
       << ", \"median\": " << obs::json_scalar(quantile(v, 0.5))
       << ", \"p75\": " << obs::json_scalar(quantile(v, 0.75))
       << ", \"max\": " << obs::json_scalar(quantile(v, 1.0));
  }
  os << '}';
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Expected expected = load_expected(opt.expected_path);
  const Host host = probe_host();
  const std::string& name = opt.workload;
  std::error_code dir_error;
  std::filesystem::create_directories(opt.scratch_dir, dir_error);
  std::filesystem::create_directories(opt.out_dir, dir_error);

  e2e::WorkloadContext ctx;
  ctx.seed = opt.seed;
  ctx.workers = std::min(kCampaignMaxWorkers, host.cores);
  ctx.scratch_dir = opt.scratch_dir;

  // Output check: every rep must reproduce the committed digest for this
  // (workload, seed) when one is recorded, else the run's first digest.
  std::optional<std::uint64_t> reference;
  if (const auto it = expected.digests.find({name, opt.seed}); it != expected.digests.end()) {
    reference = it->second;
  }
  const bool reference_committed = reference.has_value();
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::optional<RepOutcome> last_outcome;
  const auto attempt = [&](SpanLog* spans) -> std::optional<Rep> {
    ++attempted;
    e2e::WorkloadContext rep_ctx = ctx;
    rep_ctx.spans = spans;
    try {
      Rep rep = run_rep(name, rep_ctx);
      attempted += rep.outcome.cells;
      failed += rep.outcome.failed_cells;
      if (!reference) reference = rep.outcome.digest;
      if (rep.outcome.digest != *reference) {
        ++failed;
        errors.push_back("digest " + hex(rep.outcome.digest) + " != expected " +
                         hex(*reference));
      } else if (rep.outcome.failed_cells != 0 || rep.outcome.stats.partial) {
        ++failed;
        errors.push_back(std::to_string(rep.outcome.failed_cells) + " quarantined cells");
      }
      last_outcome = rep.outcome;
      return rep;
    } catch (const std::exception& e) {
      ++failed;
      errors.push_back(std::string("rep failed: ") + e.what());
      return std::nullopt;
    }
  };
  // The campaign's worker team needs every CPU; the others are one thread.
  CpuRotation rotation(name != "campaign");
  // Runs reps until the time budget (or rep count) is spent; at least one.
  const auto measure = [&](double budget_s, int count, SpanLog* spans) {
    std::vector<Rep> reps;
    util::Timer timer;
    do {
      rotation.next();
      const std::size_t span_begin = spans != nullptr ? spans->size() : 0;
      const ProfTable before = spans != nullptr ? e2e::profiler_snapshot() : ProfTable{};
      std::optional<Rep> rep = attempt(spans);
      if (rep) {
        if (spans != nullptr) {
          rep->prof = e2e::profiler_delta(e2e::profiler_snapshot(), before);
          rep->span_begin = span_begin;
          rep->span_end = spans->size();
        }
        reps.push_back(std::move(*rep));
      }
    } while (budget_s > 0.0 ? timer.seconds() < budget_s
                            : static_cast<int>(reps.size()) < count && failed == 0);
    return reps;
  };

  double warmup_s = 0.0;
  if (opt.warmup) {
    util::Timer timer;
    attempt(nullptr);
    warmup_s = timer.seconds();
  }

  std::string host_mismatch;
  if (expected.cores && *expected.cores != host.cores && name == "campaign") {
    host_mismatch = "nproc " + std::to_string(host.cores) + " != baseline host's " +
                    std::to_string(*expected.cores) + " (campaign workers " +
                    std::to_string(ctx.workers) + ")";
  }
  if (expected.cpu && *expected.cpu != host.cpu) {
    if (!host_mismatch.empty()) host_mismatch += "; ";
    host_mismatch += "cpu '" + host.cpu + "' != baseline host's '" + *expected.cpu + "'";
  }

  std::vector<Metric> metrics;  // the JSON line's metrics
  std::vector<Metric> extra;    // printed and reported, not in BENCHMARK.json
  std::ostringstream samples;
  std::vector<std::string> trace_violations;
  std::string report_name = "BENCH_e2e." + name;

  if (!opt.trace) {
    util::Timer measured;
    const std::vector<Rep> reps = measure(opt.seconds, opt.reps, nullptr);
    const double extra_budget = 0.1 * measured.seconds();
    std::vector<double> setups, walls, rates;
    for (const Rep& r : reps) {
      setups.push_back(r.setup_s);
      walls.push_back(r.wall_s);
      rates.push_back(ratio(static_cast<double>(r.outcome.stats.slots_run), r.wall_s));
    }
    // Cheap set-ups are noisy at the millisecond scale: top the sample up
    // with set-up-only reps, within a tenth of the time measured so far.
    util::Timer extra_timer;
    while (!reps.empty() && failed == 0 && setups.size() < kMinSetupSamples &&
           extra_timer.seconds() < extra_budget) {
      try {
        rotation.next();
        setups.push_back(setup_only(name, ctx));
      } catch (const std::exception& e) {
        ++attempted;
        ++failed;
        errors.push_back(std::string("set-up failed: ") + e.what());
      }
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    if (!reps.empty()) {
      metrics = {{"setup_s", median(setups), "s"},
                 {"wall_s", quantile(walls, 0.0), "s"},
                 {"slots_per_s", quantile(rates, 1.0), "slots/s"},
                 {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"}};
      samples << json_samples("setup_s", setups) << ", " << json_samples("wall_s", walls)
              << ", " << json_samples("slots_per_s", rates);
    }
    extra = {{"warmup_s", warmup_s, "s"},
             {"reps", static_cast<double>(reps.size()), "count"},
             {"failed_frac", ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              "ratio"}};
  } else {
    report_name += ".trace";
    const double half = opt.seconds / 2.0;
    const std::vector<Rep> plain = measure(half, 1, nullptr);
    SpanLog log;
    std::vector<Rep> traced;
    {
      obs::ProfilerSession session;
      traced = measure(half, 1, &log);
    }
    const std::vector<SpanLog::Record> records = log.records();
    std::vector<std::vector<Metric>> per_rep, runner_per_rep;
    std::vector<double> plain_walls, traced_walls;
    for (const Rep& r : plain) plain_walls.push_back(r.wall_s);
    for (const Rep& r : traced) {
      traced_walls.push_back(r.wall_s);
      std::vector<Metric> runner;
      per_rep.push_back(ledger(r, records, ctx.workers, runner));
      if (!runner.empty()) runner_per_rep.push_back(std::move(runner));
    }
    if (!plain.empty() && !traced.empty()) {
      metrics = median_metrics(per_rep);
      metrics.push_back(
          {"obs.trace_overhead", quantile(traced_walls, 0.0) / quantile(plain_walls, 0.0) - 1.0,
           "ratio"});
      samples << json_samples("wall_s.untraced", plain_walls) << ", "
              << json_samples("wall_s.traced", traced_walls);
    }
    extra = median_metrics(runner_per_rep);
    const std::string trace_path = opt.out_dir + "/e2e_trace." + name + ".json";
    trace_violations = e2e::write_trace(trace_path, log);
    for (const std::string& v : trace_violations) errors.push_back("trace: " + v);
  }

  const bool correct = failed == 0 && trace_violations.empty() && !metrics.empty();
  const std::string status = !correct ? "failed" : host_mismatch.empty() ? "ok" : "host_mismatch";

  // Human-readable lines.
  std::cout.precision(12);
  for (const auto* list : {&metrics, &extra}) {
    for (const Metric& m : *list) {
      std::cout << name << '.' << m.name << ' ' << m.value << ' ' << m.unit << '\n';
    }
  }
  if (last_outcome) {
    for (const e2e::Check& c : last_outcome->checks) {
      std::cout << name << '.' << c.name << ' ' << c.value << ' ' << c.unit << '\n';
    }
    std::cout << name << ".digest " << hex(last_outcome->digest)
              << (reference_committed ? " (committed)" : " (first rep)") << '\n';
  }
  for (const std::string& e : errors) std::cerr << name << ": " << e << '\n';
  if (!host_mismatch.empty()) std::cout << name << ".host_mismatch " << host_mismatch << '\n';
  std::cout << name << ".status " << status << '\n';

  // Per-workload report.
  {
    std::ostringstream os;
    os << "{\"name\": \"e2e\", \"workload\": " << obs::json_string(name)
       << ", \"seed\": " << opt.seed << ", \"traced\": " << (opt.trace ? "true" : "false")
       << ", \"status\": " << obs::json_string(status);
    if (!host_mismatch.empty()) os << ", \"host_mismatch\": " << obs::json_string(host_mismatch);
    os << ",\n \"params\": {\"host.cores\": " << host.cores
       << ", \"host.cpu\": " << obs::json_string(host.cpu)
       << ", \"compiler\": " << obs::json_string(TTDC_E2E_COMPILER)
       << ", \"build_type\": " << obs::json_string(TTDC_E2E_BUILD_TYPE)
       << ", \"git_sha\": " << obs::json_string(opt.git_sha)
       << ", \"campaign.workers\": " << ctx.workers << ", \"seconds\": " << opt.seconds
       << ", \"warmup\": " << (opt.warmup ? "true" : "false") << "},\n \"metrics\": "
       << json_metrics(metrics) << ",\n \"extra\": " << json_metrics(extra)
       << ",\n \"samples\": {" << samples.str() << "},\n \"checks\": {\"digest\": "
       << obs::json_string(last_outcome ? hex(last_outcome->digest) : "none")
       << ", \"digest_committed\": " << (reference_committed ? "true" : "false");
    if (last_outcome) {
      for (const e2e::Check& c : last_outcome->checks) {
        os << ", " << obs::json_string(c.name) << ": " << obs::json_scalar(c.value);
      }
    }
    os << "},\n \"attempted\": " << attempted << ", \"failed\": " << failed << "}\n";
    const std::string path = opt.out_dir + "/" + report_name + ".json";
    std::ofstream out(path);
    out << os.str();
    if (!out) std::cerr << name << ": cannot write " << path << '\n';
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": " << json_metrics(metrics) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
