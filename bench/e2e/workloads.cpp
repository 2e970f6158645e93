#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "ledger.hpp"
#include "net/domain_grid.hpp"
#include "net/topology.hpp"
#include "runner/runner.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace ttdc::e2e {

namespace {

// The shared recipe: unit-disk graphs of radius sqrt(10/n) pruned to degree
// D = 6, and Construct with alpha_T = 4, alpha_R = max(4, n/3).
constexpr std::size_t kDegree = 6;
constexpr std::size_t kAlphaT = 4;
constexpr std::size_t kSink = 0;

/// Independent input streams, all derived from the one --seed.
struct Seeds {
  explicit Seeds(std::uint64_t seed) {
    util::SplitMix64 sm(seed);
    positions = sm.next();
    flows = sm.next();
    traffic = sm.next();
    sim = sm.next();
    campaign = sm.next();
  }
  std::uint64_t positions, flows, traffic, sim, campaign;
};

/// Implementation-selection knobs, set in one place. Each assignment is
/// guarded so the benchmark still compiles once a knob is consolidated away
/// (the implementation it selected is then the only one).
struct Implementation {
  bool fast_forward = false;
  bool hybrid_pipeline = false;
  const net::DomainGrid* domains = nullptr;
};

template <typename Config>
void select_implementation(Config& config, const Implementation& impl) {
  if constexpr (requires(Config& c) { c.fast_forward; }) config.fast_forward = impl.fast_forward;
  if constexpr (requires(Config& c) { c.hybrid_pipeline; }) {
    config.hybrid_pipeline = impl.hybrid_pipeline;
  }
  if constexpr (requires(Config& c) { c.domains; }) config.domains = impl.domains;
}

struct Topology {
  net::Positions pos;
  net::DomainGrid grid;
  net::Graph graph;
};

std::unique_ptr<Topology> make_topology(std::size_t n, std::uint64_t seed, SpanLog* spans) {
  Span span(spans, "net.topology");
  util::Xoshiro256 rng(seed);
  net::Positions pos = net::random_positions(n, rng);
  const double radius = std::sqrt(10.0 / static_cast<double>(n));
  net::DomainGrid grid(pos, radius);
  net::Graph graph = net::unit_disk_graph(pos, radius, kDegree, grid);
  return std::make_unique<Topology>(Topology{std::move(pos), std::move(grid), std::move(graph)});
}

core::Schedule make_schedule(std::size_t n, SpanLog* spans) {
  comb::SetFamily family = [&] {
    Span span(spans, "comb.family");
    return comb::build_plan(comb::best_plan(n, kDegree), n);
  }();
  const core::Schedule non_sleeping = [&] {
    Span span(spans, "core.non_sleeping");
    return core::non_sleeping_from_family(family);
  }();
  Span span(spans, "core.construct");
  return core::construct_duty_cycled(non_sleeping, kDegree, kAlphaT,
                                     std::max<std::size_t>(4, n / 3));
}

/// The three single-simulation workloads share one shape: a topology, a
/// schedule, a DutyCycledScheduleMac, a traffic source and a Simulator,
/// built in that order. Each supplies its traffic, its SimConfig, its timed
/// unit and its readable checks.
class SimulationWorkload : public Workload {
 public:
  void setup() final {
    topology_ = make_topology(n_, seeds_.positions, ctx_.spans);
    schedule_ = std::make_unique<core::Schedule>(make_schedule(n_, ctx_.spans));
    Span span(ctx_.spans, "sim.ctor");
    mac_ = std::make_unique<sim::DutyCycledScheduleMac>(*schedule_);
    traffic_ = make_traffic();
    sim::SimConfig config = make_config();
    config.seed = seeds_.sim;
    sim_ = std::make_unique<sim::Simulator>(topology_->graph, *mac_, *traffic_, config);
  }

  RepOutcome outcome() final {
    const sim::SimStats& stats = sim_->stats();
    RepOutcome out;
    out.stats = Counters(stats);
    out.digest = stats_digest(stats);
    out.ff = sim_->fast_forward_stats();
    out.frame_length = schedule_->frame_length();
    out.checks = checks(stats);
    return out;
  }

 protected:
  SimulationWorkload(const WorkloadContext& ctx, std::size_t n)
      : ctx_(ctx), seeds_(ctx.seed), n_(n) {}

  /// Lookahead convergecast to the sink with a mean aggregate gap of
  /// `gap_frames` frames (per-node rate spread over the n - 1 sources).
  [[nodiscard]] std::unique_ptr<sim::TrafficSource> convergecast(double gap_frames) const {
    const double gap_slots = gap_frames * static_cast<double>(schedule_->frame_length());
    const double rate = 1.0 / (gap_slots * static_cast<double>(n_ - 1));
    return std::make_unique<sim::LookaheadConvergecastTraffic>(n_, kSink, rate, seeds_.traffic);
  }

  /// Runs `slots` more slots under one sim.run span.
  void run_slots(std::uint64_t slots) {
    Span span(ctx_.spans, "sim.run");
    sim_->run(slots);
  }

  WorkloadContext ctx_;
  Seeds seeds_;
  std::size_t n_;
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<core::Schedule> schedule_;
  std::unique_ptr<sim::DutyCycledScheduleMac> mac_;
  std::unique_ptr<sim::TrafficSource> traffic_;
  std::unique_ptr<sim::Simulator> sim_;

 private:
  virtual std::unique_ptr<sim::TrafficSource> make_traffic() = 0;
  virtual sim::SimConfig make_config() = 0;
  [[nodiscard]] virtual std::vector<Check> checks(const sim::SimStats& stats) const = 0;
};

/// The paper's use case: one schedule, sparse convergecast, run until every
/// battery is empty.
class Lifetime final : public SimulationWorkload {
 public:
  explicit Lifetime(const WorkloadContext& ctx) : SimulationWorkload(ctx, 400) {}

  void run() override {
    while (sim_->alive_count() > 0) {
      if (sim_->now() >= kMaxSlots) {
        throw std::runtime_error("lifetime: nodes still alive after " +
                                 std::to_string(kMaxSlots) + " slots");
      }
      run_slots(kChunk);
    }
  }

 private:
  static constexpr std::uint64_t kChunk = 10'000;
  static constexpr std::uint64_t kMaxSlots = 50'000'000;

  // A mean gap of 5 frames puts a packet in flight at nearly every death, so
  // every seed soon strands one on a dead next hop. From then on its growing
  // age changes each frame's fingerprint and the run steps slot by slot.
  // With sparser traffic, when that first happens varies by seed, and so
  // does the stepped work (±9% at 20 frames, ±3% here).
  std::unique_ptr<sim::TrafficSource> make_traffic() override { return convergecast(5.0); }

  sim::SimConfig make_config() override {
    sim::SimConfig config;
    config.battery_mj = 5.0e5;
    select_implementation(config, {.fast_forward = true});
    return config;
  }

  std::vector<Check> checks(const sim::SimStats& stats) const override {
    // A dead node stops participating at its death slot, so its radio-state
    // slot counts sum to death_slot + 1.
    std::uint64_t blackout = 0;
    for (const auto& row : stats.state_slots) {
      blackout = std::max(blackout, row[0] + row[1] + row[2] + row[3]);
    }
    return {{"first_death_slot", static_cast<double>(stats.first_death_slot), "slot"},
            {"blackout_slot", static_cast<double>(blackout) - 1.0, "slot"},
            {"delivered", static_cast<double>(stats.delivered), "count"}};
  }
};

/// Theorems 2-4's worst case: every node backlogged toward a neighbour.
/// The traffic source is opaque, so fast-forward never arms.
class Saturated final : public SimulationWorkload {
 public:
  explicit Saturated(const WorkloadContext& ctx) : SimulationWorkload(ctx, 1000) {}

  void run() override { run_slots(20 * schedule_->frame_length()); }

 private:
  std::unique_ptr<sim::TrafficSource> make_traffic() override {
    std::vector<std::pair<std::size_t, std::size_t>> flows;
    util::Xoshiro256 rng(seeds_.flows);
    for (std::size_t v = 0; v < n_; ++v) {
      const std::vector<std::size_t> neighbors = topology_->graph.neighbor_list(v);
      if (neighbors.empty()) continue;
      flows.emplace_back(v, neighbors[rng.below(neighbors.size())]);
    }
    return std::make_unique<sim::SaturatedFlows>(
        std::move(flows), [this](std::size_t v) { return sim_->queue_size(v); });
  }

  sim::SimConfig make_config() override { return {}; }

  std::vector<Check> checks(const sim::SimStats& stats) const override {
    return {{"hop_successes", static_cast<double>(stats.hop_successes), "count"}};
  }
};

/// A large network where set-up dominates: hybrid sets, collision domains,
/// fast-forward armed but vetoed by an arrival in nearly every frame.
class Metro final : public SimulationWorkload {
 public:
  explicit Metro(const WorkloadContext& ctx) : SimulationWorkload(ctx, 5000) {}

  void run() override { run_slots(2 * schedule_->frame_length()); }

 private:
  std::unique_ptr<sim::TrafficSource> make_traffic() override { return convergecast(1.0); }

  sim::SimConfig make_config() override {
    sim::SimConfig config;
    config.battery_mj = 1.0e7;  // no deaths inside a rep
    select_implementation(config, {.fast_forward = true,
                                   .hybrid_pipeline = true,
                                   .domains = &topology_->grid});
    return config;
  }

  std::vector<Check> checks(const sim::SimStats& stats) const override {
    return {{"delivered", static_cast<double>(stats.delivered), "count"}};
  }
};

/// How the repo produces the paper's comparisons: a runner::Campaign of
/// replicated topologies x the MAC zoo, with shared routing artifacts and a
/// checkpoint journal.
class CampaignWorkload final : public Workload {
 public:
  explicit CampaignWorkload(const WorkloadContext& ctx) : ctx_(ctx), seeds_(ctx.seed) {}

  ~CampaignWorkload() override {
    if (!journal_path_.empty()) {
      std::error_code ignored;
      std::filesystem::remove(journal_path_, ignored);
    }
  }
  CampaignWorkload(const CampaignWorkload&) = delete;
  CampaignWorkload& operator=(const CampaignWorkload&) = delete;

  void setup() override {
    util::SplitMix64 topology_seeds(seeds_.positions);
    topologies_.clear();
    for (std::size_t r = 0; r < kTopologies; ++r) {
      topologies_.push_back(make_topology(kN, topology_seeds.next(), ctx_.spans));
    }
    static std::atomic<int> journal_counter{0};
    journal_path_ = ctx_.scratch_dir + "/campaign-" + std::to_string(::getpid()) + "-" +
                    std::to_string(journal_counter.fetch_add(1)) + ".journal";
    runner::ResilienceOptions resilience;
    resilience.journal_path = journal_path_;
    resilience.resume = false;
    runner::CampaignOptions options;
    options.master_seed = seeds_.campaign;
    options.num_workers = ctx_.workers;
    options.resilience = resilience;
    campaign_ = std::make_unique<runner::Campaign>(options);
    for (std::size_t r = 0; r < kTopologies; ++r) {
      for (const char* mac : kMacs) {
        std::string name = "r";
        name += std::to_string(r);
        name += ':';
        name += mac;
        campaign_->add(std::move(name),
                       [this, r, mac](runner::CellContext& cell) { run_cell(cell, r, mac); });
      }
    }
  }

  void run() override {
    Span span(ctx_.spans, "runner.campaign");
    campaign_span_ = span.id();
    result_ = campaign_->run();
  }

  RepOutcome outcome() override {
    RepOutcome out;
    out.stats = Counters(result_.aggregate);
    out.digest = util::fnv1a64(result_.aggregate_json());
    out.frame_length = frame_length_.load();
    out.cells = campaign_->size();
    out.failed_cells = result_.quarantined.size();
    out.artifact_hits = campaign_->artifacts().hits();
    out.artifact_misses = campaign_->artifacts().misses();
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(journal_path_, ec);
    out.journal_bytes = ec ? 0 : static_cast<std::uint64_t>(bytes);
    out.checks = {{"delivered", static_cast<double>(out.stats.delivered), "count"}};
    return out;
  }

 private:
  static constexpr std::size_t kN = 100;
  static constexpr std::size_t kTopologies = 24;
  static constexpr std::uint64_t kSlots = 50'000;
  static constexpr double kRate = 0.002;
  static constexpr const char* kMacs[] = {"tt-duty", "aloha", "uncoord", "smac", "tdma"};

  void run_cell(runner::CellContext& cell, std::size_t r, const std::string& kind) {
    Span span(ctx_.spans, "runner.cell", campaign_span_);
    const net::Graph& graph = topologies_[r]->graph;
    const auto routing = cell.artifacts().routing(graph);
    std::shared_ptr<const core::Schedule> schedule;
    if (kind == "tt-duty") {
      schedule = cell.artifacts().schedule("e2e:n=100,D=6,aT=4,aR=33",
                                           [&] { return make_schedule(kN, ctx_.spans); });
      frame_length_.store(schedule->frame_length());
    }
    std::unique_ptr<sim::MacProtocol> mac;
    std::unique_ptr<sim::ConvergecastTraffic> traffic;
    std::unique_ptr<sim::Simulator> simulator;
    {
      Span ctor(ctx_.spans, "sim.ctor");
      if (kind == "tt-duty") {
        mac = std::make_unique<sim::DutyCycledScheduleMac>(*schedule);
      } else if (kind == "aloha") {
        mac = std::make_unique<sim::SlottedAlohaMac>(kN, 0.08);
      } else if (kind == "uncoord") {
        mac = std::make_unique<sim::UncoordinatedSleepMac>(kN, 0.4, 0.2);
      } else if (kind == "smac") {
        mac = std::make_unique<sim::CommonActivePeriodMac>(kN, 20, 5, 0.2);
      } else {
        mac = std::make_unique<sim::ColoringTdmaMac>(graph);
      }
      traffic = std::make_unique<sim::ConvergecastTraffic>(kN, kSink, kRate);
      sim::SimConfig config;
      config.seed = cell.seed();
      config.shared_routing = routing.get();
      simulator = std::make_unique<sim::Simulator>(graph, *mac, *traffic, config);
    }
    {
      Span run(ctx_.spans, "sim.run");
      simulator->run(kSlots);
    }
    cell.record(simulator->stats());
    cell.metric("delivery_ratio", simulator->stats().delivery_ratio());
  }

  WorkloadContext ctx_;
  Seeds seeds_;
  std::vector<std::unique_ptr<Topology>> topologies_;
  std::string journal_path_;
  std::unique_ptr<runner::Campaign> campaign_;
  runner::CampaignResult result_;
  int campaign_span_ = -1;
  std::atomic<std::size_t> frame_length_{0};
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"lifetime", "saturated", "metro", "campaign"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadContext& ctx) {
  if (name == "lifetime") return std::make_unique<Lifetime>(ctx);
  if (name == "saturated") return std::make_unique<Saturated>(ctx);
  if (name == "metro") return std::make_unique<Metro>(ctx);
  if (name == "campaign") return std::make_unique<CampaignWorkload>(ctx);
  return nullptr;
}

std::uint64_t stats_digest(const sim::SimStats& s) {
  std::uint64_t h = util::kFnvOffsetBasis;
  const auto fold = [&h](std::uint64_t v) { h = util::fnv1a64_u64(h, v); };
  const auto fold_all = [&fold](const std::vector<std::uint64_t>& values) {
    fold(values.size());
    for (const std::uint64_t v : values) fold(v);
  };
  for (const std::uint64_t v :
       {s.slots_run, s.generated, s.delivered, s.hop_successes, s.transmissions, s.collisions,
        s.receiver_asleep, s.channel_losses, s.sync_losses, s.queue_drops,
        s.first_death_slot, s.deaths, s.fault_crashes, s.fault_recoveries,
        s.fault_battery_spikes, s.fault_jam_bursts, s.burst_losses, s.drift_losses,
        static_cast<std::uint64_t>(s.partial)}) {
    fold(v);
  }
  fold_all(s.latency.samples());
  fold(s.state_slots.size());
  for (const auto& row : s.state_slots) {
    for (const std::uint64_t v : row) fold(v);
  }
  fold_all(s.delivered_by_origin);
  fold_all(s.wake_transitions);
  return h;
}

}  // namespace ttdc::e2e
