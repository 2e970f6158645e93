// ttdc-trace — post-mortem flight-recorder analysis.
//
// Reads a flight JSONL dump (from runner::FlightCaptureOptions, a test, or
// `ttdc-trace record`) and answers the per-packet questions the aggregate
// counters cannot: which packets took longest and why, which receivers are
// collision hot-spots and who is colliding there, what one node saw slot by
// slot. `perfetto` converts a dump for ui.perfetto.dev; `record` runs a
// small built-in duty-cycled deployment with the recorder armed, for a
// self-contained demo dump, and checks that the dump rebuilds the run's
// live SimStats counters.
//
// Exit code 2 on bad usage, including a numeric flag or packet id that is
// malformed or out of range (the message names it); 1 when a command finds
// a problem (unparsable dump lines, a consistency violation, a missing
// packet, a recorded stream that does not rebuild the live counters).
#include <cctype>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/topology.hpp"
#include "obs/flight_query.hpp"
#include "obs/perfetto.hpp"
#include "obs/profile.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

#include "flag_parse.hpp"

namespace {

using ttdc::obs::FlightEvent;
using ttdc::obs::FlightLog;

constexpr std::string_view kTool = "ttdc-trace";
constexpr std::uint64_t kAnyU64 = std::numeric_limits<std::uint64_t>::max();
constexpr double kAnyReal = std::numeric_limits<double>::max();

/// A numeric flag or argument that failed to parse; the message naming it
/// is already on stderr, and main() exits 2.
struct BadFlag {};

/// `text` parsed whole as an integer in [lo, hi], or BadFlag.
std::uint64_t parse_u64(std::string_view what, const std::string& text, std::uint64_t lo,
                        std::uint64_t hi) {
  std::uint64_t value = 0;
  if (!ttdc::tools::parse_int(kTool, what, text.c_str(), lo, hi, value)) throw BadFlag{};
  return value;
}

int usage() {
  std::cerr <<
      "usage: ttdc-trace <command> [args]\n"
      "\n"
      "  summary <dump.jsonl>                 rebuilt counters, truncation, consistency\n"
      "  worst-latency <dump.jsonl> [-k N]    slowest delivered packets (default 10)\n"
      "  top-collisions <dump.jsonl> [-k N]   receivers losing most to collisions\n"
      "  timeline <dump.jsonl> --node N       one node's events, slot by slot\n"
      "  packet <dump.jsonl> <id>             one packet's retained lifecycle\n"
      "  check <dump.jsonl>                   self-consistency audit (exit 1 on violation)\n"
      "  perfetto <dump.jsonl> [--out F] [--slot-us X]\n"
      "                                       convert to trace-event JSON (ui.perfetto.dev)\n"
      "  record [--out F] [--slots N] [--nodes N] [--degree D] [--rate R]\n"
      "         [--seed S] [--capacity C]     run a built-in scenario, dump its ring,\n"
      "                                       check it against the live counters\n";
  return 2;
}

std::string node_name(std::uint32_t node) {
  return node == FlightEvent::kNoNode ? std::string("-") : std::to_string(node);
}

/// Parses `--flag value` / `-k value` style options after the dump path.
struct Args {
  std::vector<std::string> positional;
  bool get(const std::string& flag, std::string& out) const {
    for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
      if (raw[i] == flag) {
        out = raw[i + 1];
        return true;
      }
    }
    return false;
  }
  /// The flag's value as an integer in [lo, hi], `fallback` when absent.
  std::uint64_t get_u64(const std::string& flag, std::uint64_t fallback, std::uint64_t lo,
                        std::uint64_t hi) const {
    std::string v;
    return get(flag, v) ? parse_u64(flag, v, lo, hi) : fallback;
  }
  /// The flag's value as a finite number in [lo, hi], `fallback` when absent.
  double get_f64(const std::string& flag, double fallback, double lo, double hi) const {
    std::string v;
    double value = fallback;
    if (get(flag, v) && !ttdc::tools::parse_real(kTool, flag, v.c_str(), lo, hi, value)) {
      throw BadFlag{};
    }
    return value;
  }
  std::vector<std::string> raw;
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    const std::string s = argv[i];
    a.raw.push_back(s);
    // A negative number ("-3") is an argument, not a flag.
    const bool flag =
        s.size() > 1 && s[0] == '-' && std::isdigit(static_cast<unsigned char>(s[1])) == 0;
    if (!flag) {
      a.positional.push_back(s);
    } else {
      ++i;  // skip the flag's value in the positional scan
      if (i < argc) a.raw.emplace_back(argv[i]);
    }
  }
  return a;
}

/// Loads a dump, reporting unparsable (truncated, bit-rotted) lines through
/// `parse_errors`. Analysis still runs on whatever parsed — a torn dump is
/// exactly when a post-mortem matters — but every command exits nonzero so
/// scripts never mistake a partial answer for a complete one.
FlightLog load(const std::string& path, std::size_t& parse_errors) {
  auto parsed = ttdc::obs::read_flight_jsonl_file(path);
  parse_errors = parsed.errors.size();
  if (parse_errors != 0) {
    std::cerr << "warning: " << parse_errors << " unparsable line(s) skipped\n";
  }
  return FlightLog(std::move(parsed.events));
}

void print_event(const FlightEvent& e) {
  std::cout << "  slot " << e.slot << "  " << ttdc::obs::flight_kind_name(e.kind)
            << "  packet=" << e.packet_id << " node=" << node_name(e.node)
            << " peer=" << node_name(e.peer);
  if (e.aux != 0) std::cout << " aux=" << e.aux;
  if (e.kind == FlightEvent::Kind::kCollided) {
    std::cout << " interferers=[";
    for (std::size_t i = 0; i < e.stored_interferers(); ++i) {
      if (i != 0) std::cout << ',';
      std::cout << e.interferers[i];
    }
    std::cout << ']';
    if (e.interferer_count > e.stored_interferers()) {
      std::cout << "(+" << e.interferer_count - e.stored_interferers() << " more)";
    }
  }
  std::cout << "\n";
}

int cmd_summary(const Args& args) {
  std::size_t parse_errors = 0;
  const FlightLog log = load(args.positional.at(0), parse_errors);
  const auto row = [](std::string_view label) -> std::ostream& {
    return std::cout << std::left << std::setw(22) << std::string(label) + ':';
  };
  std::uint64_t truncated = 0;
  for (const auto& h : log.packets()) truncated += h.truncated ? 1 : 0;
  row("events") << log.events().size() << "\n";
  row("packets") << log.packets().size() << " (" << truncated << " truncated by ring wrap)\n";
  // The SimStats counters the stream rebuilds (exact for an unwrapped ring).
  const ttdc::sim::SimStats stats = log.reconstructed_stats();
  for (const auto& c : ttdc::obs::kStreamCounters) row(c.name) << stats.*c.field << "\n";
  if (!log.events().empty()) {
    row("slot range") << "[" << log.events().front().slot << ", " << log.events().back().slot
                      << "]\n";
  }
  const auto violations = log.self_check();
  row("consistency")
      << (violations.empty() ? "OK" : std::to_string(violations.size()) + " violation(s)")
      << "\n";
  return (violations.empty() && parse_errors == 0) ? 0 : 1;
}

int cmd_worst_latency(const Args& args) {
  const auto k = static_cast<std::size_t>(args.get_u64("-k", 10, 1, kAnyU64));
  std::size_t parse_errors = 0;
  const FlightLog log = load(args.positional.at(0), parse_errors);
  std::cout << "packet  latency  delivered@  route\n";
  for (const auto& r : log.worst_latency(k)) {
    std::cout << r.packet_id << "  " << r.latency << "  " << r.delivered_slot << "  "
              << node_name(r.origin) << " -> " << node_name(r.destination) << "\n";
  }
  return parse_errors == 0 ? 0 : 1;
}

int cmd_top_collisions(const Args& args) {
  const auto k = static_cast<std::size_t>(args.get_u64("-k", 10, 1, kAnyU64));
  std::size_t parse_errors = 0;
  const FlightLog log = load(args.positional.at(0), parse_errors);
  for (const auto& h : log.top_collisions(k)) {
    std::cout << "receiver " << h.receiver << ": " << h.collisions
              << " collision(s) in slots [" << h.first_slot << ", " << h.last_slot
              << "], transmitters:";
    for (const auto& [node, count] : h.transmitters) {
      std::cout << " " << node << "(x" << count << ")";
    }
    std::cout << "\n";
  }
  return parse_errors == 0 ? 0 : 1;
}

int cmd_timeline(const Args& args) {
  const auto node =
      static_cast<std::uint32_t>(args.get_u64("--node", 0, 0, FlightEvent::kNoNode - 1));
  std::size_t parse_errors = 0;
  const FlightLog log = load(args.positional.at(0), parse_errors);
  for (const auto& e : log.node_timeline(node)) print_event(e);
  return parse_errors == 0 ? 0 : 1;
}

int cmd_packet(const Args& args) {
  const std::uint64_t id = args.positional.size() > 1
                               ? parse_u64("<id>", args.positional[1], 0, kAnyU64)
                               : args.get_u64("--id", 0, 0, kAnyU64);
  std::size_t parse_errors = 0;
  const FlightLog log = load(args.positional.at(0), parse_errors);
  const auto* h = log.packet(id);
  if (h == nullptr) {
    std::cerr << "packet " << id << " not in dump\n";
    return 1;
  }
  std::cout << "packet " << h->packet_id << ": " << node_name(h->origin) << " -> "
            << node_name(h->destination) << (h->truncated ? " (history truncated)" : "")
            << (h->delivered ? ", delivered, latency " + std::to_string(h->latency) : "")
            << "\n";
  for (const auto& e : h->events) print_event(e);
  return parse_errors == 0 ? 0 : 1;
}

int cmd_check(const Args& args) {
  auto parsed = ttdc::obs::read_flight_jsonl_file(args.positional.at(0));
  for (const auto& line : parsed.errors) std::cerr << "unparsable: " << line << "\n";
  const FlightLog log{std::move(parsed.events)};
  const auto violations = log.self_check();
  for (const auto& v : violations) std::cout << v << "\n";
  if (violations.empty() && parsed.errors.empty()) {
    std::cout << "OK: " << log.events().size() << " events, " << log.packets().size()
              << " packets, self-consistent\n";
    return 0;
  }
  return 1;
}

int cmd_perfetto(const Args& args) {
  ttdc::obs::PerfettoOptions opt;
  opt.slot_us = args.get_f64("--slot-us", opt.slot_us, 0.0, kAnyReal);
  std::size_t parse_errors = 0;
  const FlightLog log = load(args.positional.at(0), parse_errors);
  std::string out = "trace.perfetto.json";
  args.get("--out", out);
  opt.include_spans = false;  // a dump has no live profiler attached
  if (!ttdc::obs::write_perfetto_trace_file(out, log, nullptr, opt)) {
    std::cerr << "cannot write " << out << "\n";
    return 1;
  }
  std::cout << "wrote " << out << " (" << log.events().size()
            << " flight events); open in ui.perfetto.dev\n";
  return parse_errors == 0 ? 0 : 1;
}

// A deterministic miniature of the E-series deployments: duty-cycled
// schedule from the best cover-free plan, random bounded-degree graph,
// Bernoulli traffic — with the flight recorder armed.
int cmd_record(const Args& args) {
  using namespace ttdc;
  // The schedule is Construct(αT = 4, αR = 8), which needs n >= 12.
  const auto nodes = static_cast<std::size_t>(args.get_u64("--nodes", 30, 12, 10'000));
  const auto degree = static_cast<std::size_t>(args.get_u64("--degree", 3, 1, nodes - 1));
  const double rate = args.get_f64("--rate", 0.02, 0.0, 1.0);
  const std::uint64_t seed = args.get_u64("--seed", 7, 0, kAnyU64);
  const auto capacity =
      static_cast<std::size_t>(args.get_u64("--capacity", 1 << 16, 1, std::uint64_t{1} << 24));
  const std::uint64_t slots_flag = args.get_u64("--slots", 0, 1, kAnyU64);  // 0: absent
  std::string out = "flight.jsonl";
  args.get("--out", out);

  const core::Schedule base =
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(nodes, degree), nodes));
  const core::Schedule duty = core::construct_duty_cycled(base, degree, 4, 8);
  const std::uint64_t slots = slots_flag != 0 ? slots_flag : 20 * duty.frame_length();

  util::Xoshiro256 rng(seed);
  const net::Graph g = net::random_bounded_degree_graph(nodes, degree, 2 * nodes, rng);
  sim::DutyCycledScheduleMac mac(duty);
  sim::BernoulliTraffic traffic(nodes, rate);
  obs::FlightRecorder recorder(capacity);
  sim::SimConfig config;
  config.seed = seed;
  config.recorder = &recorder;
  sim::Simulator sim(g, mac, traffic, config);
  sim.run(slots);

  auto events = recorder.events();
  if (!obs::write_flight_jsonl_file(out, events)) {
    std::cerr << "cannot write " << out << "\n";
    return 1;
  }
  std::cout << "wrote " << out << ": " << events.size() << " events ("
            << recorder.seen() << " seen" << (recorder.wrapped() ? ", ring wrapped" : "")
            << "), " << slots << " slots, n=" << nodes << " D=" << degree
            << " L=" << duty.frame_length() << "\n"
            << "delivered " << sim.stats().delivered << "/" << sim.stats().generated
            << ", collisions " << sim.stats().collisions << "\n";
  // A complete stream must rebuild the run's own counters exactly.
  if (recorder.wrapped()) {
    std::cout << "counter check: skipped (ring wrapped)\n";
    return 0;
  }
  const auto mismatches = FlightLog(std::move(events)).self_check(sim.stats());
  for (const auto& m : mismatches) std::cerr << "counter mismatch: " << m << "\n";
  if (!mismatches.empty()) return 1;
  std::cout << "counter check: OK (the stream rebuilds the live SimStats)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args = parse_args(argc, argv, 2);
  try {
    if (cmd == "record") return cmd_record(args);
    if (args.positional.empty()) return usage();
    if (cmd == "summary") return cmd_summary(args);
    if (cmd == "worst-latency") return cmd_worst_latency(args);
    if (cmd == "top-collisions") return cmd_top_collisions(args);
    if (cmd == "timeline") return cmd_timeline(args);
    if (cmd == "packet") return cmd_packet(args);
    if (cmd == "check") return cmd_check(args);
    if (cmd == "perfetto") return cmd_perfetto(args);
  } catch (const BadFlag&) {
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
