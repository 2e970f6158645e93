// Profiling spans: TTDC_PROF_SCOPE("name") accumulates {calls, total ns,
// self ns} per (callsite, parent span) into a process-wide span TREE, so a
// site that runs under several parents (say net.routing.build_column under
// both runner.cell and sim.step) is attributed to each parent separately,
// and a parent's self-time (total minus time inside child scopes) is
// explicit instead of inferred.
//
// Disabled (the default) a scope costs one relaxed atomic load and a
// predictable branch, so it is safe inside Simulator::step() and the
// combinatorial construction kernels. Enable around the region you want to
// profile with Profiler::enable(true) (or a ProfilerSession RAII guard).
// Enabled, a scope costs a thread-local read, one MRU-cache load, and three
// relaxed fetch_adds; the registry lock is only taken the first time a
// (callsite, parent) pair is seen.
//
// Thread safety: the span stack is thread-local (each OpenMP worker or
// campaign thread tracks its own nesting); SpanNodes are shared across
// threads and accumulate with relaxed atomics; node creation is serialized
// by the registry mutex. Two threads inside the same structural stack hit
// the SAME SpanNode, so per-parent attribution aggregates across workers.
//
// Header-only for the same reason as metrics.hpp: profiled code must not
// link ttdc_obs.
#pragma once

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace ttdc::obs {

/// One node of the span tree: a profiling site as observed under one
/// specific parent span (parent == nullptr for root-level scopes).
/// Accumulators are atomic so OpenMP-parallel regions sharing a structural
/// stack accumulate into one node without synchronization.
struct SpanNode {
  SpanNode(std::string name_in, const SpanNode* parent_in)
      : name(std::move(name_in)), parent(parent_in) {}
  const std::string name;
  const SpanNode* const parent;
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> total_ns{0};
  /// total_ns minus time spent inside child TTDC_PROF_SCOPEs.
  std::atomic<std::uint64_t> self_ns{0};
};

/// Per-callsite handle. Registered once per callsite via a static local in
/// TTDC_PROF_SCOPE; holds an MRU (parent -> node) edge so the common case —
/// a callsite whose runtime parent is stable — resolves its SpanNode with
/// one acquire load.
struct ProfSite {
  struct Edge {
    const SpanNode* parent;
    SpanNode* node;
  };
  std::string name;
  std::atomic<const Edge*> mru{nullptr};
};

class ProfScope;

namespace detail {
/// Innermost open ProfScope of the current thread (the span stack, stored
/// as an intrusive parent chain through the RAII objects themselves).
inline ProfScope*& tls_current_scope() {
  thread_local ProfScope* current = nullptr;
  return current;
}
}  // namespace detail

class Profiler {
 public:
  /// Never destroyed: an exit-time destructor would free the span nodes and
  /// retired MRU edges while the OpenMP pool threads that read them are
  /// still alive, with nothing ordering those reads before the free
  /// (ThreadSanitizer reports the pair as a race). Process exit reclaims
  /// the memory.
  static Profiler& instance() {
    static Profiler* const profiler = new Profiler();
    return *profiler;
  }

  static void enable(bool on) { enabled_flag().store(on, std::memory_order_relaxed); }
  [[nodiscard]] static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }

  /// Registers (or finds) the callsite handle for `name`; the reference
  /// stays valid for the process lifetime.
  ProfSite& site(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = sites_[name];
    if (!slot) {
      slot = std::make_unique<ProfSite>();
      slot->name = name;
    }
    return *slot;
  }

  /// The span node for `site` under `parent`, creating it on first use.
  /// Hot path: the site's MRU edge matches and no lock is taken.
  SpanNode* node_for(ProfSite& site, const SpanNode* parent) {
    const ProfSite::Edge* edge = site.mru.load(std::memory_order_acquire);
    if (edge != nullptr && edge->parent == parent) return edge->node;
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = nodes_[{parent, site.name}];
    if (!slot) slot = std::make_unique<SpanNode>(site.name, parent);
    // Edges are retired, never freed: a racing reader may still hold the
    // old pointer. The set is bounded by the distinct (site, parent) pairs.
    edges_.push_back(std::make_unique<ProfSite::Edge>(ProfSite::Edge{parent, slot.get()}));
    site.mru.store(edges_.back().get(), std::memory_order_release);
    return slot.get();
  }

  /// Zeroes every accumulator (sites and span nodes stay registered).
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, node] : nodes_) {
      node->calls.store(0, std::memory_order_relaxed);
      node->total_ns.store(0, std::memory_order_relaxed);
      node->self_ns.store(0, std::memory_order_relaxed);
    }
  }

  /// Flat per-site aggregate (summed over every parent the site ran
  /// under) — the PR-1 site-table view, kept for exporters and gates that
  /// don't care about nesting.
  struct Sample {
    std::string name;
    std::uint64_t calls = 0;
    double total_seconds = 0.0;
    double self_seconds = 0.0;
  };

  [[nodiscard]] std::vector<Sample> samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, Sample> by_name;
    for (const auto& [key, node] : nodes_) {
      Sample& s = by_name[node->name];
      s.name = node->name;
      s.calls += node->calls.load(std::memory_order_relaxed);
      s.total_seconds +=
          static_cast<double>(node->total_ns.load(std::memory_order_relaxed)) * 1e-9;
      s.self_seconds +=
          static_cast<double>(node->self_ns.load(std::memory_order_relaxed)) * 1e-9;
    }
    // Sites that registered but never ran still appear (calls == 0), as in
    // the flat-table implementation.
    for (const auto& [name, site] : sites_) {
      if (by_name.find(name) == by_name.end()) by_name[name] = Sample{name, 0, 0.0, 0.0};
    }
    std::vector<Sample> out;
    out.reserve(by_name.size());
    for (auto& [name, s] : by_name) out.push_back(std::move(s));
    return out;
  }

  /// One span-tree node, in parent-before-child DFS order (children sorted
  /// by name). `path` is the slash-joined ancestry including the node.
  struct SpanSample {
    std::string name;
    std::string path;
    std::size_t depth = 0;
    std::uint64_t calls = 0;
    double total_seconds = 0.0;
    double self_seconds = 0.0;
  };

  [[nodiscard]] std::vector<SpanSample> span_samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    // nodes_ is keyed by (parent, name) and already ordered parent-major,
    // name-minor; group children under each parent, then DFS from the
    // roots (parent == nullptr).
    std::map<const SpanNode*, std::vector<const SpanNode*>> children;
    for (const auto& [key, node] : nodes_) children[key.first].push_back(node.get());
    std::vector<SpanSample> out;
    dfs_spans(children, nullptr, "", 0, out);
    return out;
  }

  /// Publishes the flat per-site aggregate as `prof_<name>_calls`,
  /// `prof_<name>_seconds`, and `prof_<name>_self_seconds` gauges.
  void publish(MetricsRegistry& registry, const std::string& prefix = "prof_") const {
    for (const Sample& s : samples()) {
      std::string base = prefix + s.name;
      for (char& c : base) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')) c = '_';
      }
      registry.gauge(base + "_calls", "profiling scope call count")
          .set(static_cast<double>(s.calls));
      registry.gauge(base + "_seconds", "profiling scope cumulative seconds")
          .set(s.total_seconds);
      registry.gauge(base + "_self_seconds", "profiling scope self (non-child) seconds")
          .set(s.self_seconds);
    }
  }

  /// Human-readable flat table (name, calls, total, per-call), for examples
  /// and quick post-mortems; span_report() shows the tree.
  [[nodiscard]] std::string report() const {
    std::ostringstream os;
    os << "profiling scopes (calls / total s / per-call us):\n";
    for (const Sample& s : samples()) {
      const double per_call_us =
          s.calls == 0 ? 0.0 : s.total_seconds / static_cast<double>(s.calls) * 1e6;
      os << "  " << s.name << ": " << s.calls << " / " << s.total_seconds << " / "
         << per_call_us << "\n";
    }
    return os.str();
  }

  /// Indented span tree with per-parent attribution and self-time.
  [[nodiscard]] std::string span_report() const {
    std::ostringstream os;
    os << "profiling spans (calls / total s / self s):\n";
    for (const SpanSample& s : span_samples()) {
      os << "  ";
      for (std::size_t d = 0; d < s.depth; ++d) os << "  ";
      os << s.name << ": " << s.calls << " / " << s.total_seconds << " / "
         << s.self_seconds << "\n";
    }
    return os.str();
  }

 private:
  static std::atomic<bool>& enabled_flag() {
    static std::atomic<bool> flag{false};
    return flag;
  }

  void dfs_spans(const std::map<const SpanNode*, std::vector<const SpanNode*>>& children,
                 const SpanNode* parent, const std::string& prefix, std::size_t depth,
                 std::vector<SpanSample>& out) const {
    const auto it = children.find(parent);
    if (it == children.end()) return;
    for (const SpanNode* node : it->second) {
      SpanSample s;
      s.name = node->name;
      s.path = prefix.empty() ? node->name : prefix + "/" + node->name;
      s.depth = depth;
      s.calls = node->calls.load(std::memory_order_relaxed);
      s.total_seconds =
          static_cast<double>(node->total_ns.load(std::memory_order_relaxed)) * 1e-9;
      s.self_seconds =
          static_cast<double>(node->self_ns.load(std::memory_order_relaxed)) * 1e-9;
      const std::string path = s.path;
      out.push_back(std::move(s));
      dfs_spans(children, node, path, depth + 1, out);
    }
  }

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<ProfSite>> sites_;
  std::map<std::pair<const SpanNode*, std::string>, std::unique_ptr<SpanNode>> nodes_;
  std::vector<std::unique_ptr<ProfSite::Edge>> edges_;
};

/// RAII span: pushes itself on the thread's span stack, accumulates
/// {calls, total, self} into the (site, parent) node on exit, and feeds its
/// elapsed time to the parent's child-time so the parent's self_ns is
/// exact. No-op (no clock read, no TLS write) when the profiler is off.
class ProfScope {
 public:
  explicit ProfScope(ProfSite& site) {
    if (!Profiler::enabled()) return;
    ProfScope*& current = detail::tls_current_scope();
    parent_ = current;
    node_ = Profiler::instance().node_for(site, parent_ != nullptr ? parent_->node_ : nullptr);
    current = this;
    start_ = std::chrono::steady_clock::now();
  }
  ~ProfScope() {
    if (node_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    const auto total = static_cast<std::uint64_t>(ns);
    detail::tls_current_scope() = parent_;
    node_->calls.fetch_add(1, std::memory_order_relaxed);
    node_->total_ns.fetch_add(total, std::memory_order_relaxed);
    // Guard against a child scope that closed after a clock step backward
    // (steady_clock can't, but belt-and-braces keeps self_ns from wrapping).
    node_->self_ns.fetch_add(total >= child_ns_ ? total - child_ns_ : 0,
                             std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->child_ns_ += total;
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ProfScope* parent_ = nullptr;
  SpanNode* node_ = nullptr;
  std::uint64_t child_ns_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// Enables profiling for a lexical region (and restores on exit).
class ProfilerSession {
 public:
  ProfilerSession() : prev_(Profiler::enabled()) { Profiler::enable(true); }
  ~ProfilerSession() { Profiler::enable(prev_); }
  ProfilerSession(const ProfilerSession&) = delete;
  ProfilerSession& operator=(const ProfilerSession&) = delete;

 private:
  bool prev_;
};

#define TTDC_PROF_CONCAT_INNER(a, b) a##b
#define TTDC_PROF_CONCAT(a, b) TTDC_PROF_CONCAT_INNER(a, b)

/// Accumulates the enclosing scope's wall time under `name` (a string
/// literal), attributed to the innermost enclosing TTDC_PROF_SCOPE as its
/// parent span. Site lookup happens once per callsite.
#define TTDC_PROF_SCOPE(name)                                                  \
  static ::ttdc::obs::ProfSite& TTDC_PROF_CONCAT(ttdc_prof_site_, __LINE__) =  \
      ::ttdc::obs::Profiler::instance().site(name);                            \
  ::ttdc::obs::ProfScope TTDC_PROF_CONCAT(ttdc_prof_scope_, __LINE__)(         \
      TTDC_PROF_CONCAT(ttdc_prof_site_, __LINE__))

}  // namespace ttdc::obs
