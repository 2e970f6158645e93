// Traffic sources and routing for the slot simulator.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "net/graph.hpp"
#include "net/routing.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace ttdc::sim {

/// Callback used by traffic sources to inject a packet: (origin, final
/// destination).
using EmitFn = std::function<void(std::size_t, std::size_t)>;

class TrafficSource {
 public:
  /// next_emission() return value meaning "no further emissions, ever".
  static constexpr std::uint64_t kNoEmission = ~std::uint64_t{0};

  virtual ~TrafficSource() = default;
  /// Called at the start of every slot; may emit any number of packets.
  virtual void generate(std::uint64_t slot, util::Xoshiro256& rng, const EmitFn& emit) = 0;

  /// Slot-addressable lookahead — the traffic half of the skip contract
  /// (Simulator::run, DESIGN.md §8). A source returning true promises:
  ///
  ///   * generate() NEVER draws from the simulator rng it is handed (the
  ///     source owns a private stream), and
  ///   * next_emission(from) is the exact slot >= from of its next emit()
  ///     call (kNoEmission if none), and that answer does not depend on
  ///     whether generate() is actually invoked for the quiet slots in
  ///     between — so the simulator may skip generate() for any run of
  ///     slots before that one (the slots of a charged span in which nobody
  ///     can send) and re-enter at any later slot up to it, never past it.
  ///
  /// The default (false) marks the source opaque: the per-slot Bernoulli
  /// sources below draw from the simulator stream every slot, so skipping
  /// even a silent slot would desynchronize the run. The simulator never
  /// skips a slot under an opaque source.
  [[nodiscard]] virtual bool supports_lookahead() const { return false; }
  /// Only meaningful when supports_lookahead(). Sources must be stepped in
  /// slot order, so `from` never precedes a slot already generated.
  [[nodiscard]] virtual std::uint64_t next_emission(std::uint64_t from) const {
    (void)from;
    return kNoEmission;
  }

  /// Called by the simulator whenever `node`'s queue becomes empty: a hop
  /// success or an unroutable drop took its last packet. These are the
  /// only ways a queue shrinks, so a source that tracks backlogs needs no
  /// other signal. Default: ignored.
  virtual void on_queue_drained(std::size_t node) { (void)node; }
};

/// Saturated directed flows: each (src, dst) flow keeps the source
/// backlogged — the `backlog` probe reports how many packets the origin
/// holds and the source tops it up to 1. This reproduces the paper's worst
/// case: "each neighbor has a packet to transmit" in every eligible slot.
///
/// The probe must report the origin's queue length in the simulator that
/// drives this source (Simulator::queue_size), because generate() probes
/// only the pending flows: every flow starts pending, leaves once its probe
/// reads non-zero, and rejoins when on_queue_drained() reports its source.
/// A queue shrinks only through the paths that notify and generate() only
/// adds packets, so every flow it skips would have read a non-zero backlog:
/// the emissions, in flow order, are those of probing every flow every
/// slot. A rejected emission (dead or crashed origin) leaves the flow
/// pending, so it is retried every slot.
class SaturatedFlows final : public TrafficSource {
 public:
  using BacklogFn = std::function<std::size_t(std::size_t)>;

  SaturatedFlows(std::vector<std::pair<std::size_t, std::size_t>> flows, BacklogFn backlog);

  void generate(std::uint64_t, util::Xoshiro256&, const EmitFn& emit) override;
  void on_queue_drained(std::size_t node) override;

 private:
  std::vector<std::pair<std::size_t, std::size_t>> flows_;
  BacklogFn backlog_;
  util::DynamicBitset pending_;  // flow indices generate() probes
  // Node -> flows with that source: flows_by_source_[first_flow_[v] ..
  // first_flow_[v + 1]), for every v below first_flow_.size() - 1.
  std::vector<std::uint32_t> first_flow_;
  std::vector<std::uint32_t> flows_by_source_;
};

/// Light random traffic: each node independently generates a packet with
/// probability `rate` per slot, destined to a uniformly random other node.
/// Per slot, node v draws its coin from the simulator stream and, on a hit,
/// its destination right after it, in node order. Needs two nodes at least.
class BernoulliTraffic final : public TrafficSource {
 public:
  BernoulliTraffic(std::size_t num_nodes, double rate);

  void generate(std::uint64_t, util::Xoshiro256& rng, const EmitFn& emit) override;

 private:
  std::size_t n_;
  std::uint64_t threshold_;  // the rate's coin threshold
};

/// Convergecast: every non-sink node generates toward the sink with
/// probability `rate` per slot — the canonical WSN data-collection load.
/// Per slot, each non-sink node draws one coin from the simulator stream,
/// in node order; the sink draws none.
class ConvergecastTraffic final : public TrafficSource {
 public:
  ConvergecastTraffic(std::size_t num_nodes, std::size_t sink, double rate);

  void generate(std::uint64_t, util::Xoshiro256& rng, const EmitFn& emit) override;

 private:
  std::size_t n_;
  std::size_t sink_;
  std::uint64_t threshold_;  // the rate's coin threshold
};

/// Fixed-size batch arrivals: exactly `batch` packets per slot from
/// uniformly random origins to a fixed sink. Unlike the per-node Bernoulli
/// sources above, generation costs O(batch) per slot rather than O(n) — at
/// metropolitan scale (n = 10^4..10^6) a per-node coin flip would dominate
/// the slot itself, hiding the pipeline costs the megascale bench measures.
class BatchArrivalTraffic final : public TrafficSource {
 public:
  /// Needs a sink inside [0, num_nodes) and another node to send from.
  BatchArrivalTraffic(std::size_t num_nodes, std::size_t sink, std::size_t batch);

  void generate(std::uint64_t, util::Xoshiro256& rng, const EmitFn& emit) override {
    for (std::size_t i = 0; i < batch_; ++i) {
      std::size_t origin = static_cast<std::size_t>(rng.below(n_ - 1));
      if (origin >= sink_) ++origin;  // exclude the sink as an origin
      emit(origin, sink_);
    }
  }

 private:
  std::size_t n_;
  std::size_t sink_;
  std::size_t batch_;
};

/// Slot-addressable convergecast: the same aggregate load as
/// ConvergecastTraffic (every non-sink node sends to the sink at `rate`
/// packets per slot), reformulated as an event stream so the simulator can
/// skip the slots before its next arrival. Arrival slots are sampled by
/// geometric gaps on the AGGREGATE process (P(any arrival in a slot) =
/// 1 - (1-rate)^(n-1)), each arrival carrying one packet from a uniformly
/// random non-sink origin — at most one packet per slot, from the source's
/// own SplitMix-seeded stream, never the simulator's. The realization is therefore a pure function of
/// (seed, arrival index): identical whether the simulator steps every slot
/// or skips the proven-silent stretches between arrivals, which is exactly
/// the supports_lookahead() contract.
class LookaheadConvergecastTraffic final : public TrafficSource {
 public:
  LookaheadConvergecastTraffic(std::size_t num_nodes, std::size_t sink, double rate,
                               std::uint64_t seed);

  /// Emits the arrivals due at `slot`. A slot past a pending arrival is a
  /// contract violation: a skip over it would drop that packet and, since
  /// only generate() advances the stream, every later one.
  void generate(std::uint64_t slot, util::Xoshiro256&, const EmitFn& emit) override;

  [[nodiscard]] bool supports_lookahead() const override { return true; }
  [[nodiscard]] std::uint64_t next_emission(std::uint64_t from) const override {
    (void)from;  // stepped in slot order, so next_slot_ >= from always
    return next_slot_;
  }

 private:
  void advance();
  std::uint64_t sample_gap();
  std::size_t sample_origin();

  std::size_t n_;
  std::size_t sink_;
  double p_any_;  // P(at least one arrival in a slot)
  util::Xoshiro256 rng_;
  std::uint64_t next_slot_ = kNoEmission;
  std::size_t pending_origin_ = 0;
};

/// Next-hop routing (shortest hop paths) now lives in net/routing.hpp as a
/// lazily cached table; the simulator invalidates it on topology change.
using RoutingTable = net::RoutingTable;

}  // namespace ttdc::sim
