#include "sim/traffic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/check.hpp"
#include "util/coins.hpp"
#include "util/hash.hpp"

namespace ttdc::sim {

SaturatedFlows::SaturatedFlows(std::vector<std::pair<std::size_t, std::size_t>> flows,
                               BacklogFn backlog)
    : flows_(std::move(flows)), backlog_(std::move(backlog)), pending_(flows_.size()) {
  pending_.set_all();
  // Counting sort of the flow indices by source, ascending within a source.
  std::size_t sources = 0;
  for (const auto& [src, dst] : flows_) sources = std::max(sources, src + 1);
  first_flow_.assign(sources + 1, 0);
  for (const auto& [src, dst] : flows_) ++first_flow_[src + 1];
  for (std::size_t v = 0; v < sources; ++v) first_flow_[v + 1] += first_flow_[v];
  flows_by_source_.resize(flows_.size());
  std::vector<std::uint32_t> next(first_flow_.begin(), first_flow_.end() - 1);
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    flows_by_source_[next[flows_[f].first]++] = static_cast<std::uint32_t>(f);
  }
}

void SaturatedFlows::generate(std::uint64_t, util::Xoshiro256&, const EmitFn& emit) {
  // Ascending flow order, as a scan of every flow would emit. emit() only
  // pushes, so no bit of pending_ changes under the walk but the ones it
  // clears itself.
  constexpr std::size_t kBits = util::DynamicBitset::kWordBits;
  for (std::size_t w = 0; w < pending_.words().size(); ++w) {
    for (util::DynamicBitset::Word bits = pending_.word(w); bits != 0; bits &= bits - 1) {
      const std::size_t f = w * kBits + static_cast<std::size_t>(std::countr_zero(bits));
      const auto& [src, dst] = flows_[f];
      if (backlog_(src) == 0) {
        emit(src, dst);
      } else {
        pending_.reset(f);
      }
    }
  }
}

void SaturatedFlows::on_queue_drained(std::size_t node) {
  if (node + 1 >= first_flow_.size()) return;  // no flow starts here
  for (std::uint32_t i = first_flow_[node]; i < first_flow_[node + 1]; ++i) {
    pending_.set(flows_by_source_[i]);
  }
}

BernoulliTraffic::BernoulliTraffic(std::size_t num_nodes, double rate)
    : n_(num_nodes), threshold_(util::Xoshiro256::bernoulli_threshold(rate)) {
  TTDC_ASSERT(n_ >= 2, "BernoulliTraffic: needs two nodes to pick a destination, got ", n_);
  TTDC_ASSERT(rate >= 0.0 && rate <= 1.0, "BernoulliTraffic: rate must be in [0, 1], got ",
              rate);
}

void BernoulliTraffic::generate(std::uint64_t, util::Xoshiro256& rng, const EmitFn& emit) {
  util::for_each_coin_hit(rng, threshold_, n_, n_, [&](std::size_t v) {
    std::size_t dst = static_cast<std::size_t>(rng.below(n_ - 1));
    if (dst >= v) ++dst;
    emit(v, dst);
  });
}

ConvergecastTraffic::ConvergecastTraffic(std::size_t num_nodes, std::size_t sink, double rate)
    : n_(num_nodes), sink_(sink), threshold_(util::Xoshiro256::bernoulli_threshold(rate)) {
  TTDC_ASSERT(sink_ < n_, "ConvergecastTraffic: sink ", sink_, " outside [0, ", n_, ")");
  TTDC_ASSERT(rate >= 0.0 && rate <= 1.0, "ConvergecastTraffic: rate must be in [0, 1], got ",
              rate);
}

void ConvergecastTraffic::generate(std::uint64_t, util::Xoshiro256& rng, const EmitFn& emit) {
  util::for_each_coin_hit(rng, threshold_, n_, sink_,
                          [&](std::size_t v) { emit(v, sink_); });
}

BatchArrivalTraffic::BatchArrivalTraffic(std::size_t num_nodes, std::size_t sink,
                                         std::size_t batch)
    : n_(num_nodes), sink_(sink), batch_(batch) {
  TTDC_ASSERT(n_ >= 2, "BatchArrivalTraffic: needs a non-sink origin, got ", n_, " nodes");
  TTDC_ASSERT(sink_ < n_, "BatchArrivalTraffic: sink ", sink_, " outside [0, ", n_, ")");
}

LookaheadConvergecastTraffic::LookaheadConvergecastTraffic(std::size_t num_nodes,
                                                           std::size_t sink, double rate,
                                                           std::uint64_t seed)
    : n_(num_nodes), sink_(sink),
      rng_(util::mix64(seed ^ 0x7261666669636b5dull)) {
  TTDC_ASSERT(sink_ < n_, "LookaheadConvergecastTraffic: sink ", sink_, " outside [0, ", n_,
              ")");
  TTDC_ASSERT(rate >= 0.0 && rate < 1.0,
              "LookaheadConvergecastTraffic: per-node rate must be in [0, 1), got ", rate);
  const double sources = static_cast<double>(n_ > 0 ? n_ - 1 : 0);
  p_any_ = n_ <= 1 || rate <= 0.0 ? 0.0 : 1.0 - std::pow(1.0 - rate, sources);
  if (p_any_ > 0.0) {
    // First arrival: a gap sampled from slot -1, so slot 0 is reachable.
    next_slot_ = sample_gap() - 1;
    pending_origin_ = sample_origin();
  }
}

void LookaheadConvergecastTraffic::generate(std::uint64_t slot, util::Xoshiro256&,
                                            const EmitFn& emit) {
  TTDC_DCHECK(slot <= next_slot_, "LookaheadConvergecastTraffic: slot ", slot,
              " skipped the arrival due at slot ", next_slot_);
  while (next_slot_ == slot) {
    emit(pending_origin_, sink_);
    advance();
  }
}

std::uint64_t LookaheadConvergecastTraffic::sample_gap() {
  // Geometric(p_any_) on {1, 2, ...} by inversion: exact for any p in (0, 1].
  if (p_any_ >= 1.0) return 1;
  const double u = rng_.uniform01();  // in [0, 1)
  const double gap = std::floor(std::log1p(-u) / std::log1p(-p_any_));
  // log1p(-u) <= 0 and log1p(-p) < 0, so gap >= 0; clamp defensively against
  // FP underflow before widening to the slot domain.
  return 1 + static_cast<std::uint64_t>(gap < 0.0 ? 0.0 : gap);
}

std::size_t LookaheadConvergecastTraffic::sample_origin() {
  std::size_t origin = static_cast<std::size_t>(rng_.below(n_ - 1));
  if (origin >= sink_) ++origin;  // exclude the sink as an origin
  return origin;
}

void LookaheadConvergecastTraffic::advance() {
  if (p_any_ <= 0.0) {
    next_slot_ = kNoEmission;
    return;
  }
  next_slot_ += sample_gap();
  pending_origin_ = sample_origin();
}

}  // namespace ttdc::sim
