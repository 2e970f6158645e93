// EveryFlowScan: the oracle for SaturatedFlows' pending set.
//
// Probes every flow's source backlog in every slot, in flow order, and tops
// an empty one up to one packet: SaturatedFlows without the pending set, so
// without any use of TrafficSource::on_queue_drained. The differential
// tests run each scenario once with each source and assert identical
// SimStats and an identical stream of created packets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace ttdc::sim {

class EveryFlowScan final : public TrafficSource {
 public:
  EveryFlowScan(std::vector<std::pair<std::size_t, std::size_t>> flows,
                SaturatedFlows::BacklogFn backlog)
      : flows_(std::move(flows)), backlog_(std::move(backlog)) {}

  void generate(std::uint64_t, util::Xoshiro256&, const EmitFn& emit) override {
    for (const auto& [src, dst] : flows_) {
      if (backlog_(src) == 0) emit(src, dst);
    }
  }

 private:
  std::vector<std::pair<std::size_t, std::size_t>> flows_;
  SaturatedFlows::BacklogFn backlog_;
};

}  // namespace ttdc::sim
