#include "sim/mac.hpp"

#include <algorithm>
#include <utility>

#include "obs/profile.hpp"
#include "util/check.hpp"
#include "util/coins.hpp"

namespace ttdc::sim {

// ------------------------------------------------------------ base fallback

bool MacProtocol::fill_slot_sets(util::SlotSet& receivers,
                                 util::SlotSet& transmitters) const {
  // Scalar fallback for MACs that only implement the per-node interface:
  // the receiver set is derivable from can_receive(), the transmitter set
  // is not (wants_transmit() is target-dependent), so the simulator keeps
  // querying wants_transmit()/idle_state() node-by-node.
  receivers.reset_all();
  for (std::size_t v = 0; v < receivers.size(); ++v) {
    if (can_receive(v)) receivers.set(v);
  }
  (void)transmitters;
  return false;
}

// ---------------------------------------------------------------- schedule

DutyCycledScheduleMac::DutyCycledScheduleMac(const core::Schedule& schedule,
                                             bool schedule_aware_senders)
    : schedule_(schedule), aware_(schedule_aware_senders) {}

void DutyCycledScheduleMac::begin_slot(std::uint64_t slot, util::Xoshiro256&) {
  frame_slot_ = schedule_.frame_phase(slot);
}

bool DutyCycledScheduleMac::can_receive(std::size_t node) const {
  return schedule_.receivers(frame_slot_).test(node);
}

bool DutyCycledScheduleMac::wants_transmit(std::size_t node, std::size_t target) const {
  if (!schedule_.transmitters(frame_slot_).test(node)) return false;
  if (aware_ && !schedule_.receivers(frame_slot_).test(target)) return false;
  return true;
}

RadioState DutyCycledScheduleMac::idle_state(std::size_t node) const {
  // A scheduled receiver that hears nothing still burns listen power;
  // everyone else sleeps.
  return schedule_.receivers(frame_slot_).test(node) ? RadioState::kListen
                                                     : RadioState::kSleep;
}

bool DutyCycledScheduleMac::fill_slot_sets(util::SlotSet& receivers,
                                           util::SlotSet& transmitters) const {
  TTDC_PROF_SCOPE("mac.fill_slot_sets.duty_cycled");
  if (schedule_.num_nodes() != receivers.size()) {
    // Schedule built over more nodes than the simulated graph (the
    // Simulator rejects one over fewer): keep the scalar path, which
    // queries only the graph's node ids, all inside the schedule's sets.
    return MacProtocol::fill_slot_sets(receivers, transmitters);
  }
  receivers.copy_from(schedule_.receivers(frame_slot_));
  transmitters.copy_from(schedule_.transmitters(frame_slot_));
  return true;
}

// ------------------------------------------------------------------ aloha

SlottedAlohaMac::SlottedAlohaMac(std::size_t num_nodes, double attempt_probability)
    : threshold_(util::Xoshiro256::bernoulli_threshold(attempt_probability)),
      coin_(num_nodes) {
  TTDC_ASSERT(attempt_probability >= 0.0 && attempt_probability <= 1.0,
              "SlottedAlohaMac: attempt probability must be in [0, 1], got ",
              attempt_probability);
}

void SlottedAlohaMac::begin_slot(std::uint64_t, util::Xoshiro256& rng) {
  util::draw_coins(rng, threshold_, coin_);
}

bool SlottedAlohaMac::wants_transmit(std::size_t node, std::size_t) const {
  return coin_.test(node);
}

bool SlottedAlohaMac::fill_slot_sets(util::SlotSet& receivers,
                                     util::SlotSet& transmitters) const {
  TTDC_PROF_SCOPE("mac.fill_slot_sets.aloha");
  receivers.set_all();  // ALOHA never sleeps
  transmitters.copy_from(coin_);
  return true;
}

// ---------------------------------------------------------- uncoordinated

UncoordinatedSleepMac::UncoordinatedSleepMac(std::size_t num_nodes, double awake_probability,
                                             double attempt_probability)
    : awake_threshold_(util::Xoshiro256::bernoulli_threshold(awake_probability)),
      attempt_threshold_(util::Xoshiro256::bernoulli_threshold(attempt_probability)),
      awake_(num_nodes), coin_(num_nodes) {
  TTDC_ASSERT(awake_probability >= 0.0 && awake_probability <= 1.0,
              "UncoordinatedSleepMac: awake probability must be in [0, 1], got ",
              awake_probability);
  TTDC_ASSERT(attempt_probability >= 0.0 && attempt_probability <= 1.0,
              "UncoordinatedSleepMac: attempt probability must be in [0, 1], got ",
              attempt_probability);
}

void UncoordinatedSleepMac::begin_slot(std::uint64_t, util::Xoshiro256& rng) {
  // Node v's attempt coin right after its awake coin, and only when awake.
  util::draw_coins(rng, awake_threshold_, awake_, attempt_threshold_, coin_);
}

bool UncoordinatedSleepMac::can_receive(std::size_t node) const { return awake_.test(node); }

bool UncoordinatedSleepMac::wants_transmit(std::size_t node, std::size_t) const {
  return coin_.test(node);  // sender does not know the receiver's state
}

RadioState UncoordinatedSleepMac::idle_state(std::size_t node) const {
  return awake_.test(node) ? RadioState::kListen : RadioState::kSleep;
}

bool UncoordinatedSleepMac::fill_slot_sets(util::SlotSet& receivers,
                                           util::SlotSet& transmitters) const {
  TTDC_PROF_SCOPE("mac.fill_slot_sets.uncoordinated_sleep");
  receivers.copy_from(awake_);
  transmitters.copy_from(coin_);  // coin_ ⊆ awake_ by construction
  return true;
}

// ------------------------------------------------------- common active period

CommonActivePeriodMac::CommonActivePeriodMac(std::size_t num_nodes, std::size_t frame_length,
                                             std::size_t active_slots,
                                             double attempt_probability)
    : frame_length_(frame_length), active_slots_(active_slots),
      threshold_(util::Xoshiro256::bernoulli_threshold(attempt_probability)),
      coin_(num_nodes) {
  TTDC_ASSERT(active_slots >= 1 && active_slots <= frame_length,
              "active window ", active_slots, " outside frame of ", frame_length);
  TTDC_ASSERT(attempt_probability >= 0.0 && attempt_probability <= 1.0,
              "CommonActivePeriodMac: attempt probability must be in [0, 1], got ",
              attempt_probability);
}

void CommonActivePeriodMac::begin_slot(std::uint64_t slot, util::Xoshiro256& rng) {
  in_active_ = (slot % frame_length_) < active_slots_;
  if (in_active_) {
    util::draw_coins(rng, threshold_, coin_);
  } else {
    coin_.reset_all();
  }
}

bool CommonActivePeriodMac::can_receive(std::size_t) const { return in_active_; }

bool CommonActivePeriodMac::wants_transmit(std::size_t node, std::size_t) const {
  return in_active_ && coin_.test(node);
}

RadioState CommonActivePeriodMac::idle_state(std::size_t) const {
  return in_active_ ? RadioState::kListen : RadioState::kSleep;
}

bool CommonActivePeriodMac::fill_slot_sets(util::SlotSet& receivers,
                                           util::SlotSet& transmitters) const {
  TTDC_PROF_SCOPE("mac.fill_slot_sets.common_active_period");
  if (in_active_) {
    receivers.set_all();
    transmitters.copy_from(coin_);
  } else {
    receivers.reset_all();
    transmitters.reset_all();
  }
  return true;
}

// ------------------------------------------------------------ coloring tdma

std::vector<std::size_t> distance2_coloring(const net::Graph& graph) {
  const std::size_t n = graph.num_nodes();
  std::vector<std::size_t> color(n, static_cast<std::size_t>(-1));
  std::vector<bool> taken;
  for (std::size_t v = 0; v < n; ++v) {
    taken.assign(n + 1, false);
    // Forbid colors of all nodes within distance 2.
    graph.neighbors(v).for_each([&](std::size_t u) {
      if (color[u] != static_cast<std::size_t>(-1)) taken[color[u]] = true;
      graph.neighbors(u).for_each([&](std::size_t w) {
        if (w != v && color[w] != static_cast<std::size_t>(-1)) taken[color[w]] = true;
      });
    });
    std::size_t c = 0;
    while (taken[c]) ++c;
    color[v] = c;
  }
  return color;
}

ColoringTdmaMac::ColoringTdmaMac(const net::Graph& graph) { rebuild(graph); }

void ColoringTdmaMac::rebuild(const net::Graph& graph) {
  color_ = distance2_coloring(graph);
  num_colors_ = color_.empty() ? 1 : *std::max_element(color_.begin(), color_.end()) + 1;
  neighbor_.clear();
  neighbor_.reserve(graph.num_nodes());
  for (std::size_t v = 0; v < graph.num_nodes(); ++v) neighbor_.push_back(graph.neighbors(v));
  color_members_.assign(num_colors_, util::SlotSet(graph.num_nodes()));
  for (std::size_t v = 0; v < color_.size(); ++v) color_members_[color_[v]].set(v);
}

void ColoringTdmaMac::begin_slot(std::uint64_t slot, util::Xoshiro256&) {
  current_color_ = static_cast<std::size_t>(slot % num_colors_);
}

bool ColoringTdmaMac::can_receive(std::size_t node) const {
  // Listen unless it is the node's own transmit slot.
  return color_[node] != current_color_;
}

bool ColoringTdmaMac::wants_transmit(std::size_t node, std::size_t) const {
  return color_[node] == current_color_;
}

bool ColoringTdmaMac::fill_slot_sets(util::SlotSet& receivers,
                                     util::SlotSet& transmitters) const {
  TTDC_PROF_SCOPE("mac.fill_slot_sets.coloring_tdma");
  const util::SlotSet& owners = color_members_[current_color_];
  transmitters.copy_from(owners);
  // Everyone else listens. An idle owner sleeps (no neighbor shares its
  // color under a distance-2 coloring), so the batched sleep contract holds.
  receivers.copy_from(owners);
  receivers.flip_all();
  return true;
}

RadioState ColoringTdmaMac::idle_state(std::size_t node) const {
  // Sleep unless some (snapshot) neighbor owns the slot.
  bool neighbor_owns = false;
  neighbor_[node].for_each([&](std::size_t u) {
    if (color_[u] == current_color_) neighbor_owns = true;
  });
  return neighbor_owns ? RadioState::kListen : RadioState::kSleep;
}

bool ColoringTdmaMac::on_topology_change(const net::Graph& graph) {
  rebuild(graph);
  ++recolor_count_;
  return true;
}

}  // namespace ttdc::sim
