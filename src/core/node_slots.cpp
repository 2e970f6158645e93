#include "core/node_slots.hpp"

#include "obs/profile.hpp"

namespace ttdc::core {

NodeSlots::NodeSlots(const Schedule& schedule) : frame_length_(schedule.frame_length()) {
  TTDC_PROF_SCOPE("core.node_slots.transpose");
  tran_ = DynamicBitset::transpose(frame_length_, schedule.num_nodes(),
                                   [&](std::size_t i) -> const util::SlotSet& {
                                     return schedule.transmitters(i);
                                   });
  recv_ = DynamicBitset::transpose(frame_length_, schedule.num_nodes(),
                                   [&](std::size_t i) -> const util::SlotSet& {
                                     return schedule.receivers(i);
                                   });
}

DynamicBitset NodeSlots::free_slots(std::size_t x, std::span<const std::size_t> y) const {
  DynamicBitset free = tran(x);
  for (std::size_t node : y) free.subtract(tran(node));
  return free;
}

DynamicBitset NodeSlots::sigma(std::size_t a, std::size_t b) const {
  return tran(a) & recv(b);
}

DynamicBitset NodeSlots::guaranteed_slots(std::size_t x, std::size_t y,
                                          std::span<const std::size_t> s) const {
  DynamicBitset g = tran(x) & recv(y);
  g.subtract(tran(y));
  for (std::size_t node : s) g.subtract(tran(node));
  return g;
}

std::size_t NodeSlots::guaranteed_slot_count(std::size_t x, std::size_t y,
                                             std::span<const std::size_t> s) const {
  return guaranteed_slots(x, y, s).count();
}

}  // namespace ttdc::core
