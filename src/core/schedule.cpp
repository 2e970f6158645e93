#include "core/schedule.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/hash.hpp"

namespace ttdc::core {

namespace {

std::vector<util::SlotSet> to_slot_sets(const std::vector<DynamicBitset>& sets) {
  std::vector<util::SlotSet> out;
  out.reserve(sets.size());
  for (const DynamicBitset& s : sets) out.emplace_back(s.size()).copy_from(s);
  return out;
}

std::vector<std::uint32_t> identity_index(std::size_t length) {
  std::vector<std::uint32_t> index(length);
  std::iota(index.begin(), index.end(), std::uint32_t{0});
  return index;
}

void check_pool(const std::vector<util::SlotSet>& pool, std::size_t num_nodes) {
  for (const util::SlotSet& set : pool) {
    if (set.size() != num_nodes) {
      throw std::invalid_argument("Schedule: slot sets must range over the node universe");
    }
  }
}

}  // namespace

Schedule::Schedule(std::size_t num_nodes, std::vector<util::SlotSet> transmit,
                   std::vector<util::SlotSet> receive)
    : num_nodes_(num_nodes),
      t_pool_(std::move(transmit)),
      r_pool_(std::move(receive)),
      t_of_(identity_index(t_pool_.size())),
      r_of_(identity_index(r_pool_.size())) {
  validate_and_cache_sizes();
}

Schedule::Schedule(std::size_t num_nodes, std::vector<util::SlotSet> transmit_pool,
                   std::vector<std::uint32_t> transmit_of, std::vector<util::SlotSet> receive_pool,
                   std::vector<std::uint32_t> receive_of)
    : num_nodes_(num_nodes),
      t_pool_(std::move(transmit_pool)),
      r_pool_(std::move(receive_pool)),
      t_of_(std::move(transmit_of)),
      r_of_(std::move(receive_of)) {
  validate_and_cache_sizes();
}

void Schedule::validate_and_cache_sizes() {
  if (t_of_.empty() || t_of_.size() != r_of_.size()) {
    throw std::invalid_argument("Schedule: T and R must be non-empty and the same length");
  }
  check_pool(t_pool_, num_nodes_);
  check_pool(r_pool_, num_nodes_);
  const std::size_t L = t_of_.size();
  t_sizes_.resize(L);
  r_sizes_.resize(L);
  for (std::size_t i = 0; i < L; ++i) {
    if (t_of_[i] >= t_pool_.size() || r_of_[i] >= r_pool_.size()) {
      throw std::invalid_argument("Schedule: slot index outside its set pool");
    }
    const util::SlotSet& t = t_pool_[t_of_[i]];
    const util::SlotSet& r = r_pool_[r_of_[i]];
    if (t.intersects(r)) {
      throw std::invalid_argument("Schedule: T[i] and R[i] must be disjoint");
    }
    t_sizes_[i] = t.count();
    r_sizes_[i] = r.count();
  }
}

Schedule::Schedule(std::size_t num_nodes, std::vector<DynamicBitset> transmit,
                   std::vector<DynamicBitset> receive)
    : Schedule(num_nodes, to_slot_sets(transmit), to_slot_sets(receive)) {}

Schedule Schedule::non_sleeping(std::size_t num_nodes, std::vector<DynamicBitset> transmit) {
  std::vector<DynamicBitset> receive;
  receive.reserve(transmit.size());
  for (const auto& t : transmit) receive.push_back(t.complement());
  return Schedule(num_nodes, std::move(transmit), std::move(receive));
}

void Schedule::audit_invariants() const {
#if TTDC_ENABLE_CHECKS
  const std::size_t L = frame_length();
  TTDC_DCHECK(r_of_.size() == L && t_sizes_.size() == L && r_sizes_.size() == L,
              "Schedule: per-slot arrays out of step at L=", L);
  for (const auto* pool : {&t_pool_, &r_pool_}) {
    for (const util::SlotSet& set : *pool) {
      TTDC_DCHECK(set.size() == num_nodes_, "Schedule: pooled set not over the node universe");
    }
  }
  for (std::size_t i = 0; i < L; ++i) {
    TTDC_DCHECK(t_of_[i] < t_pool_.size() && r_of_[i] < r_pool_.size(),
                "Schedule: slot ", i, " indexes outside its set pool");
    const util::SlotSet& t = transmitters(i);
    const util::SlotSet& r = receivers(i);
    TTDC_DCHECK(!t.intersects(r), "Schedule: T[", i, "] ∩ R[", i,
                "] != ∅: T=", t.to_dense_bitset().to_string(),
                " R=", r.to_dense_bitset().to_string());
    TTDC_DCHECK(t_sizes_[i] == t.count() && r_sizes_[i] == r.count(),
                "Schedule: cached sizes stale at slot ", i);
  }
#endif
}

std::uint64_t Schedule::storage_checksum() const {
  std::uint64_t h = util::kFnvOffsetBasis;
  h = util::fnv1a64_u64(h, num_nodes_);
  h = util::fnv1a64_u64(h, frame_length());
  for (const auto* pool : {&t_pool_, &r_pool_}) {
    h = util::fnv1a64_u64(h, pool->size());
    for (const util::SlotSet& set : *pool) h = set.fold_fnv1a64(h);
  }
  for (std::size_t i = 0; i < frame_length(); ++i) {
    h = util::fnv1a64_u64(h, (std::uint64_t{t_of_[i]} << 32) | r_of_[i]);
  }
  return h;
}

bool Schedule::is_non_sleeping() const {
  for (std::size_t i = 0; i < frame_length(); ++i) {
    if (t_sizes_[i] + r_sizes_[i] != num_nodes_) return false;
  }
  return true;
}

bool Schedule::is_alpha_schedule(std::size_t alpha_t, std::size_t alpha_r) const {
  for (std::size_t i = 0; i < frame_length(); ++i) {
    if (t_sizes_[i] > alpha_t || r_sizes_[i] > alpha_r) return false;
  }
  return true;
}

std::size_t Schedule::min_transmitters() const {
  return *std::min_element(t_sizes_.begin(), t_sizes_.end());
}

std::size_t Schedule::max_transmitters() const {
  return *std::max_element(t_sizes_.begin(), t_sizes_.end());
}

std::size_t Schedule::max_receivers() const {
  return *std::max_element(r_sizes_.begin(), r_sizes_.end());
}

double Schedule::duty_cycle() const {
  std::size_t active = 0;
  for (std::size_t i = 0; i < frame_length(); ++i) active += t_sizes_[i] + r_sizes_[i];
  return static_cast<double>(active) /
         (static_cast<double>(num_nodes_) * static_cast<double>(frame_length()));
}

std::string Schedule::to_string() const {
  std::ostringstream os;
  os << "Schedule(n=" << num_nodes_ << ", L=" << frame_length() << ")\n";
  for (std::size_t i = 0; i < frame_length(); ++i) {
    os << "  slot " << i << ": T=" << transmitters(i).to_dense_bitset().to_string()
       << " R=" << receivers(i).to_dense_bitset().to_string() << '\n';
  }
  return os.str();
}

}  // namespace ttdc::core
