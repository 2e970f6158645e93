#include "core/frame_counts.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>

#include "util/check.hpp"
#include "util/slot_set.hpp"

namespace ttdc::core {

namespace {

using Word = util::SlotSet::Word;
constexpr std::size_t kBits = util::DynamicBitset::kWordBits;

/// Calls fn(w, bits) for each word w of `set` that holds a member, with the
/// members 64w .. 64w+63 as bits: O(size/64) dense, O(count) sparse.
template <typename Fn>
void for_each_word(const util::SlotSet& set, Fn&& fn) {
  if (set.is_dense()) {
    const std::size_t words = (set.size() + kBits - 1) / kBits;
    for (std::size_t w = 0; w < words; ++w) {
      if (const Word bits = set.word(w); bits != 0) fn(w, bits);
    }
    return;
  }
  std::size_t w = 0;
  Word bits = 0;
  set.for_each([&](std::size_t v) {
    if (v / kBits != w) {
      if (bits != 0) fn(w, bits);
      w = v / kBits;
      bits = 0;
    }
    bits |= Word{1} << (v % kBits);
  });
  if (bits != 0) fn(w, bits);
}

/// out[v] += delta for each member v of word w given as `bits` (modular:
/// a negative delta is its two's complement).
void add_bits(std::vector<std::uint32_t>& out, std::size_t w, Word bits, std::uint32_t delta) {
  while (bits != 0) {
    out[w * kBits + static_cast<std::size_t>(std::countr_zero(bits))] += delta;
    bits &= bits - 1;
  }
}

}  // namespace

const FrameCounts& FrameCounter::count(const Schedule& schedule, std::size_t first,
                                       std::size_t end) {
  const std::size_t n = schedule.num_nodes();
  TTDC_DCHECK(first <= end && end <= schedule.frame_length(), "stretch [", first, ", ", end,
              ") outside a frame of ", schedule.frame_length(), " slots");
  const std::span<const util::SlotSet> t_pool = schedule.transmit_pool();
  const std::span<const util::SlotSet> r_pool = schedule.receive_pool();
  const std::span<const std::uint32_t> t_of = schedule.transmit_index();
  const std::span<const std::uint32_t> r_of = schedule.receive_index();
  FrameCounts& out = counts_;
  for (std::vector<std::uint32_t>* counts : {&out.listen, &out.wakes, &out.transmit}) {
    counts->assign(n, 0);
  }
  if (in_t_.size() != n) {
    in_t_ = util::DynamicBitset(n);
    seen_ = util::DynamicBitset(n);
  }
  // What the closed-form blocks give every node, added at the end. Their
  // complement terms are subtracted first; the arithmetic is modular, so
  // only the final counts (each at most L) need to lie in range.
  std::uint32_t every_listen = 0;
  std::uint32_t every_wake = 0;
  const auto row_end = [&](std::size_t s) {
    const std::uint32_t t = t_of[s];
    while (s < end && t_of[s] == t) ++s;
    return s;
  };
  for (std::size_t start = first; start < end;) {
    // The block's first row fixes its R list; every further row repeats it
    // under a new T window.
    std::size_t stop = row_end(start);
    const std::size_t k = stop - start;
    const std::span<const std::uint32_t> r_list = r_of.subspan(start, k);
    std::size_t rows = 1;
    while (stop < end) {
      const std::size_t next = row_end(stop);
      if (next - stop != k || !std::equal(r_list.begin(), r_list.end(), r_of.begin() + stop)) {
        break;
      }
      ++rows;
      stop = next;
    }
    const auto row_t = [&](std::size_t a) -> const util::SlotSet& {
      return t_pool[t_of[start + a * k]];
    };
    const auto window = [&](std::size_t b) -> const util::SlotSet& { return r_pool[r_list[b]]; };
    const auto before = [&](std::size_t b) -> const util::SlotSet& {
      return window(b == 0 ? k - 1 : b - 1);  // cyclically
    };
    const auto weight = static_cast<std::uint32_t>(rows);
    // A one-row block has nothing to share, so only a taller one is tested
    // for coverage, which needs ∪T̄.
    const bool stacked = rows >= 2;
    if (stacked) in_t_.reset_all();
    for (std::size_t a = 0; a < rows; ++a) {
      row_t(a).for_each([&](std::size_t v) {
        out.transmit[v] += static_cast<std::uint32_t>(k);
        if (stacked) in_t_.set(v);
      });
    }
    // m(v) is [v ∈ ∪R̄] plus one per window beyond v's first; those extra
    // memberships and adj(v) are counted word by word here, ∪R̄ collected
    // on the way. A lone window is its own cyclic neighbour (adj = m), so
    // it wakes nobody inside the block.
    const std::uint32_t wake = k >= 2 ? weight : 0;
    if (k >= 2) {
      seen_.reset_all();
      for (std::size_t b = 0; b < k; ++b) {
        const util::SlotSet& prev = before(b);
        for_each_word(window(b), [&](std::size_t w, Word bits) {
          const Word again = bits & seen_.word(w);
          seen_.assign_word(w, seen_.word(w) | bits);
          add_bits(out.listen, w, again, weight);
          add_bits(out.wakes, w, again, weight);
          add_bits(out.wakes, w, bits & prev.word(w), -weight);
        });
      }
    }
    // The [v ∈ ∪R̄] term. When the block covers V, ∪R̄ = V \ ∪T̄: every
    // node is charged at the end and ∪T̄ takes it back here. Otherwise ∪R̄
    // is walked.
    const std::size_t union_r = k == 1 ? window(0).count() : seen_.count();
    if (stacked && in_t_.count() + union_r == n) {
      every_listen += weight;
      every_wake += wake;
      in_t_.for_each([&](std::size_t v) {
        out.listen[v] -= weight;
        out.wakes[v] -= wake;
      });
    } else {
      const auto charge = [&](std::size_t v) {
        out.listen[v] += weight;
        out.wakes[v] += wake;
      };
      if (k == 1) {
        window(0).for_each(charge);
      } else {
        seen_.for_each(charge);
      }
    }
    // Every row's first slot was counted as waking from the block's last
    // window. The block's first slot follows R[start − 1] instead, and the
    // stretch's first slot wakes nobody.
    const util::SlotSet& tail = window(k - 1);
    const util::SlotSet* seam = start == first ? nullptr : &r_pool[r_of[start - 1]];
    for_each_word(window(0), [&](std::size_t w, Word head) {
      const Word in_tail = tail.word(w);
      const Word in_seam = seam == nullptr ? ~Word{0} : seam->word(w);
      add_bits(out.wakes, w, head & in_tail & ~in_seam, 1);
      add_bits(out.wakes, w, head & in_seam & ~in_tail, ~std::uint32_t{0});
    });
    start = stop;
  }
  if (every_listen != 0 || every_wake != 0) {
    for (std::size_t v = 0; v < n; ++v) {
      out.listen[v] += every_listen;
      out.wakes[v] += every_wake;
    }
  }
  return out;
}

FrameCounts frame_counts(const Schedule& schedule) {
  return FrameCounter().count(schedule, 0, schedule.frame_length());
}

}  // namespace ttdc::core
