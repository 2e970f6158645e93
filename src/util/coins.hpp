// Per-position Bernoulli coins from one generator stream, at generator speed.
//
// The randomized MACs and the per-node traffic sources draw one coin per
// node per slot from the simulator's stream; every such loop goes through
// the kernel below (DESIGN.md §8, "Coins from the simulator stream"). Each
// coin is Xoshiro256::coin() against a bernoulli_threshold() computed once,
// which equals bernoulli(p) draw for draw, so the stream, and with it every
// run's outcome, is that of a plain loop over rng.bernoulli(p).
//
// What makes the kernel faster than that loop: it steps a local copy of the
// generator, which the compiler keeps in registers because nothing can alias
// it (a bitset store or an opaque call could alias the caller's generator,
// forcing its state through memory every draw), and it packs 64 coins into a
// word before one store. The copy is written back at the end and before
// every callback, so a callback, a nested draw and the caller all see the
// stream exactly where the coins left it. Nothing allocates.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "util/bitset.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ttdc::util {

namespace detail {

/// on_hit of the set forms: no callback, so no write-back per hit.
struct NoCoinCallback {
  void operator()(std::size_t) const {}
};

/// The coin kernel. For v = 0 .. n-1 in order, except `skip`, which draws
/// nothing: draws v's coin against `threshold`; on a hit sets bit v of the
/// first word and, with kSecond, draws v's second coin against
/// `second_threshold` right after it, setting bit v of the second word when
/// that hits too; then calls on_hit(v) with `rng` written back and reloads
/// the copy afterwards. Each 64 positions' words are stored into `first` and
/// `second` (when non-null) through the word-granular writer.
template <bool kSecond, typename OnHit>
void coin_kernel(Xoshiro256& rng, std::size_t n, std::size_t skip, std::uint64_t threshold,
                 std::uint64_t second_threshold, DynamicBitset* first, DynamicBitset* second,
                 OnHit&& on_hit) {
  using Word = DynamicBitset::Word;
  constexpr std::size_t kBits = DynamicBitset::kWordBits;
  constexpr bool kCallback = !std::is_same_v<std::decay_t<OnHit>, NoCoinCallback>;
  Xoshiro256 gen = rng;
  for (std::size_t w = 0, base = 0; base < n; ++w, base += kBits) {
    const std::size_t width = std::min(kBits, n - base);
    Word hits = 0;
    Word second_hits = 0;
    for (std::size_t b = 0; b < width; ++b) {
      if (base + b == skip || !gen.coin(threshold)) continue;
      hits |= Word{1} << b;
      if constexpr (kSecond) {
        if (gen.coin(second_threshold)) second_hits |= Word{1} << b;
      }
      if constexpr (kCallback) {
        rng = gen;
        on_hit(base + b);
        gen = rng;
      }
    }
    if (first != nullptr) first->assign_word(w, hits);
    if constexpr (kSecond) second->assign_word(w, second_hits);
  }
  rng = gen;
}

}  // namespace detail

/// One coin per position of `hits`, drawn in position order: bit v is set
/// iff v's coin hit, every other bit is cleared.
inline void draw_coins(Xoshiro256& rng, std::uint64_t threshold, DynamicBitset& hits) {
  detail::coin_kernel<false>(rng, hits.size(), hits.size(), threshold, 0, &hits, nullptr,
                             detail::NoCoinCallback{});
}

/// A coin per position and a second coin per hit: position v draws its
/// first coin and, only when that hits, its second coin right after it,
/// before position v + 1 draws. `first` gets the first coins' hits and
/// `second` the second coins' (a subset of `first`); both are overwritten.
inline void draw_coins(Xoshiro256& rng, std::uint64_t threshold, DynamicBitset& first,
                       std::uint64_t second_threshold, DynamicBitset& second) {
  TTDC_DCHECK(first.size() == second.size(), "coin sets over ", first.size(), " and ",
              second.size(), " positions");
  detail::coin_kernel<true>(rng, first.size(), first.size(), threshold, second_threshold,
                            &first, &second, detail::NoCoinCallback{});
}

/// One coin per position v = 0 .. n-1 except `skip` (which draws nothing;
/// skip >= n skips nobody), in order, calling on_hit(v) on each hit. `rng`
/// is written back before every call, so on_hit may draw from it: its
/// draws come right after v's coin, before v + 1's.
template <typename OnHit>
void for_each_coin_hit(Xoshiro256& rng, std::uint64_t threshold, std::size_t n,
                       std::size_t skip, OnHit&& on_hit) {
  detail::coin_kernel<false>(rng, n, skip, threshold, 0, nullptr, nullptr,
                             std::forward<OnHit>(on_hit));
}

}  // namespace ttdc::util
