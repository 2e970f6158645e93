// Deterministic, splittable pseudo-random generation.
//
// Everything randomized in ttdc (topology generators, Monte-Carlo checkers,
// the simulator's traffic sources) takes an explicit seed so experiments are
// reproducible; xoshiro256** is the workhorse and splitmix64 seeds it.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace ttdc::util {

/// splitmix64: used to expand a single u64 seed into xoshiro state and to
/// derive independent child seeds (seed ^ constant chains are not enough).
struct SplitMix64 {
  std::uint64_t state;

  explicit SplitMix64(std::uint64_t seed) : state(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

/// xoshiro256** 1.0 (Blackman & Vigna). Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bull) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Unbiased uniform integer in [0, bound) via Lemire rejection.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform01() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform01() < p; }

  /// The integer form of bernoulli(p): coin(bernoulli_threshold(p)) draws
  /// the same value and returns the same answer, draw for draw. The draw
  /// is u = m·2⁻⁵³ with m = next() >> 11 exact, so u < p ⟺ m < p·2⁵³ ⟺
  /// m < ⌈p·2⁵³⌉ for the integer m; the threshold is that ceiling clamped
  /// to [0, 2⁵³], and 0 for NaN or p ≤ 0 (no draw can hit).
  [[nodiscard]] static std::uint64_t bernoulli_threshold(double p) {
    constexpr std::uint64_t kAlways = std::uint64_t{1} << 53;
    if (!(p > 0.0)) return 0;  // NaN, ±0 and negatives
    if (p >= 1.0) return kAlways;
    // p·2⁵³ is exact (a power-of-two scale) and lies in (0, 2⁵³) here.
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }
  /// One Bernoulli draw against a bernoulli_threshold(): no conversion to
  /// double, one generator step.
  bool coin(std::uint64_t threshold) { return ((*this)() >> 11) < threshold; }

  /// Derives an independent child generator (for per-thread / per-replicate
  /// streams); deterministic in (parent state consumed, index).
  Xoshiro256 split();

  /// State equality. Two generators compare equal iff they will produce the
  /// same stream forever; the simulator's fast-forward engine uses this as a
  /// taint check ("did this frame consume any simulator randomness?") when
  /// deciding whether a frame's outcome is memoizable.
  [[nodiscard]] friend bool operator==(const Xoshiro256& a, const Xoshiro256& b) {
    return a.s_[0] == b.s_[0] && a.s_[1] == b.s_[1] && a.s_[2] == b.s_[2] &&
           a.s_[3] == b.s_[3];
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t s_[4];
};

/// Fisher-Yates shuffle of a vector, in place.
template <typename T>
void shuffle(std::vector<T>& v, Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = rng.below(i);
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

/// Uniform random k-subset of [0, universe), returned sorted.
/// Floyd's algorithm: O(k) expected, no O(universe) scratch.
std::vector<std::size_t> sample_k_of(std::size_t universe, std::size_t k, Xoshiro256& rng);

}  // namespace ttdc::util
