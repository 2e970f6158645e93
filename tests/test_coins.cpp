// Coins from the simulator stream (DESIGN.md §8): the integer threshold form
// of Xoshiro256::bernoulli(), the coin kernel (util/coins.hpp) held against
// the per-node loops it replaced (tests/support/reference_coins.hpp), and the
// constructor contracts of the randomized MACs and per-node traffic sources.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/mac.hpp"
#include "sim/traffic.hpp"
#include "support/reference_coins.hpp"
#include "util/check.hpp"
#include "util/coins.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/slot_set.hpp"

namespace ttdc {
namespace {

using check::ContractViolation;
using check::ScopedThrowOnViolation;
using util::Xoshiro256;

constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;

// ------------------------------------------------------ threshold identity

TEST(Xoshiro256Coin, ThresholdIsTheCeilingOfTheScaledProbability) {
  const double tiny = 0x1.0p-53;
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(0x1.0p-60), 1u);
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(std::nextafter(tiny, 0.0)), 1u);
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(tiny), 1u);
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(std::nextafter(tiny, 1.0)), 2u);
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(0.5), kTwo53 / 2);
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(1.0 - 0x1.0p-53), kTwo53 - 1);
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(1.0), kTwo53);
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(1.5), kTwo53);
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(std::numeric_limits<double>::infinity()), kTwo53);
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(-std::numeric_limits<double>::infinity()), 0u);
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(-0.0), 0u);
  EXPECT_EQ(Xoshiro256::bernoulli_threshold(0.0), 0u);
}

TEST(Xoshiro256Coin, ThresholdComparisonEqualsTheDoubleComparison) {
  // (m < t) == (m·2⁻⁵³ < p) for every draw m in [0, 2⁵³); checked where a
  // wrong rounding or clamp would show: at both ends and around t.
  const double tiny = 0x1.0p-53;
  const double ps[] = {0x1.0p-60,
                       std::nextafter(tiny, 0.0),
                       tiny,
                       std::nextafter(tiny, 1.0),
                       0.002,
                       0.08,
                       0.2,
                       0.4,
                       0.5,
                       1.0 - 0x1.0p-53,
                       1.0,
                       1.5,
                       std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity(),
                       -0.0};
  for (const double p : ps) {
    const std::uint64_t t = Xoshiro256::bernoulli_threshold(p);
    ASSERT_LE(t, kTwo53) << "p = " << p;
    const std::uint64_t ms[] = {0, 1, t - 1, t, t + 1, kTwo53 - 1};
    for (const std::uint64_t m : ms) {
      if (m >= kTwo53) continue;  // t - 1 at t = 0, t + 1 at t = 2⁵³
      EXPECT_EQ(m < t, static_cast<double>(m) * 0x1.0p-53 < p)
          << "p = " << p << ", m = " << m << ", t = " << t;
    }
  }
}

TEST(Xoshiro256Coin, CoinEqualsBernoulliDrawForDraw) {
  const double ps[] = {0.0, 0.002, 0.08, 1.0 / 3.0, 0.5, 1.0 - 0x1.0p-53, 1.0};
  for (const double p : ps) {
    Xoshiro256 a(42), b(42);
    const std::uint64_t t = Xoshiro256::bernoulli_threshold(p);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(a.coin(t), b.bernoulli(p)) << "p = " << p << ", draw " << i;
    }
    EXPECT_TRUE(a == b);
  }
}

// ------------------------------------------ kernel against reference loops

constexpr std::size_t kNodeCounts[] = {1, 2, 63, 64, 65, 100, 128, 129, 1000};
const double kProbabilities[] = {0.0, 0.002, 0.08, 0.2, 0.4, 0.5, 1.0 - 0x1.0p-53, 1.0};
constexpr std::uint64_t kSlots = 24;

/// A distinct seed per case, so the cases do not share streams.
std::uint64_t case_seed(std::uint64_t index) { return util::mix64(0xc0175eedull + index); }

std::string describe(const char* what, std::size_t n, double p, double q = -1.0) {
  std::ostringstream os;
  os.precision(17);
  os << what << " n=" << n << " p=" << p;
  if (q >= 0.0) os << " q=" << q;
  return os.str();
}

/// Steps a MAC and its reference slot by slot on generators seeded alike;
/// after every slot the two must publish the same slot sets and leave the
/// generators in the same state.
void expect_same_mac(sim::MacProtocol& mac, sim::MacProtocol& reference, std::size_t n,
                     std::uint64_t seed, const std::string& what) {
  Xoshiro256 rng(seed), ref_rng(seed);
  util::SlotSet rx(n), tx(n), ref_rx(n), ref_tx(n);
  for (std::uint64_t slot = 0; slot < kSlots; ++slot) {
    mac.begin_slot(slot, rng);
    reference.begin_slot(slot, ref_rng);
    ASSERT_TRUE(mac.fill_slot_sets(rx, tx)) << what;
    ASSERT_TRUE(reference.fill_slot_sets(ref_rx, ref_tx)) << what;
    ASSERT_TRUE(rx == ref_rx) << what << ", slot " << slot;
    ASSERT_TRUE(tx == ref_tx) << what << ", slot " << slot;
    ASSERT_TRUE(rng == ref_rng) << what << ", generator after slot " << slot;
  }
}

struct Emission {
  std::size_t origin;
  std::size_t destination;
  Xoshiro256 state;  // the generator as the emit callback saw it
};

/// The same for a traffic source: identical emissions, each seeing the
/// generator in the same state, and identical generators after every slot.
void expect_same_traffic(sim::TrafficSource& source, sim::TrafficSource& reference,
                         std::uint64_t seed, const std::string& what) {
  Xoshiro256 rng(seed), ref_rng(seed);
  std::vector<Emission> got, want;
  for (std::uint64_t slot = 0; slot < kSlots; ++slot) {
    got.clear();
    want.clear();
    source.generate(slot, rng, [&](std::size_t o, std::size_t d) { got.push_back({o, d, rng}); });
    reference.generate(slot, ref_rng,
                       [&](std::size_t o, std::size_t d) { want.push_back({o, d, ref_rng}); });
    ASSERT_EQ(got.size(), want.size()) << what << ", slot " << slot;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].origin, want[i].origin) << what << ", slot " << slot << ", emit " << i;
      ASSERT_EQ(got[i].destination, want[i].destination)
          << what << ", slot " << slot << ", emit " << i;
      ASSERT_TRUE(got[i].state == want[i].state)
          << what << ", generator at emit " << i << " of slot " << slot;
    }
    ASSERT_TRUE(rng == ref_rng) << what << ", generator after slot " << slot;
  }
}

TEST(CoinStreams, SlottedAlohaMatchesItsReferenceLoop) {
  std::uint64_t index = 0;
  for (const std::size_t n : kNodeCounts) {
    for (const double p : kProbabilities) {
      sim::SlottedAlohaMac mac(n, p);
      sim::ReferenceAlohaMac reference(n, p);
      expect_same_mac(mac, reference, n, case_seed(index++), describe("aloha", n, p));
    }
  }
}

TEST(CoinStreams, UncoordinatedSleepMatchesItsReferenceLoop) {
  std::uint64_t index = 0;
  for (const std::size_t n : kNodeCounts) {
    for (const double p : kProbabilities) {
      for (const double q : kProbabilities) {
        sim::UncoordinatedSleepMac mac(n, p, q);
        sim::ReferenceUncoordinatedSleepMac reference(n, p, q);
        expect_same_mac(mac, reference, n, case_seed(index++),
                        describe("uncoordinated", n, p, q));
      }
    }
  }
}

TEST(CoinStreams, CommonActivePeriodMatchesItsReferenceLoop) {
  // Frame 5 with 2 active slots: the run crosses active and asleep slots.
  std::uint64_t index = 0;
  for (const std::size_t n : kNodeCounts) {
    for (const double p : kProbabilities) {
      sim::CommonActivePeriodMac mac(n, 5, 2, p);
      sim::ReferenceCommonActivePeriodMac reference(n, 5, 2, p);
      expect_same_mac(mac, reference, n, case_seed(index++), describe("s-mac", n, p));
    }
  }
}

TEST(CoinStreams, BernoulliTrafficMatchesItsReferenceLoop) {
  std::uint64_t index = 0;
  for (const std::size_t n : kNodeCounts) {
    if (n < 2) continue;  // a destination needs another node
    for (const double rate : kProbabilities) {
      sim::BernoulliTraffic source(n, rate);
      sim::ReferenceBernoulliTraffic reference(n, rate);
      expect_same_traffic(source, reference, case_seed(index++), describe("bernoulli", n, rate));
    }
  }
}

TEST(CoinStreams, ConvergecastMatchesItsReferenceLoop) {
  std::uint64_t index = 0;
  for (const std::size_t n : kNodeCounts) {
    std::vector<std::size_t> sinks;
    for (const std::size_t sink : {std::size_t{0}, std::size_t{63}, std::size_t{64}, n - 1}) {
      if (sink < n && (sinks.empty() || sinks.back() < sink)) sinks.push_back(sink);
    }
    for (const std::size_t sink : sinks) {
      for (const double rate : kProbabilities) {
        sim::ConvergecastTraffic source(n, sink, rate);
        sim::ReferenceConvergecastTraffic reference(n, sink, rate);
        expect_same_traffic(source, reference, case_seed(index++),
                            describe("convergecast", n, rate) + " sink=" + std::to_string(sink));
      }
    }
  }
}

TEST(CoinKernel, CallbackMayDrawAndSeesTheStreamWhereTheCoinLeftIt) {
  // Every hit draws from the written-back generator; the reference is a
  // plain loop that does the same on one generator.
  for (const std::size_t n : {std::size_t{1}, std::size_t{64}, std::size_t{130}}) {
    Xoshiro256 rng(7), ref(7);
    const std::uint64_t t = Xoshiro256::bernoulli_threshold(0.3);
    std::vector<std::uint64_t> got, want;
    util::for_each_coin_hit(rng, t, n, n, [&](std::size_t v) { got.push_back(v ^ rng()); });
    for (std::size_t v = 0; v < n; ++v) {
      if (ref.bernoulli(0.3)) want.push_back(v ^ ref());
    }
    EXPECT_EQ(got, want) << "n = " << n;
    EXPECT_TRUE(rng == ref) << "n = " << n;
  }
}

TEST(CoinKernel, SetFormsOverwriteStaleMembersAndKeepTheTailClear) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{65}}) {
    util::DynamicBitset first(n), second(n);
    first.set_all();
    second.set_all();
    Xoshiro256 rng(3);
    util::draw_coins(rng, Xoshiro256::bernoulli_threshold(0.0), first, 0, second);
    EXPECT_TRUE(first.none()) << "n = " << n;
    EXPECT_TRUE(second.none()) << "n = " << n;
    util::draw_coins(rng, Xoshiro256::bernoulli_threshold(1.0), first);
    EXPECT_EQ(first.count(), n);  // every position, and none past the end
  }
}

// ------------------------------------------------ constructor contracts

const double kBadProbabilities[] = {-0.1, -std::numeric_limits<double>::infinity(), 1.5,
                                    std::numeric_limits<double>::infinity(),
                                    std::numeric_limits<double>::quiet_NaN()};

TEST(SourceContracts, ConvergecastRejectsASinkOutsideTheNodes) {
  ScopedThrowOnViolation guard;
  EXPECT_THROW(sim::ConvergecastTraffic(4, 4, 0.5), ContractViolation);
  EXPECT_THROW(sim::ConvergecastTraffic(0, 0, 0.5), ContractViolation);
  EXPECT_NO_THROW(sim::ConvergecastTraffic(4, 3, 0.5));
  EXPECT_NO_THROW(sim::ConvergecastTraffic(1, 0, 0.5));  // a lone sink: no sources
}

TEST(SourceContracts, ConvergecastRejectsARateOutsideTheUnitInterval) {
  ScopedThrowOnViolation guard;
  for (const double rate : kBadProbabilities) {
    EXPECT_THROW(sim::ConvergecastTraffic(4, 0, rate), ContractViolation) << rate;
  }
  EXPECT_NO_THROW(sim::ConvergecastTraffic(4, 0, 0.0));
  EXPECT_NO_THROW(sim::ConvergecastTraffic(4, 0, 1.0));
}

TEST(SourceContracts, BernoulliTrafficRejectsFewerThanTwoNodes) {
  ScopedThrowOnViolation guard;
  EXPECT_THROW(sim::BernoulliTraffic(1, 0.5), ContractViolation);
  EXPECT_THROW(sim::BernoulliTraffic(0, 0.5), ContractViolation);
  EXPECT_NO_THROW(sim::BernoulliTraffic(2, 0.5));
}

TEST(SourceContracts, BernoulliTrafficRejectsARateOutsideTheUnitInterval) {
  ScopedThrowOnViolation guard;
  for (const double rate : kBadProbabilities) {
    EXPECT_THROW(sim::BernoulliTraffic(4, rate), ContractViolation) << rate;
  }
}

TEST(SourceContracts, BatchArrivalRejectsFewerThanTwoNodes) {
  ScopedThrowOnViolation guard;
  EXPECT_THROW(sim::BatchArrivalTraffic(1, 0, 3), ContractViolation);
  EXPECT_NO_THROW(sim::BatchArrivalTraffic(2, 0, 3));
}

TEST(SourceContracts, BatchArrivalRejectsASinkOutsideTheNodes) {
  ScopedThrowOnViolation guard;
  EXPECT_THROW(sim::BatchArrivalTraffic(4, 4, 3), ContractViolation);
  EXPECT_NO_THROW(sim::BatchArrivalTraffic(4, 3, 3));
}

TEST(SourceContracts, SlottedAlohaRejectsAnAttemptProbabilityOutsideTheUnitInterval) {
  ScopedThrowOnViolation guard;
  for (const double p : kBadProbabilities) {
    EXPECT_THROW(sim::SlottedAlohaMac(4, p), ContractViolation) << p;
  }
}

TEST(SourceContracts, UncoordinatedSleepRejectsAnAwakeProbabilityOutsideTheUnitInterval) {
  ScopedThrowOnViolation guard;
  for (const double p : kBadProbabilities) {
    EXPECT_THROW(sim::UncoordinatedSleepMac(4, p, 0.5), ContractViolation) << p;
  }
}

TEST(SourceContracts, UncoordinatedSleepRejectsAnAttemptProbabilityOutsideTheUnitInterval) {
  ScopedThrowOnViolation guard;
  for (const double q : kBadProbabilities) {
    EXPECT_THROW(sim::UncoordinatedSleepMac(4, 0.5, q), ContractViolation) << q;
  }
}

TEST(SourceContracts, CommonActivePeriodRejectsAnAttemptProbabilityOutsideTheUnitInterval) {
  ScopedThrowOnViolation guard;
  for (const double p : kBadProbabilities) {
    EXPECT_THROW(sim::CommonActivePeriodMac(4, 5, 2, p), ContractViolation) << p;
  }
}

}  // namespace
}  // namespace ttdc
