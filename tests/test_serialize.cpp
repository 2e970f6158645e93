// Schedule text serialization: round trips and malformed-input rejection.
#include "core/serialize.hpp"

#include <gtest/gtest.h>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"

namespace ttdc::core {
namespace {

void expect_equal(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.frame_length(), b.frame_length());
  for (std::size_t i = 0; i < a.frame_length(); ++i) {
    EXPECT_EQ(a.transmitters(i), b.transmitters(i)) << "slot " << i;
    EXPECT_EQ(a.receivers(i), b.receivers(i)) << "slot " << i;
  }
}

TEST(Serialize, RoundTripTiny) {
  std::vector<DynamicBitset> t = {DynamicBitset(4, {0}), DynamicBitset(4, {1, 2})};
  std::vector<DynamicBitset> r = {DynamicBitset(4, {1, 3}), DynamicBitset(4)};
  const Schedule s(4, std::move(t), std::move(r));
  expect_equal(s, schedule_from_text(schedule_to_text(s)));
}

TEST(Serialize, RoundTripConstructedSchedule) {
  const Schedule base =
      non_sleeping_from_family(comb::build_plan(comb::best_plan(20, 3), 20));
  const Schedule duty = construct_duty_cycled(base, 3, 3, 8);
  expect_equal(duty, schedule_from_text(schedule_to_text(duty)));
}

TEST(Serialize, EmptyReceiverSetRendersAsDash) {
  std::vector<DynamicBitset> t = {DynamicBitset(2, {0})};
  std::vector<DynamicBitset> r = {DynamicBitset(2)};
  const Schedule s(2, std::move(t), std::move(r));
  const std::string text = schedule_to_text(s);
  EXPECT_NE(text.find("R -"), std::string::npos);
  expect_equal(s, schedule_from_text(text));
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# generated by ttdc\n"
      "ttdc-schedule v1\n"
      "\n"
      "nodes 3\n"
      "slots 2   # two slots\n"
      "slot 0 T 0 R 1 2\n"
      "slot 1 T 2 R 0\n";
  const Schedule s = schedule_from_text(text);
  EXPECT_EQ(s.num_nodes(), 3u);
  EXPECT_EQ(s.frame_length(), 2u);
  EXPECT_TRUE(s.transmitters(1).test(2));
  EXPECT_TRUE(s.receivers(0).test(2));
}

TEST(Serialize, SlotsMayArriveOutOfOrder) {
  const std::string text =
      "ttdc-schedule v1\nnodes 2\nslots 2\n"
      "slot 1 T 1 R 0\n"
      "slot 0 T 0 R 1\n";
  const Schedule s = schedule_from_text(text);
  EXPECT_TRUE(s.transmitters(0).test(0));
  EXPECT_TRUE(s.transmitters(1).test(1));
}

// Fuzz-style property sweep: random schedules of random shapes round-trip
// bit-exactly through the text format.
class SerializeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializeFuzz, RandomScheduleRoundTrips) {
  util::Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.below(40));
    const std::size_t frame = 1 + static_cast<std::size_t>(rng.below(30));
    const std::size_t at = 1 + static_cast<std::size_t>(rng.below(n / 2 + 1));
    const std::size_t ar = 1 + static_cast<std::size_t>(rng.below(n - std::min(at, n - 1)));
    if (at + ar > n) continue;
    const Schedule s = random_alpha_schedule(n, frame, at, ar, false, rng);
    expect_equal(s, schedule_from_text(schedule_to_text(s)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzz, ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Serialize, RejectsMalformedInputs) {
  EXPECT_THROW(schedule_from_text(""), std::invalid_argument);
  EXPECT_THROW(schedule_from_text("bogus v1\nnodes 2\nslots 1\nslot 0 T 0 R 1\n"),
               std::invalid_argument);
  EXPECT_THROW(schedule_from_text("ttdc-schedule v2\nnodes 2\nslots 1\nslot 0 T 0 R 1\n"),
               std::invalid_argument);
  // Node id out of range.
  EXPECT_THROW(schedule_from_text("ttdc-schedule v1\nnodes 2\nslots 1\nslot 0 T 5 R 1\n"),
               std::invalid_argument);
  // Overlapping T and R.
  EXPECT_THROW(schedule_from_text("ttdc-schedule v1\nnodes 2\nslots 1\nslot 0 T 0 R 0\n"),
               std::invalid_argument);
  // Duplicate slot index.
  EXPECT_THROW(schedule_from_text(
                   "ttdc-schedule v1\nnodes 2\nslots 2\nslot 0 T 0 R 1\nslot 0 T 1 R 0\n"),
               std::invalid_argument);
  // Missing slot line.
  EXPECT_THROW(schedule_from_text("ttdc-schedule v1\nnodes 2\nslots 2\nslot 0 T 0 R 1\n"),
               std::invalid_argument);
  // Missing R marker.
  EXPECT_THROW(schedule_from_text("ttdc-schedule v1\nnodes 2\nslots 1\nslot 0 T 0 1\n"),
               std::invalid_argument);
  // Garbage ids.
  EXPECT_THROW(schedule_from_text("ttdc-schedule v1\nnodes 2\nslots 1\nslot 0 T x R 1\n"),
               std::invalid_argument);
}

// Hostile headers and ids must fail as a line-numbered invalid_argument:
// never a crash, a length_error, or an allocation sized by the header.
TEST(Serialize, RejectsHostileCountsAndIds) {
  const auto expect_rejected_at = [](const std::string& text, std::size_t line) {
    try {
      (void)schedule_from_text(text);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("at line " + std::to_string(line) + ":"), std::string::npos)
          << what << "\nfor:\n" << text;
    }
  };
  const std::string header = "ttdc-schedule v1\n";
  // Signed, junk-suffixed, overflowing and over-long counts.
  expect_rejected_at(header + "nodes -1\nslots 1\nslot 0 T 0 R 1\n", 2);
  expect_rejected_at(header + "nodes 2\nslots -1\nslot 0 T 0 R 1\n", 3);
  expect_rejected_at(header + "nodes +2\nslots 1\nslot 0 T 0 R 1\n", 2);
  expect_rejected_at(header + "nodes 2x\nslots 1\nslot 0 T 0 R 1\n", 2);
  expect_rejected_at(header + "nodes 2 3\nslots 1\nslot 0 T 0 R 1\n", 2);
  expect_rejected_at(header + "nodes 18446744073709551616\nslots 1\n", 2);
  // Node ids must fit 32-bit set indices: 2^32 nodes pass, 2^32 + 1 do not.
  expect_rejected_at(header + "nodes 4294967297\nslots 1\n", 2);
  expect_rejected_at(header + "nodes 4294967296\nslots 1\n", 3);
  // Huge declared sizes allocate nothing before the slot lines arrive.
  expect_rejected_at(header + "nodes 100000000\nslots 1\n", 3);
  expect_rejected_at(header + "nodes 2\nslots 100000000\nslot 0 T 0 R 1\n", 4);
  // Slot indices and node ids are whole tokens too.
  expect_rejected_at(header + "nodes 3\nslots 1\nslot 0 T 1x R 2\n", 4);
  expect_rejected_at(header + "nodes 3\nslots 1\nslot 0 T 1 R 2x\n", 4);
  expect_rejected_at(header + "nodes 3\nslots 1\nslot 0x T 1 R 2\n", 4);
  expect_rejected_at(header + "nodes 3\nslots 1\nslot -0 T 1 R 2\n", 4);
  expect_rejected_at(header + "nodes 3\nslots 1\nslot 0 T -1 R 2\n", 4);
  expect_rejected_at(header + "nodes 3\nslots 1\nslot 0 T 1 R 18446744073709551617\n", 4);
}

}  // namespace
}  // namespace ttdc::core
