// Runner resilience (runner/runner.hpp + runner/journal.hpp, DESIGN.md §12):
// retry-with-same-seed bit-identity, watchdog quarantine, the partial-flag
// contract in aggregate_json, journal round-trip exactness, torn-tail and
// foreign-journal rejection, kill-and-resume aggregate equality, and the
// ArtifactStore corruption-rebuild path.
#include "runner/runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "core/builders.hpp"
#include "net/topology.hpp"
#include "runner/journal.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/hash.hpp"

namespace ttdc::runner {
namespace {

using core::Schedule;

Schedule tdma_schedule(std::size_t n) {
  return core::non_sleeping_from_family(comb::tdma_family(n));
}

// `prefix + std::to_string(i)` trips GCC 12's -Wrestrict false positive
// (PR105329); append instead (same workaround as test_runner.cpp).
std::string cell_name(const char* prefix, std::uint64_t i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

std::string tmp_path(const char* name) {
  std::string p = ::testing::TempDir();
  p += name;
  return p;
}

// A small but real sim cell (shared schedule + routing artifacts), so the
// journal round-trips latency samples and per-node vectors, not just zeros.
CellFn sim_cell(std::uint64_t slots = 400) {
  return [slots](CellContext& ctx) {
    constexpr std::size_t kRows = 3, kCols = 3;
    const std::size_t n = kRows * kCols;
    auto schedule =
        ctx.artifacts().schedule(cell_name("tdma:n=", n), [n] { return tdma_schedule(n); });
    const net::Graph g = net::grid_graph(kRows, kCols);
    auto routing = ctx.artifacts().routing(g);
    sim::DutyCycledScheduleMac mac(*schedule);
    sim::ConvergecastTraffic traffic(n, 0, 0.1);
    sim::SimConfig cfg;
    cfg.seed = ctx.seed();
    cfg.shared_routing = routing.get();
    sim::Simulator sim(g, mac, traffic, cfg);
    sim.run(slots);
    ctx.record(sim.stats());
    ctx.metric("delivery_ratio", sim.stats().delivery_ratio());
  };
}

Campaign make_campaign(CampaignOptions opts, std::size_t cells = 5,
                       CellFn fn = sim_cell()) {
  Campaign c(std::move(opts));
  for (std::size_t i = 0; i < cells; ++i) c.add(cell_name("cell", i), fn);
  return c;
}

std::vector<std::string> cell_names(std::size_t cells) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < cells; ++i) names.push_back(cell_name("cell", i));
  return names;
}

// serialize_entry excludes the trailing checksum (the journal writer adds
// it per line); parse_entry expects it, so tests append it the same way.
std::string with_crc(const std::string& body) {
  std::ostringstream os;
  os << body << " crc " << std::hex << util::fnv1a64(body);
  return os.str();
}

// ---------------------------------------------------------------------------
// Journal serialization

JournalEntry representative_entry() {
  JournalEntry e;
  e.index = 7;
  e.attempts = 2;
  e.stats.slots_run = 400;
  e.stats.generated = 123;
  e.stats.delivered = 119;
  e.stats.hop_successes = 300;
  e.stats.transmissions = 345;
  e.stats.collisions = 17;
  e.stats.fault_crashes = 3;
  e.stats.burst_losses = 9;
  e.stats.first_death_slot = 250;
  e.stats.deaths = 1;
  e.stats.partial = false;
  // Latency samples in a deliberately non-sorted order: the journal must
  // preserve recording order, not a canonicalized multiset.
  for (std::uint64_t s : {9u, 2u, 2u, 40u, 1u}) e.stats.latency.record(s);
  e.stats.state_slots = {{1, 2, 3, 4}, {5, 6, 7, 8}};
  e.stats.delivered_by_origin = {10, 20};
  e.stats.wake_transitions = {3, 4};
  e.metrics.emplace_back("delivery_ratio", 0.967479674796748);  // needs max_digits10
  e.metrics.emplace_back("duty cycle (mean)", 1.0 / 3.0);       // key with spaces
  return e;
}

TEST(CampaignJournal, EntryRoundTripIsExact) {
  const JournalEntry e = representative_entry();
  const std::string body = CampaignJournal::serialize_entry(e);
  JournalEntry back;
  ASSERT_TRUE(CampaignJournal::parse_entry(with_crc(body), back));
  // Re-serialization equality is the strongest exactness check: every
  // counter, sample, vector element, metric key/value, and double bit
  // pattern must survive.
  EXPECT_EQ(CampaignJournal::serialize_entry(back), body);
  EXPECT_EQ(back.index, e.index);
  EXPECT_EQ(back.attempts, e.attempts);
  EXPECT_EQ(back.stats.latency.count(), 5u);
  EXPECT_EQ(back.stats.latency.max(), 40u);
  EXPECT_DOUBLE_EQ(back.stats.latency.mean(), e.stats.latency.mean());
  EXPECT_EQ(back.stats.state_slots, e.stats.state_slots);
  ASSERT_EQ(back.metrics.size(), 2u);
  EXPECT_EQ(back.metrics[1].first, "duty cycle (mean)");
  EXPECT_EQ(back.metrics[0].second, e.metrics[0].second);  // bit equality
}

// The whole line, byte for byte: a reordered or dropped field must fail
// here, not only in a resumed campaign's aggregate.
TEST(CampaignJournal, EntryLineIsPinned) {
  EXPECT_EQ(CampaignJournal::serialize_entry(representative_entry()),
            "cell 7 2 0 0  S 400 123 119 300 345 17 0 0 0 0 250 1 3 0 0 0 9 0 0 "
            "L 5 9 2 2 40 1 V 2 1 2 3 4 5 6 7 8 O 2 10 20 W 2 3 4 "
            "M 2 14 delivery_ratio 0.96747967479674801 17 duty cycle (mean) 0.33333333333333331");
}

TEST(CampaignJournal, QuarantinedEntryCarriesErrorBytes) {
  JournalEntry e;
  e.index = 3;
  e.attempts = 3;
  e.quarantined = true;
  e.error = "cell body threw: out of range (index 42)";  // spaces + punctuation
  const std::string line = with_crc(CampaignJournal::serialize_entry(e));
  JournalEntry back;
  ASSERT_TRUE(CampaignJournal::parse_entry(line, back));
  EXPECT_TRUE(back.quarantined);
  EXPECT_EQ(back.error, e.error);
}

TEST(CampaignJournal, ParseRejectsTamperedLine) {
  std::string line = with_crc(CampaignJournal::serialize_entry(representative_entry()));
  JournalEntry out;
  ASSERT_TRUE(CampaignJournal::parse_entry(line, out));
  // Flip one digit of a counter: the line still tokenizes but the checksum
  // no longer matches.
  const std::size_t pos = line.find("400");
  ASSERT_NE(pos, std::string::npos);
  line[pos] = '7';
  EXPECT_FALSE(CampaignJournal::parse_entry(line, out));
}

// Every integer is one whole unsigned decimal token within its field's
// range, and every count must fit in the rest of the line. Each hostile
// line below carries a valid checksum, so only the parser stands between
// it and the merge.
TEST(CampaignJournal, ParseRejectsMalformedIntegersAndHostileCounts) {
  const std::string body = CampaignJournal::serialize_entry(representative_entry());
  const auto replaced = [&](const std::string& from, const std::string& to) {
    const std::size_t pos = body.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    std::string b = body;
    b.replace(pos, from.size(), to);
    return with_crc(b);
  };
  // "cell 7 2 0 0  S 400 123 ..." (an empty error string between the two
  // spaces) and "L 5 9 2 2 40 1 V 2 ..." as written.
  ASSERT_EQ(body.rfind("cell 7 2 0 0  S 400 123 ", 0), 0u) << body;
  const std::vector<std::pair<std::string, std::string>> hostile = {
      {"S 400 123 ", "S 400 -1 "},                    // generated -1
      {"S 400 ", "S +7 "},                            // explicit sign
      {"S 400 ", "S 99999999999999999999 "},          // past 2^64 - 1
      {"cell 7 2 ", "cell 7 4294967297 "},            // attempts past 2^32 - 1
      {"cell 7 2 0 ", "cell 7 2 2 "},                 // quarantined not 0/1
      {"cell 7 ", "cell -1 "},                        // index -1
      {"S 400 ", "S 4x0 "},                           // junk inside a token
      {"L 5 ", "L 50000000 "},                        // counts the line cannot hold
      {"V 2 ", "V 50000000 "},
      {"O 2 ", "O 50000000 "},
      {"W 2 ", "W 50000000 "},
      {"M 2 ", "M 50000000 "},
      {"L 5 ", "L 6 "},                               // one more than present
  };
  for (const auto& [from, to] : hostile) {
    JournalEntry out;
    EXPECT_FALSE(CampaignJournal::parse_entry(replaced(from, to), out)) << to;
  }
  // partial is the last S field, just before " L".
  const std::size_t partial = body.find(" L ") - 1;
  std::string two = body;
  two[partial] = '2';
  JournalEntry out;
  EXPECT_FALSE(CampaignJournal::parse_entry(with_crc(two), out));
  // The checksum is one whole hex token too.
  EXPECT_FALSE(CampaignJournal::parse_entry(body + " crc +" + with_crc(body).substr(
                                                                  body.size() + 5),
                                            out));
  EXPECT_FALSE(CampaignJournal::parse_entry(with_crc(body) + "g", out));
  EXPECT_FALSE(CampaignJournal::parse_entry(body + " crc ", out));

  // Boundary values round-trip exactly.
  JournalEntry edge;
  edge.index = std::numeric_limits<std::size_t>::max();
  edge.attempts = std::numeric_limits<std::uint32_t>::max();
  edge.quarantined = true;
  edge.stats.slots_run = std::numeric_limits<std::uint64_t>::max();
  edge.stats.first_death_slot = std::numeric_limits<std::uint64_t>::max();
  edge.stats.partial = true;
  edge.stats.latency.record(std::numeric_limits<std::uint64_t>::max());
  edge.stats.wake_transitions = {0, std::numeric_limits<std::uint64_t>::max()};
  const std::string edge_body = CampaignJournal::serialize_entry(edge);
  JournalEntry back;
  ASSERT_TRUE(CampaignJournal::parse_entry(with_crc(edge_body), back)) << edge_body;
  EXPECT_EQ(CampaignJournal::serialize_entry(back), edge_body);
  EXPECT_EQ(back.index, edge.index);
  EXPECT_EQ(back.attempts, edge.attempts);
  EXPECT_TRUE(back.quarantined);
  EXPECT_TRUE(back.stats.partial);
  JournalEntry empty;
  ASSERT_TRUE(CampaignJournal::parse_entry(with_crc(CampaignJournal::serialize_entry(empty)),
                                           back));
  EXPECT_EQ(CampaignJournal::serialize_entry(back), CampaignJournal::serialize_entry(empty));
}

TEST(CampaignJournal, TornTailDropsItselfAndEverythingAfter) {
  const std::string path = tmp_path("ttdc_torn.journal");
  const std::size_t kCells = 4;
  const JournalIdentity id{0xBEEF, kCells, names_digest(cell_names(kCells))};
  {
    CampaignJournal j(path, id, {});
    ASSERT_TRUE(j.ok());
    for (std::size_t i = 0; i < kCells; ++i) {
      JournalEntry e;
      e.index = i;
      e.stats.slots_run = 100 + i;
      j.append(e);
    }
  }
  CampaignJournal::LoadResult clean = CampaignJournal::load(path, id);
  ASSERT_TRUE(clean.usable);
  ASSERT_EQ(clean.entries.size(), kCells);

  // Tear entry 1 mid-line (the SIGKILL case): read the file, chop bytes out
  // of the second cell line, write it back.
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  in.close();
  ASSERT_EQ(lines.size(), 1 + kCells);  // header + cells
  lines[2] = lines[2].substr(0, lines[2].size() / 2);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < 3; ++i) out << lines[i] << '\n';  // drop 3, 4 entirely
  out.close();

  const CampaignJournal::LoadResult torn = CampaignJournal::load(path, id);
  EXPECT_TRUE(torn.usable);
  // Only cell 0 survives: the torn line kills itself AND any later lines
  // would have been dropped too (here they were already cut).
  EXPECT_EQ(torn.entries.size(), 1u);
  EXPECT_EQ(torn.entries.count(0), 1u);
  EXPECT_GE(torn.dropped_lines, 1u);
  std::remove(path.c_str());
}

TEST(CampaignJournal, ForeignIdentityIsRejectedWholesale) {
  const std::string path = tmp_path("ttdc_foreign.journal");
  const std::size_t kCells = 2;
  const JournalIdentity id{1, kCells, names_digest(cell_names(kCells))};
  {
    CampaignJournal j(path, id, {});
    JournalEntry e;
    j.append(e);
  }
  EXPECT_TRUE(CampaignJournal::load(path, id).usable);
  JournalIdentity other_seed = id;
  other_seed.master_seed = 2;
  EXPECT_FALSE(CampaignJournal::load(path, other_seed).usable);
  JournalIdentity other_names = id;
  other_names.names_digest ^= 1;
  EXPECT_FALSE(CampaignJournal::load(path, other_names).usable);
  EXPECT_FALSE(CampaignJournal::load(tmp_path("ttdc_absent.journal"), id).usable);
  std::remove(path.c_str());
}

TEST(CampaignJournal, NamesDigestIsOrderSensitive) {
  EXPECT_NE(names_digest({"a", "b"}), names_digest({"b", "a"}));
  // Separator discipline: {"ab",""} must not collide with {"a","b"}.
  EXPECT_NE(names_digest({"ab", ""}), names_digest({"a", "b"}));
}

// ---------------------------------------------------------------------------
// Retry / quarantine

TEST(Resilience, RetriedCellIsBitIdenticalToCleanRun) {
  // Cell 2 fails on its first attempt only; the retry replays the same
  // derived seed, so the whole campaign's aggregate must equal the run
  // where nothing failed.
  CellFn flaky = [](CellContext& ctx) {
    if (ctx.index() == 2 && ctx.attempt() == 1) {
      throw std::runtime_error("injected transient failure");
    }
    sim_cell()(ctx);
  };
  CampaignOptions clean_opts;
  clean_opts.master_seed = 0x0DD;
  const std::string reference =
      make_campaign(clean_opts, 5).run_serial().aggregate_json();

  CampaignOptions opts;
  opts.master_seed = 0x0DD;
  opts.resilience = ResilienceOptions{};
  opts.resilience->backoff_base_seconds = 0.0;  // no need to sleep in tests
  Campaign c = make_campaign(std::move(opts), 5, flaky);
  const CampaignResult r = c.run_serial();
  EXPECT_EQ(r.aggregate_json(), reference);
  EXPECT_TRUE(r.quarantined.empty());
  EXPECT_FALSE(r.aggregate.partial);
  ASSERT_EQ(r.cells.size(), 5u);
  EXPECT_EQ(r.cells[2].attempts, 2u);
  EXPECT_EQ(r.cells[1].attempts, 1u);
}

TEST(Resilience, ExhaustedRetriesQuarantineAndFlagPartial) {
  CellFn doomed = [](CellContext& ctx) {
    if (ctx.index() == 1) throw std::runtime_error("permanent failure");
    sim_cell()(ctx);
  };
  CampaignOptions opts;
  opts.master_seed = 0xE44;
  opts.resilience = ResilienceOptions{};
  opts.resilience->max_attempts = 2;
  opts.resilience->backoff_base_seconds = 0.0;
  Campaign c = make_campaign(std::move(opts), 4, doomed);
  const CampaignResult r = c.run_serial();

  ASSERT_EQ(r.quarantined.size(), 1u);
  EXPECT_EQ(r.quarantined[0], 1u);
  EXPECT_TRUE(r.aggregate.partial);
  EXPECT_EQ(r.cells[1].attempts, 2u);
  EXPECT_TRUE(r.cells[1].quarantined);
  EXPECT_NE(r.cells[1].error.find("permanent failure"), std::string::npos);
  // The quarantined cell contributes NOTHING: slots_run counts only the
  // three healthy 400-slot cells.
  EXPECT_EQ(r.aggregate.slots_run, 3u * 400u);
  // And the degradation is explicit in the canonical JSON.
  const std::string json = r.aggregate_json();
  EXPECT_NE(json.find("\"partial\":true"), std::string::npos);
  EXPECT_NE(json.find("\"quarantined\":[1]"), std::string::npos);
}

TEST(Resilience, WithoutResilienceCellFailuresPropagate) {
  CellFn doomed = [](CellContext&) { throw std::runtime_error("fail fast"); };
  CampaignOptions opts;
  Campaign c = make_campaign(std::move(opts), 1, doomed);
  EXPECT_THROW((void)c.run_serial(), std::runtime_error);
}

TEST(Resilience, TimeoutQuarantinesWithoutRetry) {
  CellFn slow = [](CellContext& ctx) {
    if (ctx.index() == 0) {
      for (;;) ctx.check_deadline();  // cooperative watchdog: spins until shot
    }
    sim_cell()(ctx);
  };
  CampaignOptions opts;
  opts.master_seed = 0x71E;
  opts.resilience = ResilienceOptions{};
  opts.resilience->max_attempts = 3;
  opts.resilience->cell_timeout_seconds = 0.05;
  Campaign c = make_campaign(std::move(opts), 2, slow);
  const CampaignResult r = c.run_serial();
  ASSERT_EQ(r.quarantined.size(), 1u);
  EXPECT_EQ(r.quarantined[0], 0u);
  // A deterministic cell would only time out again: exactly one attempt.
  EXPECT_EQ(r.cells[0].attempts, 1u);
  EXPECT_NE(r.cells[0].error.find("watchdog"), std::string::npos);
  EXPECT_TRUE(r.aggregate.partial);
  EXPECT_FALSE(r.cells[1].quarantined);
}

// ---------------------------------------------------------------------------
// Kill-and-resume

TEST(Resilience, ResumeFromPartialJournalIsBitIdentical) {
  const std::string path = tmp_path("ttdc_resume.journal");
  const std::size_t kCells = 6;
  CampaignOptions plain;
  plain.master_seed = 0x4E5;
  const std::string reference =
      make_campaign(plain, kCells).run_serial().aggregate_json();

  auto journaled_opts = [&] {
    CampaignOptions opts;
    opts.master_seed = 0x4E5;
    opts.resilience = ResilienceOptions{};
    opts.resilience->journal_path = path;
    return opts;
  };

  // Full journaled run (resume=false overwrites any stale file).
  {
    auto opts = journaled_opts();
    opts.resilience->resume = false;
    Campaign c = make_campaign(std::move(opts), kCells);
    EXPECT_EQ(c.run_serial().aggregate_json(), reference);
  }

  // Simulate a SIGKILL after 3 cells: truncate the journal to header + 3.
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  in.close();
  ASSERT_EQ(lines.size(), 1 + kCells);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < 4; ++i) out << lines[i] << '\n';
  out.close();

  // Resume: 3 cells restore from disk, 3 rerun, aggregate byte-identical.
  {
    Campaign c = make_campaign(journaled_opts(), kCells);
    const CampaignResult r = c.run_serial();
    EXPECT_EQ(r.resumed_cells, 3u);
    EXPECT_EQ(r.aggregate_json(), reference);
    ASSERT_EQ(r.cells.size(), kCells);
    EXPECT_TRUE(r.cells[0].resumed);
    EXPECT_FALSE(r.cells[5].resumed);
  }

  // The resumed run rewrote a complete journal: resuming again restores
  // every cell and still reproduces the reference aggregate, on the
  // parallel executor too.
  {
    auto opts = journaled_opts();
    opts.num_workers = 2;
    Campaign c = make_campaign(std::move(opts), kCells);
    const CampaignResult r = c.run();
    EXPECT_EQ(r.resumed_cells, kCells);
    EXPECT_EQ(r.aggregate_json(), reference);
  }
  std::remove(path.c_str());
}

TEST(Resilience, QuarantinedCellsResumeAsQuarantined) {
  // A journaled quarantine must survive resume: the failure is part of the
  // campaign's recorded history, not retried into a different aggregate.
  const std::string path = tmp_path("ttdc_resume_quarantine.journal");
  CellFn doomed = [](CellContext& ctx) {
    if (ctx.index() == 1) throw std::runtime_error("permanent failure");
    sim_cell()(ctx);
  };
  auto opts = [&] {
    CampaignOptions o;
    o.master_seed = 0x0BAD;
    o.resilience = ResilienceOptions{};
    o.resilience->max_attempts = 1;
    o.resilience->backoff_base_seconds = 0.0;
    o.resilience->journal_path = path;
    return o;
  };
  std::string first_json;
  {
    auto o = opts();
    o.resilience->resume = false;
    Campaign c = make_campaign(std::move(o), 3, doomed);
    const CampaignResult r = c.run_serial();
    ASSERT_EQ(r.quarantined.size(), 1u);
    first_json = r.aggregate_json();
  }
  {
    // Resume with a cell body that would now SUCCEED: the journal still
    // restores the recorded quarantine instead of re-executing.
    Campaign c = make_campaign(opts(), 3, sim_cell());
    const CampaignResult r = c.run_serial();
    EXPECT_EQ(r.resumed_cells, 3u);
    ASSERT_EQ(r.quarantined.size(), 1u);
    EXPECT_EQ(r.quarantined[0], 1u);
    EXPECT_TRUE(r.aggregate.partial);
    EXPECT_EQ(r.aggregate_json(), first_json);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ArtifactStore corruption detection

TEST(ArtifactIntegrity, CorruptedScheduleIsDetectedAndRebuilt) {
  ArtifactStore store;
  std::size_t builds = 0;
  auto build = [&builds] {
    ++builds;
    return tdma_schedule(9);
  };
  auto first = store.schedule("tdma:n=9", build);
  EXPECT_EQ(builds, 1u);
  auto hit = store.schedule("tdma:n=9", build);
  EXPECT_EQ(builds, 1u);  // healthy hit: no rebuild
  EXPECT_EQ(hit.get(), first.get());
  EXPECT_EQ(store.corruption_rebuilds(), 0u);

  ASSERT_TRUE(store.debug_corrupt_schedule("tdma:n=9"));
  auto rebuilt = store.schedule("tdma:n=9", build);
  EXPECT_EQ(builds, 2u);  // corruption detected: rebuilt from the recipe
  EXPECT_EQ(store.corruption_rebuilds(), 1u);
  // The rebuilt artifact is the pure function of the recipe again.
  EXPECT_EQ(rebuilt->frame_length(), first->frame_length());
  EXPECT_EQ(rebuilt->num_nodes(), first->num_nodes());
  // And the healed entry verifies clean on the next hit.
  (void)store.schedule("tdma:n=9", build);
  EXPECT_EQ(builds, 2u);
  EXPECT_EQ(store.corruption_rebuilds(), 1u);

  EXPECT_FALSE(store.debug_corrupt_schedule("no-such-key"));
}

}  // namespace
}  // namespace ttdc::runner
