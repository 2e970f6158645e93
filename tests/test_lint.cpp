// ttdc-lint engine tests (DESIGN.md §14): every rule in the catalog has a
// fixture pair under tests/lint_fixtures/ — the *_bad fixture must fire at
// exactly the annotated locations, the *_clean fixture must stay quiet —
// plus config-parser contract tests (non-empty suppression reasons are
// machine-enforced) and the self-check that the real tree is lint-clean
// under the checked-in .ttdc-lint.toml, i.e. exactly what the CI gate runs.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config.hpp"
#include "lint.hpp"
#include "scan.hpp"

namespace lint = ttdc::lint;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Loads one fixture; the engine sees it under its bare filename (the .hpp/
/// .cpp suffix is what the header-only rules key on).
lint::FileContent fixture(const std::string& name) {
  return {name, read_file(std::string(TTDC_LINT_FIXTURE_DIR) + "/" + name)};
}

/// Config scoped to fixture files: the rule under test applies everywhere
/// (fixtures don't live under src/), and the hot-path list is emptied so
/// OBS-PROF-SCOPE drift findings for real-tree entries can't leak in.
lint::Config fixture_config(const std::string& rule_id) {
  lint::Config cfg = lint::default_config();
  cfg.rules["OBS-PROF-SCOPE"].hot_path.clear();
  lint::RuleConfig& rc = cfg.rules[rule_id];
  rc.enabled = true;
  rc.paths.clear();
  rc.allow.clear();
  return cfg;
}

std::vector<lint::Finding> of_rule(const std::vector<lint::Finding>& all,
                                   const std::string& rule) {
  std::vector<lint::Finding> out;
  for (const lint::Finding& f : all) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

/// Runs the engine on one fixture and returns only the tested rule's findings.
std::vector<lint::Finding> run_fixture(const std::string& rule_id, const std::string& name) {
  const lint::Config cfg = fixture_config(rule_id);
  return of_rule(lint::run_rules(cfg, {fixture(name)}), rule_id);
}

void expect_at(const std::vector<lint::Finding>& fs, std::size_t idx, std::size_t line,
               std::size_t col) {
  ASSERT_LT(idx, fs.size());
  EXPECT_EQ(fs[idx].line, line) << fs[idx].message;
  EXPECT_EQ(fs[idx].col, col) << fs[idx].message;
  EXPECT_FALSE(fs[idx].message.empty());
  EXPECT_FALSE(fs[idx].suppressed);
}

TEST(LintRules, WallclockFiresAtEachReadSite) {
  const auto fs = run_fixture("DET-WALLCLOCK", "det_wallclock_bad.cpp");
  ASSERT_EQ(fs.size(), 3u);
  expect_at(fs, 0, 10, 27);  // std::chrono::system_clock
  expect_at(fs, 1, 12, 53);  // std::time(nullptr)
  expect_at(fs, 2, 14, 35);  // clock()
}

TEST(LintRules, WallclockQuietOnSteadyClockAndStrings) {
  EXPECT_TRUE(run_fixture("DET-WALLCLOCK", "det_wallclock_clean.cpp").empty());
}

TEST(LintRules, RandFiresOnEveryUnseededSource) {
  const auto fs = run_fixture("DET-RAND", "det_rand_bad.cpp");
  ASSERT_EQ(fs.size(), 4u);
  expect_at(fs, 0, 9, 8);    // std::random_device
  expect_at(fs, 1, 11, 8);   // std::mt19937
  expect_at(fs, 2, 13, 3);   // srand(42)
  expect_at(fs, 3, 15, 10);  // return rand()
}

TEST(LintRules, RandQuietOnMemberCallsDeclarationsAndStrings) {
  // Covers the member-named-rand case: `std::uint64_t rand()` is a
  // declaration (type name precedes), `rng.rand()` is a member access.
  EXPECT_TRUE(run_fixture("DET-RAND", "det_rand_clean.cpp").empty());
}

TEST(LintRules, UnorderedIterFiresOnRangeForAndBegin) {
  const auto fs = run_fixture("DET-UNORDERED-ITER", "det_unordered_iter_bad.cpp");
  ASSERT_EQ(fs.size(), 2u);
  expect_at(fs, 0, 20, 25);  // range-for over counts
  expect_at(fs, 1, 24, 18);  // seen.begin()
}

TEST(LintRules, UnorderedIterQuietOnPointLookupsAndOrderedMap) {
  EXPECT_TRUE(run_fixture("DET-UNORDERED-ITER", "det_unordered_iter_clean.cpp").empty());
}

TEST(LintRules, OmpFpReductionFiresOnClauseAndInRegionFolds) {
  const auto fs = run_fixture("DET-OMP-FP-REDUCTION", "det_omp_fp_reduction_bad.cpp");
  ASSERT_EQ(fs.size(), 4u);
  expect_at(fs, 0, 11, 40);  // reduction(+ : total)
  expect_at(fs, 1, 13, 5);   // total += in region
  expect_at(fs, 2, 20, 49);  // local += in region
  expect_at(fs, 3, 23, 5);   // grand += under critical
}

TEST(LintRules, OmpFpReductionQuietOnIntegerAndSerialFold) {
  EXPECT_TRUE(
      run_fixture("DET-OMP-FP-REDUCTION", "det_omp_fp_reduction_clean.cpp").empty());
}

TEST(LintRules, MutatorDcheckFiresOnUncheckedPublicMutator) {
  const auto fs = run_fixture("CON-MUTATOR-DCHECK", "con_mutator_dcheck_bad.hpp");
  ASSERT_EQ(fs.size(), 1u);
  expect_at(fs, 0, 16, 8);  // AuditedRing::push
  EXPECT_NE(fs[0].message.find("AuditedRing::push"), std::string::npos);
}

TEST(LintRules, MutatorDcheckQuietOnCheckedReauditedAndUnaudited) {
  EXPECT_TRUE(run_fixture("CON-MUTATOR-DCHECK", "con_mutator_dcheck_clean.hpp").empty());
}

TEST(LintRules, RawAssertFires) {
  const auto fs = run_fixture("CON-RAW-ASSERT", "con_raw_assert_bad.cpp");
  ASSERT_EQ(fs.size(), 1u);
  expect_at(fs, 0, 9, 3);
}

TEST(LintRules, RawAssertQuietOnTtdcLayerAndStaticAssert) {
  EXPECT_TRUE(run_fixture("CON-RAW-ASSERT", "con_raw_assert_clean.cpp").empty());
}

TEST(LintRules, ProfScopeFiresOnSpanlessHotPaths) {
  lint::Config cfg = fixture_config("OBS-PROF-SCOPE");
  cfg.rules["OBS-PROF-SCOPE"].hot_path = {"FixtureEngine::step", "fixture_hot_fold"};
  const auto fs = of_rule(lint::run_rules(cfg, {fixture("obs_prof_scope_bad.cpp")}),
                          "OBS-PROF-SCOPE");
  ASSERT_EQ(fs.size(), 2u);
  expect_at(fs, 0, 19, 21);  // FixtureEngine::step definition
  expect_at(fs, 1, 24, 8);   // fixture_hot_fold definition
}

TEST(LintRules, ProfScopeQuietWhenSpansPresent) {
  lint::Config cfg = fixture_config("OBS-PROF-SCOPE");
  cfg.rules["OBS-PROF-SCOPE"].hot_path = {"FixtureEngine::step", "fixture_hot_fold"};
  EXPECT_TRUE(of_rule(lint::run_rules(cfg, {fixture("obs_prof_scope_clean.cpp")}),
                      "OBS-PROF-SCOPE")
                  .empty());
}

TEST(LintRules, ProfScopeReportsDriftedHotPathEntry) {
  // An entry matching no definition is itself a finding: a rename must
  // update the hot-path list, not silently drop profiling coverage.
  lint::Config cfg = fixture_config("OBS-PROF-SCOPE");
  cfg.rules["OBS-PROF-SCOPE"].hot_path = {"fixture_renamed_away_fn"};
  const auto fs = of_rule(lint::run_rules(cfg, {fixture("obs_prof_scope_clean.cpp")}),
                          "OBS-PROF-SCOPE");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].file, ".ttdc-lint.toml");
  EXPECT_NE(fs[0].message.find("fixture_renamed_away_fn"), std::string::npos);
}

TEST(LintRules, PragmaOnceFiresOnGuardOnlyHeader) {
  const auto fs = run_fixture("HYG-PRAGMA-ONCE", "hyg_pragma_once_bad.hpp");
  ASSERT_EQ(fs.size(), 1u);
  expect_at(fs, 0, 3, 1);  // #ifndef where #pragma once should be
}

TEST(LintRules, PragmaOnceQuietWithLeadingComments) {
  EXPECT_TRUE(run_fixture("HYG-PRAGMA-ONCE", "hyg_pragma_once_clean.hpp").empty());
}

TEST(LintRules, UsingNamespaceFiresInHeader) {
  const auto fs = run_fixture("HYG-USING-NAMESPACE", "hyg_using_namespace_bad.hpp");
  ASSERT_EQ(fs.size(), 1u);
  expect_at(fs, 0, 7, 1);
}

TEST(LintRules, UsingNamespaceQuietOnDeclarationsAndAliases) {
  EXPECT_TRUE(
      run_fixture("HYG-USING-NAMESPACE", "hyg_using_namespace_clean.hpp").empty());
}

TEST(LintRules, EndlFires) {
  const auto fs = run_fixture("HYG-ENDL", "hyg_endl_bad.cpp");
  ASSERT_EQ(fs.size(), 1u);
  expect_at(fs, 0, 9, 38);
}

TEST(LintRules, EndlQuietOnNewlineAndFlush) {
  EXPECT_TRUE(run_fixture("HYG-ENDL", "hyg_endl_clean.cpp").empty());
}

TEST(LintRules, CatalogHasAtLeastTenRulesAllExercisedAbove) {
  EXPECT_GE(lint::rule_catalog().size(), 10u);
}

// ---------------------------------------------------------------------------
// Config parser contract.

TEST(LintConfig, SuppressionWithoutReasonIsAConfigError) {
  lint::Config cfg;
  std::string err;
  const std::string toml =
      "[[suppress]]\n"
      "rule = \"CON-RAW-ASSERT\"\n"
      "file = \"src/foo.cpp\"\n";
  EXPECT_FALSE(lint::parse_config(toml, &cfg, &err));
  EXPECT_NE(err.find("reason"), std::string::npos) << err;

  const std::string empty_reason = toml + "reason = \"\"\n";
  EXPECT_FALSE(lint::parse_config(empty_reason, &cfg, &err));
  EXPECT_NE(err.find("reason"), std::string::npos) << err;
}

TEST(LintConfig, UnknownRuleIdIsAConfigError) {
  lint::Config cfg;
  std::string err;
  EXPECT_FALSE(lint::parse_config("[rule.DET-NO-SUCH-RULE]\nenabled = false\n", &cfg, &err));
  EXPECT_FALSE(err.empty());
}

TEST(LintConfig, MalformedIntegerIsAConfigError) {
  const std::string entry =
      "# suppression ledger\n"
      "[[suppress]]\n"
      "rule = \"CON-RAW-ASSERT\"\n"
      "file = \"src/foo.cpp\"\n"
      "reason = \"fixture\"\n";
  lint::Config cfg;
  std::string err;
  ASSERT_TRUE(lint::parse_config(entry + "line = 12\n", &cfg, &err)) << err;
  ASSERT_EQ(cfg.suppressions.size(), 1u);
  EXPECT_EQ(cfg.suppressions[0].line, 12u);
  // Overflow used to escape std::stol as an uncaught std::out_of_range, and
  // a trailing suffix used to be dropped silently (line 12).
  for (const std::string bad : {"99999999999999999999", "12abc", "1.5", "0x10"}) {
    SCOPED_TRACE(bad);
    err.clear();
    EXPECT_FALSE(lint::parse_config(entry + "line = " + bad + "\n", &cfg, &err));
    EXPECT_NE(err.find("line 6:"), std::string::npos) << err;
    EXPECT_NE(err.find(bad), std::string::npos) << err;
  }
}

TEST(LintConfig, SuppressionMatchesAndMarksFindingWithReason) {
  lint::Config cfg;
  std::string err;
  const std::string toml =
      "[[suppress]]\n"
      "rule = \"CON-RAW-ASSERT\"\n"
      "file = \"con_raw_assert_bad.cpp\"\n"
      "reason = \"fixture: exercised by test_lint\"\n";
  ASSERT_TRUE(lint::parse_config(toml, &cfg, &err)) << err;
  cfg.rules["OBS-PROF-SCOPE"].hot_path.clear();
  cfg.rules["CON-RAW-ASSERT"].paths.clear();
  const auto fs =
      of_rule(lint::run_rules(cfg, {fixture("con_raw_assert_bad.cpp")}), "CON-RAW-ASSERT");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(fs[0].suppressed);
  EXPECT_EQ(fs[0].suppress_reason, "fixture: exercised by test_lint");
  EXPECT_FALSE(lint::has_blocking_findings(fs));
}

TEST(LintConfig, MultiLineArraysParse) {
  lint::Config cfg;
  std::string err;
  const std::string toml =
      "[rule.OBS-PROF-SCOPE]\n"
      "hot_path = [\n"
      "  \"Simulator::step\",\n"
      "  \"Campaign::run_cell\",\n"
      "]\n";
  ASSERT_TRUE(lint::parse_config(toml, &cfg, &err)) << err;
  ASSERT_EQ(cfg.rule("OBS-PROF-SCOPE").hot_path.size(), 2u);
  EXPECT_EQ(cfg.rule("OBS-PROF-SCOPE").hot_path[0], "Simulator::step");
}

// ---------------------------------------------------------------------------
// Self-check: the real tree under the checked-in policy — exactly what
// scripts/run_static_analysis.sh and CI gate on.

TEST(LintSelfCheck, RealTreeIsCleanUnderCheckedInConfig) {
  const std::string root = TTDC_REPO_ROOT;
  lint::Config cfg;
  std::string err;
  ASSERT_TRUE(lint::load_config_file(root + "/.ttdc-lint.toml", &cfg, &err)) << err;
  const std::vector<lint::FileContent> files = lint::collect_files(root, cfg);
  ASSERT_GT(files.size(), 50u) << "scan set implausibly small — wrong root?";
  const auto findings = lint::run_rules(cfg, files);
  for (const lint::Finding& f : findings) {
    EXPECT_TRUE(f.suppressed) << f.file << ":" << f.line << ": [" << f.rule << "] "
                              << f.message;
    EXPECT_FALSE(f.suppress_reason.empty())
        << f.file << ": suppressed without a written reason";
  }
  EXPECT_FALSE(lint::has_blocking_findings(findings));
}

}  // namespace
