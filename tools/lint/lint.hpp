// ttdc-lint — the repo-specific determinism & contract static analyzer
// (DESIGN.md §14).
//
// The repo's load-bearing guarantee — bit-identical aggregates at any worker
// count, on resume from a killed journal, and across scalar-only/batched
// MAC paths — is a *source* property: it dies the moment an unordered
// container's iteration order escapes into a fold, a wall-clock read feeds
// sim state, or a float reduction runs in thread-completion order. Golden
// tests catch the symptom after the fact; this analyzer stops the hazard
// classes at review time, as an executable catalog of the invariants that
// generic clang-tidy cannot express.
//
// Deliberately NOT built on libclang: the pinned dev container ships only
// gcc, and the gate must run everywhere the build runs. The engine is a
// comment/string-scrubbing lexer plus token-pattern rules — heuristic by
// design, tuned so every rule both fires on its fixture and stays quiet on
// the real tree (tests/test_lint.cpp proves both). False positives are
// handled by the suppression list in .ttdc-lint.toml, where every entry
// requires a written reason (machine-enforced: an empty reason is a config
// error, not a warning).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ttdc::lint {

struct Config;  // config.hpp

/// One diagnostic. `file` is the path as given in FileContent (repo-relative
/// by convention); line/col are 1-based.
struct Finding {
  std::string rule;
  std::string file;
  std::size_t line = 0;
  std::size_t col = 0;
  std::string message;
  /// Set when a [[suppress]] entry matched; the finding is still reported
  /// (SARIF carries it with its justification) but does not fail the gate.
  bool suppressed = false;
  std::string suppress_reason;
};

/// A file handed to the engine. `path` uses '/' separators relative to the
/// repo root; `text` is the raw bytes.
struct FileContent {
  std::string path;
  std::string text;
};

/// Static descriptor of one rule, for --list-rules and SARIF tool metadata.
struct RuleInfo {
  const char* id;
  const char* summary;
};

/// The full catalog, in reporting order.
[[nodiscard]] const std::vector<RuleInfo>& rule_catalog();

/// Runs every enabled rule over `files` (the whole scan set at once: the
/// CON-MUTATOR-DCHECK rule resolves out-of-line definitions in sibling
/// .cpp files, and OBS-PROF-SCOPE searches the set for each hot-path
/// entry). Returns findings sorted by (file, line, col, rule), with
/// suppressions from the config applied and marked.
[[nodiscard]] std::vector<Finding> run_rules(const Config& config,
                                             const std::vector<FileContent>& files);

/// True iff any finding is unsuppressed (the gate-failure condition).
[[nodiscard]] bool has_blocking_findings(const std::vector<Finding>& findings);

}  // namespace ttdc::lint
