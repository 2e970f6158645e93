// Disk-journaled campaign checkpoints: kill-and-resume with bit-identical
// aggregates.
//
// A CampaignJournal is an append-only text file recording every completed
// (or quarantined) cell of a campaign run. Each line carries the cell's
// FULL deterministic contribution to the final aggregate — every SimStats
// counter, the latency samples in recorded order, the per-node vectors, and
// the cell's published metrics — plus an FNV-1a 64 checksum of the line. On
// resume, matching lines short-circuit their cells entirely and the merge
// barrier folds the journaled stats exactly where the live run would have,
// so a campaign killed at any point and resumed produces a final
// aggregate_json() byte-identical to an uninterrupted run (tested, and
// enforced by the crash-resilience CI job).
//
// Robustness, not trust: the header binds the journal to a campaign
// identity (master seed, cell count, a digest of the cell names) — a
// journal from a different campaign is discarded wholesale, never merged. A
// torn or corrupted line (the SIGKILL case: the process died mid-append)
// fails its checksum and is dropped along with everything after it; those
// cells simply rerun. Entries are line-atomic: append() writes one line and
// flushes under a mutex, so concurrent workers interleave lines, never
// bytes... on POSIX appends up to PIPE_BUF; the mutex makes it
// unconditional within the process.
//
// Format (one token stream per line, '\n'-terminated):
//   ttdc-journal v1 <master_seed> <num_cells> <names_digest> crc <hex>
//   cell <index> <attempts> <quarantined> <error-len> <error bytes>
//        S <sim::kCounterFields, in order> <partial>
//        L <count> <samples...>
//        V <rows> <4*rows state-slot counters>
//        O <count> <delivered_by_origin...>
//        W <count> <wake_transitions...>
//        M <count> { <key-len> <key bytes> <value @ max_digits10> }...
//        crc <hex>
// Doubles print at max_digits10 and re-parse exactly (round-trip identity);
// everything else is exact decimal u64.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hpp"

namespace ttdc::runner {

/// One journaled cell outcome: everything the merge barrier needs.
struct JournalEntry {
  std::size_t index = 0;
  std::uint32_t attempts = 1;
  bool quarantined = false;
  std::string error;  ///< non-empty iff quarantined
  sim::SimStats stats;
  std::vector<std::pair<std::string, double>> metrics;
};

/// Identity of a campaign for journal matching: a journal only resumes the
/// exact campaign shape that wrote it.
struct JournalIdentity {
  std::uint64_t master_seed = 0;
  std::size_t num_cells = 0;
  std::uint64_t names_digest = 0;  ///< fnv1a64 over names with separators

  [[nodiscard]] bool operator==(const JournalIdentity& other) const {
    return master_seed == other.master_seed && num_cells == other.num_cells &&
           names_digest == other.names_digest;
  }
};

class CampaignJournal {
 public:
  struct LoadResult {
    /// File existed, parsed, and matched `id`. When false the journal is
    /// absent/stale/foreign and `entries` is empty — the campaign starts
    /// fresh (and overwrites it).
    bool usable = false;
    /// Corrupt or truncated lines dropped (the SIGKILL tear, bit rot).
    std::size_t dropped_lines = 0;
    /// Valid entries by cell index; duplicates keep the FIRST occurrence
    /// (the one an uninterrupted run would have produced).
    std::map<std::size_t, JournalEntry> entries;
  };

  /// Parses `path` against the expected identity. Never throws: unreadable
  /// files, foreign headers, and torn lines all degrade to "rerun those
  /// cells".
  static LoadResult load(const std::string& path, const JournalIdentity& id);

  /// Serialization used for journal lines (exposed for tests: round-trip
  /// exactness is the whole contract). `serialize_entry` excludes the
  /// trailing checksum; `parse_entry` expects and verifies it.
  static std::string serialize_entry(const JournalEntry& entry);
  static bool parse_entry(const std::string& line, JournalEntry& out);

  /// Opens `path` for writing: rewrites the header plus every valid entry
  /// of `prior` (in index order) and appends live entries after them. The
  /// rewrite is what heals a torn tail — a SIGKILL mid-append leaves a
  /// partial final line, and appending after it would corrupt the next
  /// entry too. I/O failure disables the journal (ok() false) without
  /// failing the campaign.
  CampaignJournal(const std::string& path, const JournalIdentity& id,
                  const LoadResult& prior);

  [[nodiscard]] bool ok() const { return ok_; }

  /// Appends one completed cell, line-atomically (mutex + per-line flush).
  void append(const JournalEntry& entry);

 private:
  std::mutex mu_;
  std::ofstream out_;
  bool ok_ = false;
};

/// fnv1a64 digest of a campaign's cell names (order-sensitive).
[[nodiscard]] std::uint64_t names_digest(const std::vector<std::string>& names);

}  // namespace ttdc::runner
