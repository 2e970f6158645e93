#include "runner/journal.hpp"

#include <charconv>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string_view>

#include "util/hash.hpp"

namespace ttdc::runner {

namespace {

constexpr const char* kHeaderMagic = "ttdc-journal v1";

std::uint64_t line_crc(const std::string& body) { return util::fnv1a64(body); }

/// Parses all of `token` as an unsigned integer in `base` with
/// std::from_chars (which takes no sign and no whitespace).
bool whole_uint(std::string_view token, int base, std::uint64_t& out) {
  const char* end = token.data() + token.size();
  const auto [next, ec] = std::from_chars(token.data(), end, out, base);
  return !token.empty() && ec == std::errc{} && next == end;
}

std::string crc_hex(std::uint64_t crc) {
  std::ostringstream os;
  os << std::hex << crc;
  return os.str();
}

/// Token scanner over one journal line. Every read checks bounds; any
/// failure poisons the scanner and the caller rejects the line.
class Scanner {
 public:
  explicit Scanner(const std::string& line) : s_(line) {}

  bool word(std::string& out) {
    skip_space();
    if (pos_ >= s_.size()) return fail();
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ' ') ++pos_;
    out = s_.substr(start, pos_ - start);
    return true;
  }

  bool expect(const char* token) {
    std::string w;
    return word(w) && w == token;
  }

  /// One whole unsigned decimal token, at most `max`: no sign, no junk, no
  /// overflow.
  bool u64(std::uint64_t& out, std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
    std::string w;
    if (!word(w)) return false;
    return (whole_uint(w, 10, out) && out <= max) || fail();
  }

  /// Reads a count of items that each take at least `min_bytes` of the
  /// line, rejecting one the rest of the line cannot hold, so a short
  /// hostile line never drives an allocation.
  bool count(std::uint64_t& out, std::size_t min_bytes) {
    return u64(out) && (out <= (s_.size() - pos_) / min_bytes || fail());
  }

  bool f64(double& out) {
    std::string w;
    if (!word(w) || w.empty()) return fail();
    char* end = nullptr;
    out = std::strtod(w.c_str(), &end);
    return end == w.c_str() + w.size() || fail();
  }

  /// Length-prefixed byte string: `<len> <len raw bytes>` (raw bytes may
  /// contain anything but '\n', which journal lines never hold). Exactly
  /// one separator space — the bytes themselves may start with spaces.
  bool bytes(std::string& out) {
    std::uint64_t len = 0;
    if (!u64(len)) return false;
    if (pos_ < s_.size() && s_[pos_] == ' ') ++pos_;
    if (s_.size() - pos_ < len) return fail();
    out = s_.substr(pos_, len);
    pos_ += len;
    return true;
  }

  /// Byte offset of the current position (used to checksum the prefix).
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] bool failed() const { return failed_; }

 private:
  void skip_space() {
    while (pos_ < s_.size() && s_[pos_] == ' ') ++pos_;
  }
  bool fail() {
    failed_ = true;
    return false;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

void put_u64s(std::ostream& os, const std::vector<std::uint64_t>& v) {
  os << ' ' << v.size();
  for (const std::uint64_t x : v) os << ' ' << x;
}

bool get_u64s(Scanner& sc, std::vector<std::uint64_t>& v) {
  std::uint64_t count = 0;
  if (!sc.count(count, 2)) return false;  // " <value>" per element
  v.resize(count);
  for (auto& x : v) {
    if (!sc.u64(x)) return false;
  }
  return true;
}

/// Splits "<body> crc <hex>" and verifies; false on mismatch/truncation.
bool strip_verified_crc(const std::string& line, std::string& body) {
  const std::size_t mark = line.rfind(" crc ");
  if (mark == std::string::npos) return false;
  body = line.substr(0, mark);
  std::uint64_t stored = 0;
  return whole_uint(std::string_view(line).substr(mark + 5), 16, stored) &&
         stored == line_crc(body);
}

}  // namespace

std::uint64_t names_digest(const std::vector<std::string>& names) {
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const std::string& name : names) {
    h = util::fnv1a64(name, h);
    h = util::fnv1a64_byte(h, 0x1f);  // unit separator: {"ab","c"} != {"a","bc"}
  }
  return h;
}

std::string CampaignJournal::serialize_entry(const JournalEntry& e) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "cell " << e.index << ' ' << e.attempts << ' ' << (e.quarantined ? 1 : 0) << ' '
     << e.error.size() << ' ' << e.error;
  const sim::SimStats& s = e.stats;
  os << " S";
  for (const sim::CounterField& c : sim::kCounterFields) os << ' ' << s.*c.field;
  os << ' ' << (s.partial ? 1 : 0);
  os << " L";
  put_u64s(os, s.latency.samples());
  os << " V " << s.state_slots.size();
  for (const auto& row : s.state_slots) {
    os << ' ' << row[0] << ' ' << row[1] << ' ' << row[2] << ' ' << row[3];
  }
  os << " O";
  put_u64s(os, s.delivered_by_origin);
  os << " W";
  put_u64s(os, s.wake_transitions);
  os << " M " << e.metrics.size();
  for (const auto& [key, value] : e.metrics) {
    os << ' ' << key.size() << ' ' << key << ' ' << value;
  }
  return os.str();
}

bool CampaignJournal::parse_entry(const std::string& line, JournalEntry& out) {
  std::string body;
  if (!strip_verified_crc(line, body)) return false;
  Scanner sc(body);
  out = JournalEntry{};
  std::uint64_t index = 0, attempts = 0, quarantined = 0;
  if (!sc.expect("cell") || !sc.u64(index, std::numeric_limits<std::size_t>::max()) ||
      !sc.u64(attempts, std::numeric_limits<std::uint32_t>::max()) ||
      !sc.u64(quarantined, 1) || !sc.bytes(out.error)) {
    return false;
  }
  out.index = static_cast<std::size_t>(index);
  out.attempts = static_cast<std::uint32_t>(attempts);
  out.quarantined = quarantined != 0;

  sim::SimStats& s = out.stats;
  if (!sc.expect("S")) return false;
  for (const sim::CounterField& c : sim::kCounterFields) {
    if (!sc.u64(s.*c.field)) return false;
  }
  std::uint64_t partial = 0;
  if (!sc.u64(partial, 1)) return false;
  s.partial = partial != 0;

  std::vector<std::uint64_t> samples;
  if (!sc.expect("L") || !get_u64s(sc, samples)) return false;
  for (const std::uint64_t v : samples) s.latency.record(v);

  std::uint64_t rows = 0;
  if (!sc.expect("V") || !sc.count(rows, 8)) return false;  // four " <value>" per row
  s.state_slots.resize(rows);
  for (auto& row : s.state_slots) {
    if (!sc.u64(row[0]) || !sc.u64(row[1]) || !sc.u64(row[2]) || !sc.u64(row[3])) {
      return false;
    }
  }
  if (!sc.expect("O") || !get_u64s(sc, s.delivered_by_origin)) return false;
  if (!sc.expect("W") || !get_u64s(sc, s.wake_transitions)) return false;

  std::uint64_t num_metrics = 0;
  // " <key length> <key> <value>" per metric: at least five bytes.
  if (!sc.expect("M") || !sc.count(num_metrics, 5)) return false;
  out.metrics.reserve(num_metrics);
  for (std::uint64_t i = 0; i < num_metrics; ++i) {
    std::string key;
    double value = 0.0;
    if (!sc.bytes(key) || !sc.f64(value)) return false;
    out.metrics.emplace_back(std::move(key), value);
  }
  return !sc.failed();
}

namespace {

std::string header_line(const JournalIdentity& id) {
  std::ostringstream os;
  os << kHeaderMagic << ' ' << id.master_seed << ' ' << id.num_cells << ' '
     << id.names_digest;
  const std::string body = os.str();
  return body + " crc " + crc_hex(line_crc(body));
}

bool parse_header(const std::string& line, JournalIdentity& out) {
  std::string body;
  if (!strip_verified_crc(line, body)) return false;
  Scanner sc(body);
  std::uint64_t cells = 0;
  if (!sc.expect("ttdc-journal") || !sc.expect("v1") || !sc.u64(out.master_seed) ||
      !sc.u64(cells) || !sc.u64(out.names_digest)) {
    return false;
  }
  out.num_cells = static_cast<std::size_t>(cells);
  return true;
}

}  // namespace

CampaignJournal::LoadResult CampaignJournal::load(const std::string& path,
                                                  const JournalIdentity& id) {
  LoadResult result;
  std::ifstream in(path);
  if (!in) return result;
  std::string line;
  if (!std::getline(in, line)) return result;
  JournalIdentity found;
  if (!parse_header(line, found) || !(found == id)) return result;
  result.usable = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JournalEntry entry;
    if (!parse_entry(line, entry) || entry.index >= id.num_cells) {
      // A torn/corrupt line: drop it AND everything after it — later lines
      // may depend on state the tear destroyed, and rerunning a completed
      // cell is always safe (same seed, same result).
      ++result.dropped_lines;
      while (std::getline(in, line)) ++result.dropped_lines;
      break;
    }
    result.entries.emplace(entry.index, std::move(entry));  // keep first
  }
  return result;
}

CampaignJournal::CampaignJournal(const std::string& path, const JournalIdentity& id,
                                 const LoadResult& prior) {
  out_.open(path, std::ios::trunc);
  if (!out_) return;
  out_ << header_line(id) << '\n';
  for (const auto& [index, entry] : prior.entries) {
    const std::string body = serialize_entry(entry);
    out_ << body << " crc " << crc_hex(line_crc(body)) << '\n';
  }
  out_.flush();
  ok_ = static_cast<bool>(out_);
}

void CampaignJournal::append(const JournalEntry& entry) {
  if (!ok_) return;
  const std::string body = serialize_entry(entry);
  std::lock_guard<std::mutex> lock(mu_);
  out_ << body << " crc " << crc_hex(line_crc(body)) << '\n';
  out_.flush();
}

}  // namespace ttdc::runner
