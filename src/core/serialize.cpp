#include "core/serialize.hpp"

#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ttdc::core {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("schedule parse error at line " + std::to_string(line) + ": " +
                              what);
}

// Parses a whole token as an unsigned decimal: digits only (no sign, no
// trailing characters) and no overflow.
bool parse_unsigned(const std::string& token, std::size_t& value) {
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  return ec == std::errc() && ptr == end;
}

void write_set(std::ostream& out, const DynamicBitset& set) {
  if (set.none()) {
    out << " -";
    return;
  }
  set.for_each([&](std::size_t v) { out << ' ' << v; });
}

}  // namespace

void write_schedule(std::ostream& out, const Schedule& schedule) {
  out << "ttdc-schedule v1\n";
  out << "nodes " << schedule.num_nodes() << '\n';
  out << "slots " << schedule.frame_length() << '\n';
  for (std::size_t i = 0; i < schedule.frame_length(); ++i) {
    out << "slot " << i << " T";
    write_set(out, schedule.transmitters(i));
    out << " R";
    write_set(out, schedule.receivers(i));
    out << '\n';
  }
}

std::string schedule_to_text(const Schedule& schedule) {
  std::ostringstream os;
  write_schedule(os, schedule);
  return os.str();
}

Schedule read_schedule(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;
  auto next_line = [&]() -> bool {
    while (std::getline(in, line)) {
      ++line_no;
      // Strip comments and skip blank lines.
      if (const auto hash = line.find('#'); hash != std::string::npos) {
        line.resize(hash);
      }
      if (line.find_first_not_of(" \t\r") != std::string::npos) return true;
    }
    return false;
  };

  if (!next_line()) fail(line_no, "empty input");
  {
    std::istringstream ls(line);
    std::string magic, version;
    ls >> magic >> version;
    if (magic != "ttdc-schedule" || version != "v1") fail(line_no, "bad header");
  }
  // `<key> <count>` with a positive count and nothing after it.
  auto read_count = [&](const char* key) -> std::size_t {
    if (!next_line()) fail(line_no, std::string("missing '") + key + "'");
    std::istringstream ls(line);
    std::string word, value, extra;
    std::size_t count = 0;
    if (!(ls >> word >> value) || word != key || !parse_unsigned(value, count) || count == 0 ||
        ls >> extra) {
      fail(line_no, std::string("bad '") + key + "' line");
    }
    return count;
  };
  const std::size_t n = read_count("nodes");
  // Node ids must fit the simulator's 32-bit set indices (util/slot_set.hpp).
  if (n - 1 > std::numeric_limits<std::uint32_t>::max()) {
    fail(line_no, "'nodes' exceeds 2^32");
  }
  const std::size_t slots = read_count("slots");

  // Slot sets are allocated as their lines arrive, never from the declared
  // count, so a hostile header cannot force a huge allocation up front.
  std::map<std::size_t, std::pair<DynamicBitset, DynamicBitset>> slot_sets;  // i -> (T, R)
  for (std::size_t count = 0; count < slots; ++count) {
    if (!next_line()) fail(line_no, "missing slot line");
    std::istringstream ls(line);
    std::string key, token;
    std::size_t index = 0;
    if (!(ls >> key >> token) || key != "slot" || !parse_unsigned(token, index)) {
      fail(line_no, "expected 'slot <i> ...'");
    }
    if (index >= slots) fail(line_no, "slot index out of range");
    const auto [it, fresh] = slot_sets.try_emplace(index, DynamicBitset(n), DynamicBitset(n));
    if (!fresh) fail(line_no, "duplicate slot index");
    auto& [t_set, r_set] = it->second;
    if (!(ls >> token) || token != "T") fail(line_no, "expected 'T'");
    // Read node ids until the 'R' marker.
    bool saw_r = false;
    while (ls >> token) {
      if (token == "R") {
        saw_r = true;
        break;
      }
      if (token == "-") continue;
      std::size_t v = 0;
      if (!parse_unsigned(token, v)) fail(line_no, "bad transmitter id '" + token + "'");
      if (v >= n) fail(line_no, "transmitter id out of range");
      t_set.set(v);
    }
    if (!saw_r) fail(line_no, "missing 'R'");
    while (ls >> token) {
      if (token == "-") continue;
      std::size_t v = 0;
      if (!parse_unsigned(token, v)) fail(line_no, "bad receiver id '" + token + "'");
      if (v >= n) fail(line_no, "receiver id out of range");
      if (t_set.test(v)) fail(line_no, "node in both T and R");
      r_set.set(v);
    }
  }
  // `slots` distinct indices below `slots`: the map holds 0..slots-1.
  std::vector<DynamicBitset> transmit;
  std::vector<DynamicBitset> receive;
  transmit.reserve(slots);
  receive.reserve(slots);
  for (auto& [slot, sets] : slot_sets) {
    transmit.push_back(std::move(sets.first));
    receive.push_back(std::move(sets.second));
  }
  return Schedule(n, std::move(transmit), std::move(receive));
}

Schedule schedule_from_text(const std::string& text) {
  std::istringstream is(text);
  return read_schedule(is);
}

}  // namespace ttdc::core
