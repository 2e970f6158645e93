// Whole-token numeric flag parsing for the command-line tools.
//
// strtoull/strtod alone read a prefix ("5x" as 5), wrap a sign ("-1" to
// 2^64-1) and accept nan and inf. These helpers take the whole token, in
// range, or print "<tool>: <flag> expects <what>, got '<text>'" to stderr
// and return false, so the tool can exit 2 with a message naming the flag.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

namespace ttdc::tools {

inline bool bad_value(std::string_view tool, std::string_view flag, const char* text,
                      const std::string& expected) {
  std::cerr << tool << ": " << flag << " expects " << expected << ", got '" << text << "'\n";
  return false;
}

/// Parses the whole of `text` as an unsigned integer in [lo, hi] (base 0
/// also accepts 0x hex and 0 octal). Rejects a sign, a suffix ("5x") and
/// overflow.
template <typename Int>
bool parse_int(std::string_view tool, std::string_view flag, const char* text, std::uint64_t lo,
               std::uint64_t hi, Int& out, int base = 10) {
  const std::string expected =
      "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) {
    return bad_value(tool, flag, text, expected);
  }
  char* end = nullptr;
  errno = 0;
  const std::uint64_t value = std::strtoull(text, &end, base);
  if (errno != 0 || *end != '\0' || value < lo || value > hi) {
    return bad_value(tool, flag, text, expected);
  }
  out = static_cast<Int>(value);
  return true;
}

/// Parses the whole of `text` as a finite number in [lo, hi]; hi =
/// numeric_limits<double>::max() reads as unbounded.
inline bool parse_real(std::string_view tool, std::string_view flag, const char* text, double lo,
                       double hi, double& out) {
  std::ostringstream expected;
  expected << "a number in [" << lo << ", ";
  if (hi == std::numeric_limits<double>::max()) {
    expected << "inf)";
  } else {
    expected << hi << ']';
  }
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (std::isspace(static_cast<unsigned char>(text[0])) || end == text || *end != '\0' ||
      errno != 0 || !std::isfinite(value) || value < lo || value > hi) {
    return bad_value(tool, flag, text, expected.str());
  }
  out = value;
  return true;
}

}  // namespace ttdc::tools
