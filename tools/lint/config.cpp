#include "config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>

#include "lint.hpp"

namespace ttdc::lint {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool known_rule(const std::string& id) {
  for (const RuleInfo& r : rule_catalog()) {
    if (id == r.id) return true;
  }
  return false;
}

std::string trim(const std::string& s) {
  std::size_t a = 0, b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a])) != 0) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1])) != 0) --b;
  return s.substr(a, b - a);
}

/// Strips a trailing # comment (quote-aware) from a config line.
std::string strip_comment(const std::string& s) {
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '"' && (i == 0 || s[i - 1] != '\\')) in_str = !in_str;
    if (s[i] == '#' && !in_str) return s.substr(0, i);
  }
  return s;
}

/// A parsed scalar or string-array value.
struct Value {
  enum Kind { kString, kBool, kInt, kArray } kind = kString;
  std::string str;
  bool boolean = false;
  std::size_t integer = 0;
  std::vector<std::string> array;
};

bool parse_value(const std::string& raw, Value* out, std::string* why) {
  const std::string v = trim(raw);
  if (v.empty()) {
    *why = "missing value";
    return false;
  }
  if (v.front() == '"') {
    if (v.size() < 2 || v.back() != '"') {
      *why = "unterminated string";
      return false;
    }
    out->kind = Value::kString;
    std::string s;
    for (std::size_t i = 1; i + 1 < v.size(); ++i) {
      if (v[i] == '\\' && i + 2 < v.size()) ++i;  // keep escaped char verbatim
      s += v[i];
    }
    out->str = s;
    return true;
  }
  if (v == "true" || v == "false") {
    out->kind = Value::kBool;
    out->boolean = v == "true";
    return true;
  }
  if (v.front() == '[') {
    if (v.back() != ']') {
      *why = "unterminated array";
      return false;
    }
    out->kind = Value::kArray;
    std::string body = v.substr(1, v.size() - 2);
    std::size_t i = 0;
    while (i < body.size()) {
      while (i < body.size() && (std::isspace(static_cast<unsigned char>(body[i])) != 0 ||
                                 body[i] == ',')) {
        ++i;
      }
      if (i >= body.size()) break;
      if (body[i] != '"') {
        *why = "array elements must be strings";
        return false;
      }
      std::string s;
      ++i;
      while (i < body.size() && body[i] != '"') s += body[i], ++i;
      if (i >= body.size()) {
        *why = "unterminated string in array";
        return false;
      }
      ++i;
      out->array.push_back(s);
    }
    return true;
  }
  if (std::isdigit(static_cast<unsigned char>(v.front())) != 0) {
    // The whole token as an unsigned decimal: no sign (the digit check
    // above), no trailing characters, no overflow.
    out->kind = Value::kInt;
    const char* const end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out->integer);
    if (ec != std::errc() || ptr != end) {
      *why = "malformed integer '" + v + "' (expected an unsigned decimal in range)";
      return false;
    }
    return true;
  }
  *why = "unrecognized value '" + v + "'";
  return false;
}

}  // namespace

const RuleConfig& Config::rule(const std::string& id) const {
  static const RuleConfig kDefault;
  const auto it = rules.find(id);
  return it == rules.end() ? kDefault : it->second;
}

bool Config::applies(const std::string& id, const std::string& path) const {
  const RuleConfig& rc = rule(id);
  if (!rc.enabled) return false;
  if (!rc.paths.empty()) {
    const bool inside = std::any_of(rc.paths.begin(), rc.paths.end(),
                                    [&](const std::string& p) { return starts_with(path, p); });
    if (!inside) return false;
  }
  return std::none_of(rc.allow.begin(), rc.allow.end(),
                      [&](const std::string& p) { return starts_with(path, p); });
}

const Suppression* Config::match_suppression(const std::string& rule_id,
                                             const std::string& file,
                                             std::size_t line) const {
  for (const Suppression& s : suppressions) {
    if (s.rule == rule_id && s.file == file && (s.line == 0 || s.line == line)) {
      s.used = true;
      return &s;
    }
  }
  return nullptr;
}

Config default_config() {
  Config c;
  // The built-in catalog defaults; .ttdc-lint.toml restates them so the
  // policy is reviewable in one place, but an absent config means exactly
  // this.
  c.rules["DET-WALLCLOCK"].allow = {"src/obs/", "src/util/timer.hpp", "bench/", "tools/"};
  c.rules["DET-RAND"].allow = {"src/util/rng.hpp", "src/util/rng.cpp"};
  c.rules["DET-UNORDERED-ITER"].paths = {"src/"};
  c.rules["DET-OMP-FP-REDUCTION"].paths = {"src/"};
  c.rules["CON-MUTATOR-DCHECK"].paths = {"src/"};
  c.rules["CON-RAW-ASSERT"].paths = {"src/"};
  c.rules["OBS-PROF-SCOPE"];  // hot_path comes from the config file
  c.rules["HYG-PRAGMA-ONCE"];
  c.rules["HYG-USING-NAMESPACE"];
  c.rules["HYG-ENDL"].paths = {"src/"};
  return c;
}

bool parse_config(const std::string& text, Config* out, std::string* error) {
  *out = default_config();
  enum class Section { kNone, kPaths, kRule, kSuppress };
  Section section = Section::kNone;
  std::string rule_id;

  std::istringstream in(text);
  std::string raw;
  std::size_t lineno = 0;
  auto fail = [&](const std::string& why) {
    std::ostringstream os;
    os << "line " << lineno << ": " << why;
    *error = os.str();
    return false;
  };

  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = trim(strip_comment(raw));
    if (line.empty()) continue;

    if (starts_with(line, "[[")) {
      if (line != "[[suppress]]") return fail("unknown array-of-tables " + line);
      section = Section::kSuppress;
      out->suppressions.emplace_back();
      continue;
    }
    if (line.front() == '[') {
      if (line.back() != ']') return fail("malformed section header");
      const std::string name = trim(line.substr(1, line.size() - 2));
      if (name == "paths") {
        section = Section::kPaths;
      } else if (starts_with(name, "rule.")) {
        rule_id = name.substr(5);
        if (!known_rule(rule_id)) return fail("unknown rule id '" + rule_id + "'");
        section = Section::kRule;
      } else {
        return fail("unknown section [" + name + "]");
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return fail("expected key = value");
    const std::string key = trim(line.substr(0, eq));
    std::string value_text = trim(line.substr(eq + 1));
    // Multi-line array: accumulate until the closing bracket.
    if (!value_text.empty() && value_text.front() == '[') {
      while (value_text.back() != ']' && std::getline(in, raw)) {
        ++lineno;
        const std::string cont = trim(strip_comment(raw));
        if (cont.empty()) continue;
        value_text += " " + cont;
      }
    }
    Value value;
    std::string why;
    if (!parse_value(value_text, &value, &why)) return fail(why);

    switch (section) {
      case Section::kNone:
        return fail("key '" + key + "' outside any section");
      case Section::kPaths:
        if (key == "roots" && value.kind == Value::kArray) {
          out->roots = value.array;
        } else if (key == "exclude" && value.kind == Value::kArray) {
          out->exclude = value.array;
        } else {
          return fail("unknown [paths] key '" + key + "'");
        }
        break;
      case Section::kRule: {
        RuleConfig& rc = out->rules[rule_id];
        if (key == "enabled" && value.kind == Value::kBool) {
          rc.enabled = value.boolean;
        } else if (key == "paths" && value.kind == Value::kArray) {
          rc.paths = value.array;
        } else if (key == "allow" && value.kind == Value::kArray) {
          rc.allow = value.array;
        } else if (key == "hot_path" && value.kind == Value::kArray) {
          rc.hot_path = value.array;
        } else {
          return fail("unknown or mistyped [rule." + rule_id + "] key '" + key + "'");
        }
        break;
      }
      case Section::kSuppress: {
        Suppression& s = out->suppressions.back();
        if (key == "rule" && value.kind == Value::kString) {
          s.rule = value.str;
        } else if (key == "file" && value.kind == Value::kString) {
          s.file = value.str;
        } else if (key == "line" && value.kind == Value::kInt) {
          s.line = value.integer;
        } else if (key == "reason" && value.kind == Value::kString) {
          s.reason = value.str;
        } else {
          return fail("unknown or mistyped [[suppress]] key '" + key + "'");
        }
        break;
      }
    }
  }

  for (std::size_t i = 0; i < out->suppressions.size(); ++i) {
    const Suppression& s = out->suppressions[i];
    std::ostringstream os;
    if (s.rule.empty() || !known_rule(s.rule)) {
      os << "suppression #" << i + 1 << ": missing or unknown rule id '" << s.rule << "'";
      *error = os.str();
      return false;
    }
    if (s.file.empty()) {
      os << "suppression #" << i + 1 << " (" << s.rule << "): missing file";
      *error = os.str();
      return false;
    }
    // The disposition contract: no suppression without a written reason.
    if (trim(s.reason).empty()) {
      os << "suppression #" << i + 1 << " (" << s.rule << " in " << s.file
         << "): empty reason — every suppression must say WHY (DESIGN.md §14)";
      *error = os.str();
      return false;
    }
  }
  return true;
}

}  // namespace ttdc::lint
