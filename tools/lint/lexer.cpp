#include "lexer.hpp"

#include <cctype>
#include <string_view>

namespace ttdc::lint {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Replaces src[i] with a space unless it is a newline (line structure must
/// survive the scrub so token positions match the original file).
void blank(std::string& s, std::size_t i) {
  if (s[i] != '\n') s[i] = ' ';
}

std::string scrub(const std::string& text) {
  std::string out = text;
  const std::size_t n = out.size();
  std::size_t i = 0;
  while (i < n) {
    const char c = out[i];
    if (c == '/' && i + 1 < n && out[i + 1] == '/') {
      while (i < n && out[i] != '\n') blank(out, i), ++i;
    } else if (c == '/' && i + 1 < n && out[i + 1] == '*') {
      blank(out, i), blank(out, i + 1);
      i += 2;
      while (i < n && !(out[i] == '*' && i + 1 < n && out[i + 1] == '/')) blank(out, i), ++i;
      if (i < n) blank(out, i), blank(out, i + 1), i += 2;
    } else if (c == 'R' && i + 1 < n && out[i + 1] == '"' &&
               (i == 0 || !is_ident_char(out[i - 1]))) {
      // Raw string R"delim( ... )delim". Keep the two quote characters so
      // the tokenizer still sees a (empty) string literal.
      std::size_t d = i + 2;
      std::string delim;
      while (d < n && out[d] != '(' && out[d] != '\n') delim += out[d], ++d;
      if (d >= n || out[d] != '(') {  // malformed: treat as plain '"'
        ++i;
        continue;
      }
      const std::string closer = ")" + delim + "\"";
      std::size_t end = out.find(closer, d + 1);
      if (end == std::string::npos) end = n;  // unterminated: scrub to EOF
      blank(out, i);  // the 'R'
      for (std::size_t k = i + 2; k < end + closer.size() && k < n; ++k) {
        if (k == end + closer.size() - 1) break;  // keep the closing quote
        blank(out, k);
      }
      i = end + closer.size() <= n ? end + closer.size() : n;
    } else if (c == '"' || c == '\'') {
      const char q = c;
      ++i;
      while (i < n && out[i] != q && out[i] != '\n') {
        if (out[i] == '\\' && i + 1 < n) blank(out, i), ++i;
        blank(out, i), ++i;
      }
      if (i < n && out[i] == q) ++i;  // keep the closing quote
    } else {
      ++i;
    }
  }
  return out;
}

}  // namespace

LexedFile lex(const std::string& text) {
  LexedFile lf;
  lf.scrubbed = scrub(text);

  lf.raw_lines.emplace_back();
  for (char c : text) {
    if (c == '\n') {
      lf.raw_lines.emplace_back();
    } else {
      lf.raw_lines.back() += c;
    }
  }

  const std::string& s = lf.scrubbed;
  std::size_t line = 1, col = 1;
  std::size_t i = 0;
  const std::size_t n = s.size();
  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      ++line, col = 1, ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++col, ++i;
      continue;
    }
    Token t;
    t.line = line;
    t.col = col;
    if (is_ident_start(c)) {
      t.kind = TokKind::kIdent;
      while (i < n && is_ident_char(s[i])) t.text += s[i], ++i, ++col;
    } else if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      t.kind = TokKind::kNumber;
      // pp-number: digits, idents, dots, exponent signs — one blob.
      while (i < n && (is_ident_char(s[i]) || s[i] == '.' ||
                       ((s[i] == '+' || s[i] == '-') && i > 0 &&
                        (s[i - 1] == 'e' || s[i - 1] == 'E' || s[i - 1] == 'p' ||
                         s[i - 1] == 'P')))) {
        t.text += s[i], ++i, ++col;
      }
    } else if (c == '"' || c == '\'') {
      t.kind = TokKind::kString;
      t.text = std::string(2, c);
      ++i, ++col;
      if (i < n && s[i] == c) ++i, ++col;  // the kept closing quote
    } else {
      t.kind = TokKind::kPunct;
      t.text = std::string(1, c);
      ++i, ++col;
    }
    lf.tokens.push_back(std::move(t));
  }
  return lf;
}

bool match_seq(const std::vector<Token>& tokens, std::size_t i,
               const std::vector<std::string>& texts) {
  if (i + texts.size() > tokens.size()) return false;
  for (std::size_t k = 0; k < texts.size(); ++k) {
    if (tokens[i + k].text != texts[k]) return false;
  }
  return true;
}

std::size_t find_matching(const std::vector<Token>& tokens, std::size_t open_index) {
  if (open_index >= tokens.size()) return tokens.size();
  const std::string& open = tokens[open_index].text;
  std::string_view close;
  if (open == "(") {
    close = ")";
  } else if (open == "{") {
    close = "}";
  } else if (open == "[") {
    close = "]";
  } else if (open == "<") {
    close = ">";
  } else {
    return tokens.size();
  }
  std::size_t depth = 0;
  for (std::size_t i = open_index; i < tokens.size(); ++i) {
    const std::string& t = tokens[i].text;
    if (t == open) {
      ++depth;
    } else if (t == close) {
      if (--depth == 0) return i;
    } else if (open == "<" && t == ";") {
      return tokens.size();  // was a comparison, not a template bracket
    }
  }
  return tokens.size();
}

}  // namespace ttdc::lint
