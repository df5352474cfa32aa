#include "sparql/lexer.h"

namespace hbold::sparql {

namespace {

constexpr std::string_view kKeywords[] = {
    "SELECT", "ASK",    "DISTINCT", "WHERE",     "FILTER",   "OPTIONAL",
    "UNION",  "PREFIX", "GROUP",    "BY",        "ORDER",    "ASC",
    "DESC",   "LIMIT",  "OFFSET",   "COUNT",     "AS",       "REGEX",
    "STR",    "BOUND",  "ISIRI",    "ISLITERAL", "CONTAINS", "LCASE",
    "TRUE",   "FALSE"};

// ASCII character classes: what <cctype> answers in the "C" locale,
// without its per-call locale lookup.
constexpr bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr bool IsDigit(char c) { return c >= '0' && c <= '9'; }
constexpr bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool IsAlnum(char c) { return IsDigit(c) || IsAlpha(c); }
constexpr char ToUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

bool IsPnameChar(char c) { return IsAlnum(c) || c == '_' || c == '-'; }

/// The static uppercase spelling of the keyword `word` names in any case,
/// or an empty view when `word` is not a keyword.
std::string_view MatchKeyword(std::string_view word) {
  for (std::string_view kw : kKeywords) {
    if (kw.size() != word.size() || kw[0] != ToUpper(word[0])) continue;
    size_t i = 1;
    while (i < kw.size() && ToUpper(word[i]) == kw[i]) ++i;
    if (i == kw.size()) return kw;
  }
  return {};
}

}  // namespace

Status Lexer::Next(Token* out) {
  const std::string_view text = text_;
  size_t& pos = pos_;
  auto err = [&](std::string msg) {
    return Status::ParseError("sparql lex: " + std::move(msg) + " at offset " +
                              std::to_string(pos));
  };

  while (pos < text.size()) {
    char c = text[pos];
    if (IsSpace(c)) {
      ++pos;
      continue;
    }
    if (c == '#') {
      while (pos < text.size() && text[pos] != '\n') ++pos;
      continue;
    }
    size_t start = pos;
    switch (c) {
      case '{':
        *out = Token(TokenKind::kLBrace, "{", start);
        ++pos;
        return Status::OK();
      case '}':
        *out = Token(TokenKind::kRBrace, "}", start);
        ++pos;
        return Status::OK();
      case '(':
        *out = Token(TokenKind::kLParen, "(", start);
        ++pos;
        return Status::OK();
      case ')':
        *out = Token(TokenKind::kRParen, ")", start);
        ++pos;
        return Status::OK();
      case ';':
        *out = Token(TokenKind::kSemicolon, ";", start);
        ++pos;
        return Status::OK();
      case ',':
        *out = Token(TokenKind::kComma, ",", start);
        ++pos;
        return Status::OK();
      case '*':
        *out = Token(TokenKind::kStar, "*", start);
        ++pos;
        return Status::OK();
      case '=':
        *out = Token(TokenKind::kEq, "=", start);
        ++pos;
        return Status::OK();
      default:
        break;
    }
    if (c == '.') {
      // Distinguish DOT from a decimal like ".5" (we don't support leading
      // dot numbers; always DOT).
      *out = Token(TokenKind::kDot, ".", start);
      ++pos;
      return Status::OK();
    }
    if (c == '!') {
      if (pos + 1 < text.size() && text[pos + 1] == '=') {
        *out = Token(TokenKind::kNe, "!=", start);
        pos += 2;
      } else {
        *out = Token(TokenKind::kBang, "!", start);
        ++pos;
      }
      return Status::OK();
    }
    if (c == '&') {
      if (pos + 1 < text.size() && text[pos + 1] == '&') {
        *out = Token(TokenKind::kAnd, "&&", start);
        pos += 2;
        return Status::OK();
      }
      return err("stray '&'");
    }
    if (c == '|') {
      if (pos + 1 < text.size() && text[pos + 1] == '|') {
        *out = Token(TokenKind::kOr, "||", start);
        pos += 2;
        return Status::OK();
      }
      return err("stray '|'");
    }
    if (c == '^') {
      if (pos + 1 < text.size() && text[pos + 1] == '^') {
        *out = Token(TokenKind::kDtCaret, "^^", start);
        pos += 2;
        return Status::OK();
      }
      return err("stray '^'");
    }
    if (c == '<') {
      // IRIREF if a '>' closes it before any whitespace or '<'; otherwise a
      // comparison operator. The scan stops at the first of the three, so
      // no byte is scanned on behalf of two '<' and lexing stays linear.
      size_t close = pos + 1;
      while (close < text.size() && text[close] != '>' && text[close] != '<' &&
             !IsSpace(text[close])) {
        ++close;
      }
      if (close < text.size() && text[close] == '>') {
        *out = Token(TokenKind::kIri, text.substr(pos + 1, close - pos - 1),
                     start);
        pos = close + 1;
        return Status::OK();
      }
      if (pos + 1 < text.size() && text[pos + 1] == '=') {
        *out = Token(TokenKind::kLe, "<=", start);
        pos += 2;
      } else {
        *out = Token(TokenKind::kLt, "<", start);
        ++pos;
      }
      return Status::OK();
    }
    if (c == '>') {
      if (pos + 1 < text.size() && text[pos + 1] == '=') {
        *out = Token(TokenKind::kGe, ">=", start);
        pos += 2;
      } else {
        *out = Token(TokenKind::kGt, ">", start);
        ++pos;
      }
      return Status::OK();
    }
    if (c == '?' || c == '$') {
      ++pos;
      size_t vstart = pos;
      while (pos < text.size() && IsPnameChar(text[pos])) ++pos;
      if (pos == vstart) return err("empty variable name");
      *out = Token(TokenKind::kVar, text.substr(vstart, pos - vstart), start);
      return Status::OK();
    }
    if (c == '@') {
      ++pos;
      size_t astart = pos;
      while (pos < text.size() && (IsAlnum(text[pos]) || text[pos] == '-')) {
        ++pos;
      }
      if (pos == astart) return err("empty language tag");
      *out = Token(TokenKind::kAt, text.substr(astart, pos - astart), start);
      return Status::OK();
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      const size_t body = ++pos;
      // Unescaped bytes, allocated at the first escape; without one the
      // token views the literal's body in place.
      std::unique_ptr<std::string> unescaped;
      while (true) {
        if (pos >= text.size()) return err("unterminated string");
        char ch = text[pos++];
        if (ch == quote) break;
        if (ch != '\\') {
          if (unescaped != nullptr) *unescaped += ch;
          continue;
        }
        if (unescaped == nullptr) {
          unescaped = std::make_unique<std::string>(
              text.substr(body, pos - 1 - body));
        }
        if (pos >= text.size()) return err("bad escape");
        switch (text[pos++]) {
          case 'n':
            *unescaped += '\n';
            break;
          case 't':
            *unescaped += '\t';
            break;
          case 'r':
            *unescaped += '\r';
            break;
          case '\\':
            *unescaped += '\\';
            break;
          case '\'':
            *unescaped += '\'';
            break;
          case '"':
            *unescaped += '"';
            break;
          default:
            return err("unknown escape");
        }
      }
      Token tok{TokenKind::kString, text.substr(body, pos - 1 - body), start};
      if (unescaped != nullptr) {
        tok.text = *unescaped;
        tok.owned = std::move(unescaped);
      }
      *out = std::move(tok);
      return Status::OK();
    }
    if (IsDigit(c) || ((c == '+' || c == '-') && pos + 1 < text.size() &&
                       IsDigit(text[pos + 1]))) {
      size_t nstart = pos;
      if (c == '+' || c == '-') ++pos;
      while (pos < text.size() && (IsDigit(text[pos]) || text[pos] == '.' ||
                                   text[pos] == 'e' || text[pos] == 'E')) {
        // Don't eat a terminating DOT: "10." at pattern end.
        if (text[pos] == '.' &&
            (pos + 1 >= text.size() || !IsDigit(text[pos + 1]))) {
          break;
        }
        ++pos;
      }
      *out =
          Token(TokenKind::kNumber, text.substr(nstart, pos - nstart), start);
      return Status::OK();
    }
    if (IsAlpha(c) || c == '_') {
      size_t wstart = pos;
      while (pos < text.size() && IsPnameChar(text[pos])) ++pos;
      // prefix:local form?
      if (pos < text.size() && text[pos] == ':') {
        ++pos;
        while (pos < text.size() && IsPnameChar(text[pos])) ++pos;
        *out =
            Token(TokenKind::kPname, text.substr(wstart, pos - wstart), wstart);
        return Status::OK();
      }
      std::string_view word = text.substr(wstart, pos - wstart);
      if (word == "a") {
        *out = Token(TokenKind::kA, word, wstart);
      } else if (std::string_view kw = MatchKeyword(word); !kw.empty()) {
        *out = Token(TokenKind::kKeyword, kw, wstart);
      } else {
        return err("unknown word '" + std::string(word) + "'");
      }
      return Status::OK();
    }
    if (c == ':') {
      // Default-prefix pname ":local".
      ++pos;
      while (pos < text.size() && IsPnameChar(text[pos])) ++pos;
      *out = Token(TokenKind::kPname, text.substr(start, pos - start), start);
      return Status::OK();
    }
    return err(std::string("unexpected character '") + c + "'");
  }
  *out = Token(TokenKind::kEnd, {}, text.size());
  return Status::OK();
}

Result<std::vector<Token>> Tokenize(std::string_view text) {
  Lexer lexer(text);
  std::vector<Token> out;
  while (out.empty() || out.back().kind != TokenKind::kEnd) {
    Token tok(TokenKind::kEnd, {}, 0);
    HBOLD_RETURN_NOT_OK(lexer.Next(&tok));
    out.push_back(std::move(tok));
  }
  return out;
}

}  // namespace hbold::sparql
