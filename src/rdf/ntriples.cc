#include "rdf/ntriples.h"

#include <cctype>

#include "common/string_util.h"
#include "rdf/vocab.h"

namespace hbold::rdf {

namespace {

/// Cursor over one N-Triples line.
class LineParser {
 public:
  LineParser(std::string_view line, size_t line_no)
      : line_(line), line_no_(line_no) {}

  Result<Term> ParseTerm() {
    SkipWs();
    if (pos_ >= line_.size()) return Err("unexpected end of line");
    char c = line_[pos_];
    if (c == '<') return ParseIri();
    if (c == '_') return ParseBlank();
    if (c == '"') return ParseLiteral();
    return Err(std::string("unexpected character '") + c + "'");
  }

  Status ExpectDot() {
    SkipWs();
    if (pos_ >= line_.size() || line_[pos_] != '.') {
      return Err("expected '.'").status();
    }
    ++pos_;
    SkipWs();
    if (pos_ != line_.size()) return Err("trailing characters").status();
    return Status::OK();
  }

 private:
  Result<Term> ParseIri() {
    ++pos_;  // '<'
    size_t start = pos_;
    while (pos_ < line_.size() && line_[pos_] != '>') ++pos_;
    if (pos_ >= line_.size()) return Err("unterminated IRI");
    Term t = Term::Iri(std::string(line_.substr(start, pos_ - start)));
    ++pos_;  // '>'
    return t;
  }

  Result<Term> ParseBlank() {
    if (pos_ + 1 >= line_.size() || line_[pos_ + 1] != ':') {
      return Err("malformed blank node");
    }
    pos_ += 2;
    size_t start = pos_;
    while (pos_ < line_.size() &&
           (std::isalnum(static_cast<unsigned char>(line_[pos_])) ||
            line_[pos_] == '_' || line_[pos_] == '-' || line_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) return Err("empty blank node label");
    return Term::Blank(std::string(line_.substr(start, pos_ - start)));
  }

  Result<Term> ParseLiteral() {
    ++pos_;  // '"'
    std::string value;
    while (true) {
      if (pos_ >= line_.size()) return Err("unterminated literal");
      char c = line_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= line_.size()) return Err("bad escape");
        char e = line_[pos_++];
        switch (e) {
          case 'n':
            value += '\n';
            break;
          case 't':
            value += '\t';
            break;
          case 'r':
            value += '\r';
            break;
          case '"':
            value += '"';
            break;
          case '\\':
            value += '\\';
            break;
          default:
            return Err("unknown escape");
        }
      } else {
        value += c;
      }
    }
    // Optional @lang or ^^<datatype>.
    if (pos_ < line_.size() && line_[pos_] == '@') {
      ++pos_;
      size_t start = pos_;
      while (pos_ < line_.size() &&
             (std::isalnum(static_cast<unsigned char>(line_[pos_])) ||
              line_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ == start) return Err("empty language tag");
      return Term::Literal(std::move(value), vocab::kRdfLangString,
                           std::string(line_.substr(start, pos_ - start)));
    }
    if (pos_ + 1 < line_.size() && line_[pos_] == '^' &&
        line_[pos_ + 1] == '^') {
      pos_ += 2;
      HBOLD_ASSIGN_OR_RETURN(Term dt, ParseIri());
      return Term::Literal(std::move(value), dt.lexical());
    }
    return Term::Literal(std::move(value));
  }

  void SkipWs() {
    while (pos_ < line_.size() &&
           std::isspace(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
  }

  Result<Term> Err(std::string msg) {
    return Status::ParseError("line " + std::to_string(line_no_) + ": " +
                              std::move(msg));
  }

  std::string_view line_;
  size_t line_no_;
  size_t pos_ = 0;
};

}  // namespace

Result<size_t> ParseNTriples(std::string_view text, TripleStore* store) {
  size_t added = 0;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    std::string_view line = (nl == std::string_view::npos)
                                ? text.substr(start)
                                : text.substr(start, nl - start);
    ++line_no;
    std::string_view trimmed = Trim(line);
    if (!trimmed.empty() && trimmed[0] != '#') {
      LineParser lp(trimmed, line_no);
      HBOLD_ASSIGN_OR_RETURN(Term s, lp.ParseTerm());
      HBOLD_ASSIGN_OR_RETURN(Term p, lp.ParseTerm());
      HBOLD_ASSIGN_OR_RETURN(Term o, lp.ParseTerm());
      HBOLD_RETURN_NOT_OK(lp.ExpectDot());
      if (!p.is_iri()) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  ": predicate must be an IRI");
      }
      if (o.is_literal() && s.is_literal()) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  ": subject must not be a literal");
      }
      store->Add(s, p, o);
      ++added;
    }
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  return added;
}

std::string WriteNTriples(const TripleStore& store) {
  std::string out;
  for (const Triple& t : store.Span(TriplePattern{})) {
    out += store.dict().Get(t.s).ToNTriples();
    out += ' ';
    out += store.dict().Get(t.p).ToNTriples();
    out += ' ';
    out += store.dict().Get(t.o).ToNTriples();
    out += " .\n";
  }
  return out;
}

}  // namespace hbold::rdf
