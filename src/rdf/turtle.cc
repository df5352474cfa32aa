#include "rdf/turtle.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <vector>

#include "common/string_util.h"
#include "rdf/vocab.h"

namespace hbold::rdf {

namespace {

class TurtleParser {
 public:
  TurtleParser(std::string_view text, TripleStore* store)
      : text_(text), store_(store) {}

  Result<size_t> Run() {
    while (true) {
      SkipWsAndComments();
      if (pos_ >= text_.size()) break;
      if (Peek() == '@' || PeekKeyword("PREFIX") || PeekKeyword("prefix")) {
        HBOLD_RETURN_NOT_OK(ParsePrefix());
        continue;
      }
      HBOLD_RETURN_NOT_OK(ParseStatement());
    }
    return added_;
  }

 private:
  char Peek() const { return text_[pos_]; }

  bool PeekKeyword(std::string_view kw) const {
    if (text_.substr(pos_, kw.size()) != kw) return false;
    size_t after = pos_ + kw.size();
    return after >= text_.size() ||
           std::isspace(static_cast<unsigned char>(text_[after]));
  }

  Status ParsePrefix() {
    bool at_form = Peek() == '@';
    if (at_form) ++pos_;
    // Skip "prefix"/"PREFIX".
    while (pos_ < text_.size() &&
           std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    SkipWsAndComments();
    // Prefix label up to ':'.
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ':') ++pos_;
    if (pos_ >= text_.size()) return ErrSt("expected ':' in prefix");
    std::string label(Trim(text_.substr(start, pos_ - start)));
    ++pos_;  // ':'
    SkipWsAndComments();
    if (pos_ >= text_.size() || Peek() != '<') {
      return ErrSt("expected IRI in prefix declaration");
    }
    HBOLD_ASSIGN_OR_RETURN(Term iri, ParseIriRef());
    prefixes_[label] = iri.lexical();
    SkipWsAndComments();
    if (at_form) {
      if (pos_ >= text_.size() || Peek() != '.') {
        return ErrSt("expected '.' after @prefix");
      }
      ++pos_;
    } else if (pos_ < text_.size() && Peek() == '.') {
      ++pos_;  // SPARQL-style PREFIX permits omitting the dot.
    }
    return Status::OK();
  }

  Status ParseStatement() {
    HBOLD_ASSIGN_OR_RETURN(Term subject, ParseTerm(/*allow_literal=*/false));
    while (true) {
      SkipWsAndComments();
      HBOLD_ASSIGN_OR_RETURN(Term predicate, ParsePredicate());
      while (true) {
        SkipWsAndComments();
        HBOLD_ASSIGN_OR_RETURN(Term object, ParseTerm(/*allow_literal=*/true));
        store_->Add(subject, predicate, object);
        ++added_;
        SkipWsAndComments();
        if (pos_ < text_.size() && Peek() == ',') {
          ++pos_;
          continue;
        }
        break;
      }
      if (pos_ < text_.size() && Peek() == ';') {
        ++pos_;
        SkipWsAndComments();
        // A ';' may be followed directly by '.' (trailing semicolon).
        if (pos_ < text_.size() && Peek() == '.') break;
        continue;
      }
      break;
    }
    SkipWsAndComments();
    if (pos_ >= text_.size() || Peek() != '.') {
      return ErrSt("expected '.' at end of statement");
    }
    ++pos_;
    return Status::OK();
  }

  Result<Term> ParsePredicate() {
    if (PeekKeyword("a")) {
      ++pos_;
      return Term::Iri(vocab::kRdfType);
    }
    return ParseTerm(/*allow_literal=*/false);
  }

  Result<Term> ParseTerm(bool allow_literal) {
    SkipWsAndComments();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = Peek();
    if (c == '<') return ParseIriRef();
    if (c == '_') return ParseBlank();
    if (allow_literal && c == '"') return ParseStringLiteral();
    if (allow_literal &&
        (c == '+' || c == '-' ||
         std::isdigit(static_cast<unsigned char>(c)))) {
      return ParseNumericLiteral();
    }
    if (allow_literal && (PeekKeyword("true") || PeekKeyword("false"))) {
      bool v = PeekKeyword("true");
      pos_ += v ? 4 : 5;
      return Term::BoolLiteral(v);
    }
    return ParsePrefixedName();
  }

  Result<Term> ParseIriRef() {
    ++pos_;  // '<'
    size_t start = pos_;
    while (pos_ < text_.size() && Peek() != '>') ++pos_;
    if (pos_ >= text_.size()) return Err("unterminated IRI");
    Term t = Term::Iri(std::string(text_.substr(start, pos_ - start)));
    ++pos_;
    return t;
  }

  Result<Term> ParseBlank() {
    if (pos_ + 1 >= text_.size() || text_[pos_ + 1] != ':') {
      return Err("malformed blank node");
    }
    pos_ += 2;
    size_t start = pos_;
    while (pos_ < text_.size() && (IsNameChar(Peek()) || Peek() == '.')) ++pos_;
    // A trailing '.' terminates the statement, not the label.
    size_t end = pos_;
    while (end > start && text_[end - 1] == '.') --end;
    pos_ = end;
    if (end == start) return Err("empty blank node label");
    return Term::Blank(std::string(text_.substr(start, end - start)));
  }

  Result<Term> ParseStringLiteral() {
    ++pos_;  // '"'
    std::string value;
    while (true) {
      if (pos_ >= text_.size()) return Err("unterminated literal");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Err("bad escape");
        char e = text_[pos_++];
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
    if (pos_ < text_.size() && Peek() == '@') {
      ++pos_;
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(Peek())) ||
              Peek() == '-')) {
        ++pos_;
      }
      return Term::Literal(std::move(value), vocab::kRdfLangString,
                           std::string(text_.substr(start, pos_ - start)));
    }
    if (pos_ + 1 < text_.size() && Peek() == '^' && text_[pos_ + 1] == '^') {
      pos_ += 2;
      SkipWsAndComments();
      Term dt;
      if (pos_ < text_.size() && Peek() == '<') {
        HBOLD_ASSIGN_OR_RETURN(dt, ParseIriRef());
      } else {
        HBOLD_ASSIGN_OR_RETURN(dt, ParsePrefixedName());
      }
      return Term::Literal(std::move(value), dt.lexical());
    }
    return Term::Literal(std::move(value));
  }

  Result<Term> ParseNumericLiteral() {
    size_t start = pos_;
    if (Peek() == '+' || Peek() == '-') ++pos_;
    bool has_dot = false;
    bool has_exp = false;
    while (pos_ < text_.size()) {
      char c = Peek();
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' && !has_dot && pos_ + 1 < text_.size() &&
                 std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
        // Only consume '.' when followed by a digit — otherwise it is the
        // statement terminator.
        has_dot = true;
        ++pos_;
      } else if ((c == 'e' || c == 'E') && !has_exp) {
        has_exp = true;
        ++pos_;
        if (pos_ < text_.size() && (Peek() == '+' || Peek() == '-')) ++pos_;
      } else {
        break;
      }
    }
    std::string lex(text_.substr(start, pos_ - start));
    if (has_exp) return Term::Literal(lex, vocab::kXsdDouble);
    if (has_dot) {
      return Term::Literal(lex, "http://www.w3.org/2001/XMLSchema#decimal");
    }
    return Term::Literal(lex, vocab::kXsdInteger);
  }

  Result<Term> ParsePrefixedName() {
    size_t start = pos_;
    while (pos_ < text_.size() && Peek() != ':' &&
           (IsNameChar(Peek()) || Peek() == '.')) {
      ++pos_;
    }
    if (pos_ >= text_.size() || Peek() != ':') {
      return Err("expected prefixed name");
    }
    std::string prefix(text_.substr(start, pos_ - start));
    ++pos_;  // ':'
    size_t lstart = pos_;
    while (pos_ < text_.size() && (IsNameChar(Peek()) || Peek() == '.')) ++pos_;
    size_t lend = pos_;
    while (lend > lstart && text_[lend - 1] == '.') --lend;
    pos_ = lend;
    std::string local(text_.substr(lstart, lend - lstart));
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) return Err("unknown prefix '" + prefix + "'");
    return Term::Iri(it->second + local);
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
  }

  void SkipWsAndComments() {
    while (pos_ < text_.size()) {
      char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (c == '\n') ++line_;
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && Peek() != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  Result<Term> Err(std::string msg) const { return ErrSt(std::move(msg)); }
  Status ErrSt(std::string msg) const {
    return Status::ParseError("turtle line " + std::to_string(line_) + ": " +
                              std::move(msg));
  }

  std::string_view text_;
  TripleStore* store_;
  std::map<std::string, std::string> prefixes_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t added_ = 0;
};

}  // namespace

Result<size_t> ParseTurtle(std::string_view text, TripleStore* store) {
  TurtleParser p(text, store);
  return p.Run();
}

namespace {

bool IsSimpleNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

/// Splits an IRI at its last '#' or '/' into (namespace, local). The local
/// part must be a simple name for prefixed serialization to be valid.
bool SplitIri(const std::string& iri, std::string* ns, std::string* local) {
  size_t cut = iri.find_last_of("#/");
  if (cut == std::string::npos || cut + 1 >= iri.size()) return false;
  std::string candidate = iri.substr(cut + 1);
  for (char c : candidate) {
    if (!IsSimpleNameChar(c)) return false;
  }
  *ns = iri.substr(0, cut + 1);
  *local = std::move(candidate);
  return true;
}

}  // namespace

std::string WriteTurtle(const TripleStore& store) {
  const Dictionary& dict = store.dict();

  // Collect namespace frequencies across all IRI positions.
  std::map<std::string, size_t> ns_count;
  const TripleSpan all = store.Span(TriplePattern{});
  for (const Triple& t : all) {
    for (TermId id : {t.s, t.p, t.o}) {
      const Term& term = dict.Get(id);
      if (!term.is_iri()) continue;
      std::string ns, local;
      if (SplitIri(term.lexical(), &ns, &local)) ++ns_count[ns];
    }
  }

  // Assign prefixes: well-known ones by name, the rest ns1, ns2, ... in
  // descending frequency (only namespaces used at least twice earn one).
  std::map<std::string, std::string> prefix_of;  // namespace -> label
  prefix_of[vocab::kRdfNs] = "rdf";
  prefix_of[vocab::kRdfsNs] = "rdfs";
  prefix_of[vocab::kXsdNs] = "xsd";
  std::vector<std::pair<size_t, std::string>> ranked;
  for (const auto& [ns, n] : ns_count) {
    if (prefix_of.count(ns) == 0 && n >= 2) ranked.emplace_back(n, ns);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  size_t next_label = 1;
  for (const auto& [n, ns] : ranked) {
    prefix_of[ns] = "ns" + std::to_string(next_label++);
  }

  std::set<std::string> used_ns;
  auto render = [&](TermId id) -> std::string {
    const Term& term = dict.Get(id);
    if (term.is_iri()) {
      if (term.lexical() == vocab::kRdfType) return "a";
      std::string ns, local;
      if (SplitIri(term.lexical(), &ns, &local)) {
        auto it = prefix_of.find(ns);
        if (it != prefix_of.end()) {
          used_ns.insert(ns);
          return it->second + ":" + local;
        }
      }
    }
    return term.ToNTriples();
  };

  // Dry pass to discover which prefixes the body will actually use.
  std::string out;
  for (const Triple& t : all) {
    render(t.s);
    render(t.p);
    render(t.o);
  }
  for (const std::string& ns : used_ns) {
    out += "@prefix " + prefix_of[ns] + ": <" + ns + "> .\n";
  }
  if (!out.empty()) out += "\n";

  // Group by subject, then by predicate (SPO order is already sorted).
  TermId cur_s = kInvalidTermId;
  TermId cur_p = kInvalidTermId;
  bool open = false;
  for (const Triple& t : all) {
    if (t.s != cur_s) {
      if (open) out += " .\n";
      out += render(t.s) + " " + render(t.p) + " " + render(t.o);
      cur_s = t.s;
      cur_p = t.p;
      open = true;
    } else if (t.p != cur_p) {
      out += " ;\n    " + render(t.p) + " " + render(t.o);
      cur_p = t.p;
    } else {
      out += ", " + render(t.o);
    }
  }
  if (open) out += " .\n";
  return out;
}

}  // namespace hbold::rdf
