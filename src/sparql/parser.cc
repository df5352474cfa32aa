#include "sparql/parser.h"

#include <charconv>
#include <string>
#include <string_view>

#include "rdf/vocab.h"
#include "sparql/lexer.h"

namespace hbold::sparql {

namespace {

/// Deepest nesting of groups and FILTER expressions a query may use. No
/// query the library emits comes near it; hostile text past it gets a
/// parse error instead of overflowing the stack.
constexpr int kMaxNestingDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) { Advance(); }

  /// The first lexical error in the text, if any. A lexical error wins
  /// over any parse result wherever it occurs, so after a parse error the
  /// rest of the text is still lexed.
  Status FinishLexing() {
    while (lex_status_.ok() && Cur().kind != TokenKind::kEnd) Advance();
    return lex_status_;
  }

  Result<SelectQuery> Run() {
    SelectQuery q;
    // Prologue: PREFIX declarations.
    while (IsKeyword("PREFIX")) {
      Advance();
      if (Cur().kind != TokenKind::kPname) return Err("expected prefix name");
      std::string_view pname = Cur().text;
      std::string label(pname.substr(0, pname.find(':')));
      Advance();
      if (Cur().kind != TokenKind::kIri) return Err("expected IRI after prefix");
      q.prefixes.insert_or_assign(std::move(label), std::string(Cur().text));
      Advance();
    }
    if (IsKeyword("ASK")) {
      Advance();
      q.form = QueryForm::kAsk;
      HBOLD_RETURN_NOT_OK(ParseGroup(q.prefixes, &q.where));
      if (Cur().kind != TokenKind::kEnd) {
        return Err("unexpected tokens after ASK pattern");
      }
      return q;
    }
    if (!IsKeyword("SELECT")) return Err("expected SELECT or ASK");
    Advance();
    if (IsKeyword("DISTINCT")) {
      q.distinct = true;
      Advance();
    }
    // Projection.
    if (Cur().kind == TokenKind::kStar) {
      q.select_all = true;
      Advance();
    } else {
      while (true) {
        if (Cur().kind == TokenKind::kVar) {
          q.vars.emplace_back(Cur().text);
          Advance();
        } else if (Cur().kind == TokenKind::kLParen) {
          HBOLD_ASSIGN_OR_RETURN(Aggregate agg, ParseAggregate());
          q.aggregates.push_back(std::move(agg));
        } else {
          break;
        }
      }
      if (q.vars.empty() && q.aggregates.empty()) {
        return Err("empty SELECT projection");
      }
    }
    if (IsKeyword("WHERE")) Advance();
    HBOLD_RETURN_NOT_OK(ParseGroup(q.prefixes, &q.where));

    // Solution modifiers.
    while (true) {
      if (IsKeyword("GROUP")) {
        Advance();
        if (!IsKeyword("BY")) return Err("expected BY after GROUP");
        Advance();
        while (Cur().kind == TokenKind::kVar) {
          q.group_by.emplace_back(Cur().text);
          Advance();
        }
        if (q.group_by.empty()) return Err("empty GROUP BY");
        continue;
      }
      if (IsKeyword("ORDER")) {
        Advance();
        if (!IsKeyword("BY")) return Err("expected BY after ORDER");
        Advance();
        while (true) {
          bool asc = true;
          if (IsKeyword("ASC") || IsKeyword("DESC")) {
            asc = IsKeyword("ASC");
            Advance();
            if (Cur().kind != TokenKind::kLParen) return Err("expected (");
            Advance();
            if (Cur().kind != TokenKind::kVar) return Err("expected variable");
            q.order_by.emplace_back(std::string(Cur().text), asc);
            Advance();
            if (Cur().kind != TokenKind::kRParen) return Err("expected )");
            Advance();
          } else if (Cur().kind == TokenKind::kVar) {
            q.order_by.emplace_back(std::string(Cur().text), true);
            Advance();
          } else {
            break;
          }
        }
        if (q.order_by.empty()) return Err("empty ORDER BY");
        continue;
      }
      if (IsKeyword("LIMIT")) {
        Advance();
        HBOLD_ASSIGN_OR_RETURN(q.limit, ParseCount());
        continue;
      }
      if (IsKeyword("OFFSET")) {
        Advance();
        HBOLD_ASSIGN_OR_RETURN(q.offset, ParseCount());
        continue;
      }
      break;
    }
    if (Cur().kind != TokenKind::kEnd) return Err("unexpected trailing tokens");
    return q;
  }

 private:
  const Token& Cur() const { return cur_; }

  /// Moves to the next token. After a lexical error the parser sees kEnd,
  /// and ParseQuery reports the lexical error.
  void Advance() {
    if (!lex_status_.ok()) return;
    lex_status_ = lexer_.Next(&cur_);
    if (!lex_status_.ok()) cur_ = Token(TokenKind::kEnd, {}, cur_.offset);
  }

  bool IsKeyword(std::string_view kw) const {
    return Cur().kind == TokenKind::kKeyword && Cur().text == kw;
  }

  /// LIMIT/OFFSET operand: an unsigned decimal integer that fits size_t.
  /// The number token also admits signs, decimals and exponents, none of
  /// which is a row count.
  Result<size_t> ParseCount() {
    if (Cur().kind != TokenKind::kNumber) return Err<size_t>("expected number");
    std::string_view text = Cur().text;
    const char* end = text.data() + text.size();
    size_t value = 0;
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end) {
      return Err<size_t>("expected unsigned integer, got " + std::string(text));
    }
    Advance();
    return value;
  }

  template <typename T = SelectQuery>
  Result<T> Err(std::string msg) const {
    return Status::ParseError("sparql parse: " + std::move(msg) +
                              " at offset " + std::to_string(Cur().offset));
  }

  /// Counts one level of nesting for as long as it lives.
  class Nesting {
   public:
    explicit Nesting(int* depth) : depth_(depth) { ++*depth_; }
    ~Nesting() { --*depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;
    bool too_deep() const { return *depth_ > kMaxNestingDepth; }

   private:
    int* depth_;
  };

  Status TooDeep() const {
    return Status::ParseError("sparql parse: nesting deeper than " +
                              std::to_string(kMaxNestingDepth) +
                              " at offset " + std::to_string(Cur().offset));
  }

  Result<Aggregate> ParseAggregate() {
    // '(' COUNT '(' [DISTINCT] (*|?var) ')' AS ?name ')'
    Advance();  // '('
    if (!IsKeyword("COUNT")) {
      return Status::ParseError("only COUNT aggregates are supported");
    }
    Advance();
    if (Cur().kind != TokenKind::kLParen) {
      return Status::ParseError("expected ( after COUNT");
    }
    Advance();
    Aggregate agg;
    if (IsKeyword("DISTINCT")) {
      agg.distinct = true;
      Advance();
    }
    if (Cur().kind == TokenKind::kStar) {
      Advance();
    } else if (Cur().kind == TokenKind::kVar) {
      agg.var.emplace(Cur().text);
      Advance();
    } else {
      return Status::ParseError("expected * or variable in COUNT");
    }
    if (Cur().kind != TokenKind::kRParen) {
      return Status::ParseError("expected ) in COUNT");
    }
    Advance();
    if (!IsKeyword("AS")) return Status::ParseError("expected AS");
    Advance();
    if (Cur().kind != TokenKind::kVar) {
      return Status::ParseError("expected variable after AS");
    }
    agg.as = std::string(Cur().text);
    Advance();
    if (Cur().kind != TokenKind::kRParen) {
      return Status::ParseError("expected closing ) of aggregate");
    }
    Advance();
    return agg;
  }

  /// Parses '{ ... }' into `group`, which starts empty.
  Status ParseGroup(const std::map<std::string, std::string>& prefixes,
                    GroupGraphPattern* group) {
    if (Cur().kind != TokenKind::kLBrace) {
      return Status::ParseError("expected {");
    }
    Nesting nesting(&depth_);
    if (nesting.too_deep()) return TooDeep();
    Advance();
    while (true) {
      if (Cur().kind == TokenKind::kRBrace) {
        Advance();
        break;
      }
      if (Cur().kind == TokenKind::kEnd) {
        return Status::ParseError("unterminated group pattern");
      }
      if (IsKeyword("FILTER")) {
        Advance();
        HBOLD_ASSIGN_OR_RETURN(auto expr, ParseBracketedExpr(prefixes));
        group->filters.push_back(std::move(expr));
        if (Cur().kind == TokenKind::kDot) Advance();
        continue;
      }
      if (IsKeyword("OPTIONAL")) {
        Advance();
        auto opt = std::make_unique<GroupGraphPattern>();
        HBOLD_RETURN_NOT_OK(ParseGroup(prefixes, opt.get()));
        group->optionals.push_back(std::move(opt));
        if (Cur().kind == TokenKind::kDot) Advance();
        continue;
      }
      if (Cur().kind == TokenKind::kLBrace) {
        // '{ A } UNION { B }'
        UnionPattern u;
        u.left = std::make_unique<GroupGraphPattern>();
        HBOLD_RETURN_NOT_OK(ParseGroup(prefixes, u.left.get()));
        if (!IsKeyword("UNION")) {
          return Status::ParseError("expected UNION after nested group");
        }
        Advance();
        u.right = std::make_unique<GroupGraphPattern>();
        HBOLD_RETURN_NOT_OK(ParseGroup(prefixes, u.right.get()));
        group->unions.push_back(std::move(u));
        if (Cur().kind == TokenKind::kDot) Advance();
        continue;
      }
      // Triples block: subject (predicate object (',' object)*) (';' ...)* '.'
      HBOLD_RETURN_NOT_OK(ParseTriples(prefixes, &group->triples));
    }
    return Status::OK();
  }

  /// Appends one triples block to `triples`. Each slot is parsed straight
  /// into its pattern; a pattern that shares the subject (after ';') or
  /// the subject and predicate (after ',') copies them from the pattern
  /// before it.
  Status ParseTriples(const std::map<std::string, std::string>& prefixes,
                      std::vector<TriplePatternNode>* triples) {
    if (triples->empty()) triples->reserve(kTypicalTriples);
    TriplePatternNode* t = &triples->emplace_back();
    HBOLD_RETURN_NOT_OK(ParseTermOrVar(prefixes, false, &t->s));
    while (true) {
      if (Cur().kind == TokenKind::kA) {
        t->p.term = RdfType();
        Advance();
      } else {
        HBOLD_RETURN_NOT_OK(ParseTermOrVar(prefixes, false, &t->p));
      }
      while (true) {
        HBOLD_RETURN_NOT_OK(ParseTermOrVar(prefixes, true, &t->o));
        if (Cur().kind != TokenKind::kComma) break;
        Advance();
        t = NextPattern(triples);
        t->p = (t - 1)->p;
      }
      if (Cur().kind == TokenKind::kSemicolon) {
        Advance();
        // Allow trailing ';' before '.' or '}'.
        if (Cur().kind == TokenKind::kDot ||
            Cur().kind == TokenKind::kRBrace) {
          break;
        }
        t = NextPattern(triples);
        continue;
      }
      break;
    }
    if (Cur().kind == TokenKind::kDot) Advance();
    return Status::OK();
  }

  /// Appends a pattern with the previous pattern's subject.
  static TriplePatternNode* NextPattern(
      std::vector<TriplePatternNode>* triples) {
    TriplePatternNode& t = triples->emplace_back();
    t.s = (&t - 1)->s;
    return &t;
  }

  static const rdf::Term& RdfType() {
    static const rdf::Term* const kRdfType =
        new rdf::Term(rdf::Term::Iri(rdf::vocab::kRdfType));
    return *kRdfType;
  }

  /// Parses one term or variable into `out`, which starts default-built.
  Status ParseTermOrVar(const std::map<std::string, std::string>& prefixes,
                        bool allow_literal, TermOrVar* out) {
    const Token& t = Cur();
    switch (t.kind) {
      case TokenKind::kVar:
        out->is_var = true;
        out->var = t.text;
        Advance();
        return Status::OK();
      case TokenKind::kIri:
        out->term = rdf::Term::Iri(std::string(t.text));
        Advance();
        return Status::OK();
      case TokenKind::kPname: {
        HBOLD_ASSIGN_OR_RETURN(out->term, ExpandPname(t.text, prefixes));
        Advance();
        return Status::OK();
      }
      case TokenKind::kString: {
        if (!allow_literal) {
          return Status::ParseError("literal not allowed here");
        }
        std::string value(t.text);
        Advance();
        // Optional @lang / ^^dt.
        if (Cur().kind == TokenKind::kAt) {
          std::string lang(Cur().text);
          Advance();
          out->term = rdf::Term::Literal(
              std::move(value), rdf::vocab::kRdfLangString, std::move(lang));
          return Status::OK();
        }
        if (Cur().kind == TokenKind::kDtCaret) {
          Advance();
          if (Cur().kind == TokenKind::kIri) {
            std::string dt(Cur().text);
            Advance();
            out->term = rdf::Term::Literal(std::move(value), std::move(dt));
            return Status::OK();
          }
          if (Cur().kind == TokenKind::kPname) {
            HBOLD_ASSIGN_OR_RETURN(rdf::Term dt,
                                   ExpandPname(Cur().text, prefixes));
            Advance();
            out->term = rdf::Term::Literal(std::move(value), dt.lexical());
            return Status::OK();
          }
          return Status::ParseError("expected datatype after ^^");
        }
        out->term = rdf::Term::Literal(std::move(value));
        return Status::OK();
      }
      case TokenKind::kNumber: {
        if (!allow_literal) {
          return Status::ParseError("literal not allowed here");
        }
        std::string_view lex = t.text;
        Advance();
        bool is_int = lex.find_first_of(".eE") == std::string_view::npos;
        out->term = rdf::Term::Literal(
            std::string(lex),
            is_int ? rdf::vocab::kXsdInteger : rdf::vocab::kXsdDouble);
        return Status::OK();
      }
      case TokenKind::kKeyword:
        if (t.text == "TRUE" || t.text == "FALSE") {
          out->term = rdf::Term::BoolLiteral(t.text == "TRUE");
          Advance();
          return Status::OK();
        }
        return Status::ParseError("unexpected keyword '" + std::string(t.text) +
                                  "'");
      default:
        return Status::ParseError("expected term at offset " +
                                  std::to_string(t.offset));
    }
  }

  static Result<rdf::Term> ExpandPname(
      std::string_view pname,
      const std::map<std::string, std::string>& prefixes) {
    size_t colon = pname.find(':');
    std::string label(pname.substr(0, colon));
    std::string_view local = pname.substr(colon + 1);
    auto it = prefixes.find(label);
    if (it == prefixes.end()) {
      return Status::ParseError("unknown prefix '" + label + "'");
    }
    std::string iri;
    iri.reserve(it->second.size() + local.size());
    iri.append(it->second).append(local);
    return rdf::Term::Iri(std::move(iri));
  }

  // --- FILTER expression parsing (precedence: || < && < cmp < unary) ---

  Result<std::unique_ptr<Expr>> ParseBracketedExpr(
      const std::map<std::string, std::string>& prefixes) {
    if (Cur().kind != TokenKind::kLParen) {
      // Allow bare function call filters: FILTER REGEX(...), FILTER BOUND(?x)
      return ParseOr(prefixes);
    }
    Advance();
    HBOLD_ASSIGN_OR_RETURN(auto expr, ParseOr(prefixes));
    if (Cur().kind != TokenKind::kRParen) {
      return Status::ParseError("expected ) closing FILTER");
    }
    Advance();
    return expr;
  }

  Result<std::unique_ptr<Expr>> ParseOr(
      const std::map<std::string, std::string>& prefixes) {
    HBOLD_ASSIGN_OR_RETURN(auto left, ParseAnd(prefixes));
    while (Cur().kind == TokenKind::kOr) {
      Advance();
      HBOLD_ASSIGN_OR_RETURN(auto right, ParseAnd(prefixes));
      left = Expr::Binary(Expr::Kind::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseAnd(
      const std::map<std::string, std::string>& prefixes) {
    HBOLD_ASSIGN_OR_RETURN(auto left, ParseCmp(prefixes));
    while (Cur().kind == TokenKind::kAnd) {
      Advance();
      HBOLD_ASSIGN_OR_RETURN(auto right, ParseCmp(prefixes));
      left = Expr::Binary(Expr::Kind::kAnd, std::move(left), std::move(right));
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseCmp(
      const std::map<std::string, std::string>& prefixes) {
    HBOLD_ASSIGN_OR_RETURN(auto left, ParseUnary(prefixes));
    Expr::CmpOp op;
    switch (Cur().kind) {
      case TokenKind::kEq:
        op = Expr::CmpOp::kEq;
        break;
      case TokenKind::kNe:
        op = Expr::CmpOp::kNe;
        break;
      case TokenKind::kLt:
        op = Expr::CmpOp::kLt;
        break;
      case TokenKind::kGt:
        op = Expr::CmpOp::kGt;
        break;
      case TokenKind::kLe:
        op = Expr::CmpOp::kLe;
        break;
      case TokenKind::kGe:
        op = Expr::CmpOp::kGe;
        break;
      default:
        return left;
    }
    Advance();
    HBOLD_ASSIGN_OR_RETURN(auto right, ParseUnary(prefixes));
    return Expr::Compare(op, std::move(left), std::move(right));
  }

  Result<std::unique_ptr<Expr>> ParseUnary(
      const std::map<std::string, std::string>& prefixes) {
    Nesting nesting(&depth_);
    if (nesting.too_deep()) return TooDeep();
    if (Cur().kind == TokenKind::kBang) {
      Advance();
      HBOLD_ASSIGN_OR_RETURN(auto inner, ParseUnary(prefixes));
      return Expr::Unary(Expr::Kind::kNot, std::move(inner));
    }
    if (Cur().kind == TokenKind::kLParen) {
      Advance();
      HBOLD_ASSIGN_OR_RETURN(auto inner, ParseOr(prefixes));
      if (Cur().kind != TokenKind::kRParen) {
        return Status::ParseError("expected )");
      }
      Advance();
      return inner;
    }
    if (Cur().kind == TokenKind::kKeyword) {
      std::string_view kw = Cur().text;
      if (kw == "REGEX" || kw == "CONTAINS") {
        Advance();
        if (Cur().kind != TokenKind::kLParen) {
          return Status::ParseError("expected ( after " + std::string(kw));
        }
        Advance();
        HBOLD_ASSIGN_OR_RETURN(auto a, ParseOr(prefixes));
        if (Cur().kind != TokenKind::kComma) {
          return Status::ParseError("expected , in " + std::string(kw));
        }
        Advance();
        HBOLD_ASSIGN_OR_RETURN(auto b, ParseOr(prefixes));
        // Optional flags argument for REGEX (ignored beyond 'i').
        std::unique_ptr<Expr> expr;
        if (kw == "REGEX" && Cur().kind == TokenKind::kComma) {
          Advance();
          HBOLD_ASSIGN_OR_RETURN(auto flags, ParseOr(prefixes));
          expr = Expr::Binary(Expr::Kind::kRegex, std::move(a), std::move(b));
          expr->args.push_back(std::move(flags));
        } else {
          expr = Expr::Binary(
              kw == "REGEX" ? Expr::Kind::kRegex : Expr::Kind::kContains,
              std::move(a), std::move(b));
        }
        if (Cur().kind != TokenKind::kRParen) {
          return Status::ParseError("expected ) closing " + std::string(kw));
        }
        Advance();
        return expr;
      }
      if (kw == "STR" || kw == "LCASE" || kw == "ISIRI" || kw == "ISLITERAL") {
        Advance();
        if (Cur().kind != TokenKind::kLParen) {
          return Status::ParseError("expected ( after " + std::string(kw));
        }
        Advance();
        HBOLD_ASSIGN_OR_RETURN(auto a, ParseOr(prefixes));
        if (Cur().kind != TokenKind::kRParen) {
          return Status::ParseError("expected ) closing " + std::string(kw));
        }
        Advance();
        Expr::Kind kind = Expr::Kind::kStr;
        if (kw == "LCASE") kind = Expr::Kind::kLcase;
        if (kw == "ISIRI") kind = Expr::Kind::kIsIri;
        if (kw == "ISLITERAL") kind = Expr::Kind::kIsLiteral;
        return Expr::Unary(kind, std::move(a));
      }
      if (kw == "BOUND") {
        Advance();
        if (Cur().kind != TokenKind::kLParen) {
          return Status::ParseError("expected ( after BOUND");
        }
        Advance();
        if (Cur().kind != TokenKind::kVar) {
          return Status::ParseError("expected variable in BOUND");
        }
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kBound;
        e->var = std::string(Cur().text);
        Advance();
        if (Cur().kind != TokenKind::kRParen) {
          return Status::ParseError("expected ) closing BOUND");
        }
        Advance();
        return e;
      }
      if (kw == "TRUE" || kw == "FALSE") {
        Advance();
        return Expr::Literal(rdf::Term::BoolLiteral(kw == "TRUE"));
      }
      return Status::ParseError("unexpected keyword in expression: " +
                                std::string(kw));
    }
    // Primary: var / literal / IRI.
    TermOrVar tv;
    HBOLD_RETURN_NOT_OK(ParseTermOrVar(prefixes, true, &tv));
    if (tv.is_var) return Expr::Var(std::move(tv.var));
    return Expr::Literal(std::move(tv.term));
  }

  /// Initial capacity of a group's triple list. The library's own queries
  /// hold one to three patterns per group, so one allocation serves them;
  /// a cached AST keeps the slack, so a larger guess costs memory.
  static constexpr size_t kTypicalTriples = 3;

  Lexer lexer_;
  Token cur_{TokenKind::kEnd, {}, 0};
  Status lex_status_;
  int depth_ = 0;  // current nesting (see kMaxNestingDepth)
};

}  // namespace

Result<SelectQuery> ParseQuery(std::string_view text) {
  Parser p(text);
  Result<SelectQuery> q = p.Run();
  // As if the whole text were tokenized first: its first lexical error
  // wins over any parse result.
  HBOLD_RETURN_NOT_OK(p.FinishLexing());
  return q;
}

}  // namespace hbold::sparql
