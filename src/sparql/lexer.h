#ifndef HBOLD_SPARQL_LEXER_H_
#define HBOLD_SPARQL_LEXER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace hbold::sparql {

/// SPARQL token kinds (subset sufficient for H-BOLD's query workload).
enum class TokenKind {
  kKeyword,    // SELECT WHERE FILTER ... (uppercased in `text`)
  kVar,        // ?name or $name (text = name without sigil)
  kIri,        // <...> (text = IRI)
  kPname,      // prefix:local (text as written)
  kString,     // "..." (text = unescaped value)
  kNumber,     // 123 / 1.5 / 1e3 (text = lexical form)
  kLBrace,     // {
  kRBrace,     // }
  kLParen,     // (
  kRParen,     // )
  kDot,        // .
  kSemicolon,  // ;
  kComma,      // ,
  kStar,       // *
  kEq,         // =
  kNe,         // !=
  kLt,         // <
  kGt,         // >
  kLe,         // <=
  kGe,         // >=
  kAnd,        // &&
  kOr,         // ||
  kBang,       // !
  kAt,         // @lang (text = tag)
  kDtCaret,    // ^^
  kA,          // bare 'a' (rdf:type)
  kEnd,
};

/// One token. `text` views the query text, except for a keyword (a static
/// uppercase spelling) and for a string literal with escapes (the unescaped
/// bytes in `owned`, whose heap address survives moving the token).
struct Token {
  Token(TokenKind kind, std::string_view text, size_t offset)
      : kind(kind), text(text), offset(offset) {}

  TokenKind kind;
  std::string_view text;
  size_t offset;  // byte offset in the query string, for error messages
  std::unique_ptr<const std::string> owned;
};

/// Splits SPARQL query text into tokens, one at a time. Keywords are
/// case-insensitive and returned uppercased; '<' is disambiguated between
/// IRIREF and less-than by the character that follows. Tokens view `text`,
/// which must outlive them.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  /// The next token; kEnd once the text is consumed. Lexical errors are
  /// ParseError statuses naming the byte offset.
  Status Next(Token* out);

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

/// The whole token stream of `text`, ending with kEnd.
Result<std::vector<Token>> Tokenize(std::string_view text);

}  // namespace hbold::sparql

#endif  // HBOLD_SPARQL_LEXER_H_
