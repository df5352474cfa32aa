// Unit tests for src/sparql: lexer, parser, executor semantics (BGP joins,
// FILTER, OPTIONAL, UNION, aggregates, modifiers), result tables, and the
// visual-query builder.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "endpoint/local_endpoint.h"
#include "endpoint/simulated_endpoint.h"
#include "rdf/graph.h"
#include "rdf/turtle.h"
#include "rdf/vocab.h"
#include "sparql/executor.h"
#include "sparql/lexer.h"
#include "sparql/parser.h"
#include "sparql/query_builder.h"
#include "sparql/results.h"

namespace hbold::sparql {
namespace {

using rdf::Term;

// Shared fixture: a small social/geo dataset.
class SparqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto n = rdf::ParseTurtle(R"(
@prefix ex: <http://x/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .

ex:alice a foaf:Person ; foaf:name "Alice" ; foaf:age 30 ;
    foaf:knows ex:bob ; ex:livesIn ex:rome .
ex:bob a foaf:Person ; foaf:name "Bob" ; foaf:age 25 ;
    foaf:knows ex:carol ; ex:livesIn ex:rome .
ex:carol a foaf:Person ; foaf:name "Carol" ; foaf:age 41 .
ex:rome a ex:City ; foaf:name "Rome" ;
    ex:website <http://rome.example.org/sparql> .
ex:milan a ex:City ; foaf:name "Milan" ;
    ex:website <http://milan.example.org/data> .
)",
                              &store_);
    ASSERT_TRUE(n.ok()) << n.status();
    executor_ = std::make_unique<Executor>(&store_);
  }

  ResultTable Run(const std::string& q) {
    auto r = executor_->Execute(q);
    EXPECT_TRUE(r.ok()) << q << "\n" << r.status();
    return r.ok() ? *r : ResultTable();
  }

  rdf::TripleStore store_;
  std::unique_ptr<Executor> executor_;
};

constexpr char kPrefixes[] =
    "PREFIX ex: <http://x/>\n"
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n";

/// LIMIT/OFFSET operands the number token admits but that are not row
/// counts: overflow, decimals, exponents, signs.
constexpr const char* kHostileModifiers[] = {
    "OFFSET 99999999999999999999", "LIMIT 2.5", "LIMIT 1e5", "LIMIT -1"};

/// The parser's recursive forms, for nesting-depth tests.
enum class Nesting { kParens, kBang, kOptional, kUnion };
constexpr Nesting kNestingForms[] = {Nesting::kParens, Nesting::kBang,
                                     Nesting::kOptional, Nesting::kUnion};

std::string Repeat(const std::string& s, size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (size_t i = 0; i < n; ++i) out += s;
  return out;
}

/// A query nesting `form` `levels` deep.
std::string NestedQuery(Nesting form, size_t levels) {
  const std::string head = "SELECT ?s WHERE { ?s ?p ?o . ";
  switch (form) {
    case Nesting::kParens:
      return head + "FILTER " + Repeat("(", levels) + "?o" +
             Repeat(")", levels) + " }";
    case Nesting::kBang:
      return head + "FILTER (" + Repeat("!", levels) + "BOUND(?o)) }";
    case Nesting::kOptional:
      return head + Repeat("OPTIONAL { ", levels) + "?s ?p ?o . " +
             Repeat("} ", levels) + "}";
    case Nesting::kUnion:
      return "SELECT ?s WHERE " + Repeat("{ ", levels) + "{ ?s ?p ?o . }" +
             Repeat(" UNION { ?s ?p ?o . } }", levels);
  }
  return "";
}

// ---------------------------------------------------------------- Lexer

TEST(LexerTest, TokenizesCoreForms) {
  auto toks = Tokenize("SELECT ?x WHERE { ?x a <http://x/C> . }");
  ASSERT_TRUE(toks.ok());
  ASSERT_GE(toks->size(), 9u);
  EXPECT_EQ((*toks)[0].kind, TokenKind::kKeyword);
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[1].kind, TokenKind::kVar);
  EXPECT_EQ((*toks)[1].text, "x");
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto toks = Tokenize("select distinct where filter regex");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[4].text, "REGEX");
}

TEST(LexerTest, DisambiguatesIriFromLessThan) {
  auto toks = Tokenize("FILTER (?a < 5) . ?s ?p <http://x/y>");
  ASSERT_TRUE(toks.ok());
  bool saw_lt = false, saw_iri = false;
  for (const auto& t : *toks) {
    if (t.kind == TokenKind::kLt) saw_lt = true;
    if (t.kind == TokenKind::kIri) saw_iri = true;
  }
  EXPECT_TRUE(saw_lt);
  EXPECT_TRUE(saw_iri);
}

TEST(LexerTest, StringEscapesAndComments) {
  auto toks = Tokenize("\"a\\\"b\" # trailing comment\n'single'");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "a\"b");
  EXPECT_EQ((*toks)[1].text, "single");
}

TEST(LexerTest, OperatorsTwoChar) {
  auto toks = Tokenize("!= <= >= && || ^^");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].kind, TokenKind::kNe);
  EXPECT_EQ((*toks)[1].kind, TokenKind::kLe);
  EXPECT_EQ((*toks)[2].kind, TokenKind::kGe);
  EXPECT_EQ((*toks)[3].kind, TokenKind::kAnd);
  EXPECT_EQ((*toks)[4].kind, TokenKind::kOr);
  EXPECT_EQ((*toks)[5].kind, TokenKind::kDtCaret);
}

TEST(LexerTest, RejectsStrayCharacters) {
  EXPECT_FALSE(Tokenize("SELECT ?x & ?y").ok());
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
}

// An IRIREF test that scanned ahead to the next '>' from every '<' made a
// run of '<' quadratic.
TEST(LexerTest, RunOfLessThanLexesInLinearTime) {
  const size_t n = size_t{1} << 20;
  const std::string text = "FILTER (?a " + std::string(n, '<') + " ?b)";
  const auto start = std::chrono::steady_clock::now();
  auto toks = Tokenize(text);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(toks.ok()) << toks.status();
  size_t lt = 0;
  for (const Token& t : *toks) lt += t.kind == TokenKind::kLt ? 1 : 0;
  EXPECT_EQ(lt, n);
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

// ---------------------------------------------------------------- Parser

TEST(ParserTest, ParsesProjectionAndPrefixes) {
  auto q = ParseQuery(
      "PREFIX ex: <http://x/> SELECT DISTINCT ?a ?b WHERE { ?a ex:p ?b . } "
      "LIMIT 10 OFFSET 2");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->distinct);
  EXPECT_EQ(q->vars, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(q->limit, 10u);
  EXPECT_EQ(q->offset, 2u);
  ASSERT_EQ(q->where.triples.size(), 1u);
  EXPECT_EQ(q->where.triples[0].p.term.lexical(), "http://x/p");
}

TEST(ParserTest, ParsesCountAggregate) {
  auto q = ParseQuery(
      "SELECT ?c (COUNT(DISTINCT ?i) AS ?n) WHERE { ?i a ?c . } GROUP BY ?c");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->aggregates.size(), 1u);
  EXPECT_TRUE(q->aggregates[0].distinct);
  EXPECT_EQ(q->aggregates[0].var, "i");
  EXPECT_EQ(q->aggregates[0].as, "n");
  EXPECT_EQ(q->group_by, (std::vector<std::string>{"c"}));
  EXPECT_TRUE(q->UsesAggregates());
}

TEST(ParserTest, ParsesListing1PortalQuery) {
  // The exact query shape from the paper's Listing 1.
  auto q = ParseQuery(R"(
PREFIX dcat: <http://www.w3.org/ns/dcat#>
PREFIX dc: <http://purl.org/dc/terms/>
SELECT ?dataset ?title ?url
WHERE {
  ?dataset a dcat:Dataset .
  ?dataset dc:title ?title .
  ?dataset dcat:distribution ?distribution .
  ?distribution dcat:accessURL ?url .
  filter ( regex(?url, 'sparql') ) .
}
)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->vars.size(), 3u);
  EXPECT_EQ(q->where.triples.size(), 4u);
  EXPECT_EQ(q->where.filters.size(), 1u);
}

TEST(ParserTest, ParsesOptionalAndUnion) {
  auto q = ParseQuery(R"(
SELECT * WHERE {
  ?s a <http://x/C> .
  OPTIONAL { ?s <http://x/p> ?v . }
  { ?s <http://x/q> ?w . } UNION { ?s <http://x/r> ?w . }
})");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->select_all);
  EXPECT_EQ(q->where.optionals.size(), 1u);
  EXPECT_EQ(q->where.unions.size(), 1u);
}

TEST(ParserTest, ParsesOrderByForms) {
  auto q = ParseQuery(
      "SELECT ?a WHERE { ?a ?p ?b . } ORDER BY DESC(?b) ?a LIMIT 1");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->order_by.size(), 2u);
  EXPECT_FALSE(q->order_by[0].second);
  EXPECT_TRUE(q->order_by[1].second);
}

TEST(ParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery("WHERE { ?s ?p ?o }").ok());
  EXPECT_FALSE(ParseQuery("SELECT WHERE { ?s ?p ?o . }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p ?o . ").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s nope:x ?o . }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p ?o . } trailing").ok());
  EXPECT_FALSE(
      ParseQuery("SELECT (SUM(?x) AS ?s) WHERE { ?a ?b ?x . }").ok());
}

TEST(ParserTest, LimitAndOffsetAreUnsignedDecimalIntegers) {
  const std::string base = "SELECT ?s WHERE { ?s ?p ?o . } ";
  auto zero = ParseQuery(base + "LIMIT 0");
  ASSERT_TRUE(zero.ok()) << zero.status();
  EXPECT_EQ(zero->limit, 0u);

  const size_t max = std::numeric_limits<size_t>::max();
  auto large = ParseQuery(base + "LIMIT " + std::to_string(max) +
                          " OFFSET 4294967296");
  ASSERT_TRUE(large.ok()) << large.status();
  EXPECT_EQ(large->limit, max);
  EXPECT_EQ(large->offset, size_t{4294967296});

  for (const char* hostile : kHostileModifiers) {
    auto q = ParseQuery(base + hostile);
    ASSERT_FALSE(q.ok()) << hostile;
    EXPECT_EQ(q.status().code(), StatusCode::kParseError) << hostile;
  }
}

TEST(ParserTest, BoundsNestingDepth) {
  for (Nesting form : kNestingForms) {
    auto shallow = ParseQuery(NestedQuery(form, 50));
    EXPECT_TRUE(shallow.ok()) << static_cast<int>(form) << ": "
                              << shallow.status();
    // Deep enough to overflow the stack of an unbounded recursive descent.
    auto deep = ParseQuery(NestedQuery(form, 100000));
    ASSERT_FALSE(deep.ok()) << static_cast<int>(form);
    EXPECT_EQ(deep.status().code(), StatusCode::kParseError)
        << static_cast<int>(form);
  }
}

TEST(ParserTest, ParsesSemicolonAndCommaLists) {
  auto q = ParseQuery(
      "PREFIX ex: <http://x/> SELECT ?s WHERE { ?s a ex:C ; ex:p ?a, ?b . }");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->where.triples.size(), 3u);
}

// ---------------------------------------------------------------- Executor

TEST_F(SparqlTest, SimpleClassQuery) {
  ResultTable t = Run(std::string(kPrefixes) +
                      "SELECT ?p WHERE { ?p a foaf:Person . }");
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.columns(), (std::vector<std::string>{"p"}));
}

TEST_F(SparqlTest, LocalEndpointRejectsHostileLimitAndOffset) {
  endpoint::LocalEndpoint ep("http://x/sparql", "x", &store_);
  for (const char* hostile : kHostileModifiers) {
    auto outcome =
        ep.Query(std::string(kPrefixes) +
                 "SELECT ?p WHERE { ?p a foaf:Person . } " + hostile);
    ASSERT_FALSE(outcome.ok()) << hostile;
    EXPECT_EQ(outcome.status().code(), StatusCode::kParseError) << hostile;
  }

  // The simulated endpoint's dialect gate reads the executor's AST, so
  // parser and lexer errors surface from the same single parse and
  // nothing reaches the plan cache.
  SimClock clock;
  endpoint::SimulatedRemoteEndpoint remote("http://r/sparql", "r", &store_,
                                           &clock);
  std::vector<std::string> bad;
  for (const char* hostile : kHostileModifiers) {
    bad.push_back(std::string(kPrefixes) +
                  "SELECT ?p WHERE { ?p a foaf:Person . } " + hostile);
  }
  bad.push_back("SELECT ?p WHERE { ?p foaf:name \"unterminated . }");
  for (const std::string& text : bad) {
    auto outcome = remote.Query(text);
    ASSERT_FALSE(outcome.ok()) << text;
    EXPECT_EQ(outcome.status().code(), StatusCode::kParseError) << text;
    EXPECT_EQ(remote.engine_stats().plan_cache_hits, 0u) << text;
    EXPECT_EQ(remote.engine_stats().plan_cache_misses, 0u) << text;
  }
}

TEST_F(SparqlTest, RemoteEndpointRejectsHostileNesting) {
  SimClock clock;
  endpoint::SimulatedRemoteEndpoint remote("http://r/sparql", "r", &store_,
                                           &clock);
  for (Nesting form : kNestingForms) {
    auto outcome = remote.Query(NestedQuery(form, 100000));
    ASSERT_FALSE(outcome.ok()) << static_cast<int>(form);
    EXPECT_EQ(outcome.status().code(), StatusCode::kParseError)
        << static_cast<int>(form);
  }
  EXPECT_EQ(remote.engine_stats().plan_cache_hits, 0u);
  EXPECT_EQ(remote.engine_stats().plan_cache_misses, 0u);
}

TEST_F(SparqlTest, JoinAcrossPatterns) {
  // Who lives in the same city as alice? (join via ?city)
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?other WHERE {
  ex:alice ex:livesIn ?city .
  ?other ex:livesIn ?city .
})");
  EXPECT_EQ(t.num_rows(), 2u);  // alice and bob
}

TEST_F(SparqlTest, FilterNumericComparison) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p foaf:age ?a . FILTER (?a > 28) . })");
  EXPECT_EQ(t.num_rows(), 2u);  // alice(30), carol(41)
}

TEST_F(SparqlTest, FilterRegexOnIriIsLenient) {
  // Listing-1 style: regex over an IRI-valued object.
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?c WHERE { ?c ex:website ?u . FILTER regex(?u, "sparql") . })");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Cell(0, "c")->lexical(), "http://x/rome");
}

TEST_F(SparqlTest, FilterRegexCaseInsensitiveFlag) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p foaf:name ?n . FILTER regex(?n, "^ali", "i") . })");
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST_F(SparqlTest, FilterRegexAlternationAndQuantifiers) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p foaf:name ?n . FILTER regex(?n, "^ali|^bob", "i") . })");
  EXPECT_EQ(t.num_rows(), 2u);  // Alice and Bob
  ResultTable q = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p foaf:name ?n . FILTER regex(?n, "^[B-C].*[bl]$") . })");
  EXPECT_EQ(q.num_rows(), 2u);  // Bob, Carol (not Alice)
}

TEST_F(SparqlTest, FilterRegexUnsupportedPatternFiltersRow) {
  // Patterns outside the lite-matcher subset evaluate to an error, which
  // FILTER treats as false — same observable behavior as a malformed
  // regex before, never a silent literal match.
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p foaf:name ?n . FILTER regex(?n, "(ali)+") . })");
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(SparqlTest, FilterStrAndContains) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?c WHERE { ?c ex:website ?u . FILTER CONTAINS(STR(?u), "example.org") . })");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(SparqlTest, FilterBooleanConnectives) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p foaf:age ?a .
  FILTER (?a > 28 && ?a < 40 || ?a = 25) . })");
  EXPECT_EQ(t.num_rows(), 2u);  // 30 and 25
}

TEST_F(SparqlTest, FilterNotAndInequality) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p a foaf:Person . ?p foaf:name ?n .
  FILTER (!(?n = "Alice")) . })");
  EXPECT_EQ(t.num_rows(), 2u);
  ResultTable t2 = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p foaf:name ?n . FILTER (?n != "Rome") . })");
  EXPECT_EQ(t2.num_rows(), 4u);
}

TEST_F(SparqlTest, OptionalKeepsUnmatchedRows) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p ?k WHERE {
  ?p a foaf:Person .
  OPTIONAL { ?p foaf:knows ?k . }
})");
  EXPECT_EQ(t.num_rows(), 3u);
  size_t unbound = 0;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (!t.Cell(i, "k").has_value()) ++unbound;
  }
  EXPECT_EQ(unbound, 1u);  // carol knows nobody
}

TEST_F(SparqlTest, BoundFilterOverOptional) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE {
  ?p a foaf:Person .
  OPTIONAL { ?p foaf:knows ?k . }
  FILTER (!BOUND(?k)) .
})");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Cell(0, "p")->lexical(), "http://x/carol");
}

TEST_F(SparqlTest, UnionConcatenatesAlternatives) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?x WHERE {
  { ?x a foaf:Person . } UNION { ?x a ex:City . }
})");
  EXPECT_EQ(t.num_rows(), 5u);
}

TEST_F(SparqlTest, CountStarGlobal) {
  ResultTable t = Run(std::string(kPrefixes) +
                      "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }");
  EXPECT_EQ(t.ScalarInt("n"), static_cast<int64_t>(store_.size()));
}

TEST_F(SparqlTest, CountEmptyMatchIsZeroRow) {
  ResultTable t = Run(std::string(kPrefixes) +
                      "SELECT (COUNT(*) AS ?n) WHERE { ?s ex:nothing ?o . }");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.ScalarInt("n"), 0);
}

TEST_F(SparqlTest, GroupByClassWithCounts) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?c (COUNT(?i) AS ?n) WHERE { ?i a ?c . } GROUP BY ?c ORDER BY DESC(?n))");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Cell(0, "n")->lexical(), "3");  // Person
  EXPECT_EQ(t.Cell(1, "n")->lexical(), "2");  // City
}

TEST_F(SparqlTest, CountDistinct) {
  // Distinct cities people live in: rome only.
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?p ex:livesIn ?c . })");
  EXPECT_EQ(t.ScalarInt("n"), 1);
}

TEST_F(SparqlTest, DistinctRemovesDuplicateRows) {
  ResultTable plain = Run(std::string(kPrefixes) +
                          "SELECT ?c WHERE { ?p ex:livesIn ?c . }");
  ResultTable dedup = Run(std::string(kPrefixes) +
                          "SELECT DISTINCT ?c WHERE { ?p ex:livesIn ?c . }");
  EXPECT_EQ(plain.num_rows(), 2u);
  EXPECT_EQ(dedup.num_rows(), 1u);
}

TEST_F(SparqlTest, OrderByNumericAscending) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?n WHERE { ?p foaf:age ?n . } ORDER BY ?n)");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.Cell(0, "n")->lexical(), "25");
  EXPECT_EQ(t.Cell(2, "n")->lexical(), "41");
}

TEST_F(SparqlTest, LimitOffsetSlice) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?n WHERE { ?p foaf:age ?n . } ORDER BY ?n LIMIT 1 OFFSET 1)");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Cell(0, "n")->lexical(), "30");
}

TEST_F(SparqlTest, LimitNearSizeMaxWithOffsetKeepsTheRest) {
  // OFFSET + LIMIT overflows size_t here; the slice is still "skip one,
  // keep the other four", with and without ORDER BY.
  const std::string select =
      std::string(kPrefixes) + "SELECT ?n WHERE { ?s foaf:name ?n . }";
  const std::string slice =
      " LIMIT " + std::to_string(std::numeric_limits<size_t>::max()) +
      " OFFSET 1";
  EXPECT_EQ(Run(select + slice).num_rows(), 4u);
  ResultTable ordered = Run(select + " ORDER BY ?n" + slice);
  ASSERT_EQ(ordered.num_rows(), 4u);
  EXPECT_EQ(ordered.Cell(0, "n")->lexical(), "Bob");
}

TEST_F(SparqlTest, SelectStarProjectsAllVars) {
  ResultTable t = Run(std::string(kPrefixes) +
                      "SELECT * WHERE { ?p foaf:knows ?q . }");
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(SparqlTest, SelectStarGroupByProjectsEveryColumn) {
  // Each group row fills all projected columns (the group's first row's
  // bindings), so the table serializes like any other.
  ResultTable t = Run(std::string(kPrefixes) +
                      "SELECT * WHERE { ?p foaf:knows ?q . } GROUP BY ?p");
  ASSERT_EQ(t.num_columns(), 2u);
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.ToTsv(),
            "?p\t?q\n<http://x/alice>\t<http://x/bob>\n"
            "<http://x/bob>\t<http://x/carol>\n");
}

TEST_F(SparqlTest, DistinctLimitKeepsFirstDistinctRows) {
  // Emission stops once OFFSET+LIMIT distinct rows exist; the slice must
  // be the one a full emission would have cut.
  const std::string select = std::string(kPrefixes) +
                             "SELECT DISTINCT ?c WHERE { ?s ex:livesIn ?c . "
                             "?s foaf:knows ?o . }";
  ResultTable all = Run(select);
  ASSERT_EQ(all.num_rows(), 1u);
  ResultTable limited = Run(select + " LIMIT 1");
  EXPECT_EQ(limited, all);
  EXPECT_EQ(Run(select + " LIMIT 1 OFFSET 1").num_rows(), 0u);
  const std::string names =
      std::string(kPrefixes) + "SELECT ?n WHERE { ?s foaf:name ?n . } ";
  ResultTable full = Run(names);
  ResultTable cut = Run(names + "LIMIT 2 OFFSET 1");
  ASSERT_EQ(cut.num_rows(), 2u);
  EXPECT_EQ(*cut.TermAt(0, 0), *full.TermAt(1, 0));
  EXPECT_EQ(*cut.TermAt(1, 0), *full.TermAt(2, 0));
}

TEST_F(SparqlTest, SharedVariableWithinPattern) {
  // ?x ?p ?x — nothing is self-linked in the fixture.
  ResultTable t = Run("SELECT ?x WHERE { ?x ?p ?x . }");
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(SparqlTest, ChainJoinOrderIndependence) {
  // knows-chain: alice -> bob -> carol; written in worst order to exercise
  // the greedy reorder.
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?a ?c WHERE {
  ?b foaf:knows ?c .
  ?a foaf:knows ?b .
  ?a foaf:name "Alice" .
})");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Cell(0, "c")->lexical(), "http://x/carol");
}

TEST_F(SparqlTest, ExecStatsPopulated) {
  ExecStats stats;
  auto r = executor_->Execute(
      std::string(kPrefixes) + "SELECT ?p WHERE { ?p a foaf:Person . }",
      &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.result_rows, 3u);
  EXPECT_GE(stats.intermediate_bindings, 3u);
}

TEST_F(SparqlTest, ParseErrorPropagates) {
  auto r = executor_->Execute("SELECT");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

// ---------------------------------------------------------------- Results

TEST_F(SparqlTest, ResultTableJsonShape) {
  ResultTable t = Run(std::string(kPrefixes) +
                      "SELECT ?p WHERE { ?p a ex:City . } ORDER BY ?p");
  Json j = t.ToJson();
  ASSERT_NE(j.Find("head"), nullptr);
  ASSERT_NE(j.Find("results"), nullptr);
  const Json* bindings = j.Find("results")->Find("bindings");
  ASSERT_NE(bindings, nullptr);
  EXPECT_EQ(bindings->as_array().size(), 2u);
  EXPECT_EQ(bindings->as_array()[0].Find("p")->GetString("type"), "uri");
}

TEST_F(SparqlTest, ResultTableTsvHasHeader) {
  ResultTable t = Run(std::string(kPrefixes) +
                      "SELECT ?p WHERE { ?p a ex:City . }");
  std::string tsv = t.ToTsv();
  EXPECT_EQ(tsv.substr(0, 2), "?p");
}

/// FNV-64 of every serialization (JSON, CSV, TSV) of each query's result,
/// with and without the count pushdown. The values were recorded with a
/// table that stored COUNT cells as xsd:integer literals; any change to the
/// serialized bytes of IRIs, blank nodes, typed and language-tagged
/// literals, absent OPTIONAL cells, COUNT cells or ordered slices fails
/// here.
TEST(ResultTableTest, SerializationBytesArePinned) {
  rdf::TripleStore store;
  auto parsed = rdf::ParseTurtle(R"(
@prefix ex: <http://x/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:a a ex:Person ; ex:name "Ann"@en ; ex:nick "annie, \"A\"" ;
    ex:born "1990-01-02"^^xsd:date ; ex:knows ex:b , _:anon .
ex:b a ex:Person ; ex:name "Bo\nline"@it ; ex:score 10 ; ex:knows ex:a .
_:anon a ex:Person ; ex:name "Anon" ; ex:score 9 .
ex:c a ex:Robot ; ex:name "C-3" ; ex:score 2.5 ; ex:knows ex:a , ex:b .
ex:d a ex:Robot ; ex:score "x1" .
)",
                                 &store);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const std::string p = "PREFIX ex: <http://x/>\n";
  struct Pin {
    std::string query;
    uint64_t fnv;
  };
  const std::vector<Pin> pins = {
      {p + "SELECT ?s ?name ?nick WHERE { ?s ex:name ?name . "
           "OPTIONAL { ?s ex:nick ?nick } } ORDER BY ?name",
       0x13dbe0761652f376ULL},
      {p + "SELECT ?c (COUNT(?s) AS ?n) (COUNT(DISTINCT ?o) AS ?d) WHERE { "
           "?s a ?c . ?s ?q ?o . } GROUP BY ?c ORDER BY DESC(?n) LIMIT 2",
       0x4d355701001c52aaULL},
      {p + "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ex:knows ?o . } "
           "GROUP BY ?s ORDER BY DESC(?n) ?s LIMIT 2 OFFSET 1",
       0x25e0b8bd055b068cULL},
      {p + "SELECT DISTINCT (COUNT(?o) AS ?n) WHERE { ?s ?q ?o . } "
           "GROUP BY ?s ORDER BY ?n",
       0xe4141d58f6f12090ULL},
      {p + "SELECT ?s ?v WHERE { ?s ex:score ?v . } ORDER BY DESC(?v)",
       0xba0e626454eda659ULL},
      {p + "SELECT * WHERE { ?s ?q ?o . } ORDER BY DESC(?o) LIMIT 7 OFFSET 2",
       0xe088f9aaf49e2cc2ULL},
      {p + "SELECT (COUNT(*) AS ?n) WHERE { ?s a ex:Alien . }",
       0x8184635f9134c54eULL},
      {p + "ASK { ?s ex:score ?v . FILTER(?v > 9) }", 0xd9f2d863c14662d6ULL},
  };
  ExecOptions no_pushdown;
  no_pushdown.aggregate_pushdown = false;
  const Executor executors[] = {Executor(&store),
                                Executor(&store, no_pushdown)};
  for (const Pin& pin : pins) {
    std::string bytes[2];
    for (int e = 0; e < 2; ++e) {
      auto r = executors[e].Execute(pin.query);
      ASSERT_TRUE(r.ok()) << pin.query << "\n" << r.status();
      bytes[e] = r->ToJson().Dump() + "\x1e" + r->ToCsv() + "\x1e" + r->ToTsv();
    }
    EXPECT_EQ(bytes[0], bytes[1]) << pin.query;
    EXPECT_EQ(Fnv64(bytes[0]), pin.fnv) << pin.query << "\n" << bytes[0];
  }
}

TEST(ResultTableTest, SliceAndScalar) {
  ResultTable t({"n"}, {ResultTable::ColumnType::kInt});
  for (int64_t v : {9, 8, 7}) t.SetInt(t.AppendRow(), 0, v);
  t.Slice(1, 1);
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.ScalarInt("n"), 8);
  EXPECT_EQ(t.Cell(0, "n"), Term::IntLiteral(8));
  EXPECT_EQ(t.TermAt(0, 0), nullptr) << "an integer cell is not a term";
  EXPECT_FALSE(t.ScalarInt("missing").has_value());
  t.Slice(5, 1);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(ResultTableTest, ScalarIntParsesTermCells) {
  ResultTable t({"n", "m"});
  const size_t r = t.AppendRow();
  t.SetTerm(r, 0, Term::Literal("abc"));
  t.SetTerm(r, 1, Term::IntLiteral(42));
  EXPECT_FALSE(t.ScalarInt("n").has_value());
  EXPECT_EQ(t.ScalarInt("m"), 42);
}

TEST(ResultTableTest, TypedColumnLookupAndGather) {
  ResultTable t({"s", "n"}, {ResultTable::ColumnType::kTerm,
                             ResultTable::ColumnType::kInt});
  EXPECT_EQ(t.ColumnIndex("n", ResultTable::ColumnType::kInt), 1);
  EXPECT_EQ(t.ColumnIndex("n", ResultTable::ColumnType::kTerm), -1);
  EXPECT_EQ(t.ColumnIndex("s", ResultTable::ColumnType::kTerm), 0);
  for (int i = 0; i < 3; ++i) {
    const size_t r = t.AppendRow();
    if (i != 1) t.SetTerm(r, 0, Term::Iri("http://x/" + std::to_string(i)));
    t.SetInt(r, 1, i * 10);
  }
  t.Gather({2, 1});
  ASSERT_EQ(t.num_rows(), 2u);
  ASSERT_NE(t.TermAt(0, 0), nullptr);
  EXPECT_EQ(t.TermAt(0, 0)->lexical(), "http://x/2");
  EXPECT_EQ(t.IntAt(0, 1), 20);
  EXPECT_EQ(t.TermAt(1, 0), nullptr) << "absent cell stays absent";
  EXPECT_EQ(t.IntAt(1, 1), 10);
}

// ---------------------------------------------------------------- Builder

TEST(QueryBuilderTest, BuildsClassAttributeQuery) {
  QueryBuilder b;
  b.Prefix("foaf", "http://xmlns.com/foaf/0.1/")
      .Select("s")
      .Select("name")
      .Distinct()
      .WhereClass("s", "http://xmlns.com/foaf/0.1/Person")
      .WhereLink("s", "http://xmlns.com/foaf/0.1/name", "name")
      .OrderBy("name")
      .Limit(5);
  std::string text = b.Build();
  auto q = ParseQuery(text);
  ASSERT_TRUE(q.ok()) << text << "\n" << q.status();
  EXPECT_TRUE(q->distinct);
  EXPECT_EQ(q->where.triples.size(), 2u);
  EXPECT_EQ(q->limit, 5u);
}

TEST(QueryBuilderTest, BuildsCountQuery) {
  QueryBuilder b;
  b.SelectCount(std::nullopt, "n").WhereRaw("?s", "?p", "?o");
  auto q = ParseQuery(b.Build());
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->aggregates.size(), 1u);
  EXPECT_FALSE(q->aggregates[0].var.has_value());
}

TEST(QueryBuilderTest, FiltersAndOptional) {
  QueryBuilder b;
  b.Select("s")
      .WhereClass("s", "http://x/C")
      .WhereLink("s", "http://x/p", "v")
      .MakeLastOptional()
      .FilterRegex("s", "sparql", /*case_insensitive=*/true)
      .FilterCompare("v", ">", "10");
  auto q = ParseQuery(b.Build());
  ASSERT_TRUE(q.ok()) << b.Build() << "\n" << q.status();
  EXPECT_EQ(q->where.optionals.size(), 1u);
  EXPECT_EQ(q->where.filters.size(), 2u);
}

// ----------------------------------------------------- hostile-text escaping

TEST(QueryBuilderTest, EscapeLiteralEmitsOnlyLexerEscapes) {
  EXPECT_EQ(EscapeLiteral("plain"), "plain");
  EXPECT_EQ(EscapeLiteral("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapeLiteral("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLiteral("line\nbreak\ttab\rcr"),
            "line\\nbreak\\ttab\\rcr");
}

TEST(QueryBuilderTest, EscapeRegexTextNeutralizesMetacharacters) {
  EXPECT_EQ(EscapeRegexText("abc"), "abc");
  EXPECT_EQ(EscapeRegexText("C++ (draft)"), "C\\+\\+ \\(draft\\)");
  EXPECT_EQ(EscapeRegexText("a.b*c?"), "a\\.b\\*c\\?");
  EXPECT_EQ(EscapeRegexText("^[x]|{y}$"), "\\^\\[x\\]\\|\\{y\\}\\$");
}

TEST(QueryBuilderTest, EscapeIriPercentEncodesForbiddenBytes) {
  // Well-formed IRIs pass through byte-identical.
  EXPECT_EQ(EscapeIri("http://x/Person"), "http://x/Person");
  // Delimiters that would terminate or corrupt the <...> token get
  // percent-encoded, so the query stays parseable.
  EXPECT_EQ(EscapeIri("http://x/a b"), "http://x/a%20b");
  EXPECT_EQ(EscapeIri("http://x/a>c"), "http://x/a%3Ec");
  EXPECT_EQ(EscapeIri("http://x/a\"c"), "http://x/a%22c");
  EXPECT_EQ(EscapeIri("http://x/a\\c"), "http://x/a%5Cc");
  EXPECT_EQ(EscapeIri("http://x/a\nc"), "http://x/a%0Ac");
}

// Hostile labels round-trip through the builder into queries the repo's own
// parser accepts — quotes, backslashes, newlines, and regex metacharacters
// can never break out of the literal or IRI context.
TEST(QueryBuilderTest, HostileTextProducesParseableQueries) {
  const std::string hostile[] = {
      "say \"hi\"",  "back\\slash", "line\nbreak",
      "C++ (draft)", "^a.b$|[c]*",  "tab\there \"x\\y\"",
  };
  for (const std::string& text : hostile) {
    QueryBuilder b;
    b.Select("s")
        .WhereClass("s", "http://x/C " + text)  // hostile IRI too
        .WhereLink("s", "http://x/p", "v")
        .FilterRegex("v", EscapeRegexText(text), true)
        .FilterCompare("v", "!=", "\"" + EscapeLiteral(text) + "\"");
    auto q = ParseQuery(b.Build());
    ASSERT_TRUE(q.ok()) << b.Build() << "\n" << q.status();
    EXPECT_EQ(q->where.filters.size(), 2u);
  }
}

// A regex-escaped search still MATCHES the literal text it came from when
// executed (metachars match themselves after escaping).
TEST_F(SparqlTest, EscapedRegexMatchesLiterally) {
  QueryBuilder b;
  b.Select("name")
      .WhereClass("p", "http://xmlns.com/foaf/0.1/Person")
      .WhereLink("p", "http://xmlns.com/foaf/0.1/name", "name")
      .FilterRegex("name", EscapeRegexText("Alice"), false);
  ResultTable t = Run(b.Build());
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Cell(0, "name")->lexical(), "Alice");

  // A pattern full of metachars escaped: matches nothing, breaks nothing.
  QueryBuilder b2;
  b2.Select("name")
      .WhereClass("p", "http://xmlns.com/foaf/0.1/Person")
      .WhereLink("p", "http://xmlns.com/foaf/0.1/name", "name")
      .FilterRegex("name", EscapeRegexText("^Al.ce$"), false);
  EXPECT_EQ(Run(b2.Build()).num_rows(), 0u);
}

// End-to-end: builder-generated query runs on the fixture store.
TEST_F(SparqlTest, BuilderQueryExecutes) {
  QueryBuilder b;
  b.Prefix("foaf", "http://xmlns.com/foaf/0.1/")
      .Select("name")
      .WhereClass("p", "http://xmlns.com/foaf/0.1/Person")
      .WhereLink("p", "http://xmlns.com/foaf/0.1/name", "name")
      .OrderBy("name");
  ResultTable t = Run(b.Build());
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.Cell(0, "name")->lexical(), "Alice");
}

// ---------------------------------------------------- environment knobs

/// Sets (or, for nullptr, unsets) an environment variable for one scope and
/// restores the previous value: sanitizer CI runs export both executor
/// knobs for the whole suite.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(ExecutorEnvTest, SpillBudgetAcceptsOnlyAnUnsignedDecimal) {
  rdf::TripleStore store;
  const size_t default_budget = ExecOptions{}.hash_join_spill_budget_bytes;
  for (const char* bad : {"abc", "-1", "64k", ""}) {
    ScopedEnv env("HBOLD_HASH_SPILL_BUDGET", bad);
    Executor ex(&store);
    EXPECT_EQ(ex.options().hash_join_spill_budget_bytes, default_budget)
        << "HBOLD_HASH_SPILL_BUDGET=\"" << bad << "\"";
  }
  {
    ScopedEnv env("HBOLD_HASH_SPILL_BUDGET", "4096");
    EXPECT_EQ(Executor(&store).options().hash_join_spill_budget_bytes, 4096u);
    // An explicitly configured budget still wins over the variable.
    ExecOptions pinned;
    pinned.hash_join_spill_budget_bytes = 64;
    EXPECT_EQ(Executor(&store, pinned).options().hash_join_spill_budget_bytes,
              64u);
  }
  ScopedEnv unset("HBOLD_HASH_SPILL_BUDGET", nullptr);
  EXPECT_EQ(Executor(&store).options().hash_join_spill_budget_bytes,
            default_budget);
}

TEST(ExecutorEnvTest, ForceHashJoinOnlyForOne) {
  rdf::TripleStore store;
  for (const char* off : {"0", "", "true", "10"}) {
    ScopedEnv env("HBOLD_FORCE_HASH_JOIN", off);
    EXPECT_EQ(Executor(&store).options().hash_join, HashJoinMode::kCost)
        << "HBOLD_FORCE_HASH_JOIN=\"" << off << "\"";
  }
  {
    ScopedEnv env("HBOLD_FORCE_HASH_JOIN", nullptr);
    EXPECT_EQ(Executor(&store).options().hash_join, HashJoinMode::kCost);
  }
  ScopedEnv env("HBOLD_FORCE_HASH_JOIN", "1");
  EXPECT_EQ(Executor(&store).options().hash_join, HashJoinMode::kForce);
}

}  // namespace
}  // namespace hbold::sparql
