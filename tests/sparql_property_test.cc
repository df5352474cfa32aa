// Property suite: the SPARQL executor's BGP join semantics are checked
// against a brute-force oracle on randomized stores and randomized
// two/three-pattern queries, across seeds. Also covers solution-modifier
// edge cases that the example-driven tests miss.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "rdf/vocab.h"
#include "sparql/executor.h"

namespace hbold::sparql {
namespace {

using rdf::Term;

/// A tiny universe so joins happen often.
struct Universe {
  rdf::TripleStore store;
  std::vector<std::string> subjects;   // IRIs
  std::vector<std::string> predicates;
  std::vector<std::string> objects;
};

Universe MakeUniverse(uint64_t seed) {
  Universe u;
  Rng rng(seed);
  for (int i = 0; i < 8; ++i) u.subjects.push_back("http://u/s" + std::to_string(i));
  for (int i = 0; i < 4; ++i) u.predicates.push_back("http://u/p" + std::to_string(i));
  // Objects overlap with subjects so chains exist.
  u.objects = u.subjects;
  u.objects.push_back("http://u/o_only");

  size_t triples = 40 + rng.Uniform(60);
  for (size_t t = 0; t < triples; ++t) {
    u.store.Add(Term::Iri(rng.Choice(u.subjects)),
                Term::Iri(rng.Choice(u.predicates)),
                Term::Iri(rng.Choice(u.objects)));
  }
  return u;
}

/// One pattern slot: -1 = variable (index into var names), else constant
/// index into the respective pool.
struct OraclePattern {
  int s, p, o;  // >= 0: constant pool index; < 0: -(var_id + 1)
};

/// Brute-force evaluation of a conjunction of patterns over all triples.
std::set<std::vector<std::string>> OracleEval(
    const Universe& u, const std::vector<OraclePattern>& patterns,
    size_t num_vars) {
  const rdf::TripleSpan all = u.store.Span(rdf::TriplePattern{});
  std::set<std::vector<std::string>> results;
  // Depth-first over pattern assignments.
  std::vector<std::string> binding(num_vars);
  std::vector<bool> bound(num_vars, false);

  std::function<void(size_t)> recurse = [&](size_t pi) {
    if (pi == patterns.size()) {
      std::vector<std::string> row(num_vars);
      for (size_t v = 0; v < num_vars; ++v) row[v] = binding[v];
      results.insert(row);
      return;
    }
    const OraclePattern& pat = patterns[pi];
    for (const rdf::Triple& t : all) {
      std::string s = u.store.dict().Get(t.s).lexical();
      std::string p = u.store.dict().Get(t.p).lexical();
      std::string o = u.store.dict().Get(t.o).lexical();
      auto try_slot = [&](int spec, const std::string& value,
                          const std::vector<std::string>& pool,
                          std::vector<size_t>* newly) {
        if (spec >= 0) return pool[static_cast<size_t>(spec)] == value;
        size_t var = static_cast<size_t>(-spec - 1);
        if (bound[var]) return binding[var] == value;
        bound[var] = true;
        binding[var] = value;
        newly->push_back(var);
        return true;
      };
      std::vector<size_t> newly;
      bool ok = try_slot(pat.s, s, u.subjects, &newly) &&
                try_slot(pat.p, p, u.predicates, &newly) &&
                try_slot(pat.o, o, u.objects, &newly);
      if (ok) recurse(pi + 1);
      for (size_t v : newly) bound[v] = false;
    }
  };
  recurse(0);
  return results;
}

/// Renders the oracle patterns as a SPARQL query over vars ?v0..?vN.
std::string RenderQuery(const Universe& u,
                        const std::vector<OraclePattern>& patterns,
                        size_t num_vars) {
  std::string q = "SELECT";
  for (size_t v = 0; v < num_vars; ++v) q += " ?v" + std::to_string(v);
  q += " WHERE {\n";
  auto slot = [&](int spec, const std::vector<std::string>& pool) {
    if (spec >= 0) return "<" + pool[static_cast<size_t>(spec)] + ">";
    return "?v" + std::to_string(-spec - 1);
  };
  for (const OraclePattern& pat : patterns) {
    q += "  " + slot(pat.s, u.subjects) + " " + slot(pat.p, u.predicates) +
         " " + slot(pat.o, u.objects) + " .\n";
  }
  q += "}";
  return q;
}

class SparqlOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SparqlOracleTest, ExecutorAgreesWithBruteForce) {
  Universe u = MakeUniverse(GetParam());
  Rng rng(GetParam() * 31 + 7);

  for (int trial = 0; trial < 12; ++trial) {
    // Random query: 1-3 patterns over up to 3 variables, every variable
    // used at least once by construction (slots pick vars with p=0.5).
    size_t num_vars = 1 + rng.Uniform(3);
    size_t num_patterns = 1 + rng.Uniform(3);
    std::vector<OraclePattern> patterns;
    std::set<int> used_vars;
    for (size_t i = 0; i < num_patterns; ++i) {
      auto slot = [&](const std::vector<std::string>& pool) -> int {
        if (rng.Chance(0.5)) {
          int var = static_cast<int>(rng.Uniform(num_vars));
          used_vars.insert(var);
          return -(var + 1);
        }
        return static_cast<int>(rng.Uniform(pool.size()));
      };
      patterns.push_back(OraclePattern{slot(u.subjects), slot(u.predicates),
                                       slot(u.objects)});
    }
    // Ensure all projected vars appear (rebind unused ones onto the first
    // pattern's subject to keep the query well-formed).
    for (size_t v = 0; v < num_vars; ++v) {
      if (used_vars.count(static_cast<int>(v)) == 0) {
        patterns[0].s = -(static_cast<int>(v) + 1);
        used_vars.insert(static_cast<int>(v));
      }
    }

    std::string query = RenderQuery(u, patterns, num_vars);
    Executor executor(&u.store);
    auto result = executor.Execute(query);
    ASSERT_TRUE(result.ok()) << query << "\n" << result.status();

    std::set<std::vector<std::string>> expected =
        OracleEval(u, patterns, num_vars);
    std::set<std::vector<std::string>> actual;
    for (size_t row = 0; row < result->num_rows(); ++row) {
      std::vector<std::string> r;
      for (size_t c = 0; c < result->num_columns(); ++c) {
        const Term* cell = result->TermAt(row, c);
        r.push_back(cell != nullptr ? cell->lexical() : "");
      }
      actual.insert(r);
    }
    // The executor returns bags; compare as sets (oracle is set-based).
    EXPECT_EQ(actual, expected) << query;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparqlOracleTest,
                         ::testing::Range<uint64_t>(0, 10));

// ------------------------------------------------- modifier edge cases

TEST(SparqlEdgeTest, OffsetBeyondResultIsEmpty) {
  Universe u = MakeUniverse(1);
  Executor ex(&u.store);
  auto r = ex.Execute("SELECT ?s WHERE { ?s ?p ?o . } OFFSET 100000");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0u);
}

TEST(SparqlEdgeTest, LimitZeroIsEmpty) {
  Universe u = MakeUniverse(2);
  Executor ex(&u.store);
  auto r = ex.Execute("SELECT ?s WHERE { ?s ?p ?o . } LIMIT 0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0u);
}

TEST(SparqlEdgeTest, MultiKeyOrderByIsStable) {
  rdf::TripleStore store;
  store.Add(Term::Iri("http://x/a"), Term::Iri("http://x/k"),
            Term::IntLiteral(2));
  store.Add(Term::Iri("http://x/b"), Term::Iri("http://x/k"),
            Term::IntLiteral(1));
  store.Add(Term::Iri("http://x/c"), Term::Iri("http://x/k"),
            Term::IntLiteral(1));
  Executor ex(&store);
  auto r = ex.Execute(
      "SELECT ?s ?v WHERE { ?s <http://x/k> ?v . } ORDER BY ?v DESC(?s)");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->num_rows(), 3u);
  EXPECT_EQ(r->Cell(0, "s")->lexical(), "http://x/c");
  EXPECT_EQ(r->Cell(1, "s")->lexical(), "http://x/b");
  EXPECT_EQ(r->Cell(2, "s")->lexical(), "http://x/a");
}

TEST(SparqlEdgeTest, NestedOptionals) {
  rdf::TripleStore store;
  ASSERT_TRUE(rdf::ParseNTriples(
                  "<http://x/a> <http://x/p> <http://x/b> .\n"
                  "<http://x/b> <http://x/q> <http://x/c> .\n"
                  "<http://x/d> <http://x/p> <http://x/e> .\n",
                  &store)
                  .ok());
  Executor ex(&store);
  auto r = ex.Execute(R"(
SELECT ?a ?b ?c WHERE {
  ?a <http://x/p> ?b .
  OPTIONAL { ?b <http://x/q> ?c . }
})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->num_rows(), 2u);
  size_t with_c = 0;
  for (size_t i = 0; i < r->num_rows(); ++i) {
    if (r->Cell(i, "c").has_value()) ++with_c;
  }
  EXPECT_EQ(with_c, 1u);
}

TEST(SparqlEdgeTest, UnionBranchesWithFilters) {
  rdf::TripleStore store;
  store.Add(Term::Iri("http://x/a"), Term::Iri("http://x/k"),
            Term::IntLiteral(5));
  store.Add(Term::Iri("http://x/b"), Term::Iri("http://x/k"),
            Term::IntLiteral(50));
  Executor ex(&store);
  auto r = ex.Execute(R"(
SELECT ?s WHERE {
  { ?s <http://x/k> ?v . FILTER (?v < 10) . }
  UNION
  { ?s <http://x/k> ?v . FILTER (?v > 40) . }
})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->num_rows(), 2u);
}

TEST(SparqlEdgeTest, GroupByMultipleKeys) {
  rdf::TripleStore store;
  auto add = [&](const char* s, const char* cls, const char* city) {
    store.Add(Term::Iri(s), Term::Iri(rdf::vocab::kRdfType), Term::Iri(cls));
    store.Add(Term::Iri(s), Term::Iri("http://x/in"), Term::Iri(city));
  };
  add("http://x/1", "http://x/A", "http://x/rome");
  add("http://x/2", "http://x/A", "http://x/rome");
  add("http://x/3", "http://x/A", "http://x/milan");
  add("http://x/4", "http://x/B", "http://x/rome");
  Executor ex(&store);
  auto r = ex.Execute(R"(
SELECT ?c ?city (COUNT(?s) AS ?n) WHERE {
  ?s a ?c . ?s <http://x/in> ?city .
} GROUP BY ?c ?city ORDER BY DESC(?n))");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->num_rows(), 3u);
  EXPECT_EQ(r->Cell(0, "n")->lexical(), "2");
}

// ------------------------------------------------- ASK form

TEST(AskTest, TrueWhenPatternMatches) {
  Universe u = MakeUniverse(4);
  Executor ex(&u.store);
  auto r = ex.Execute("ASK { ?s ?p ?o . }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->AskResult(), true);
}

TEST(AskTest, FalseOnEmptyStoreOrNoMatch) {
  rdf::TripleStore empty;
  Executor ex(&empty);
  auto r = ex.Execute("ASK { ?s ?p ?o . }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AskResult(), false);

  Universe u = MakeUniverse(5);
  Executor ex2(&u.store);
  auto r2 = ex2.Execute("ASK { ?s <http://nope/p> ?o . }");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->AskResult(), false);
}

TEST(AskTest, SupportsFiltersAndPrefixes) {
  rdf::TripleStore store;
  store.Add(Term::Iri("http://x/a"), Term::Iri("http://x/k"),
            Term::IntLiteral(7));
  Executor ex(&store);
  auto yes = ex.Execute(
      "PREFIX ex: <http://x/> ASK { ?s ex:k ?v . FILTER (?v > 5) . }");
  ASSERT_TRUE(yes.ok()) << yes.status();
  EXPECT_EQ(yes->AskResult(), true);
  auto no = ex.Execute(
      "PREFIX ex: <http://x/> ASK { ?s ex:k ?v . FILTER (?v > 50) . }");
  ASSERT_TRUE(no.ok());
  EXPECT_EQ(no->AskResult(), false);
}

TEST(AskTest, RejectsTrailingModifiers) {
  Universe u = MakeUniverse(6);
  Executor ex(&u.store);
  EXPECT_FALSE(ex.Execute("ASK { ?s ?p ?o . } LIMIT 3").ok());
}

TEST(AskTest, AskResultIsNulloptForSelectTables) {
  Universe u = MakeUniverse(7);
  Executor ex(&u.store);
  auto r = ex.Execute("SELECT ?s WHERE { ?s ?p ?o . } LIMIT 1");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->AskResult().has_value());
}

TEST(SparqlEdgeTest, EmptyGroupPattern) {
  Universe u = MakeUniverse(3);
  Executor ex(&u.store);
  // SELECT over an empty group: one empty solution.
  auto r = ex.Execute("SELECT (COUNT(*) AS ?n) WHERE { }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->ScalarInt("n"), 1);
}

// -------------------------------------------- store primitive properties

TEST_P(SparqlOracleTest, StoreCountPrimitivesAgreeWithWalks) {
  Universe u = MakeUniverse(GetParam() * 13 + 1);
  Rng rng(GetParam() * 7 + 3);
  const rdf::Dictionary& dict = u.store.dict();
  auto iri_id = [&](const std::string& s) {
    return dict.Lookup(rdf::Term::Iri(s));
  };
  for (int trial = 0; trial < 40; ++trial) {
    rdf::TriplePattern pat;
    if (rng.Chance(0.5)) pat.s = iri_id(rng.Choice(u.subjects));
    if (rng.Chance(0.5)) pat.p = iri_id(rng.Choice(u.predicates));
    if (rng.Chance(0.5)) pat.o = iri_id(rng.Choice(u.objects));
    const rdf::TripleSpan matches = u.store.Span(pat);
    EXPECT_EQ(u.store.Count(pat), matches.size);
    for (rdf::TriplePos pos :
         {rdf::TriplePos::kS, rdf::TriplePos::kP, rdf::TriplePos::kO}) {
      std::set<rdf::TermId> distinct;
      for (const rdf::Triple& t : matches) {
        distinct.insert(pos == rdf::TriplePos::kS
                            ? t.s
                            : (pos == rdf::TriplePos::kP ? t.p : t.o));
      }
      EXPECT_EQ(u.store.CountDistinct(pat, pos), distinct.size());
    }
  }
  // Grouped-count primitive vs a brute-force histogram.
  for (const std::string& p : u.predicates) {
    rdf::TriplePattern pat;
    pat.p = iri_id(p);
    std::map<rdf::TermId, size_t> histogram;
    for (const rdf::Triple& t : u.store.Span(pat)) ++histogram[t.o];
    std::vector<std::pair<rdf::TermId, size_t>> expected(histogram.begin(),
                                                         histogram.end());
    EXPECT_EQ(u.store.GroupedCountByObject(pat.p), expected);
  }
}

// -------------------------------------------- fast-path differential suite

ExecOptions PushdownOff() {
  ExecOptions o;
  o.aggregate_pushdown = false;
  o.filter_pushdown = false;
  o.limit_pushdown = false;
  return o;
}

/// Bit-level table comparison: columns, column types, row order, and full
/// cells (kind, lexical, datatype, language; integer values) must agree.
::testing::AssertionResult TablesIdentical(const ResultTable& a,
                                           const ResultTable& b) {
  if (a == b) return ::testing::AssertionSuccess();
  if (a.columns() != b.columns()) {
    return ::testing::AssertionFailure() << "column mismatch";
  }
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "row count " << a.num_rows() << " vs " << b.num_rows();
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (a.column_type(c) != b.column_type(c)) {
      return ::testing::AssertionFailure() << "column " << c << " type";
    }
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (const std::string& name : a.columns()) {
      const std::optional<Term> ca = a.Cell(r, name);
      const std::optional<Term> cb = b.Cell(r, name);
      if (ca != cb) {
        return ::testing::AssertionFailure()
               << "cell (" << r << "," << name << ") differs: "
               << (ca.has_value() ? ca->ToNTriples() : "~") << " vs "
               << (cb.has_value() ? cb->ToNTriples() : "~");
      }
    }
  }
  return ::testing::AssertionFailure() << "tables differ";
}

/// The count-query family the extraction strategies issue, over the random
/// universe's vocabulary.
std::vector<std::string> CountCorpus(const Universe& u, Rng* rng) {
  auto iri = [](const std::string& s) { return "<" + s + ">"; };
  std::string p0 = iri(rng->Choice(u.predicates));
  std::string p1 = iri(rng->Choice(u.predicates));
  std::string p2 = iri(rng->Choice(u.predicates));
  std::string s0 = iri(rng->Choice(u.subjects));
  std::string o0 = iri(rng->Choice(u.objects));
  std::string o1 = iri(rng->Choice(u.objects));
  return {
      "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }",
      "SELECT (COUNT(?o) AS ?n) WHERE { ?s " + p0 + " ?o . }",
      "SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s " + p0 + " ?o . }",
      "SELECT (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s " + p0 + " ?o . }",
      "SELECT (COUNT(DISTINCT ?p) AS ?n) WHERE { ?s ?p ?o . }",
      "SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s " + p0 + " " + o0 + " . }",
      "SELECT (COUNT(*) AS ?n) WHERE { " + s0 + " ?p ?o . }",
      "SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s " + p0 + " ?o . } GROUP BY ?o",
      "SELECT ?o (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s " + p0 +
          " ?o . } GROUP BY ?o ORDER BY DESC(?n)",
      "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p",
      "SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s " + p0 +
          " ?o . } GROUP BY ?o LIMIT 3",
      // Anchor-join shapes (the per-class extraction queries).
      "SELECT (COUNT(?o) AS ?n) WHERE { ?s " + p0 + " " + o0 + " . ?s " + p1 +
          " ?o . }",
      "SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s " + p0 + " " + o0 +
          " . ?s ?p ?o . }",
      "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s " + p0 + " " + o0 +
          " . ?s ?p ?o . } GROUP BY ?p",
      "SELECT ?p (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s " + p0 + " " + o0 +
          " . ?s ?p ?o . } GROUP BY ?p",
      "SELECT ?p ?o (COUNT(?s) AS ?n) WHERE { ?s " + p0 + " " + o0 +
          " . ?s ?p ?o . } GROUP BY ?p ?o",
      // The per-class typed-range count (extraction wave 3).
      "SELECT (COUNT(?o) AS ?n) WHERE { ?s " + p0 + " " + o0 + " . ?s " + p1 +
          " ?o . ?o " + p2 + " " + o1 + " . }",
      // Two DISTINCT counts over different variables of one pattern: each
      // needs its own CountDistinct.
      "SELECT (COUNT(DISTINCT ?s) AS ?a) (COUNT(DISTINCT ?o) AS ?b) "
      "WHERE { ?s ?p ?o . }",
      // A cyclic join: the second step has every variable bound.
      "SELECT (COUNT(*) AS ?n) WHERE { ?a " + p0 + " ?b . ?b " + p1 +
          " ?a . }",
      // A variable repeated inside one pattern: materialized, same answer.
      "SELECT (COUNT(*) AS ?n) WHERE { ?x " + p0 + " ?x . }",
      // A star written open pattern first.
      "SELECT ?p ?rc (COUNT(?o) AS ?n) WHERE { ?s ?p ?o . ?o " + p2 +
          " ?rc . ?s " + p0 + " " + o0 + " . } GROUP BY ?p ?rc",
  };
}

/// General (non-count) queries exercising filter and limit pushdown.
std::vector<std::string> GeneralCorpus(const Universe& u, Rng* rng) {
  auto iri = [](const std::string& s) { return "<" + s + ">"; };
  std::string p0 = iri(rng->Choice(u.predicates));
  std::string p1 = iri(rng->Choice(u.predicates));
  std::string o0 = iri(rng->Choice(u.objects));
  return {
      "SELECT ?s ?o WHERE { ?s " + p0 + " ?o . } LIMIT 5",
      "SELECT ?s ?o WHERE { ?s " + p0 + " ?o . } OFFSET 3 LIMIT 4",
      "SELECT ?s WHERE { ?s ?p ?o . FILTER CONTAINS(STR(?o), \"s1\") . }",
      "SELECT ?a ?c WHERE { ?a " + p0 + " ?b . ?b " + p1 +
          " ?c . FILTER CONTAINS(STR(?a), \"u/s\") . }",
      "SELECT ?s WHERE { ?s " + p0 + " " + o0 +
          " . OPTIONAL { ?s " + p1 + " ?v . } FILTER (BOUND(?v)) . }",
      "SELECT DISTINCT ?o WHERE { ?s " + p0 + " ?o . } ORDER BY ?o",
      "ASK { ?s " + p0 + " ?o . }",
      "ASK { ?s " + p0 + " " + o0 + " . }",
  };
}

class FastPathDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FastPathDifferentialTest, CountFamilyBitIdenticalAndCovered) {
  Universe u = MakeUniverse(GetParam() * 101 + 17);
  Rng rng(GetParam() * 11 + 5);
  Executor fast(&u.store);              // defaults: pushdown on
  Executor slow(&u.store, PushdownOff());
  for (const std::string& q : CountCorpus(u, &rng)) {
    ExecStats fs, ss;
    auto rf = fast.Execute(q, &fs);
    auto rs = slow.Execute(q, &ss);
    ASSERT_TRUE(rf.ok()) << q << "\n" << rf.status();
    ASSERT_TRUE(rs.ok()) << q << "\n" << rs.status();
    EXPECT_TRUE(TablesIdentical(*rf, *rs)) << q;
    // The fast path charges the bindings the materializing path produced,
    // so simulated endpoint costs stay bit-identical whichever path ran.
    EXPECT_EQ(fs.intermediate_bindings, ss.intermediate_bindings) << q;
    EXPECT_EQ(fs.result_rows, ss.result_rows) << q;
    EXPECT_EQ(ss.fast_path_hits, 0u) << q;
    EXPECT_EQ(fs.rows_avoided, fs.fast_path_hits > 0 ? fs.intermediate_bindings
                                                     : 0u)
        << q;
    // The corpus is the count family: the fast path must cover all of it
    // but the query repeating ?x inside one pattern.
    const bool repeats = q.find("?x ") != std::string::npos;
    EXPECT_EQ(fs.fast_path_hits, repeats ? 0u : 1u) << q;
  }
}

TEST_P(FastPathDifferentialTest, GeneralQueriesUnchangedByPushdownFlags) {
  Universe u = MakeUniverse(GetParam() * 71 + 29);
  Rng rng(GetParam() * 13 + 9);
  Executor fast(&u.store);
  Executor slow(&u.store, PushdownOff());
  for (const std::string& q : GeneralCorpus(u, &rng)) {
    auto rf = fast.Execute(q);
    auto rs = slow.Execute(q);
    ASSERT_TRUE(rf.ok()) << q << "\n" << rf.status();
    ASSERT_TRUE(rs.ok()) << q << "\n" << rs.status();
    EXPECT_TRUE(TablesIdentical(*rf, *rs)) << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathDifferentialTest,
                         ::testing::Range<uint64_t>(0, 10));

TEST(FastPathStatsTest, HitsAndRowsAvoidedPopulated) {
  Universe u = MakeUniverse(42);
  Executor ex(&u.store);
  ExecStats stats;
  auto r = ex.Execute("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }", &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.fast_path_hits, 1u);
  EXPECT_EQ(stats.rows_avoided, u.store.size());
  EXPECT_EQ(stats.intermediate_bindings, u.store.size());
  EXPECT_EQ(r->ScalarInt("n"), static_cast<int64_t>(u.store.size()));
}

TEST(FastPathStatsTest, ThousandPatternBgpMatchesMaterializing) {
  // 1000 patterns sharing ?x, each binding one more variable: the walk
  // keeps one cursor per step, so its stack depth stays flat.
  rdf::TripleStore store;
  for (int i = 0; i < 10; ++i) {
    store.Add(Term::Iri("http://u/s" + std::to_string(i)),
              Term::Iri("http://u/p"),
              Term::Iri("http://u/o" + std::to_string(i % 3)));
  }
  std::string q =
      "SELECT ?o0 (COUNT(*) AS ?n) (COUNT(DISTINCT ?x) AS ?d) WHERE {";
  for (int i = 0; i < 1000; ++i) {
    q += " ?x <http://u/p> ?o" + std::to_string(i) + " .";
  }
  q += " } GROUP BY ?o0";
  Executor fast(&store);
  Executor slow(&store, PushdownOff());
  ExecStats fs, ss;
  auto rf = fast.Execute(q, &fs);
  auto rs = slow.Execute(q, &ss);
  ASSERT_TRUE(rf.ok()) << rf.status();
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_TRUE(TablesIdentical(*rf, *rs));
  EXPECT_EQ(rf->num_rows(), 3u);
  EXPECT_EQ(fs.intermediate_bindings, ss.intermediate_bindings);
  EXPECT_EQ(fs.intermediate_bindings, 10u * 1000u);
  EXPECT_EQ(fs.fast_path_hits, 1u);
}

// ------------------------------------------ star/range count differential

/// The 3-pattern star/range family (the `?p ?rc` range-class query and
/// variants) over the random universe's vocabulary.
std::vector<std::string> StarCorpus(const Universe& u, Rng* rng) {
  auto iri = [](const std::string& s) { return "<" + s + ">"; };
  std::string p0 = iri(rng->Choice(u.predicates));
  std::string p1 = iri(rng->Choice(u.predicates));
  std::string p2 = iri(rng->Choice(u.predicates));
  std::string o0 = iri(rng->Choice(u.objects));
  return {
      // The paper's range query verbatim shape.
      "SELECT ?p ?rc (COUNT(?o) AS ?n) WHERE { ?s " + p0 + " " + o0 +
          " . ?s ?p ?o . ?o " + p1 + " ?rc . } GROUP BY ?p ?rc",
      // Constant open predicate.
      "SELECT ?rc (COUNT(?o) AS ?n) WHERE { ?s " + p0 + " " + o0 + " . ?s " +
          p2 + " ?o . ?o " + p1 + " ?rc . } GROUP BY ?rc",
      // Distinct aggregates over key and non-key vars.
      "SELECT ?rc (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s " + p0 + " " + o0 +
          " . ?s ?p ?o . ?o " + p1 + " ?rc . } GROUP BY ?rc",
      "SELECT ?p (COUNT(DISTINCT ?rc) AS ?n) WHERE { ?s " + p0 + " " + o0 +
          " . ?s ?p ?o . ?o " + p1 + " ?rc . } GROUP BY ?p",
      // Global (no GROUP BY) count over the star.
      "SELECT (COUNT(*) AS ?n) WHERE { ?s " + p0 + " " + o0 +
          " . ?s ?p ?o . ?o " + p1 + " ?rc . }",
      // Modifiers on top of the pushdown table.
      "SELECT ?p ?rc (COUNT(?o) AS ?n) WHERE { ?s " + p0 + " " + o0 +
          " . ?s ?p ?o . ?o " + p1 + " ?rc . } GROUP BY ?p ?rc "
          "ORDER BY DESC(?n) LIMIT 4",
      // Absent anchor constant: empty result, zero charging.
      "SELECT ?p ?rc (COUNT(?o) AS ?n) WHERE { ?s " + p0 +
          " <http://nope/o> . ?s ?p ?o . ?o " + p1 +
          " ?rc . } GROUP BY ?p ?rc",
  };
}

TEST_P(FastPathDifferentialTest, StarFamilyBitIdenticalAndCovered) {
  Universe u = MakeUniverse(GetParam() * 37 + 11);
  Rng rng(GetParam() * 17 + 3);
  Executor fast(&u.store);  // defaults: count pushdown on
  Executor slow(&u.store, PushdownOff());
  for (const std::string& q : StarCorpus(u, &rng)) {
    ExecStats fs, ss;
    auto rf = fast.Execute(q, &fs);
    auto rs = slow.Execute(q, &ss);
    ASSERT_TRUE(rf.ok()) << q << "\n" << rf.status();
    ASSERT_TRUE(rs.ok()) << q << "\n" << rs.status();
    EXPECT_TRUE(TablesIdentical(*rf, *rs)) << q;
    EXPECT_EQ(fs.intermediate_bindings, ss.intermediate_bindings) << q;
    EXPECT_EQ(fs.result_rows, ss.result_rows) << q;
    // The count pushdown walks any plan order, so every star is covered.
    EXPECT_EQ(fs.fast_path_hits, 1u) << q;
  }
}

// ----------------------------- planner/cache differential harness (~2k)

/// One executor configuration of the {nested-loop, hash-join, pushdown}
/// x {plan cache on/off} differential matrix. Filter/limit pushdown stay
/// on in every cell so charged intermediate_bindings must agree across
/// the whole matrix, not just result tables.
struct PlannerConfig {
  const char* name;
  ExecOptions options;
  bool cache;
};

std::vector<PlannerConfig> PlannerMatrix() {
  ExecOptions nested;
  nested.aggregate_pushdown = false;
  nested.hash_join = HashJoinMode::kOff;
  ExecOptions hash;
  hash.aggregate_pushdown = false;
  hash.hash_join = HashJoinMode::kForce;
  ExecOptions pushdown;  // defaults: count pushdown + cost-based hash
  return {
      {"nested", nested, false},   {"nested+cache", nested, true},
      {"hash", hash, false},       {"hash+cache", hash, true},
      {"pushdown", pushdown, false}, {"pushdown+cache", pushdown, true},
  };
}

/// Seeded random query over the universe's vocabulary: BGPs of 1-4
/// patterns, with optional FILTER / OPTIONAL / UNION / aggregates /
/// modifiers, plus explicit star shapes. Everything stays inside the
/// parser's subset.
std::string RandomQuery(const Universe& u, Rng* rng) {
  auto iri = [](const std::string& s) { return "<" + s + ">"; };
  auto var = [](size_t v) { return "?v" + std::to_string(v); };

  // Star shape, explicitly, some of the time.
  if (rng->Chance(0.15)) {
    std::string anchor_p = iri(rng->Choice(u.predicates));
    std::string anchor_o = iri(rng->Choice(u.objects));
    std::string chain_p = iri(rng->Choice(u.predicates));
    std::string open_p =
        rng->Chance(0.5) ? std::string("?p") : iri(rng->Choice(u.predicates));
    std::string group = rng->Chance(0.5) ? "?rc" : "?rc ?o";
    std::string agg = rng->Chance(0.5) ? "COUNT(?o)" : "COUNT(DISTINCT ?s)";
    return "SELECT " + group + " (" + agg + " AS ?n) WHERE { ?s " + anchor_p +
           " " + anchor_o + " . ?s " + open_p + " ?o . ?o " + chain_p +
           " ?rc . } GROUP BY " + group;
  }

  const size_t num_vars = 1 + rng->Uniform(3);
  const size_t num_patterns = 1 + rng->Uniform(4);
  std::set<size_t> used;
  std::string body;
  for (size_t i = 0; i < num_patterns; ++i) {
    auto slot = [&](const std::vector<std::string>& pool) -> std::string {
      if (rng->Chance(0.5)) {
        size_t v = rng->Uniform(num_vars);
        used.insert(v);
        return var(v);
      }
      return iri(rng->Choice(pool));
    };
    body += "  " + slot(u.subjects) + " " + slot(u.predicates) + " " +
            slot(u.objects) + " .\n";
  }
  if (used.empty()) {
    body = "  ?v0 " + iri(rng->Choice(u.predicates)) + " ?v1 .\n" + body;
    used.insert(0);
    used.insert(1);
  }
  std::vector<size_t> used_list(used.begin(), used.end());

  if (rng->Chance(0.2)) {
    body += "  OPTIONAL { " + var(rng->Choice(used_list)) + " " +
            iri(rng->Choice(u.predicates)) + " ?ov . }\n";
  }
  if (rng->Chance(0.15)) {
    std::string v = var(rng->Choice(used_list));
    body += "  { " + v + " " + iri(rng->Choice(u.predicates)) +
            " ?uv . } UNION { " + v + " " + iri(rng->Choice(u.predicates)) +
            " ?uv . }\n";
  }
  if (rng->Chance(0.35)) {
    std::string v = var(rng->Choice(used_list));
    switch (rng->Uniform(4)) {
      case 0:
        body += "  FILTER CONTAINS(STR(" + v + "), \"s" +
                std::to_string(rng->Uniform(8)) + "\") .\n";
        break;
      case 1:
        body += "  FILTER (" + v + " != <" + rng->Choice(u.objects) + ">) .\n";
        break;
      case 2:
        body += "  FILTER (BOUND(" + v + ")) .\n";
        break;
      default:
        body += "  FILTER REGEX(STR(" + v + "), \"u/s\") .\n";
        break;
    }
  }

  std::string query;
  if (rng->Chance(0.3)) {
    // Aggregate form.
    std::string key = var(rng->Choice(used_list));
    std::string agg;
    switch (rng->Uniform(3)) {
      case 0:
        agg = "COUNT(*)";
        break;
      case 1:
        agg = "COUNT(" + var(rng->Choice(used_list)) + ")";
        break;
      default:
        agg = "COUNT(DISTINCT " + var(rng->Choice(used_list)) + ")";
        break;
    }
    query = "SELECT " + key + " (" + agg + " AS ?n) WHERE {\n" + body +
            "} GROUP BY " + key;
    if (rng->Chance(0.3)) query += " ORDER BY DESC(?n)";
  } else {
    std::string projection;
    for (size_t v : used_list) projection += " " + var(v);
    query = std::string("SELECT") + (rng->Chance(0.3) ? " DISTINCT" : "") +
            projection + " WHERE {\n" + body + "}";
    if (rng->Chance(0.3)) query += " ORDER BY " + var(used_list[0]);
    if (rng->Chance(0.3)) {
      query += " LIMIT " + std::to_string(1 + rng->Uniform(6));
      if (rng->Chance(0.5)) {
        query += " OFFSET " + std::to_string(rng->Uniform(4));
      }
    }
  }
  return query;
}

/// ~2k randomized queries (10 seeds x 200), each executed under every
/// cell of the planner/cache matrix and compared bit-for-bit — tables AND
/// charged intermediate_bindings — against the nested-loop reference. The
/// cache-on cells run the corpus three times: the third pass must be all
/// plan cache hits and still bit-identical.
class PlannerDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerDifferentialTest, MatrixBitIdentical) {
  const uint64_t seed = GetParam();
  Universe u = MakeUniverse(seed * 271 + 13);
  constexpr int kQueriesPerSeed = 200;

  std::vector<std::string> corpus;
  corpus.reserve(kQueriesPerSeed);
  {
    Rng rng(seed * 97 + 29);
    for (int i = 0; i < kQueriesPerSeed; ++i) {
      corpus.push_back(RandomQuery(u, &rng));
    }
  }

  struct Baseline {
    ResultTable table;
    size_t bindings = 0;
    size_t rows = 0;
  };
  std::vector<Baseline> reference(corpus.size());

  size_t hash_builds = 0;
  size_t fast_hits = 0;
  for (const PlannerConfig& config : PlannerMatrix()) {
    PlanCache cache;
    Executor ex(&u.store, config.options,
                config.cache ? &cache : nullptr);
    // Cached configs run the corpus three times: a text is admitted on its
    // second run, so the third pass executes cached plans only.
    const int passes = config.cache ? 3 : 1;
    for (int pass = 0; pass < passes; ++pass) {
      for (size_t qi = 0; qi < corpus.size(); ++qi) {
        const std::string& query = corpus[qi];
        auto repro = [&]() {
          return "\nrepro: PlannerDifferentialTest seed=" +
                 std::to_string(seed) + " query_index=" + std::to_string(qi) +
                 " config=" + config.name + " pass=" + std::to_string(pass) +
                 "\n" + query + "\n";
        };
        ExecStats stats;
        auto result = ex.Execute(query, &stats);
        ASSERT_TRUE(result.ok()) << result.status() << repro();
        if (config.name == std::string("nested") ) {
          reference[qi].table = *result;
          reference[qi].bindings = stats.intermediate_bindings;
          reference[qi].rows = stats.result_rows;
          continue;
        }
        ASSERT_TRUE(TablesIdentical(*result, reference[qi].table)) << repro();
        ASSERT_EQ(stats.intermediate_bindings, reference[qi].bindings)
            << repro();
        ASSERT_EQ(stats.result_rows, reference[qi].rows) << repro();
        hash_builds += stats.hash_join_builds;
        fast_hits += stats.fast_path_hits;
      }
    }
    if (config.cache) {
      PlanCacheStats cs = cache.stats();
      // The third pass re-used every plan: misses happened only on the
      // first two.
      EXPECT_LE(cs.misses, 2 * corpus.size()) << config.name;
      EXPECT_GE(cs.hits, corpus.size()) << config.name;
    }
  }
  // The matrix must actually exercise the new operators somewhere.
  EXPECT_GT(hash_builds, 0u) << "hash-join configs never built a table";
  EXPECT_GT(fast_hits, 0u) << "pushdown configs never hit a fast path";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerDifferentialTest,
                         ::testing::Range<uint64_t>(0, 10));

// ------------------------------------------- out-of-core differential leg

/// The same planner/cache matrix — plus a spill-forced hash-join cell —
/// executed over a disk-backed (mmap sorted-run) store and compared
/// bit-for-bit against the in-RAM nested-loop reference. The executor and
/// planner only ever see Span/Count/CountDistinct/GroupedCountByObject, so
/// the backend must be observationally invisible: identical tables AND
/// identical charged intermediate_bindings.
class OutOfCoreDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OutOfCoreDifferentialTest, MatrixBitIdenticalOverDiskStore) {
  const uint64_t seed = GetParam();
  // Two universes from the same seed produce identical stores (term ids
  // are a pure function of the Add sequence); one is sent to disk.
  Universe ram = MakeUniverse(seed * 271 + 13);
  Universe disk = MakeUniverse(seed * 271 + 13);
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("hbold_ooc_sparql_" + std::to_string(seed));
  fs::remove_all(dir);
  rdf::DiskBackendOptions backend;
  backend.directory = dir.string();
  backend.memory_budget_bytes = 1;  // minimum staging/fragment capacities
  ASSERT_TRUE(disk.store.EnableDiskBackend(backend).ok());
  ASSERT_TRUE(disk.store.on_disk());

  constexpr int kQueriesPerSeed = 200;
  std::vector<std::string> corpus;
  corpus.reserve(kQueriesPerSeed);
  {
    Rng rng(seed * 97 + 29);
    for (int i = 0; i < kQueriesPerSeed; ++i) {
      corpus.push_back(RandomQuery(ram, &rng));
    }
  }

  // Reference: nested-loop over the in-RAM store.
  ExecOptions nested;
  nested.aggregate_pushdown = false;
  nested.hash_join = HashJoinMode::kOff;
  struct Baseline {
    ResultTable table;
    size_t bindings = 0;
  };
  std::vector<Baseline> reference(corpus.size());
  {
    Executor ex(&ram.store, nested, nullptr);
    for (size_t qi = 0; qi < corpus.size(); ++qi) {
      ExecStats stats;
      auto result = ex.Execute(corpus[qi], &stats);
      ASSERT_TRUE(result.ok()) << result.status() << corpus[qi];
      reference[qi].table = *result;
      reference[qi].bindings = stats.intermediate_bindings;
    }
  }

  std::vector<PlannerConfig> matrix = PlannerMatrix();
  ExecOptions spill;  // defaults + forced hash joins that always spill
  spill.hash_join = HashJoinMode::kForce;
  spill.hash_join_spill_budget_bytes = 1;
  matrix.push_back({"hash+spill", spill, false});

  size_t spills = 0;
  for (const PlannerConfig& config : matrix) {
    PlanCache cache;
    Executor ex(&disk.store, config.options, config.cache ? &cache : nullptr);
    for (size_t qi = 0; qi < corpus.size(); ++qi) {
      auto repro = [&]() {
        return "\nrepro: OutOfCoreDifferentialTest seed=" +
               std::to_string(seed) + " query_index=" + std::to_string(qi) +
               " config=" + config.name + "\n" + corpus[qi] + "\n";
      };
      ExecStats stats;
      auto result = ex.Execute(corpus[qi], &stats);
      ASSERT_TRUE(result.ok()) << result.status() << repro();
      ASSERT_TRUE(TablesIdentical(*result, reference[qi].table)) << repro();
      ASSERT_EQ(stats.intermediate_bindings, reference[qi].bindings)
          << repro();
      spills += stats.hash_join_spills;
    }
  }
  // The spill cell must actually have spilled — not silently built in RAM.
  EXPECT_GT(spills, 0u);
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OutOfCoreDifferentialTest,
                         ::testing::Range<uint64_t>(0, 3));

// ------------------------------------------------- ORDER BY numeric keys

TEST(OrderByTest, StrtodArtifactsDoNotReorder) {
  // "inf"/"nan" parse under strtod but are not SPARQL numeric literals;
  // they must sort lexically, after genuinely numeric keys compare
  // numerically ("9" before "10").
  rdf::TripleStore store;
  const char* values[] = {"inf", "10", "nan", "9", "abc"};
  for (const char* v : values) {
    store.Add(Term::Iri(std::string("http://x/") + v),
              Term::Iri("http://x/k"), Term::Literal(v));
  }
  Executor ex(&store);
  auto r = ex.Execute("SELECT ?v WHERE { ?s <http://x/k> ?v . } ORDER BY ?v");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->num_rows(), 5u);
  EXPECT_EQ(r->Cell(0, "v")->lexical(), "9");
  EXPECT_EQ(r->Cell(1, "v")->lexical(), "10");
  EXPECT_EQ(r->Cell(2, "v")->lexical(), "abc");
  EXPECT_EQ(r->Cell(3, "v")->lexical(), "inf");
  EXPECT_EQ(r->Cell(4, "v")->lexical(), "nan");
}

TEST(OrderByTest, MixedNumericColumnIsAStrictWeakOrder) {
  // "2" < "10" numerically, "10" < "1z" lexically, "1z" < "2" lexically —
  // a same-tier-only comparator cycles (UB under std::stable_sort). The
  // tiered order puts numerics first: 2, 10, then 1z.
  rdf::TripleStore store;
  int i = 0;
  for (const char* v : {"10", "1z", "2"}) {
    store.Add(Term::Iri("http://x/r" + std::to_string(i++)),
              Term::Iri("http://x/k"), Term::Literal(v));
  }
  Executor ex(&store);
  auto r = ex.Execute("SELECT ?v WHERE { ?s <http://x/k> ?v . } ORDER BY ?v");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->num_rows(), 3u);
  EXPECT_EQ(r->Cell(0, "v")->lexical(), "2");
  EXPECT_EQ(r->Cell(1, "v")->lexical(), "10");
  EXPECT_EQ(r->Cell(2, "v")->lexical(), "1z");
}

}  // namespace
}  // namespace hbold::sparql
