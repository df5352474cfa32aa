// Unit tests for src/rdf: terms, dictionary, triple store indexes, and the
// N-Triples / Turtle parsers.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "rdf/run_file.h"
#include "rdf/term.h"
#include "rdf/turtle.h"
#include "rdf/vocab.h"

namespace hbold::rdf {
namespace {

// ---------------------------------------------------------------- Term

TEST(TermTest, KindsAndAccessors) {
  Term iri = Term::Iri("http://x.org/A");
  Term blank = Term::Blank("b0");
  Term lit = Term::Literal("hello", "", "en");
  EXPECT_TRUE(iri.is_iri());
  EXPECT_TRUE(blank.is_blank());
  EXPECT_TRUE(lit.is_literal());
  EXPECT_EQ(lit.lang(), "en");
}

TEST(TermTest, NTriplesSerialization) {
  EXPECT_EQ(Term::Iri("http://x/A").ToNTriples(), "<http://x/A>");
  EXPECT_EQ(Term::Blank("n1").ToNTriples(), "_:n1");
  EXPECT_EQ(Term::Literal("hi").ToNTriples(), "\"hi\"");
  EXPECT_EQ(Term::Literal("hi", vocab::kRdfLangString, "en").ToNTriples(),
            "\"hi\"@en");
  EXPECT_EQ(Term::IntLiteral(42).ToNTriples(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_EQ(Term::Literal("a\"b\\c\nd").ToNTriples(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(TermTest, XsdStringDatatypeOmittedInSerialization) {
  EXPECT_EQ(Term::Literal("x", vocab::kXsdString).ToNTriples(), "\"x\"");
}

TEST(TermTest, EqualityDistinguishesKindAndDatatype) {
  EXPECT_EQ(Term::Iri("x"), Term::Iri("x"));
  EXPECT_NE(Term::Iri("x"), Term::Blank("x"));
  EXPECT_NE(Term::Literal("1", vocab::kXsdInteger),
            Term::Literal("1", vocab::kXsdDouble));
  EXPECT_NE(Term::Literal("a", "", "en"), Term::Literal("a", "", "fr"));
}

TEST(TermTest, DisplayUsesLocalName) {
  EXPECT_EQ(Term::Iri("http://x.org/onto#Person").ToDisplay(), "Person");
  EXPECT_EQ(Term::Literal("v").ToDisplay(), "\"v\"");
}

TEST(TermTest, TypedLiteralHelpers) {
  EXPECT_EQ(Term::BoolLiteral(true).lexical(), "true");
  EXPECT_EQ(Term::IntLiteral(-3).lexical(), "-3");
  EXPECT_EQ(Term::DoubleLiteral(1.5).datatype(), vocab::kXsdDouble);
}

// ---------------------------------------------------------------- Dictionary

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  TermId a = dict.Intern(Term::Iri("http://x/A"));
  TermId b = dict.Intern(Term::Iri("http://x/A"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, kInvalidTermId);
  EXPECT_EQ(dict.Get(a), Term::Iri("http://x/A"));
}

TEST(DictionaryTest, LookupMissingReturnsInvalid) {
  Dictionary dict;
  EXPECT_EQ(dict.Lookup(Term::Iri("http://nothing")), kInvalidTermId);
}

TEST(DictionaryTest, IdsAreDenseFromOne) {
  Dictionary dict;
  TermId a = dict.Intern(Term::Iri("a"));
  TermId b = dict.Intern(Term::Iri("b"));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(dict.size(), 3u);  // includes reserved slot 0
}

// ---------------------------------------------------------------- TripleStore

class TripleStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Small dataset: two Persons, one City; knows/livesIn links.
    store_.Add(A("alice"), P("type"), C("Person"));
    store_.Add(A("bob"), P("type"), C("Person"));
    store_.Add(A("rome"), P("type"), C("City"));
    store_.Add(A("alice"), P("knows"), A("bob"));
    store_.Add(A("alice"), P("livesIn"), A("rome"));
    store_.Add(A("bob"), P("livesIn"), A("rome"));
  }

  static Term A(const std::string& n) { return Term::Iri("http://x/i/" + n); }
  static Term P(const std::string& n) { return Term::Iri("http://x/p/" + n); }
  static Term C(const std::string& n) { return Term::Iri("http://x/c/" + n); }

  TriplePattern Pat(const Term* s, const Term* p, const Term* o) {
    TriplePattern pat;
    if (s) pat.s = store_.dict().Lookup(*s);
    if (p) pat.p = store_.dict().Lookup(*p);
    if (o) pat.o = store_.dict().Lookup(*o);
    return pat;
  }

  TripleStore store_;
};

TEST_F(TripleStoreTest, SizeAndContains) {
  EXPECT_EQ(store_.size(), 6u);
  EXPECT_TRUE(store_.Contains(A("alice"), P("knows"), A("bob")));
  EXPECT_FALSE(store_.Contains(A("bob"), P("knows"), A("alice")));
}

TEST_F(TripleStoreTest, DuplicatesStoredOnce) {
  store_.Add(A("alice"), P("knows"), A("bob"));
  store_.Add(A("alice"), P("knows"), A("bob"));
  EXPECT_EQ(store_.size(), 6u);
}

TEST_F(TripleStoreTest, SpanBySubject) {
  Term alice = A("alice");
  EXPECT_EQ(store_.Span(Pat(&alice, nullptr, nullptr)).size, 3u);
}

TEST_F(TripleStoreTest, SpanByPredicate) {
  Term lives = P("livesIn");
  EXPECT_EQ(store_.Span(Pat(nullptr, &lives, nullptr)).size, 2u);
}

TEST_F(TripleStoreTest, SpanByObject) {
  Term rome = A("rome");
  EXPECT_EQ(store_.Span(Pat(nullptr, nullptr, &rome)).size, 2u);
}

TEST_F(TripleStoreTest, SpanPredicateObject) {
  Term type = P("type"), person = C("Person");
  EXPECT_EQ(store_.Span(Pat(nullptr, &type, &person)).size, 2u);
}

TEST_F(TripleStoreTest, SpanSubjectObjectNeedsNoResidualFilter) {
  Term alice = A("alice"), rome = A("rome");
  TripleSpan span = store_.Span(Pat(&alice, nullptr, &rome));
  ASSERT_EQ(span.size, 1u);
  EXPECT_EQ(store_.dict().Get(span.begin()->p), P("livesIn"));
}

TEST_F(TripleStoreTest, CountIsSpanSize) {
  Term type = P("type");
  EXPECT_EQ(store_.Count(Pat(nullptr, &type, nullptr)), 3u);
  EXPECT_EQ(store_.Count(TriplePattern{}), 6u);
  EXPECT_EQ(store_.Span(TriplePattern{}).size, 6u);
}

TEST_F(TripleStoreTest, UnknownConstantHasNoId) {
  // A term that was never added cannot be expressed as a pattern: Lookup
  // returns the wildcard sentinel, so callers (e.g. the SPARQL executor)
  // must short-circuit to "no matches" themselves.
  Term ghost = A("ghost");
  EXPECT_EQ(store_.dict().Lookup(ghost), kInvalidTermId);
  EXPECT_FALSE(store_.Contains(ghost, P("type"), C("Person")));
}

TEST_F(TripleStoreTest, InsertAfterQueryReindexes) {
  EXPECT_EQ(store_.size(), 6u);  // forces index build
  store_.Add(A("carol"), P("type"), C("Person"));
  Term type = P("type"), person = C("Person");
  EXPECT_EQ(store_.Span(Pat(nullptr, &type, &person)).size, 3u);
}

// Property-style sweep: pseudo-random triples, every pattern over the
// universe (all 8 bound masks, hits and misses). Span must be exactly the
// brute-force filter of the inserted triples, in the documented index order
// for its shape, and Count must be its size — in RAM and on the disk
// backend alike.
class TripleStorePropertyTest : public ::testing::TestWithParam<int> {};

/// Sorts `triples` into the index order TripleStore::Span documents for
/// `pat`'s bound shape: SPO for (), (s), (s,p), (s,p,o); POS for (p),
/// (p,o); OSP for (o), (s,o).
void SortInSpanOrder(const TriplePattern& pat, std::vector<Triple>* triples) {
  const bool bs = pat.s != kInvalidTermId;
  const bool bp = pat.p != kInvalidTermId;
  const bool bo = pat.o != kInvalidTermId;
  auto key = [&](const Triple& t) {
    if (bo && !bp) return std::make_tuple(t.o, t.s, t.p);  // (o), (s,o)
    if (bp && !bs) return std::make_tuple(t.p, t.o, t.s);  // (p), (p,o)
    return std::make_tuple(t.s, t.p, t.o);
  };
  std::sort(triples->begin(), triples->end(),
            [&](const Triple& a, const Triple& b) { return key(a) < key(b); });
}

TEST_P(TripleStorePropertyTest, PatternsAgreeWithBruteForce) {
  const int seed = GetParam();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("hbold_span_property_" + std::to_string(seed));
  std::filesystem::remove_all(dir);
  TripleStore ram;
  TripleStore disk;
  DiskBackendOptions options;
  options.directory = dir.string();
  ASSERT_TRUE(disk.EnableDiskBackend(options).ok());
  std::vector<Triple> truth;
  // Deterministic small universe so patterns hit often.
  auto term = [](char kind, int i) {
    return Term::Iri(std::string(1, kind) + std::to_string(i));
  };
  for (int i = 0; i < 200; ++i) {
    Term st = term('s', (seed * 7 + i * 13) % 10);
    Term pt = term('p', (seed * 5 + i * 11) % 5);
    Term ot = term('o', (seed * 3 + i * 17) % 12);
    ram.Add(st, pt, ot);
    const Dictionary& dict = ram.dict();
    truth.push_back(
        Triple{dict.Lookup(st), dict.Lookup(pt), dict.Lookup(ot)});
    disk.AddIds(truth.back().s, truth.back().p, truth.back().o);
  }

  // -1 leaves the position unbound; ids past the universe never match.
  for (int s = -1; s < 11; ++s) {
    for (int p = -1; p < 6; ++p) {
      for (int o = -1; o < 13; ++o) {
        TriplePattern pat;
        const Dictionary& dict = ram.dict();
        if (s >= 0) pat.s = dict.Lookup(term('s', s));
        if (p >= 0) pat.p = dict.Lookup(term('p', p));
        if (o >= 0) pat.o = dict.Lookup(term('o', o));
        if ((s >= 0 && pat.s == kInvalidTermId) ||
            (p >= 0 && pat.p == kInvalidTermId) ||
            (o >= 0 && pat.o == kInvalidTermId)) {
          continue;  // an absent constant is no pattern at all
        }
        std::vector<Triple> expected;
        for (const Triple& t : truth) {
          if (pat.Matches(t)) expected.push_back(t);
        }
        std::sort(expected.begin(), expected.end());
        expected.erase(std::unique(expected.begin(), expected.end()),
                       expected.end());
        SortInSpanOrder(pat, &expected);
        for (const TripleStore* store : {&ram, &disk}) {
          SCOPED_TRACE(store == &disk ? "disk" : "ram");
          const TripleSpan span = store->Span(pat);
          EXPECT_EQ(std::vector<Triple>(span.begin(), span.end()), expected)
              << "s=" << s << " p=" << p << " o=" << o;
          EXPECT_EQ(store->Count(pat), span.size);
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TripleStorePropertyTest,
                         ::testing::Range(0, 8));

// ---------------------------------------------------------------- N-Triples

TEST(NTriplesTest, ParsesBasicTriples) {
  TripleStore store;
  auto n = ParseNTriples(
      "<http://x/a> <http://x/p> <http://x/b> .\n"
      "# comment line\n"
      "\n"
      "<http://x/a> <http://x/q> \"lit\" .\n"
      "_:b0 <http://x/p> \"v\"@en .\n"
      "<http://x/a> <http://x/r> \"3\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
      &store);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 4u);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_TRUE(store.Contains(Term::Iri("http://x/a"), Term::Iri("http://x/q"),
                             Term::Literal("lit")));
}

TEST(NTriplesTest, RejectsMalformedLines) {
  TripleStore store;
  EXPECT_FALSE(ParseNTriples("<a> <b> .", &store).ok());
  EXPECT_FALSE(ParseNTriples("<a> <b> <c>", &store).ok());  // missing dot
  EXPECT_FALSE(ParseNTriples("<a> \"lit\" <c> .", &store).ok());  // pred lit
  EXPECT_FALSE(ParseNTriples("<a> <b> \"unterminated .", &store).ok());
  EXPECT_FALSE(ParseNTriples("<a> <b> <c> . extra", &store).ok());
}

TEST(NTriplesTest, ErrorsIncludeLineNumber) {
  TripleStore store;
  auto r = ParseNTriples("<a> <b> <c> .\nbogus line\n", &store);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(NTriplesTest, WriterRoundTrips) {
  TripleStore store;
  store.Add(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
            Term::Literal("a \"quoted\" value\nwith newline"));
  store.Add(Term::Blank("b"), Term::Iri("http://x/p"), Term::IntLiteral(7));
  std::string text = WriteNTriples(store);
  TripleStore reparsed;
  auto n = ParseNTriples(text, &reparsed);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(reparsed.size(), store.size());
  EXPECT_EQ(WriteNTriples(reparsed), text);
}

// ---------------------------------------------------------------- Turtle

TEST(TurtleTest, ParsesPrefixesAndLists) {
  TripleStore store;
  auto n = ParseTurtle(R"(
@prefix ex: <http://x.org/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .

ex:alice a foaf:Person ;
    foaf:knows ex:bob, ex:carol ;
    foaf:name "Alice" .
ex:bob a foaf:Person .
)",
                       &store);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 5u);
  EXPECT_TRUE(store.Contains(Term::Iri("http://x.org/alice"),
                             Term::Iri(vocab::kRdfType),
                             Term::Iri("http://xmlns.com/foaf/0.1/Person")));
  EXPECT_TRUE(store.Contains(Term::Iri("http://x.org/alice"),
                             Term::Iri("http://xmlns.com/foaf/0.1/knows"),
                             Term::Iri("http://x.org/carol")));
}

TEST(TurtleTest, ParsesLiteralFormsAndComments) {
  TripleStore store;
  auto n = ParseTurtle(R"(
@prefix ex: <http://x/> .
# a comment
ex:s ex:int 42 ;         # trailing comment
     ex:dec 3.14 ;
     ex:dbl 1e3 ;
     ex:neg -7 ;
     ex:flag true ;
     ex:lang "ciao"@it ;
     ex:typed "5"^^ex:mytype .
)",
                       &store);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 7u);
  EXPECT_TRUE(store.Contains(Term::Iri("http://x/s"), Term::Iri("http://x/int"),
                             Term::Literal("42", vocab::kXsdInteger)));
  EXPECT_TRUE(store.Contains(Term::Iri("http://x/s"), Term::Iri("http://x/flag"),
                             Term::BoolLiteral(true)));
  EXPECT_TRUE(store.Contains(Term::Iri("http://x/s"),
                             Term::Iri("http://x/typed"),
                             Term::Literal("5", "http://x/mytype")));
}

TEST(TurtleTest, SparqlStylePrefixKeyword) {
  TripleStore store;
  auto n = ParseTurtle("PREFIX ex: <http://x/>\nex:a ex:p ex:b .", &store);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 1u);
}

TEST(TurtleTest, UnknownPrefixFails) {
  TripleStore store;
  EXPECT_FALSE(ParseTurtle("nope:a nope:p nope:b .", &store).ok());
}

TEST(TurtleTest, MissingDotFails) {
  TripleStore store;
  EXPECT_FALSE(
      ParseTurtle("@prefix ex: <http://x/> .\nex:a ex:p ex:b", &store).ok());
}

TEST(TurtleTest, BlankNodes) {
  TripleStore store;
  auto n = ParseTurtle("@prefix ex: <http://x/> .\n_:n1 ex:p _:n2 .", &store);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_TRUE(store.Contains(Term::Blank("n1"), Term::Iri("http://x/p"),
                             Term::Blank("n2")));
}

// ----------------------------------------------- sub-range span primitive

TEST(TripleStoreSpanTest, FullyBoundSpanIsMembership) {
  TripleStore store;
  store.Add(Term::Iri("http://x/a"), Term::Iri("http://x/p"),
            Term::Iri("http://x/b"));
  store.FinalizeIndex();
  const Dictionary& dict = store.dict();
  TriplePattern hit{dict.Lookup(Term::Iri("http://x/a")),
                    dict.Lookup(Term::Iri("http://x/p")),
                    dict.Lookup(Term::Iri("http://x/b"))};
  EXPECT_EQ(store.Span(hit).size, 1u);
  TriplePattern miss = hit;
  miss.s = hit.o;  // (b, p, b) absent
  EXPECT_EQ(store.Span(miss).size, 0u);
}

TEST(TripleStoreGenerationTest, BumpsOncePerRebuild) {
  TripleStore store;
  store.Add(Term::Iri("http://x/a"), Term::Iri("http://x/p"),
            Term::Iri("http://x/b"));
  const uint64_t g1 = store.generation();  // triggers first build
  EXPECT_EQ(store.generation(), g1);       // reads do not bump
  store.Add(Term::Iri("http://x/a"), Term::Iri("http://x/p"),
            Term::Iri("http://x/c"));
  store.Add(Term::Iri("http://x/a"), Term::Iri("http://x/p"),
            Term::Iri("http://x/d"));
  // Both staged writes fold into ONE rebuild on the next read.
  const uint64_t g2 = store.generation();
  EXPECT_EQ(g2, g1 + 1);
}

// ------------------------------------------------------------- run files

namespace fs = std::filesystem;

std::vector<Triple> SyntheticTriples(size_t n, uint32_t seed) {
  // Deterministic LCG; collisions are intentional (dedup paths).
  std::vector<Triple> out;
  out.reserve(n);
  uint64_t x = seed * 2654435761u + 1;
  for (size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    TermId s = static_cast<TermId>(1 + ((x >> 13) % 997));
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    TermId p = static_cast<TermId>(1 + ((x >> 17) % 23));
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    TermId o = static_cast<TermId>(1 + ((x >> 11) % 1499));
    out.push_back(Triple{s, p, o});
  }
  return out;
}

TEST(RunFileTest, WriteMapRoundTrip) {
  fs::path dir = fs::temp_directory_path() / "hbold_run_file_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::vector<Triple> data = SyntheticTriples(5000, 42);
  std::sort(data.begin(), data.end());
  data.erase(std::unique(data.begin(), data.end()), data.end());

  const std::string path = (dir / "spo-1.run").string();
  RunWriter writer;
  ASSERT_TRUE(writer.Open(path, RunOrder::kSpo).ok());
  for (const Triple& t : data) ASSERT_TRUE(writer.Append(t).ok());
  MappedTripleRun run;
  ASSERT_TRUE(writer.Finish(&run).ok());
  ASSERT_EQ(run.count(), data.size());
  EXPECT_TRUE(std::equal(run.view().begin(), run.view().end(), data.begin()));
  run.Close();

  // Re-open from disk.
  MappedTripleRun reopened;
  ASSERT_TRUE(reopened.Open(path).ok());
  EXPECT_TRUE(
      std::equal(reopened.view().begin(), reopened.view().end(), data.begin()));
  reopened.Close();
  fs::remove_all(dir);
}

TEST(RunFileTest, CorruptedOrTruncatedRunRejected) {
  fs::path dir = fs::temp_directory_path() / "hbold_run_corrupt_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "spo-1.run").string();

  std::vector<Triple> data = SyntheticTriples(100, 7);
  std::sort(data.begin(), data.end());
  data.erase(std::unique(data.begin(), data.end()), data.end());
  RunWriter writer;
  ASSERT_TRUE(writer.Open(path, RunOrder::kSpo).ok());
  for (const Triple& t : data) ASSERT_TRUE(writer.Append(t).ok());
  ASSERT_TRUE(writer.Finish().ok());

  // Flip a header byte: checksum must reject.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(9);
    char c = 'X';
    f.write(&c, 1);
  }
  MappedTripleRun bad;
  EXPECT_FALSE(bad.Open(path).ok());

  // Rebuild, then truncate the triple payload: size check must reject.
  ASSERT_TRUE(writer.Open(path, RunOrder::kSpo).ok());
  for (const Triple& t : data) ASSERT_TRUE(writer.Append(t).ok());
  ASSERT_TRUE(writer.Finish().ok());
  fs::resize_file(path, fs::file_size(path) - 7);
  EXPECT_FALSE(bad.Open(path).ok());
  fs::remove_all(dir);
}

TEST(RunFileTest, DeltaChunkRoundTrip) {
  fs::path dir = fs::temp_directory_path() / "hbold_chunk_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  for (RunOrder order : {RunOrder::kSpo, RunOrder::kPos, RunOrder::kOsp}) {
    std::vector<Triple> data = SyntheticTriples(3000, 11);
    std::sort(data.begin(), data.end(), [&](const Triple& a, const Triple& b) {
      return RunLess(order, a, b);
    });
    data.erase(std::unique(data.begin(), data.end()), data.end());
    const std::string path =
        (dir / ("chunk-" + std::to_string(static_cast<int>(order)))).string();
    ASSERT_TRUE(WriteDeltaChunk(path, order, data.data(), data.size()).ok());

    DeltaChunkReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    EXPECT_EQ(reader.order(), order);
    std::vector<Triple> decoded;
    Triple t;
    while (reader.Next(&t)) decoded.push_back(t);
    ASSERT_TRUE(reader.status().ok());
    EXPECT_EQ(decoded, data);
  }
  fs::remove_all(dir);
}

TEST(RunFileTest, ExternalSortUnderTinyBudget) {
  fs::path dir = fs::temp_directory_path() / "hbold_extsort_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::vector<Triple> data = SyntheticTriples(20000, 3);
  std::sort(data.begin(), data.end());
  data.erase(std::unique(data.begin(), data.end()), data.end());

  // Budget 1 byte -> minimum fragment capacity -> multi-chunk k-way merge.
  MappedTripleRun run;
  ASSERT_TRUE(ExternalSortToRun(TripleSpan{data.data(), data.size()},
                                RunOrder::kOsp, 1, dir.string(),
                                (dir / "osp.run").string(), &run)
                  .ok());
  std::vector<Triple> expected = data;
  std::sort(expected.begin(), expected.end(),
            [](const Triple& a, const Triple& b) {
              return RunLess(RunOrder::kOsp, a, b);
            });
  ASSERT_EQ(run.count(), expected.size());
  EXPECT_TRUE(
      std::equal(run.view().begin(), run.view().end(), expected.begin()));
  run.Close();
  fs::remove_all(dir);
}

// ------------------------------------------------------------ disk backend

/// Differential oracle: the disk-backed store must be observably identical
/// to an in-RAM store fed the same write sequence, across incremental adds,
/// removals, and staging spills.
TEST(DiskBackendTest, DifferentialAgainstInRam) {
  fs::path dir = fs::temp_directory_path() / "hbold_disk_backend_test";
  fs::remove_all(dir);

  TripleStore ram;
  TripleStore disk;
  auto add_both = [&](const Triple& t) {
    ram.AddIds(t.s, t.p, t.o);
    disk.AddIds(t.s, t.p, t.o);
  };
  auto remove_both = [&](const Triple& t) {
    ram.RemoveIds(t.s, t.p, t.o);
    disk.RemoveIds(t.s, t.p, t.o);
  };
  auto check_equal = [&](const char* where) {
    SCOPED_TRACE(where);
    ASSERT_EQ(disk.size(), ram.size());
    const TripleSpan ram_all = ram.Span(TriplePattern{});
    const TripleSpan disk_all = disk.Span(TriplePattern{});
    EXPECT_TRUE(std::equal(disk_all.begin(), disk_all.end(), ram_all.begin(),
                           ram_all.end()));
    // Every bound-combination over a probe set drawn from the content.
    std::vector<Triple> probes(ram_all.begin(), ram_all.end());
    const size_t stride = std::max<size_t>(1, probes.size() / 13);
    for (size_t i = 0; i < probes.size(); i += stride) {
      const Triple& t = probes[i];
      for (int mask = 1; mask < 8; ++mask) {
        TriplePattern pat;
        if (mask & 1) pat.s = t.s;
        if (mask & 2) pat.p = t.p;
        if (mask & 4) pat.o = t.o;
        EXPECT_EQ(disk.Count(pat), ram.Count(pat)) << "mask=" << mask;
        rdf::TripleSpan ds = disk.Span(pat);
        rdf::TripleSpan rs = ram.Span(pat);
        EXPECT_TRUE(std::equal(ds.begin(), ds.end(), rs.begin(), rs.end()))
            << "mask=" << mask;
        for (TriplePos pos : {TriplePos::kS, TriplePos::kP, TriplePos::kO}) {
          EXPECT_EQ(disk.CountDistinct(pat, pos), ram.CountDistinct(pat, pos));
        }
      }
      EXPECT_EQ(disk.GroupedCountByObject(t.p), ram.GroupedCountByObject(t.p));
      PredicateStats dstats = disk.StatsForPredicate(t.p);
      PredicateStats rstats = ram.StatsForPredicate(t.p);
      EXPECT_EQ(dstats.triples, rstats.triples);
      EXPECT_EQ(dstats.distinct_subjects, rstats.distinct_subjects);
      EXPECT_EQ(dstats.distinct_objects, rstats.distinct_objects);
      EXPECT_EQ(dstats.exact, rstats.exact);
    }
  };

  // Initial bulk load happens in RAM, then converts.
  std::vector<Triple> initial = SyntheticTriples(6000, 1);
  for (const Triple& t : initial) add_both(t);
  DiskBackendOptions options;
  options.directory = (dir / "runs").string();
  options.memory_budget_bytes = 1;  // minimum staging/fragment capacities
  ASSERT_TRUE(disk.EnableDiskBackend(options).ok());
  EXPECT_TRUE(disk.on_disk());
  EXPECT_FALSE(ram.on_disk());
  EXPECT_FALSE(disk.EnableDiskBackend(options).ok());  // double enable
  check_equal("after conversion");

  // Incremental batch large enough to force staging spills (capacity
  // floor is 4096 triples at the minimum budget).
  std::vector<Triple> day2 = SyntheticTriples(9000, 2);
  for (const Triple& t : day2) add_both(t);
  // Remove a slice of the initial batch in the same staged generation —
  // removals must win over same-batch re-adds.
  for (size_t i = 0; i < initial.size(); i += 5) {
    add_both(initial[i]);  // re-add, then remove: removal wins
    remove_both(initial[i]);
  }
  check_equal("after incremental batch with removals");

  // One more small batch: merges against the previous run generation.
  std::vector<Triple> day3 = SyntheticTriples(500, 3);
  for (const Triple& t : day3) add_both(t);
  check_equal("after second incremental batch");

  // The scratch directory holds exactly the three current runs — chunks
  // and previous generations are cleaned up.
  size_t run_files = 0;
  for (const auto& entry : fs::directory_iterator(dir / "runs")) {
    EXPECT_EQ(entry.path().extension(), ".run") << entry.path();
    ++run_files;
  }
  EXPECT_EQ(run_files, 3u);
  fs::remove_all(dir);
}

// --------------------------------------------------------- sampled stats

/// Regression for the documented PredicateStats contract: CountDistinct
/// must never serve sampled (`exact == false`) figures as query answers.
/// Drives a store across the sampling threshold with incremental loads and
/// checks every predicate against brute force; asserts the sampled path was
/// actually exercised so the test cannot pass vacuously.
TEST(TripleStoreStatsTest, SampledStatsNeverServedByCountDistinct) {
  TripleStore store;
  store.SetStatsSamplingThreshold(4096);

  // Bulk load past the threshold: wide predicate ranges (hundreds of
  // object groups) so the capped boundary walk cannot cover them exactly.
  std::vector<Triple> bulk = SyntheticTriples(6000, 21);
  for (const Triple& t : bulk) store.AddIds(t.s, t.p, t.o);
  store.FinalizeIndex();

  // Straddle: a small batch (batch * 8 <= indexed size) after the bulk
  // load takes the sampled refresh path again.
  std::vector<Triple> extra = SyntheticTriples(300, 22);
  for (const Triple& t : extra) store.AddIds(t.s, t.p, t.o);

  const TripleSpan all = store.Span(TriplePattern{});
  std::vector<Triple> truth(all.begin(), all.end());
  std::set<TermId> predicates;
  for (const Triple& t : truth) predicates.insert(t.p);

  size_t sampled_predicates = 0;
  for (TermId p : predicates) {
    PredicateStats stats = store.StatsForPredicate(p);
    if (!stats.exact) ++sampled_predicates;

    std::set<TermId> subjects;
    std::set<TermId> objects;
    size_t triples = 0;
    for (const Triple& t : truth) {
      if (t.p != p) continue;
      ++triples;
      subjects.insert(t.s);
      objects.insert(t.o);
    }
    EXPECT_EQ(stats.triples, triples);  // exact even in sampled refreshes

    TriplePattern pat;
    pat.p = p;
    EXPECT_EQ(store.CountDistinct(pat, TriplePos::kS), subjects.size())
        << "predicate " << p;
    EXPECT_EQ(store.CountDistinct(pat, TriplePos::kO), objects.size())
        << "predicate " << p;
  }
  // The refresh after the incremental batch was sampled, and at least one
  // predicate's figures were genuinely inexact — the assertions above
  // exercised the fallback, not the cached-stats fast path.
  EXPECT_GT(sampled_predicates, 0u);
}

}  // namespace
}  // namespace hbold::rdf
