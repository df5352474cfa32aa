// Seeded mutation test of the SPARQL front end. The seed corpus is the
// query text the library itself emits — the three extraction strategies
// (full and dirty-class), the instance drill-downs, VisualQuery and
// QueryBuilder — plus hostile fixtures. A fixed-seed, fixed-count stream of
// byte flips, inserts, deletes and splices runs through
// LocalEndpoint::Query, which must answer every variant with a table or a
// clean Status and never crash. The ASan+UBSan CI leg runs this suite too.
//
// Minimized crashers live in tests/corpus/sparql/, one query per file, and
// are replayed first. filter_paren_nesting.rq (6,000 nested parentheses in
// a FILTER) overflowed the stack of the unbounded recursive-descent parser.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "endpoint/endpoint.h"
#include "endpoint/local_endpoint.h"
#include "extraction/strategies.h"
#include "hbold/presentation.h"
#include "hbold/visual_query.h"
#include "rdf/graph.h"
#include "rdf/turtle.h"
#include "schema/schema_summary.h"
#include "sparql/query_builder.h"

namespace hbold {
namespace {

constexpr uint64_t kSeed = 20200330;
constexpr size_t kVariants = 100000;

constexpr char kDataset[] = R"ttl(
@prefix ex: <http://x/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:p1 a ex:Person ; ex:name "P1" ; rdfs:label "Ada" ; ex:worksAt ex:o1 ;
    ex:knows ex:p2 ; ex:age 36 .
ex:p2 a ex:Person ; ex:name "P2" ; rdfs:label "C++ (draft)"@en ;
    ex:worksAt ex:o1 .
ex:o1 a ex:Org ; ex:name "O1" ; ex:inCity ex:c1 .
ex:c1 a ex:City ; rdfs:label "Rome" .
)ttl";

/// Forwards to another endpoint and records every query text it is sent.
/// The strategies run sequentially here (default ExtractionContext).
class RecordingEndpoint final : public endpoint::SparqlEndpoint {
 public:
  explicit RecordingEndpoint(endpoint::SparqlEndpoint* inner) : inner_(inner) {}

  Result<endpoint::QueryOutcome> Query(const std::string& query_text) override {
    texts_.push_back(query_text);
    return inner_->Query(query_text);
  }
  const std::string& url() const override { return inner_->url(); }
  const std::string& name() const override { return inner_->name(); }
  size_t queries_served() const override { return inner_->queries_served(); }

  const std::vector<std::string>& texts() const { return texts_; }

 private:
  endpoint::SparqlEndpoint* inner_;
  std::vector<std::string> texts_;
};

/// Query text the library emits against `ep`, plus hostile fixtures.
std::vector<std::string> SeedCorpus(endpoint::SparqlEndpoint* local) {
  RecordingEndpoint ep(local);
  const std::vector<std::string> classes = {"http://x/Person",
                                            "http://x/City"};
  extraction::DirectAggregationStrategy direct;
  extraction::PerClassCountStrategy per_class;
  extraction::PaginatedScanStrategy paginated(/*page_size=*/4);
  const extraction::ExtractionStrategy* strategies[] = {&direct, &per_class,
                                                        &paginated};
  Result<extraction::IndexSummary> indexes = direct.Extract(&ep, nullptr);
  EXPECT_TRUE(indexes.ok()) << indexes.status();
  for (const extraction::ExtractionStrategy* s : strategies) {
    (void)s->Extract(&ep, nullptr);
    (void)s->ExtractClasses(&ep, extraction::ExtractionContext{}, classes,
                            nullptr);
  }
  (void)drilldown::SampleInstances(&ep, "http://x/Person", 5);
  (void)drilldown::DescribeResource(&ep, "http://x/p1");

  if (indexes.ok()) {
    schema::SchemaSummary summary = schema::SchemaSummary::FromIndexes(*indexes);
    VisualQuery vq(summary);
    for (size_t node = 0; node < summary.NodeCount(); ++node) {
      std::string var = vq.SelectClass(node);
      for (const schema::Attribute& a : summary.nodes()[node].attributes) {
        std::string attr = vq.SelectAttribute(node, a.iri);
        vq.FilterRegex(attr, "C++ (draft)", /*case_insensitive=*/true);
        vq.FilterCompare(attr, ">=", "30");
        vq.FilterCompare(attr, "!=", "say \"hi\"");
      }
    }
    for (const schema::PropertyArc& arc : summary.arcs()) vq.FollowArc(arc);
    vq.SetLimit(10);
    (void)vq.Execute(&ep);
  }

  std::vector<std::string> corpus = ep.texts();
  sparql::QueryBuilder b;
  b.Prefix("ex", "http://x/")
      .Select("s")
      .SelectCount("o", "n", /*distinct=*/true)
      .WhereClass("s", "http://x/Person")
      .WhereLink("s", "http://x/name", "o")
      .MakeLastOptional()
      .FilterRegex("o", sparql::EscapeRegexText("^a.b$|[c]*"), true)
      .FilterCompare("o", "!=", "\"" + sparql::EscapeLiteral("tab\t\"x\\y\"") +
                                    "\"")
      .GroupBy("s")
      .OrderBy("s", false)
      .Limit(5)
      .Offset(1);
  corpus.push_back(b.Build());
  for (const char* hostile :
       {"OFFSET 99999999999999999999", "LIMIT 2.5", "LIMIT 1e5", "LIMIT -1"}) {
    corpus.push_back("SELECT ?s WHERE { ?s ?p ?o . } " + std::string(hostile));
  }
  corpus.push_back("SELECT ?p WHERE { ?p <http://x/name> \"unterminated . }");
  corpus.push_back(
      "SELECT ?s WHERE { ?s ?p ?o . FILTER (!(?o < 5) && (?o >= \"a\"@en || "
      "?o = 1.5e3) || isIRI(?s) || isLiteral(?o) || "
      "CONTAINS(LCASE(STR(?o)), 'x\\n')) { ?s ?p ?o } UNION { ?o ?p ?s } "
      "OPTIONAL { ?s a ?c ; <http://x/p> ?v , ?w . } } ORDER BY ASC(?s) ?o");
  corpus.push_back("ASK { ?s ?p ?o . }");
  return corpus;
}

/// Applies one to four seeded edits to `text`.
std::string Mutate(std::string text, const std::vector<std::string>& corpus,
                   std::mt19937_64* rng) {
  // Bytes the lexer treats specially, plus a few it rejects.
  static constexpr char kAlphabet[] = "{}()<>?$\"'\\.;,*=!&|^@#:_-+ \n\t09aAeE";
  const size_t edits = 1 + (*rng)() % 4;
  for (size_t e = 0; e < edits; ++e) {
    const size_t at = text.empty() ? 0 : (*rng)() % (text.size() + 1);
    switch ((*rng)() % 4) {
      case 0:  // flip one bit
        if (at < text.size()) {
          text[at] = static_cast<char>(text[at] ^ (1u << ((*rng)() % 8)));
        }
        break;
      case 1:  // insert a byte, usually a syntactic one
        text.insert(at, 1,
                    (*rng)() % 4 == 0
                        ? static_cast<char>((*rng)() % 256)
                        : kAlphabet[(*rng)() % (sizeof(kAlphabet) - 1)]);
        break;
      case 2:  // delete a short run
        if (at < text.size()) text.erase(at, 1 + (*rng)() % 8);
        break;
      default: {  // splice: this prefix, another seed's suffix
        const std::string& other = corpus[(*rng)() % corpus.size()];
        const size_t from = other.empty() ? 0 : (*rng)() % other.size();
        text = text.substr(0, at) + other.substr(from);
        break;
      }
    }
  }
  return text;
}

/// Runs one text and returns its status code; a crash ends the test.
StatusCode RunQuery(endpoint::LocalEndpoint* ep, const std::string& text) {
  Result<endpoint::QueryOutcome> outcome = ep->Query(text);
  if (outcome.ok()) return StatusCode::kOk;
  EXPECT_FALSE(outcome.status().message().empty()) << text;
  return outcome.status().code();
}

class SparqlFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto n = rdf::ParseTurtle(kDataset, &store_);
    ASSERT_TRUE(n.ok()) << n.status();
    store_.FinalizeIndex();
  }

  rdf::TripleStore store_;
};

TEST_F(SparqlFuzzTest, CommittedCrashersAnswerCleanly) {
  endpoint::LocalEndpoint ep("http://x/sparql", "x", &store_);
  const std::filesystem::path dir =
      std::filesystem::path(__FILE__).parent_path() / "corpus" / "sparql";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    RunQuery(&ep, text.str());
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);
}

TEST_F(SparqlFuzzTest, MutatedLibraryQueriesAnswerCleanly) {
  endpoint::LocalEndpoint ep("http://x/sparql", "x", &store_);
  const std::vector<std::string> corpus = SeedCorpus(&ep);
  ASSERT_GE(corpus.size(), 40u);
  for (const std::string& text : corpus) RunQuery(&ep, text);

  std::mt19937_64 rng(kSeed);
  std::map<StatusCode, size_t> outcomes;
  for (size_t i = 0; i < kVariants; ++i) {
    const std::string& seed = corpus[rng() % corpus.size()];
    ++outcomes[RunQuery(&ep, Mutate(seed, corpus, &rng))];
  }
  // The stream must reach the executor, not only the lexer's rejections.
  EXPECT_GT(outcomes[StatusCode::kOk], kVariants / 20);
  EXPECT_GT(outcomes[StatusCode::kParseError], kVariants / 20);
}

}  // namespace
}  // namespace hbold
