// Seeded mutation test of the JSON parser. The seed corpus is the JSON the
// library itself writes — Index Summary, Schema Summary, Cluster Schema,
// query results and the endpoint registry, compact and pretty-printed —
// plus hostile fixtures. A fixed-seed, fixed-count stream of byte flips,
// inserts, deletes and splices runs through Json::Parse and the decoders
// the store's readers use. Every variant must end in a value or a clean
// Status, never a crash, and every accepted value must serialize to bytes
// that parse back to the same bytes. The ASan+UBSan CI leg runs this suite
// too.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "cluster/cluster_schema.h"
#include "cluster/louvain.h"
#include "common/json.h"
#include "endpoint/local_endpoint.h"
#include "endpoint/registry.h"
#include "extraction/indexes.h"
#include "extraction/strategies.h"
#include "rdf/graph.h"
#include "rdf/turtle.h"
#include "schema/schema_summary.h"

namespace hbold {
namespace {

constexpr uint64_t kSeed = 20200330;
constexpr size_t kVariants = 40000;

constexpr char kDataset[] = R"ttl(
@prefix ex: <http://x/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:p1 a ex:Person ; ex:name "P1" ; rdfs:label "Ada \"the\" first" ;
    ex:worksAt ex:o1 ; ex:knows ex:p2 ; ex:age 36 .
ex:p2 a ex:Person ; ex:name "P2" ; rdfs:label "C++ (draft)"@en ;
    ex:worksAt ex:o1 .
ex:o1 a ex:Org ; ex:name "O1\tLtd" ; ex:inCity ex:c1 .
ex:c1 a ex:City ; rdfs:label "Rome" .
)ttl";

/// JSON the library writes, plus hostile fixtures.
std::vector<std::string> SeedCorpus() {
  std::vector<std::string> corpus;
  rdf::TripleStore store;
  auto n = rdf::ParseTurtle(kDataset, &store);
  EXPECT_TRUE(n.ok()) << n.status();
  store.FinalizeIndex();
  endpoint::LocalEndpoint ep("http://x/sparql", "x", &store);

  extraction::DirectAggregationStrategy direct;
  Result<extraction::IndexSummary> indexes = direct.Extract(&ep, nullptr);
  EXPECT_TRUE(indexes.ok()) << indexes.status();
  std::vector<Json> docs;
  if (indexes.ok()) {
    docs.push_back(indexes->ToJson());
    schema::SchemaSummary summary =
        schema::SchemaSummary::FromIndexes(*indexes);
    docs.push_back(summary.ToJson());
    cluster::ClusterSchema clusters = cluster::ClusterSchema::FromPartition(
        summary, cluster::Louvain(cluster::BuildClassGraph(summary)));
    docs.push_back(clusters.ToJson());
  }
  auto table = ep.Query(
      "SELECT ?s ?o WHERE { ?s <http://www.w3.org/2000/01/rdf-schema#label> "
      "?o . } ORDER BY ?s");
  EXPECT_TRUE(table.ok()) << table.status();
  if (table.ok()) docs.push_back(table->table.ToJson());

  endpoint::EndpointRegistry registry;
  endpoint::EndpointRecord record;
  record.url = "http://x/sparql";
  record.name = "x";
  record.probed_generation = "00000000000000ff";
  record.class_fingerprints["http://x/Person"] = "0123456789abcdef";
  record.unknown_fields["future"] = Json(Json::Object{{"k", Json(1.5)}});
  registry.Add(record);
  docs.push_back(registry.ToJson());

  for (const Json& doc : docs) {
    corpus.push_back(doc.Dump());
    corpus.push_back(doc.Dump(2));
  }
  for (const char* hostile :
       {"", "-", "--1", "1e99999", "-1e-99999", "0.1e", "[1,2,", "{\"a\":}",
        "{\"a\":1,\"a\":2,\"a\":[3]}", "\"\\ud800\"", "\"\\udc00\\ud800\"",
        "\"\\u0000\\u001f\\uFFFF\"", "\"\\x\"", "[\"\xff\xfe\"]",
        "{\"\":null}", "  true  ", "nul", "[[[[[[[[[[]]]]]]]]]]",
        "{\"a\":{\"b\":{\"c\":{\"d\":[1,{\"e\":2}]}}}}"}) {
    corpus.push_back(hostile);
  }
  corpus.push_back(std::string(5000, '[') + std::string(5000, ']'));
  corpus.push_back(std::string(3000, '{'));
  return corpus;
}

/// Applies one to four seeded edits to `text`.
std::string Mutate(std::string text, const std::vector<std::string>& corpus,
                   std::mt19937_64* rng) {
  // Bytes the parser treats specially, plus a few it rejects.
  static constexpr char kAlphabet[] = "{}[]\",:\\/ubfnrt0123456789.eE+-\n ";
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

/// Parses one text, checks the round trip of an accepted value and feeds
/// it to the document decoders; returns the parse status code.
StatusCode RunText(const std::string& text) {
  Result<Json> parsed = Json::Parse(text);
  if (!parsed.ok()) {
    EXPECT_FALSE(parsed.status().message().empty()) << text;
    return parsed.status().code();
  }
  const std::string dump = parsed->Dump();
  Result<Json> again = Json::Parse(dump);
  EXPECT_TRUE(again.ok()) << dump;
  if (again.ok()) EXPECT_EQ(again->Dump(), dump);
  // Decoders answer any shape with a value or a Status.
  (void)extraction::IndexSummary::FromJson(*parsed);
  (void)schema::SchemaSummary::FromJson(*parsed);
  (void)cluster::ClusterSchema::FromJson(*parsed);
  endpoint::EndpointRegistry registry;
  (void)registry.LoadJson(*parsed);
  return StatusCode::kOk;
}

TEST(JsonFuzzTest, SeedCorpusRoundTrips) {
  const std::vector<std::string> corpus = SeedCorpus();
  ASSERT_GE(corpus.size(), 30u);
  size_t ok = 0;
  for (const std::string& text : corpus) {
    if (RunText(text) == StatusCode::kOk) ++ok;
  }
  // Every library document parses.
  EXPECT_GE(ok, 10u);
}

TEST(JsonFuzzTest, MutatedLibraryJsonParsesCleanly) {
  const std::vector<std::string> corpus = SeedCorpus();
  std::mt19937_64 rng(kSeed);
  std::map<StatusCode, size_t> outcomes;
  for (size_t i = 0; i < kVariants; ++i) {
    const std::string& seed = corpus[rng() % corpus.size()];
    ++outcomes[RunText(Mutate(seed, corpus, &rng))];
  }
  // The stream must reach the decoders, not only the parser's rejections.
  EXPECT_GT(outcomes[StatusCode::kOk], kVariants / 20);
  EXPECT_GT(outcomes[StatusCode::kParseError], kVariants / 20);
}

}  // namespace
}  // namespace hbold
