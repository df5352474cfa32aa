// Unit tests for the incremental-extraction support layers: EndpointRecord
// JSON forward compatibility, the HexU64 codec, and sampled bulk-load
// predicate statistics.

#include <string>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/string_util.h"
#include "endpoint/registry.h"
#include "rdf/graph.h"

namespace hbold {
namespace {

using endpoint::EndpointRecord;
using rdf::Term;

// ------------------------------------------------- record forward-compat

TEST(EndpointRecordCompatTest, UnknownKeysSurviveRoundTrip) {
  EndpointRecord r;
  r.url = "http://e/sparql";
  r.name = "E";
  r.indexed = true;
  Json j = r.ToJson();
  // A future build added fields this build does not know about.
  j.Set("future_scalar", 42);
  Json nested = Json::MakeObject();
  nested.Set("inner", "kept");
  j.Set("future_object", nested);

  EndpointRecord parsed = EndpointRecord::FromJson(j);
  Json again = parsed.ToJson();
  ASSERT_NE(again.Find("future_scalar"), nullptr);
  EXPECT_EQ(again.Find("future_scalar")->as_int(), 42);
  ASSERT_NE(again.Find("future_object"), nullptr);
  EXPECT_EQ(again.Find("future_object")->GetString("inner"), "kept");
  // Known fields still parsed normally alongside the passthrough.
  EXPECT_EQ(parsed.url, "http://e/sparql");
  EXPECT_TRUE(parsed.indexed);
}

TEST(EndpointRecordCompatTest, UnknownKeysNeverShadowKnownFields) {
  EndpointRecord r;
  r.url = "http://e/sparql";
  Json j = r.ToJson();
  EndpointRecord parsed = EndpointRecord::FromJson(j);
  // "url" is a known key: it must live in the typed field, not in the
  // passthrough map, or a rename in a future build would emit it twice.
  EXPECT_TRUE(parsed.unknown_fields.empty());
}

TEST(EndpointRecordCompatTest, IncrementalFieldsOmittedUntilSet) {
  EndpointRecord r;
  r.url = "http://e/sparql";
  const std::string dump = r.ToJson().Dump();
  // A registry written with incremental extraction off must serialize
  // byte-identically to pre-incremental builds.
  EXPECT_EQ(dump.find("probed_generation"), std::string::npos);
  EXPECT_EQ(dump.find("class_fingerprints"), std::string::npos);

  r.probed_generation = "00000000000000a5";
  r.class_fingerprints["http://x/A"] = "0000000000000003";
  EndpointRecord parsed = EndpointRecord::FromJson(r.ToJson());
  EXPECT_EQ(parsed.probed_generation, r.probed_generation);
  EXPECT_EQ(parsed.class_fingerprints, r.class_fingerprints);
}

// ------------------------------------------------------------ hex codec

TEST(HexU64Test, RoundTripsEdgeValues) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{0xdeadbeef},
                     ~uint64_t{0}}) {
    uint64_t parsed = 1;
    ASSERT_TRUE(ParseHexU64(HexU64(v), &parsed)) << HexU64(v);
    EXPECT_EQ(parsed, v);
  }
  EXPECT_EQ(HexU64(0).size(), 16u);  // fixed width: sortable, diffable
}

TEST(HexU64Test, RejectsMalformedInput) {
  uint64_t out = 7;
  EXPECT_FALSE(ParseHexU64("", &out));
  EXPECT_FALSE(ParseHexU64("xyz", &out));
  EXPECT_FALSE(ParseHexU64("123g", &out));
  EXPECT_FALSE(ParseHexU64("0x12", &out));
  EXPECT_FALSE(ParseHexU64("11112222333344445", &out));  // 17 digits
  EXPECT_EQ(out, 7u);  // untouched on failure
}

// ------------------------------------------------- sampled bulk stats

void BulkLoad(rdf::TripleStore* store, size_t n) {
  store->SetStatsSamplingThreshold(64);
  for (size_t i = 0; i < n; ++i) {
    store->Add(Term::Iri("http://s/" + std::to_string(i % 200)),
               Term::Iri("http://p/knows"),
               Term::Iri("http://o/" + std::to_string(i % 97)));
  }
  store->FinalizeIndex();
}

TEST(SampledStatsTest, BulkLoadTakesSampledPathDeterministically) {
  rdf::TripleStore a, b;
  BulkLoad(&a, 2000);
  BulkLoad(&b, 2000);
  rdf::TermId p = a.dict().Lookup(Term::Iri("http://p/knows"));
  ASSERT_NE(p, rdf::kInvalidTermId);
  rdf::PredicateStats stats_a = a.StatsForPredicate(p);
  rdf::PredicateStats stats_b = b.StatsForPredicate(p);

  // The initial load crossed the sampling threshold: estimated stats.
  EXPECT_FALSE(stats_a.exact);
  // Triple counts are index spans, never sampled.
  EXPECT_EQ(stats_a.triples, a.size());
  // Estimates are in a sane band and bit-identical across identical loads
  // (sampling is seeded from store content, not wall clock).
  EXPECT_GT(stats_a.distinct_subjects, 0u);
  EXPECT_LE(stats_a.distinct_subjects, stats_a.triples);
  EXPECT_EQ(stats_a.distinct_subjects, stats_b.distinct_subjects);
  EXPECT_EQ(stats_a.distinct_objects, stats_b.distinct_objects);
}

TEST(SampledStatsTest, SmallLoadStaysExact) {
  rdf::TripleStore store;
  store.SetStatsSamplingThreshold(64);
  for (size_t i = 0; i < 32; ++i) {
    store.Add(Term::Iri("http://s/" + std::to_string(i)),
              Term::Iri("http://p/knows"), Term::Iri("http://o/x"));
  }
  store.FinalizeIndex();
  rdf::TermId p = store.dict().Lookup(Term::Iri("http://p/knows"));
  rdf::PredicateStats stats = store.StatsForPredicate(p);
  EXPECT_TRUE(stats.exact);
  EXPECT_EQ(stats.distinct_subjects, 32u);
  EXPECT_EQ(stats.distinct_objects, 1u);
}

}  // namespace
}  // namespace hbold
