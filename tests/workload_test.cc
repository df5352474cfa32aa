// Unit tests for src/workload: synthetic LD generator, scholarly preset,
// DCAT portal catalog generator.

#include <gtest/gtest.h>

#include "endpoint/local_endpoint.h"
#include "rdf/graph.h"
#include "rdf/vocab.h"
#include "sparql/executor.h"
#include "workload/ld_generator.h"
#include "workload/portal_generator.h"
#include "workload/scholarly.h"

namespace hbold::workload {
namespace {

TEST(LdGeneratorTest, GeneratesRequestedClasses) {
  rdf::TripleStore store;
  SyntheticLdConfig config;
  config.num_classes = 10;
  config.max_instances_per_class = 50;
  SyntheticLdStats stats = GenerateSyntheticLd(config, &store);
  EXPECT_EQ(stats.classes, 10u);
  EXPECT_GT(stats.instances, 0u);
  EXPECT_EQ(stats.triples_added, store.size());

  rdf::TermId type = store.dict().Lookup(rdf::Term::Iri(rdf::vocab::kRdfType));
  ASSERT_NE(type, rdf::kInvalidTermId);
  EXPECT_EQ(store.CountDistinct({rdf::kInvalidTermId, type, rdf::kInvalidTermId},
                                rdf::TriplePos::kO),
            10u);
}

TEST(LdGeneratorTest, ZipfSkewMakesFirstClassLargest) {
  rdf::TripleStore store;
  SyntheticLdConfig config;
  config.num_classes = 8;
  config.max_instances_per_class = 100;
  config.zipf_skew = 1.2;
  GenerateSyntheticLd(config, &store);
  auto count_class = [&](size_t c) {
    rdf::TriplePattern pat;
    pat.p = store.dict().Lookup(rdf::Term::Iri(rdf::vocab::kRdfType));
    pat.o = store.dict().Lookup(rdf::Term::Iri(
        config.namespace_iri + "class/C" + std::to_string(c)));
    return store.Count(pat);
  };
  EXPECT_EQ(count_class(0), 100u);
  EXPECT_GT(count_class(0), count_class(3));
  EXPECT_GE(count_class(3), count_class(7));
  EXPECT_GE(count_class(7), 1u);
}

TEST(LdGeneratorTest, DeterministicForSeed) {
  SyntheticLdConfig config;
  config.num_classes = 5;
  config.seed = 11;
  rdf::TripleStore a, b;
  GenerateSyntheticLd(config, &a);
  GenerateSyntheticLd(config, &b);
  EXPECT_EQ(a.size(), b.size());
}

TEST(LdGeneratorTest, EmptyConfigProducesNothing) {
  rdf::TripleStore store;
  SyntheticLdConfig config;
  config.num_classes = 0;
  SyntheticLdStats stats = GenerateSyntheticLd(config, &store);
  EXPECT_EQ(stats.triples_added, 0u);
  EXPECT_TRUE(store.empty());
}

TEST(LdGeneratorTest, CrossDomainLinksAreRarerThanIntra) {
  // Structural sanity for community detection benches: with 2 domains the
  // generator must produce some links, predominantly intra-domain.
  rdf::TripleStore store;
  SyntheticLdConfig config;
  config.num_classes = 12;
  config.num_domains = 3;
  config.max_instances_per_class = 30;
  config.cross_domain_link_prob = 0.1;
  GenerateSyntheticLd(config, &store);
  EXPECT_GT(store.size(), 300u);
}

TEST(ScholarlyTest, GeneratesExpectedClasses) {
  rdf::TripleStore store;
  ScholarlyConfig config;
  size_t triples = GenerateScholarly(config, &store);
  EXPECT_EQ(triples, store.size());
  EXPECT_GT(triples, 1000u);

  // The Fig. 2 / Fig. 7 classes exist.
  rdf::TermId type = store.dict().Lookup(rdf::Term::Iri(rdf::vocab::kRdfType));
  auto classes = store.GroupedCountByObject(type);
  auto has_class = [&](const std::string& name) {
    rdf::TermId id = store.dict().Lookup(
        rdf::Term::Iri(std::string(kScholarlyNs) + name));
    if (id == rdf::kInvalidTermId) return false;
    for (const auto& [c, instances] : classes) {
      if (c == id) return true;
    }
    return false;
  };
  for (const char* name :
       {"Event", "Situation", "Vevent", "SessionEvent", "ConferenceSeries",
        "InformationObject", "Person", "Organisation"}) {
    EXPECT_TRUE(has_class(name)) << name;
  }
}

TEST(ScholarlyTest, EventConnectsToSituation) {
  // Fig. 7's highlighted structure must exist in the data.
  rdf::TripleStore store;
  GenerateScholarly(ScholarlyConfig{}, &store);
  endpoint::LocalEndpoint ep("http://scholarly/sparql", "scholarly", &store);
  auto r = ep.Query(R"(
PREFIX conf: <http://www.scholarlydata.org/ontology/conf-ontology.owl#>
SELECT (COUNT(*) AS ?n) WHERE {
  ?e a conf:Event .
  ?e conf:hasSituation ?s .
  ?s a conf:Situation .
})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->table.ScalarInt("n").value_or(0), 0);
}

TEST(ScholarlyTest, ScalesWithConfig) {
  rdf::TripleStore small_store, big_store;
  ScholarlyConfig small;
  small.conferences = 1;
  small.people = 50;
  ScholarlyConfig big;
  big.conferences = 8;
  big.people = 500;
  EXPECT_LT(GenerateScholarly(small, &small_store),
            GenerateScholarly(big, &big_store));
}

TEST(PortalGeneratorTest, Listing1FindsExactlyTheSparqlUrls) {
  rdf::TripleStore store;
  PortalConfig config;
  config.total_datasets = 30;
  config.sparql_urls = {"http://a.org/sparql", "http://b.org/sparql/query",
                        "http://c.org/api/sparql"};
  GeneratePortalCatalog(config, &store);

  endpoint::LocalEndpoint ep("http://portal/sparql", "portal", &store);
  auto r = ep.Query(R"(
PREFIX dcat: <http://www.w3.org/ns/dcat#>
PREFIX dc: <http://purl.org/dc/terms/>
SELECT DISTINCT ?url WHERE {
  ?dataset a dcat:Dataset .
  ?dataset dc:title ?title .
  ?dataset dcat:distribution ?d .
  ?d dcat:accessURL ?url .
  FILTER ( regex(?url, "sparql") ) .
})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->table.num_rows(), 3u);
}

TEST(PortalGeneratorTest, NonSparqlDatasetsGetFileUrls) {
  rdf::TripleStore store;
  PortalConfig config;
  config.total_datasets = 10;
  config.sparql_urls = {"http://x.org/sparql"};
  GeneratePortalCatalog(config, &store);
  endpoint::LocalEndpoint ep("u", "n", &store);
  auto all = ep.Query(R"(
PREFIX dcat: <http://www.w3.org/ns/dcat#>
SELECT (COUNT(DISTINCT ?ds) AS ?n) WHERE { ?ds a dcat:Dataset . })");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->table.ScalarInt("n"), 10);
}

TEST(PortalGeneratorTest, EveryDatasetHasTitleAndDistribution) {
  rdf::TripleStore store;
  PortalConfig config;
  config.total_datasets = 15;
  config.sparql_urls = {"http://x.org/sparql"};
  GeneratePortalCatalog(config, &store);
  endpoint::LocalEndpoint ep("u", "n", &store);
  auto r = ep.Query(R"(
PREFIX dcat: <http://www.w3.org/ns/dcat#>
PREFIX dc: <http://purl.org/dc/terms/>
SELECT (COUNT(DISTINCT ?ds) AS ?n) WHERE {
  ?ds a dcat:Dataset .
  ?ds dc:title ?t .
  ?ds dcat:distribution ?d .
  ?d dcat:accessURL ?u .
})");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.ScalarInt("n"), 15);
}

}  // namespace
}  // namespace hbold::workload
