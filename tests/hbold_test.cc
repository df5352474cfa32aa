// Integration tests for src/hbold: server pipeline, presentation layer,
// exploration sessions (Fig. 2), visual querying, portal crawler (§3.3),
// manual insertion (§3.4), and the daily update cycle (§3.1).

#include <gtest/gtest.h>

#include <memory>

#include "common/hash.h"
#include "hbold/hbold.h"
#include "sparql/parser.h"
#include "workload/ld_generator.h"
#include "workload/portal_generator.h"
#include "workload/scholarly.h"

namespace hbold {
namespace {

using endpoint::Dialect;
using endpoint::EndpointRecord;
using endpoint::EndpointSource;
using endpoint::SimulatedRemoteEndpoint;

/// Fixture: one scholarly endpoint attached to a server.
class HboldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::ScholarlyConfig config;
    config.conferences = 2;
    config.people = 60;
    config.organisations = 10;
    workload::GenerateScholarly(config, &scholarly_store_);
    scholarly_ep_ = std::make_unique<SimulatedRemoteEndpoint>(
        kUrl, "ScholarlyData", &scholarly_store_, loop_.clock());
    server_ = std::make_unique<Server>(&db_, &loop_, ServerOptions{});
    server_->AttachEndpoint(kUrl, scholarly_ep_.get());
    EndpointRecord record;
    record.url = kUrl;
    record.name = "ScholarlyData";
    server_->RegisterEndpoint(record);
  }

  static constexpr const char* kUrl = "http://scholarly.example.org/sparql";

  rdf::TripleStore scholarly_store_;
  sim::EventLoop loop_;
  store::Database db_;
  std::unique_ptr<SimulatedRemoteEndpoint> scholarly_ep_;
  std::unique_ptr<Server> server_;
};

// ---------------------------------------------------------------- Server

TEST_F(HboldTest, PipelinePersistsBothArtifacts) {
  auto report = server_->ProcessEndpoint(kUrl);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->extraction.strategy_used, "direct-aggregation");
  EXPECT_GT(report->classes, 8u);
  EXPECT_GT(report->arcs, 5u);
  EXPECT_GT(report->clusters, 1u);
  EXPECT_LT(report->clusters, report->classes);
  EXPECT_GT(report->extraction_ms, 0);

  EXPECT_EQ(db_.FindCollection(kSummariesCollection)->size(), 1u);
  EXPECT_EQ(db_.FindCollection(kClustersCollection)->size(), 1u);
  // Registry bookkeeping updated.
  const EndpointRecord* rec = server_->registry().Find(kUrl);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->indexed);
  EXPECT_EQ(rec->last_success_day, 0);
}

/// The persisted §3.2 `content_hash` is compared across days, and the
/// Cluster Schema document is what the presentation layer serves: both are
/// pinned to their bytes for the fixture's scholarly endpoint.
TEST_F(HboldTest, SummaryContentHashAndClusterDocArePinned) {
  ASSERT_TRUE(server_->ProcessEndpoint(kUrl).ok());
  Json url_filter = Json::MakeObject();
  url_filter.Set("endpoint_url", kUrl);
  store::DocHandle summary =
      db_.FindCollection(kSummariesCollection)->FindOne(url_filter);
  store::DocHandle clusters =
      db_.FindCollection(kClustersCollection)->FindOne(url_filter);
  ASSERT_NE(summary, nullptr);
  ASSERT_NE(clusters, nullptr);
  EXPECT_EQ(summary->GetString("content_hash"), "701dfe38ed5e4f85");
  EXPECT_EQ(Fnv64(clusters->Dump()), 0x3246c2bf958f1bf8ULL);
}

TEST_F(HboldTest, ReprocessingReplacesStoredDocuments) {
  ASSERT_TRUE(server_->ProcessEndpoint(kUrl).ok());
  loop_.RunUntil(loop_.NowMs() + 8 * SimClock::kMillisPerDay);
  ASSERT_TRUE(server_->ProcessEndpoint(kUrl).ok());
  EXPECT_EQ(db_.FindCollection(kSummariesCollection)->size(), 1u);
  EXPECT_EQ(db_.FindCollection(kClustersCollection)->size(), 1u);
  const EndpointRecord* rec = server_->registry().Find(kUrl);
  EXPECT_EQ(rec->last_success_day, 8);
}

TEST_F(HboldTest, UnknownUrlIsUnavailableAndRecorded) {
  EndpointRecord record;
  record.url = "http://nowhere/sparql";
  server_->RegisterEndpoint(record);
  auto report = server_->ProcessEndpoint("http://nowhere/sparql");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsUnavailable());
  const EndpointRecord* rec = server_->registry().Find("http://nowhere/sparql");
  EXPECT_TRUE(rec->last_attempt_failed);
  EXPECT_FALSE(rec->indexed);
}

TEST_F(HboldTest, DailyUpdateFollowsScheduler) {
  DailyReport day0 = server_->RunDailyUpdate();
  EXPECT_EQ(day0.due, 1u);
  EXPECT_EQ(day0.succeeded, 1u);
  // Nothing due tomorrow (fresh success).
  loop_.RunUntil(loop_.NowMs() + SimClock::kMillisPerDay);
  DailyReport day1 = server_->RunDailyUpdate();
  EXPECT_EQ(day1.due, 0u);
  // Due again after the 7-day refresh age.
  loop_.RunUntil(loop_.NowMs() + 6 * SimClock::kMillisPerDay);
  DailyReport day7 = server_->RunDailyUpdate();
  EXPECT_EQ(day7.due, 1u);
}

TEST_F(HboldTest, RegistryPersistRoundTrip) {
  ASSERT_TRUE(server_->ProcessEndpoint(kUrl).ok());
  ASSERT_TRUE(server_->PersistRegistry().ok());
  Server other(&db_, &loop_, ServerOptions{});
  ASSERT_TRUE(other.LoadRegistry().ok());
  const EndpointRecord* rec = other.registry().Find(kUrl);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->indexed);
}

// ---------------------------------------------------------------- Presentation

TEST_F(HboldTest, ListDatasetsReflectsStore) {
  Presentation pres(&db_);
  EXPECT_TRUE(pres.ListDatasets().empty());
  ASSERT_TRUE(server_->ProcessEndpoint(kUrl).ok());
  auto datasets = pres.ListDatasets();
  ASSERT_EQ(datasets.size(), 1u);
  EXPECT_EQ(datasets[0].url, kUrl);
  EXPECT_GT(datasets[0].classes, 8u);
  EXPECT_GT(datasets[0].total_instances, 100u);
  EXPECT_EQ(datasets[0].extracted_day, 0);
}

TEST_F(HboldTest, LoadPathsAgreeWithComputePath) {
  ASSERT_TRUE(server_->ProcessEndpoint(kUrl).ok());
  Presentation pres(&db_);
  double load_ms = -1;
  auto stored = pres.LoadClusterSchema(kUrl, &load_ms);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_GE(load_ms, 0);
  double compute_ms = -1;
  auto on_the_fly = pres.ComputeClusterSchemaOnTheFly(kUrl, &compute_ms);
  ASSERT_TRUE(on_the_fly.ok()) << on_the_fly.status();
  // Louvain is deterministic, so both paths yield the same clustering.
  EXPECT_EQ(stored->ToJson().Dump(), on_the_fly->ToJson().Dump());
}

TEST_F(HboldTest, MissingDatasetIsNotFound) {
  Presentation pres(&db_);
  EXPECT_TRUE(pres.LoadSchemaSummary("http://none").status().IsNotFound());
  EXPECT_TRUE(pres.LoadClusterSchema("http://none").status().IsNotFound());
  ASSERT_TRUE(server_->ProcessEndpoint(kUrl).ok());
  EXPECT_TRUE(pres.LoadSchemaSummary("http://other").status().IsNotFound());
}

// ---------------------------------------------------------------- Fig. 2 session

TEST_F(HboldTest, ExplorationWalkMatchesFig2Steps) {
  ASSERT_TRUE(server_->ProcessEndpoint(kUrl).ok());
  Presentation pres(&db_);
  auto summary = pres.LoadSchemaSummary(kUrl);
  auto clusters = pres.LoadClusterSchema(kUrl);
  ASSERT_TRUE(summary.ok() && clusters.ok());

  ExplorationSession session(*summary, *clusters);
  // Step 1: Cluster Schema view, nothing focused yet.
  EXPECT_EQ(session.VisibleNodeCount(), 0u);
  EXPECT_DOUBLE_EQ(session.CoveragePercent(), 0.0);

  // Step 2: select the Event class within its cluster.
  int event = summary->FindNode(std::string(workload::kScholarlyNs) + "Event");
  ASSERT_GE(event, 0);
  session.FocusClass(static_cast<size_t>(event));
  EXPECT_EQ(session.VisibleNodeCount(), 1u);
  double coverage_step2 = session.CoveragePercent();
  EXPECT_GT(coverage_step2, 0.0);
  EXPECT_LT(coverage_step2, 100.0);

  // Step 3: expand the Event class — coverage and node count grow.
  session.ExpandClass(static_cast<size_t>(event));
  EXPECT_GT(session.VisibleNodeCount(), 1u);
  double coverage_step3 = session.CoveragePercent();
  EXPECT_GE(coverage_step3, coverage_step2);

  // Step 4: full Schema Summary.
  session.ExpandAll();
  EXPECT_EQ(session.VisibleNodeCount(), session.TotalNodeCount());
  EXPECT_NEAR(session.CoveragePercent(), 100.0, 1e-9);

  // The visible subgraph is renderable.
  auto edges = session.VisibleEdges();
  EXPECT_EQ(edges.size(), summary->ArcCount());
  session.Reset();
  EXPECT_EQ(session.VisibleNodeCount(), 0u);
}

TEST_F(HboldTest, ExpandRequiresVisibility) {
  ASSERT_TRUE(server_->ProcessEndpoint(kUrl).ok());
  Presentation pres(&db_);
  auto summary = pres.LoadSchemaSummary(kUrl);
  auto clusters = pres.LoadClusterSchema(kUrl);
  ASSERT_TRUE(summary.ok() && clusters.ok());
  ExplorationSession session(*summary, *clusters);
  session.ExpandClass(0);  // not visible: no-op
  EXPECT_EQ(session.VisibleNodeCount(), 0u);
  session.FocusClass(summary->NodeCount() + 5);  // out of range: no-op
  EXPECT_EQ(session.VisibleNodeCount(), 0u);
}

// ---------------------------------------------------------------- VisualQuery

TEST_F(HboldTest, VisualQueryGeneratesAndRuns) {
  ASSERT_TRUE(server_->ProcessEndpoint(kUrl).ok());
  Presentation pres(&db_);
  auto summary = pres.LoadSchemaSummary(kUrl);
  ASSERT_TRUE(summary.ok());

  int person =
      summary->FindNode(std::string(workload::kScholarlyNs) + "Person");
  ASSERT_GE(person, 0);

  VisualQuery vq(*summary);
  std::string person_var = vq.SelectClass(static_cast<size_t>(person));
  EXPECT_FALSE(person_var.empty());

  // Follow the affiliation arc Person -> Organisation.
  const schema::PropertyArc* affiliation = nullptr;
  for (const schema::PropertyArc& arc : summary->arcs()) {
    if (arc.src == static_cast<size_t>(person) &&
        arc.iri.find("hasAffiliation") != std::string::npos) {
      affiliation = &arc;
    }
  }
  ASSERT_NE(affiliation, nullptr);
  std::string org_var = vq.FollowArc(*affiliation);
  EXPECT_FALSE(org_var.empty());
  vq.SetLimit(10);

  std::string sparql = vq.GenerateSparql();
  EXPECT_NE(sparql.find("SELECT DISTINCT"), std::string::npos);
  EXPECT_NE(sparql.find("hasAffiliation"), std::string::npos);

  auto result = vq.Execute(scholarly_ep_.get());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->table.num_rows(), 0u);
  EXPECT_LE(result->table.num_rows(), 10u);
}

TEST_F(HboldTest, VisualQueryAttributeAndFilter) {
  ASSERT_TRUE(server_->ProcessEndpoint(kUrl).ok());
  Presentation pres(&db_);
  auto summary = pres.LoadSchemaSummary(kUrl);
  ASSERT_TRUE(summary.ok());
  int person =
      summary->FindNode(std::string(workload::kScholarlyNs) + "Person");
  ASSERT_GE(person, 0);

  VisualQuery vq(*summary);
  std::string var = vq.SelectClass(static_cast<size_t>(person));
  std::string label_var = vq.SelectAttribute(
      static_cast<size_t>(person),
      "http://www.w3.org/2000/01/rdf-schema#label");
  ASSERT_FALSE(label_var.empty());
  vq.FilterRegex(label_var, "Person 1", /*case_insensitive=*/false);
  auto result = vq.Execute(scholarly_ep_.get());
  ASSERT_TRUE(result.ok()) << result.status();
  // "Person 1" matches Person 1, 10..19, 100+ etc. — at least one row.
  EXPECT_GT(result->table.num_rows(), 0u);
}

TEST_F(HboldTest, VisualQueryInvalidSelections) {
  schema::SchemaSummary empty;
  VisualQuery vq(empty);
  EXPECT_EQ(vq.SelectClass(0), "");
  EXPECT_EQ(vq.SelectAttribute(0, "http://x/p"), "");
  schema::PropertyArc bogus;
  bogus.src = 3;
  bogus.dst = 4;
  EXPECT_EQ(vq.FollowArc(bogus), "");
}

// Hostile user input (quotes, backslashes, newlines, regex metachars) in
// filters must produce queries that the endpoint's own parser accepts —
// the search text can never break out of the literal and inject syntax.
TEST_F(HboldTest, VisualQueryHostileFilterTextStaysInLiteral) {
  ASSERT_TRUE(server_->ProcessEndpoint(kUrl).ok());
  Presentation pres(&db_);
  auto summary = pres.LoadSchemaSummary(kUrl);
  ASSERT_TRUE(summary.ok());
  int person =
      summary->FindNode(std::string(workload::kScholarlyNs) + "Person");
  ASSERT_GE(person, 0);

  const std::string hostile[] = {
      "say \"hi\"", "back\\slash", "line\nbreak", "C++ (a|b)*?",
      "\"} . ?s ?p ?o . FILTER regex(STR(?s), \"",  // injection attempt
  };
  for (const std::string& text : hostile) {
    VisualQuery vq(*summary);
    std::string var = vq.SelectClass(static_cast<size_t>(person));
    std::string label_var = vq.SelectAttribute(
        static_cast<size_t>(person),
        "http://www.w3.org/2000/01/rdf-schema#label");
    ASSERT_FALSE(label_var.empty());
    vq.FilterRegex(label_var, text);          // literal search text
    vq.FilterCompare(label_var, "!=", text);  // string comparison
    std::string sparql = vq.GenerateSparql();
    auto parsed = sparql::ParseQuery(sparql);
    ASSERT_TRUE(parsed.ok()) << sparql << "\n" << parsed.status();
    // Exactly the two filters we added — nothing escaped into the BGP.
    EXPECT_EQ(parsed->where.filters.size(), 2u) << sparql;
    auto result = vq.Execute(scholarly_ep_.get());
    ASSERT_TRUE(result.ok()) << sparql << "\n" << result.status();
    EXPECT_EQ(result->table.num_rows(), 0u);  // nothing matches, nothing breaks
  }

  // Escaped-literal search still finds real matches.
  VisualQuery finds(*summary);
  finds.SelectClass(static_cast<size_t>(person));
  std::string label_var = finds.SelectAttribute(
      static_cast<size_t>(person),
      "http://www.w3.org/2000/01/rdf-schema#label");
  finds.FilterRegex(label_var, "Person 1");
  auto result = finds.Execute(scholarly_ep_.get());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->table.num_rows(), 0u);
}

// Drill-down queries IRI-escape the class/resource identifiers they embed:
// a malformed IRI (spaces, quotes, angle brackets) degrades to an empty
// result, never a parse error at the endpoint.
TEST_F(HboldTest, DrilldownEscapesHostileIris) {
  ASSERT_TRUE(server_->ProcessEndpoint(kUrl).ok());
  const std::string hostile_iris[] = {
      "http://x/a b", "http://x/a>\"<b", "http://x/a\\b",
      "http://x/a\nb> . ?s ?p ?o . <http://x/c",
  };
  for (const std::string& iri : hostile_iris) {
    auto sample = drilldown::SampleInstances(scholarly_ep_.get(), iri, 5);
    ASSERT_TRUE(sample.ok()) << iri << "\n" << sample.status();
    EXPECT_EQ(sample->num_rows(), 0u) << iri;
    auto describe = drilldown::DescribeResource(scholarly_ep_.get(), iri);
    ASSERT_TRUE(describe.ok()) << iri << "\n" << describe.status();
    EXPECT_EQ(describe->num_rows(), 0u) << iri;
  }
  // And a well-formed IRI still drills down normally.
  auto sample = drilldown::SampleInstances(
      scholarly_ep_.get(), std::string(workload::kScholarlyNs) + "Person", 5);
  ASSERT_TRUE(sample.ok()) << sample.status();
  EXPECT_GT(sample->num_rows(), 0u);
}

// ---------------------------------------------------------------- Crawler

TEST(CrawlerTest, DiscoversDedupsAndRegisters) {
  sim::EventLoop loop;
  rdf::TripleStore portal_store;
  workload::PortalConfig config;
  config.portal_name = "EDP";
  config.total_datasets = 20;
  config.sparql_urls = {"http://a/sparql", "http://b/sparql",
                        "http://known/sparql"};
  workload::GeneratePortalCatalog(config, &portal_store);
  SimulatedRemoteEndpoint portal("http://edp/sparql", "EDP", &portal_store,
                                 loop.clock());

  endpoint::EndpointRegistry registry;
  EndpointRecord known;
  known.url = "http://known/sparql";
  registry.Add(known);

  PortalCrawler crawler(&registry);
  auto result = crawler.Crawl("EDP", &portal, /*today=*/5);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->distinct_urls, 3u);
  EXPECT_EQ(result->already_known, 1u);
  EXPECT_EQ(result->newly_added, 2u);
  EXPECT_EQ(registry.size(), 3u);
  const EndpointRecord* added = registry.Find("http://a/sparql");
  ASSERT_NE(added, nullptr);
  EXPECT_EQ(added->source, EndpointSource::kPortalCrawl);
  EXPECT_EQ(added->added_day, 5);
  EXPECT_FALSE(added->name.empty());
}

TEST(CrawlerTest, PortalOutagePropagates) {
  sim::EventLoop loop;
  rdf::TripleStore store;
  endpoint::AvailabilityModel avail;
  avail.forced_outage_days = {0};
  SimulatedRemoteEndpoint portal("http://p/sparql", "P", &store, loop.clock(),
                                 Dialect::Full(), avail);
  endpoint::EndpointRegistry registry;
  PortalCrawler crawler(&registry);
  auto result = crawler.Crawl("P", &portal, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable());
}

TEST(CrawlerTest, Listing1QueryParses) {
  auto q = sparql::ParseQuery(Listing1Query());
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->vars,
            (std::vector<std::string>{"dataset", "title", "url"}));
  EXPECT_EQ(q->where.triples.size(), 4u);
  EXPECT_EQ(q->where.filters.size(), 1u);
}

// ---------------------------------------------------------------- §3.4

TEST_F(HboldTest, ManualInsertionHappyPath) {
  // A second endpoint the user submits by hand.
  rdf::TripleStore user_store;
  workload::SyntheticLdConfig config;
  config.num_classes = 5;
  workload::GenerateSyntheticLd(config, &user_store);
  SimulatedRemoteEndpoint user_ep("http://user.example.org/sparql", "user",
                                  &user_store, loop_.clock());
  server_->AttachEndpoint(user_ep.url(), &user_ep);

  MemoryMailbox mailbox;
  ManualInsertionService service(server_.get(), &mailbox);
  ASSERT_TRUE(
      service.Submit("http://user.example.org/sparql", "user@example.org")
          .ok());
  EXPECT_EQ(service.PendingCount(), 1u);
  EXPECT_EQ(service.ProcessPending(), 1u);
  EXPECT_EQ(service.PendingCount(), 0u);

  ASSERT_EQ(mailbox.mails().size(), 1u);
  EXPECT_EQ(mailbox.mails()[0].to, "user@example.org");
  EXPECT_NE(mailbox.mails()[0].subject.find("indexed"), std::string::npos);
  // Endpoint is now listed and indexed.
  const EndpointRecord* rec =
      server_->registry().Find("http://user.example.org/sparql");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->source, EndpointSource::kManualInsert);
  EXPECT_TRUE(rec->indexed);
}

TEST_F(HboldTest, ManualInsertionFailureNotifiesFailure) {
  MemoryMailbox mailbox;
  ManualInsertionService service(server_.get(), &mailbox);
  // URL with no attached endpoint: extraction will fail.
  ASSERT_TRUE(service.Submit("http://dead.example.org/sparql", "u@e.org")
                  .ok());
  EXPECT_EQ(service.ProcessPending(), 0u);
  ASSERT_EQ(mailbox.mails().size(), 1u);
  EXPECT_NE(mailbox.mails()[0].subject.find("failed"), std::string::npos);
}

TEST_F(HboldTest, ManualInsertionValidation) {
  MemoryMailbox mailbox;
  ManualInsertionService service(server_.get(), &mailbox);
  EXPECT_FALSE(service.Submit("ftp://x/sparql", "a@b.org").ok());
  EXPECT_FALSE(service.Submit("http://x/sparql", "not-an-email").ok());
  EXPECT_FALSE(service.Submit("http://x/sparql", "@b.org").ok());
  // Already-registered URL rejected.
  EXPECT_EQ(service.Submit(kUrl, "a@b.org").code(),
            StatusCode::kAlreadyExists);
  // Double submission rejected.
  ASSERT_TRUE(service.Submit("http://new.org/sparql", "a@b.org").ok());
  EXPECT_FALSE(service.Submit("http://new.org/sparql", "c@d.org").ok());
}

// ------------------------------------------------------- Parallel cycle

/// Fixture: a small fleet of independent LD endpoints (one of them dead)
/// behind fresh per-test servers, for comparing sequential and parallel
/// daily cycles over identical portal state.
class ParallelCycleTest : public ::testing::Test {
 protected:
  static constexpr size_t kEndpoints = 8;

  void SetUp() override {
    for (size_t i = 0; i < kEndpoints; ++i) {
      auto store = std::make_unique<rdf::TripleStore>();
      workload::SyntheticLdConfig config;
      config.namespace_iri =
          "http://ld" + std::to_string(i) + ".example.org/";
      config.num_classes = 6 + i * 3;
      config.max_instances_per_class = 20;
      config.seed = 100 + i;
      workload::GenerateSyntheticLd(config, store.get());
      std::string url = config.namespace_iri + "sparql";
      endpoints_.push_back(std::make_unique<SimulatedRemoteEndpoint>(
          url, "LD " + std::to_string(i), store.get(), loop_.clock()));
      stores_.push_back(std::move(store));
      urls_.push_back(std::move(url));
    }
  }

  /// Builds a server over the fleet; `attach_all == false` leaves the last
  /// endpoint unreachable so the cycle sees a failure too.
  std::unique_ptr<Server> MakeServer(store::Database* db, int parallelism,
                                     bool attach_all) {
    ServerOptions options;
    options.parallelism = parallelism;
    auto server = std::make_unique<Server>(db, &loop_, options);
    for (size_t i = 0; i < kEndpoints; ++i) {
      if (attach_all || i + 1 < kEndpoints) {
        server->AttachEndpoint(urls_[i], endpoints_[i].get());
      }
      endpoint::EndpointRecord record;
      record.url = urls_[i];
      record.name = endpoints_[i]->name();
      server->RegisterEndpoint(record);
    }
    return server;
  }

  static void ExpectSameOutcome(const DailyReport& a, const DailyReport& b) {
    EXPECT_EQ(a.due, b.due);
    EXPECT_EQ(a.succeeded, b.succeeded);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.reused, b.reused);
    ASSERT_EQ(a.reports.size(), b.reports.size());
    for (size_t i = 0; i < a.reports.size(); ++i) {
      EXPECT_EQ(a.reports[i].url, b.reports[i].url) << i;
      EXPECT_EQ(a.reports[i].classes, b.reports[i].classes) << i;
      EXPECT_EQ(a.reports[i].arcs, b.reports[i].arcs) << i;
      EXPECT_EQ(a.reports[i].clusters, b.reports[i].clusters) << i;
      EXPECT_EQ(a.reports[i].reused_cluster_schema,
                b.reports[i].reused_cluster_schema)
          << i;
      EXPECT_DOUBLE_EQ(a.reports[i].extraction_ms, b.reports[i].extraction_ms)
          << i;
    }
  }

  sim::EventLoop loop_;
  std::vector<std::string> urls_;
  std::vector<std::unique_ptr<rdf::TripleStore>> stores_;
  std::vector<std::unique_ptr<SimulatedRemoteEndpoint>> endpoints_;
};

TEST_F(ParallelCycleTest, ParallelReportMatchesSequential) {
  store::Database seq_db;
  auto seq_server = MakeServer(&seq_db, 1, /*attach_all=*/false);
  DailyReport sequential = seq_server->RunDailyUpdate();
  EXPECT_EQ(sequential.due, kEndpoints);
  EXPECT_EQ(sequential.succeeded, kEndpoints - 1);
  EXPECT_EQ(sequential.failed, 1u);
  EXPECT_EQ(sequential.parallelism, 1);
  EXPECT_DOUBLE_EQ(sequential.makespan_ms, sequential.sum_latency_ms);

  for (int workers : {2, 4}) {
    store::Database par_db;
    auto par_server = MakeServer(&par_db, workers, /*attach_all=*/false);
    DailyReport parallel = par_server->RunDailyUpdate();
    EXPECT_EQ(parallel.parallelism, workers);
    ExpectSameOutcome(sequential, parallel);
    // Cost is conserved; duration shrinks (or stays, never grows).
    EXPECT_DOUBLE_EQ(parallel.sum_latency_ms, sequential.sum_latency_ms);
    EXPECT_LE(parallel.makespan_ms, sequential.makespan_ms);
    EXPECT_GT(parallel.makespan_ms, 0);
    // Registry bookkeeping identical under concurrency.
    for (const std::string& url : urls_) {
      const endpoint::EndpointRecord* s = seq_server->registry().Find(url);
      const endpoint::EndpointRecord* p = par_server->registry().Find(url);
      ASSERT_NE(s, nullptr);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(s->indexed, p->indexed) << url;
      EXPECT_EQ(s->last_attempt_failed, p->last_attempt_failed) << url;
      EXPECT_EQ(s->last_success_day, p->last_success_day) << url;
    }
  }
}

TEST_F(ParallelCycleTest, ParallelCycleIsDeterministicAcrossRuns) {
  store::Database db_a;
  DailyReport a = MakeServer(&db_a, 4, /*attach_all=*/true)->RunDailyUpdate();
  store::Database db_b;
  DailyReport b = MakeServer(&db_b, 4, /*attach_all=*/true)->RunDailyUpdate();
  ExpectSameOutcome(a, b);
  EXPECT_DOUBLE_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_DOUBLE_EQ(a.sum_latency_ms, b.sum_latency_ms);
}

TEST_F(ParallelCycleTest, ReuseDetectionSurvivesParallelSecondCycle) {
  store::Database db;
  auto server = MakeServer(&db, 4, /*attach_all=*/true);
  DailyReport first = server->RunDailyUpdate();
  EXPECT_EQ(first.reused, 0u);
  // Unchanged data a week later: every endpoint's Schema Summary hash
  // matches, so the whole cycle is §3.2 reuse — detected under concurrency.
  loop_.RunUntil(loop_.NowMs() + 7 * SimClock::kMillisPerDay);
  DailyReport second = server->RunDailyUpdate();
  EXPECT_EQ(second.due, kEndpoints);
  EXPECT_EQ(second.succeeded, kEndpoints);
  EXPECT_EQ(second.reused, kEndpoints);
  EXPECT_EQ(db.FindCollection(kSummariesCollection)->size(), kEndpoints);
  EXPECT_EQ(db.FindCollection(kClustersCollection)->size(), kEndpoints);
}

}  // namespace
}  // namespace hbold
