// Unit tests for src/endpoint: local endpoint, simulated remote endpoint
// (availability / dialect / latency / truncation), and the registry.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "endpoint/local_endpoint.h"
#include "endpoint/registry.h"
#include "endpoint/simulated_endpoint.h"
#include "rdf/turtle.h"

namespace hbold::endpoint {
namespace {

class EndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto n = rdf::ParseTurtle(R"(
@prefix ex: <http://x/> .
ex:a a ex:C ; ex:p ex:b ; ex:q "1" .
ex:b a ex:C ; ex:q "2" .
ex:c a ex:D ; ex:p ex:a .
)",
                              &store_);
    ASSERT_TRUE(n.ok()) << n.status();
  }
  rdf::TripleStore store_;
  SimClock clock_;
};

// ---------------------------------------------------------------- Local

TEST_F(EndpointTest, LocalEndpointAnswersQueries) {
  LocalEndpoint ep("http://local/sparql", "local", &store_);
  auto r = ep.Query("SELECT ?s WHERE { ?s a <http://x/C> . }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->table.num_rows(), 2u);
  EXPECT_FALSE(r->truncated);
  EXPECT_GE(r->latency_ms, 0);
  EXPECT_EQ(ep.queries_served(), 1u);
  EXPECT_EQ(ep.url(), "http://local/sparql");
}

TEST_F(EndpointTest, LocalEndpointPropagatesParseErrors) {
  LocalEndpoint ep("u", "n", &store_);
  auto r = ep.Query("SELECT garbage");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

// ---------------------------------------------------------------- Dialect

TEST_F(EndpointTest, FullDialectAllowsAggregates) {
  SimulatedRemoteEndpoint ep("http://r/sparql", "r", &store_, &clock_);
  auto r = ep.Query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->table.ScalarInt("n"), static_cast<int64_t>(store_.size()));
}

/// Sends `rejected` twice, then `accepted` three times, through `ep`. The
/// gate refuses before the plan cache sees the query, so the refusals leave
/// it untouched (not even sighted); the accepted text misses twice (the
/// second sighting admits it), then is a plan-cache hit that answers
/// exactly as the first run did.
void ExpectGateRunsBeforePlanCache(SimulatedRemoteEndpoint* ep,
                                   const std::string& rejected,
                                   const std::string& accepted) {
  for (int i = 0; i < 2; ++i) {
    auto r = ep->Query(rejected);
    ASSERT_FALSE(r.ok()) << i;
    EXPECT_TRUE(r.status().IsUnsupported()) << i;
    EXPECT_EQ(ep->engine_stats().plan_cache_hits, 0u) << i;
    EXPECT_EQ(ep->engine_stats().plan_cache_misses, 0u) << i;
  }
  auto first = ep->Query(accepted);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(ep->engine_stats().plan_cache_hits, 0u);
  EXPECT_EQ(ep->engine_stats().plan_cache_misses, 1u);
  auto second = ep->Query(accepted);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(ep->engine_stats().plan_cache_hits, 0u);
  EXPECT_EQ(ep->engine_stats().plan_cache_misses, 2u);
  auto third = ep->Query(accepted);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(ep->engine_stats().plan_cache_hits, 1u);
  EXPECT_EQ(ep->engine_stats().plan_cache_misses, 2u);
  for (const auto* run : {&second, &third}) {
    EXPECT_EQ((*run)->table.ToTsv(), first->table.ToTsv());
    EXPECT_EQ((*run)->latency_ms, first->latency_ms);
  }
}

TEST_F(EndpointTest, NoAggregatesDialectRejectsCount) {
  SimulatedRemoteEndpoint ep("u", "n", &store_, &clock_,
                             Dialect::NoAggregates());
  // Plain selects still work.
  ExpectGateRunsBeforePlanCache(
      &ep, "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }",
      "SELECT ?s WHERE { ?s ?p ?o . }");
}

TEST_F(EndpointTest, NoGroupByDialectRejectsGrouping) {
  SimulatedRemoteEndpoint ep("u", "n", &store_, &clock_, Dialect::NoGroupBy());
  // Ungrouped COUNT is allowed by this dialect.
  ExpectGateRunsBeforePlanCache(
      &ep, "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c . } GROUP BY ?c",
      "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }");
}

TEST_F(EndpointTest, RowCapTruncatesAndFlags) {
  SimulatedRemoteEndpoint ep("u", "n", &store_, &clock_, Dialect::RowCapped(2));
  auto r = ep.Query("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->table.num_rows(), 2u);
  EXPECT_TRUE(r->truncated);
}

TEST_F(EndpointTest, RowCapNotFlaggedWhenUnderCap) {
  SimulatedRemoteEndpoint ep("u", "n", &store_, &clock_,
                             Dialect::RowCapped(100));
  auto r = ep.Query("SELECT ?s WHERE { ?s a <http://x/C> . }");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->truncated);
}

TEST_F(EndpointTest, WorkBudgetTimesOut) {
  Dialect d;
  d.work_budget_bindings = 1;  // any real query exceeds this
  SimulatedRemoteEndpoint ep("u", "n", &store_, &clock_, d);
  auto r = ep.Query("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout());
}

// ---------------------------------------------------------------- Availability

TEST_F(EndpointTest, ForcedOutageDaysAreDown) {
  AvailabilityModel avail;
  avail.forced_outage_days = {1, 3};
  SimulatedRemoteEndpoint ep("u", "n", &store_, &clock_, Dialect::Full(),
                             avail);
  EXPECT_TRUE(ep.IsUpOn(0));
  EXPECT_FALSE(ep.IsUpOn(1));
  EXPECT_TRUE(ep.IsUpOn(2));
  EXPECT_FALSE(ep.IsUpOn(3));

  clock_.AdvanceDays(1);  // day 1
  auto r = ep.Query("SELECT ?s WHERE { ?s ?p ?o . }");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  clock_.AdvanceDays(1);  // day 2
  EXPECT_TRUE(ep.Query("SELECT ?s WHERE { ?s ?p ?o . }").ok());
}

TEST_F(EndpointTest, UptimeProbabilityIsDeterministicPerDay) {
  AvailabilityModel avail;
  avail.uptime = 0.5;
  avail.seed = 99;
  // Same (seed, day) must agree across calls and instances.
  AvailabilityModel avail2 = avail;
  size_t up_days = 0;
  for (int64_t day = 0; day < 200; ++day) {
    EXPECT_EQ(avail.IsUp(day), avail2.IsUp(day));
    if (avail.IsUp(day)) ++up_days;
  }
  // Roughly half the days up.
  EXPECT_GT(up_days, 70u);
  EXPECT_LT(up_days, 130u);
}

TEST_F(EndpointTest, UptimeExtremes) {
  AvailabilityModel always;
  always.uptime = 1.0;
  AvailabilityModel never;
  never.uptime = 0.0;
  for (int64_t day = 0; day < 10; ++day) {
    EXPECT_TRUE(always.IsUp(day));
    EXPECT_FALSE(never.IsUp(day));
  }
}

// ---------------------------------------------------------------- Latency

TEST_F(EndpointTest, LatencyModelScalesWithWork) {
  LatencyModel lat;
  lat.base_ms = 10;
  lat.per_binding_us = 1000;  // 1 ms per binding to make the effect visible
  SimulatedRemoteEndpoint ep("u", "n", &store_, &clock_, Dialect::Full(), {},
                             lat);
  auto small = ep.Query("SELECT ?s WHERE { ?s a <http://x/D> . }");
  auto large = ep.Query("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }");
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_GE(small->latency_ms, 10);
  EXPECT_GT(large->latency_ms, small->latency_ms);
}

TEST(LatencyModelTest, CostFormula) {
  LatencyModel lat;
  lat.base_ms = 5;
  lat.per_binding_us = 2;
  lat.per_row_us = 4;
  EXPECT_DOUBLE_EQ(lat.Cost(1000, 500), 5 + 2.0 + 2.0);
}

// ---------------------------------------------------------------- Probe

TEST_F(EndpointTest, ProbeReportsLiveEndpoint) {
  SimulatedRemoteEndpoint ep("u", "n", &store_, &clock_);
  auto alive = Probe(&ep);
  ASSERT_TRUE(alive.ok()) << alive.status();
  EXPECT_TRUE(*alive);
}

TEST_F(EndpointTest, ProbeDistinguishesEmptyFromDown) {
  rdf::TripleStore empty;
  SimulatedRemoteEndpoint hollow("u", "n", &empty, &clock_);
  auto answered = Probe(&hollow);
  ASSERT_TRUE(answered.ok());
  EXPECT_FALSE(*answered);  // answered, but holds no triples

  AvailabilityModel avail;
  avail.forced_outage_days = {0};
  SimulatedRemoteEndpoint down("u", "n", &store_, &clock_, Dialect::Full(),
                               avail);
  auto failed = Probe(&down);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsUnavailable());
}

// ---------------------------------------------------------------- Registry

TEST(RegistryTest, AddDedupsByUrl) {
  EndpointRegistry reg;
  EndpointRecord r;
  r.url = "http://a/sparql";
  r.name = "A";
  EXPECT_TRUE(reg.Add(r));
  EXPECT_FALSE(reg.Add(r));  // duplicate
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.Contains("http://a/sparql"));
  EXPECT_FALSE(reg.Contains("http://b/sparql"));
}

TEST(RegistryTest, FindAndMutate) {
  EndpointRegistry reg;
  EndpointRecord r;
  r.url = "http://a";
  reg.Add(r);
  EXPECT_TRUE(reg.UpdateRecord("http://a", [](EndpointRecord& r) {
    r.indexed = true;
    r.last_success_day = 4;
  }));
  EXPECT_FALSE(reg.UpdateRecord("http://missing", [](EndpointRecord&) {}));
  const EndpointRecord* found = reg.Find("http://a");
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(found->indexed);
  EXPECT_EQ(reg.IndexedCount(), 1u);
  EXPECT_EQ(reg.Find("http://zzz"), nullptr);
}

TEST(RegistryTest, AllPreservesInsertionOrder) {
  EndpointRegistry reg;
  for (const char* url : {"http://c", "http://a", "http://b"}) {
    EndpointRecord r;
    r.url = url;
    reg.Add(r);
  }
  auto all = reg.All();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->url, "http://c");
  EXPECT_EQ(all[2]->url, "http://b");
}

TEST(RegistryTest, JsonRoundTrip) {
  EndpointRegistry reg;
  EndpointRecord r;
  r.url = "http://a";
  r.name = "A";
  r.source = EndpointSource::kPortalCrawl;
  r.added_day = 10;
  r.last_attempt_day = 12;
  r.last_success_day = 11;
  r.last_attempt_failed = true;
  r.indexed = true;
  reg.Add(r);

  EndpointRegistry loaded;
  ASSERT_TRUE(loaded.LoadJson(reg.ToJson()).ok());
  const EndpointRecord* got = loaded.Find("http://a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->name, "A");
  EXPECT_EQ(got->source, EndpointSource::kPortalCrawl);
  EXPECT_EQ(got->added_day, 10);
  EXPECT_EQ(got->last_attempt_day, 12);
  EXPECT_EQ(got->last_success_day, 11);
  EXPECT_TRUE(got->last_attempt_failed);
  EXPECT_TRUE(got->indexed);
}

TEST(RegistryTest, LoadRejectsBadJson) {
  EndpointRegistry reg;
  EXPECT_FALSE(reg.LoadJson(Json(5)).ok());
  Json arr = Json::MakeArray();
  arr.Append(Json::MakeObject());  // record without url
  EXPECT_FALSE(reg.LoadJson(arr).ok());
}

TEST(RegistryTest, SourceNames) {
  EXPECT_STREQ(EndpointSourceName(EndpointSource::kSeedList), "seed");
  EXPECT_STREQ(EndpointSourceName(EndpointSource::kPortalCrawl), "portal");
  EXPECT_STREQ(EndpointSourceName(EndpointSource::kManualInsert), "manual");
}

// ------------------------------------------------------------- Concurrency
//
// The truly concurrent local read path: no big lock around Query(), eager
// index finalization, atomic counters. These run under TSan in CI.

rdf::TripleStore MakeConcurrencyStore() {
  rdf::TripleStore store;
  for (int i = 0; i < 120; ++i) {
    std::string s = "http://c/s" + std::to_string(i);
    store.Add(rdf::Term::Iri(s), rdf::Term::Iri("http://c/type"),
              rdf::Term::Iri("http://c/C" + std::to_string(i % 4)));
    store.Add(rdf::Term::Iri(s), rdf::Term::Iri("http://c/p"),
              rdf::Term::Iri("http://c/s" + std::to_string((i + 1) % 120)));
  }
  return store;
}

TEST(ConcurrencyTest, ParallelLocalEndpointQueries) {
  rdf::TripleStore store = MakeConcurrencyStore();
  LocalEndpoint ep("http://local/sparql", "local", &store);
  const std::vector<std::string> queries = {
      "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }",
      "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s <http://c/type> ?c . } "
      "GROUP BY ?c",
      "SELECT ?s ?o WHERE { ?s <http://c/p> ?o . } LIMIT 10",
  };
  // Sequential baselines for every query.
  std::vector<std::string> baselines;
  for (const std::string& q : queries) {
    auto r = ep.Query(q);
    ASSERT_TRUE(r.ok()) << r.status();
    baselines.push_back(r->table.ToCsv());
  }

  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        size_t qi = static_cast<size_t>(t + i) % queries.size();
        sparql::ExecStats stats;
        auto r = ep.QueryWithStats(queries[qi], &stats);
        if (!r.ok() || r->table.ToCsv() != baselines[qi]) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(ep.queries_served(),
            static_cast<size_t>(kThreads * kPerThread) + queries.size());
}

TEST(ConcurrencyTest, ParallelSimulatedEndpointQueriesDeterministicCost) {
  rdf::TripleStore store = MakeConcurrencyStore();
  SimClock clock;
  SimulatedRemoteEndpoint ep("http://sim/sparql", "sim", &store, &clock);
  const std::string q =
      "SELECT ?c (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <http://c/type> ?c . }"
      " GROUP BY ?c";
  auto baseline = ep.Query(q);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        auto r = ep.Query(q);
        // The charged latency is computed from deterministic ExecStats, so
        // concurrency must not perturb it.
        if (!r.ok() || r->latency_ms != baseline->latency_ms ||
            r->table.ToCsv() != baseline->table.ToCsv()) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(ep.queries_served(), static_cast<size_t>(kThreads) * 25 + 1);
}

TEST(ConcurrencyTest, LazyRebuildIsGuardedAcrossReaders) {
  // Readers racing into a store with staged writes: double-checked locking
  // must let exactly one rebuild run while the rest wait, and every reader
  // must see the full index afterwards.
  for (int round = 0; round < 10; ++round) {
    rdf::TripleStore store = MakeConcurrencyStore();  // staged, not indexed
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    std::atomic<int> bad{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        rdf::TriplePattern all;
        if (store.Count(all) != 240) ++bad;
        rdf::TriplePattern typed;
        typed.p = store.dict().Lookup(rdf::Term::Iri("http://c/type"));
        if (store.CountDistinct(typed, rdf::TriplePos::kO) != 4) ++bad;
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(bad.load(), 0);
  }
}

}  // namespace
}  // namespace hbold::endpoint
