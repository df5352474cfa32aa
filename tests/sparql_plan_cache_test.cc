// Plan-cache and planner suite: hit/miss accounting, rebuild-generation
// invalidation after incremental triple loads, the stale-statistics
// regression (join orders must follow a skewed appended batch, not a
// frozen snapshot), golden PlanGroup output on a fixed store, capacity
// eviction, second-sighting admission, and TSan-gated concurrent tests
// against one shared cache.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "endpoint/local_endpoint.h"
#include "rdf/graph.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/planner.h"

namespace hbold::sparql {
namespace {

using rdf::Term;

rdf::TripleStore MakeSmallStore() {
  rdf::TripleStore store;
  auto iri = [](const std::string& s) { return Term::Iri("http://x/" + s); };
  for (int i = 0; i < 12; ++i) {
    store.Add(iri("s" + std::to_string(i)), iri("p"), iri("o" + std::to_string(i % 3)));
    store.Add(iri("s" + std::to_string(i)), iri("q"), iri("s" + std::to_string((i + 1) % 12)));
  }
  store.FinalizeIndex();
  return store;
}

SelectQuery Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text;
  return std::move(q).value();
}

// ----------------------------------------------------------- hit counting

TEST(PlanCacheTest, DifferentConstantsMiss) {
  rdf::TripleStore store = MakeSmallStore();
  PlanCache cache;
  Executor ex(&store, ExecOptions{}, &cache);
  ASSERT_TRUE(ex.Execute("SELECT ?a WHERE { ?a <http://x/p> ?b . }").ok());
  ASSERT_TRUE(ex.Execute("SELECT ?a WHERE { ?a <http://x/q> ?b . }").ok());
  PlanCacheStats cs = cache.stats();
  EXPECT_EQ(cs.misses, 2u);
  EXPECT_EQ(cs.hits, 0u);
  EXPECT_EQ(cs.entries, 0u) << "texts run once are not admitted";
  EXPECT_EQ(cs.seen, 2u);
}

// ------------------------------------------------------------- admission

TEST(PlanCacheTest, AdmitsOnSecondSighting) {
  rdf::TripleStore store = MakeSmallStore();
  PlanCache cache;
  Executor ex(&store, ExecOptions{}, &cache);
  const std::string q = "SELECT ?a WHERE { ?a <http://x/p> ?b . }";

  ExecStats s1;
  auto r1 = ex.Execute(q, &s1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(s1.plan_cache_misses, 1u);
  EXPECT_EQ(cache.size(), 0u) << "first sighting leaves no entry";
  EXPECT_EQ(cache.stats().seen, 1u);

  ExecStats s2;
  auto r2 = ex.Execute(q, &s2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(s2.plan_cache_misses, 1u) << "second sighting is still a miss";
  EXPECT_EQ(cache.size(), 1u) << "second sighting inserts";

  ExecStats s3;
  auto r3 = ex.Execute(q, &s3);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(s3.plan_cache_hits, 1u);
  EXPECT_EQ(*r1, *r2);
  EXPECT_EQ(*r1, *r3);

  // A generation flush drops the entries but keeps the seen-set: the next
  // run re-plans and is admitted at once, and the one after hits.
  store.Add(Term::Iri("http://x/new"), Term::Iri("http://x/p"),
            Term::Iri("http://x/o0"));
  ExecStats s4;
  ASSERT_TRUE(ex.Execute(q, &s4).ok());
  EXPECT_EQ(s4.plan_cache_misses, 1u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.size(), 1u);
  ExecStats s5;
  ASSERT_TRUE(ex.Execute(q, &s5).ok());
  EXPECT_EQ(s5.plan_cache_hits, 1u);
}

TEST(PlanCacheTest, SeenSetIsBoundedAndDroppedWhole) {
  PlanCache cache;
  auto text = [](size_t i) { return "SELECT * WHERE { ?s ?p " +
                                    std::to_string(i) + " }"; };
  for (size_t i = 0; i < PlanCache::kSeenCapacity; ++i) {
    EXPECT_FALSE(cache.SeenBefore(text(i))) << i;
  }
  EXPECT_EQ(cache.stats().seen, PlanCache::kSeenCapacity);
  EXPECT_TRUE(cache.SeenBefore(text(0)));
  EXPECT_EQ(cache.stats().seen, PlanCache::kSeenCapacity);
  // One new text past the bound drops the set before remembering it.
  EXPECT_FALSE(cache.SeenBefore(text(PlanCache::kSeenCapacity)));
  EXPECT_EQ(cache.stats().seen, 1u);
  EXPECT_FALSE(cache.SeenBefore(text(0)));
  EXPECT_TRUE(cache.SeenBefore(text(PlanCache::kSeenCapacity)));
}

// ----------------------------------------------- generation invalidation

TEST(PlanCacheTest, IncrementalLoadInvalidatesByGeneration) {
  rdf::TripleStore store = MakeSmallStore();
  PlanCache cache;
  Executor ex(&store, ExecOptions{}, &cache);
  const std::string q = "SELECT ?a WHERE { ?a <http://x/p> ?b . }";

  ExecStats s1;
  ASSERT_TRUE(ex.Execute(q, &s1).ok());
  EXPECT_EQ(s1.plan_cache_misses, 1u);
  ExecStats s2;
  ASSERT_TRUE(ex.Execute(q, &s2).ok());
  EXPECT_EQ(s2.plan_cache_misses, 1u);  // second sighting: admitted
  ExecStats s2b;
  ASSERT_TRUE(ex.Execute(q, &s2b).ok());
  EXPECT_EQ(s2b.plan_cache_hits, 1u);

  // Incremental load: the store's rebuild generation advances on the next
  // read, so the cached epoch no longer matches.
  const uint64_t gen_before = store.generation();
  store.Add(Term::Iri("http://x/new"), Term::Iri("http://x/p"),
            Term::Iri("http://x/o0"));
  EXPECT_GT(store.generation(), gen_before);

  ExecStats s3;
  auto r = ex.Execute(q, &s3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(s3.plan_cache_misses, 1u) << "stale epoch must not serve";
  EXPECT_EQ(s3.plan_cache_hits, 0u);
  // The re-planned query sees the new triple.
  EXPECT_EQ(r->num_rows(), 13u);
  PlanCacheStats cs = cache.stats();
  EXPECT_EQ(cs.invalidations, 1u);

  // And the fresh epoch serves hits again (the text was sighted before the
  // flush, so the stale-epoch miss above re-admitted it).
  ExecStats s4;
  ASSERT_TRUE(ex.Execute(q, &s4).ok());
  EXPECT_EQ(s4.plan_cache_hits, 1u);
}

// ------------------------------------------------- hash-join build reuse

TEST(HashBuildReuseTest, RepeatedPredicateStepsShareOneBuild) {
  rdf::TripleStore store = MakeSmallStore();
  ExecOptions forced;
  forced.hash_join = HashJoinMode::kForce;
  Executor hashed(&store, forced);
  ExecOptions off;
  off.hash_join = HashJoinMode::kOff;
  Executor nested(&store, off);

  // A chain over one predicate: after the driving scan, both remaining
  // steps probe the identical (constants, key mask) span, so the second
  // hash step reuses the first step's build.
  const std::string q =
      "SELECT ?a ?d WHERE { ?a <http://x/q> ?b . ?b <http://x/q> ?c . "
      "?c <http://x/q> ?d . }";
  ExecStats hs, ns;
  auto hr = hashed.Execute(q, &hs);
  auto nr = nested.Execute(q, &ns);
  ASSERT_TRUE(hr.ok());
  ASSERT_TRUE(nr.ok());
  EXPECT_EQ(hs.hash_join_builds, 1u) << "second step must reuse the build";
  EXPECT_GE(hs.hash_join_build_reuses, 1u);
  // The physical sharing is invisible to results and charged accounting.
  EXPECT_EQ(hr->num_rows(), nr->num_rows());
  EXPECT_EQ(hs.intermediate_bindings, ns.intermediate_bindings);
}

// ------------------------------------------------ stale-statistics guard

TEST(StaleStatsTest, JoinOrderFollowsSkewedIncrementalBatch) {
  // Before the batch: p is rare (selective), q is common — the planner
  // starts with the p pattern. After appending a skewed batch that makes
  // p ubiquitous, the refreshed statistics must flip the order; a frozen
  // snapshot (or a stale cached plan) would keep p first.
  rdf::TripleStore store;
  auto iri = [](const std::string& s) { return Term::Iri("http://x/" + s); };
  for (int i = 0; i < 4; ++i) {
    store.Add(iri("s" + std::to_string(i)), iri("p"), iri("o"));
  }
  for (int i = 0; i < 40; ++i) {
    store.Add(iri("s" + std::to_string(i)), iri("q"), iri("t"));
  }
  store.FinalizeIndex();

  SelectQuery q = Parse(
      "SELECT ?a WHERE { ?a <http://x/p> ?b . ?a <http://x/q> ?c . }");
  ExecOptions options;
  std::vector<size_t> before = PlanGroup(q.where, options, &store).order;
  ASSERT_EQ(before.size(), 2u);
  EXPECT_EQ(before[0], 0u) << "p (4 triples) should drive before the batch";

  // Skewed batch: p explodes, q stays put.
  for (int i = 0; i < 400; ++i) {
    store.Add(iri("z" + std::to_string(i)), iri("p"),
              iri("o" + std::to_string(i)));
  }
  std::vector<size_t> after = PlanGroup(q.where, options, &store).order;
  EXPECT_EQ(after[0], 1u) << "q (40 triples) should drive after the batch";

  // Through the executor + cache: the generation bump re-plans, so the
  // cached stale order is not used (charged bindings follow the new one).
  PlanCache cache;
  Executor ex(&store, options, &cache);
  ExecStats s;
  ASSERT_TRUE(ex.Execute(q, &s).ok());
  EXPECT_EQ(s.plan_cache_misses, 1u);
}

TEST(StaleStatsTest, SampledRefreshKeepsCountDistinctExact) {
  // Force the sampled-stats path on a small store and check that (a) the
  // stats are flagged inexact, (b) CountDistinct still answers exactly,
  // (c) the refresh is deterministic.
  rdf::TripleStore store;
  store.SetStatsSamplingThreshold(64);
  auto iri = [](const std::string& s) { return Term::Iri("http://x/" + s); };
  for (int i = 0; i < 300; ++i) {
    store.Add(iri("s" + std::to_string(i % 90)), iri("p"),
              iri("o" + std::to_string(i % 7)));
  }
  store.FinalizeIndex();

  // Small incremental batch (< 1/8 of the index) triggers sampling.
  store.Add(iri("extra"), iri("p"), iri("o1"));
  store.FinalizeIndex();

  const rdf::TermId p = store.dict().Lookup(iri("p"));
  ASSERT_NE(p, rdf::kInvalidTermId);
  rdf::PredicateStats stats = store.StatsForPredicate(p);
  EXPECT_FALSE(stats.exact);
  EXPECT_EQ(stats.triples, store.size());  // range arithmetic stays exact

  // Oracle distinct counts over the full index.
  rdf::TriplePattern pat;
  pat.p = p;
  std::set<rdf::TermId> subjects, objects;
  for (const rdf::Triple& t : store.Span(pat)) {
    subjects.insert(t.s);
    objects.insert(t.o);
  }
  EXPECT_EQ(store.CountDistinct(pat, rdf::TriplePos::kS), subjects.size());
  EXPECT_EQ(store.CountDistinct(pat, rdf::TriplePos::kO), objects.size());

  // Deterministic: a second identical store produces identical stats.
  rdf::TripleStore twin;
  twin.SetStatsSamplingThreshold(64);
  for (int i = 0; i < 300; ++i) {
    twin.Add(iri("s" + std::to_string(i % 90)), iri("p"),
             iri("o" + std::to_string(i % 7)));
  }
  twin.FinalizeIndex();
  twin.Add(iri("extra"), iri("p"), iri("o1"));
  twin.FinalizeIndex();
  rdf::PredicateStats twin_stats = twin.StatsForPredicate(p);
  EXPECT_EQ(stats.triples, twin_stats.triples);
  EXPECT_EQ(stats.distinct_subjects, twin_stats.distinct_subjects);
  EXPECT_EQ(stats.distinct_objects, twin_stats.distinct_objects);
}

// ------------------------------------------------------ planner golden

// A fixed store for pinning PlanGroup's output: 100 entities typed C and
// 100 typed D, each with a name and one `knows` edge, three `rare` facts
// and ten `loop` self-edges (613 triples).
rdf::TripleStore MakePlannerStore() {
  rdf::TripleStore store;
  auto iri = [](const std::string& s) { return Term::Iri("http://x/" + s); };
  for (int i = 0; i < 200; ++i) {
    const std::string e = "e" + std::to_string(i);
    store.Add(iri(e), iri("type"), iri(i < 100 ? "C" : "D"));
    store.Add(iri(e), iri("name"), Term::Literal("n" + std::to_string(i)));
    store.Add(iri(e), iri("knows"), iri("e" + std::to_string((i + 1) % 200)));
    if (i < 3) store.Add(iri(e), iri("rare"), iri("r"));
    if (i < 10) store.Add(iri(e), iri("loop"), iri(e));
  }
  store.FinalizeIndex();
  return store;
}

/// "order|ops", e.g. "1,0,2|N,N,H".
std::string FormatPlan(const GroupPlan& plan) {
  std::string out;
  for (size_t i = 0; i < plan.order.size(); ++i) {
    out += (i > 0 ? "," : "") + std::to_string(plan.order[i]);
  }
  out += '|';
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    if (i > 0) out += ',';
    out += plan.ops[i] == JoinOp::kHashJoin ? 'H' : 'N';
  }
  return out;
}

TEST(PlannerGoldenTest, PlanGroupOutputIsPinned) {
  rdf::TripleStore store = MakePlannerStore();
  ExecOptions cost;
  ExecOptions off;
  off.hash_join = HashJoinMode::kOff;
  ExecOptions force;
  force.hash_join = HashJoinMode::kForce;
  ExecOptions written;
  written.greedy_join_order = false;

  struct Case {
    const char* name;
    const char* where;
    // Expected plans under cost, off, force and written, in that order.
    const char* expected[4];
  };
  const Case cases[] = {
      {"fully ground first",
       "?a <http://x/type> <http://x/C> . "
       "<http://x/e0> <http://x/knows> <http://x/e1> . "
       "?a <http://x/name> ?n .",
       {"1,0,2|N,N,H", "1,0,2|N,N,N", "1,0,2|N,N,H", "0,1,2|N,N,H"}},
      {"constant missing from the dictionary",
       "?a <http://x/type> <http://x/C> . ?a <http://x/knows> ?b . "
       "?b <http://x/nosuch> ?c .",
       {"2,1,0|N,N,N", "2,1,0|N,N,N", "2,1,0|N,H,H", "0,1,2|N,H,N"}},
      {"repeated variable",
       "?x <http://x/type> <http://x/C> . ?x <http://x/knows> ?x .",
       {"0,1|N,N", "0,1|N,N", "0,1|N,N", "0,1|N,N"}},
      {"hash chosen by cost",
       "?a <http://x/type> <http://x/C> . ?a <http://x/name> ?n . "
       "?a <http://x/knows> ?b .",
       {"0,1,2|N,H,H", "0,1,2|N,N,N", "0,1,2|N,H,H", "0,1,2|N,H,H"}},
      {"disconnected second step",
       "?a <http://x/knows> ?b . ?c <http://x/rare> ?d . "
       "?b <http://x/type> <http://x/D> .",
       {"1,2,0|N,N,H", "1,2,0|N,N,N", "1,2,0|N,N,H", "0,1,2|N,N,H"}},
      {"one pattern", "?a <http://x/name> ?n .", {"0|N", "0|N", "0|N", "0|N"}},
  };
  const ExecOptions* options[] = {&cost, &off, &force, &written};
  for (const Case& c : cases) {
    SelectQuery q = Parse(std::string("SELECT * WHERE { ") + c.where + " }");
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(FormatPlan(PlanGroup(q.where, *options[i], &store)),
                c.expected[i])
          << c.name << ", option set " << i;
    }
  }
}

// --------------------------------------------------------------- capacity

TEST(PlanCacheTest, CapacityEvictionDropsTheEpoch) {
  PlanCache cache;
  auto text = [](size_t i) { return "SELECT ?s WHERE { ?s <http://x/p" +
                                    std::to_string(i) + "> ?o }"; };
  auto prepared = std::make_shared<PreparedQuery>();
  for (size_t i = 0; i < PlanCache::kCapacity; ++i) {
    cache.InsertPrepared(text(i), 1, prepared);
  }
  EXPECT_EQ(cache.size(), PlanCache::kCapacity);
  // Re-inserting a resident text keeps the epoch.
  cache.InsertPrepared(text(0), 1, prepared);
  EXPECT_EQ(cache.size(), PlanCache::kCapacity);
  // One text past the cap drops the epoch before inserting.
  cache.InsertPrepared(text(PlanCache::kCapacity), 1, prepared);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.LookupPrepared(text(0), 1), nullptr);
  EXPECT_NE(cache.LookupPrepared(text(PlanCache::kCapacity), 1), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 0u) << "eviction is not a flush";
}

// ------------------------------------------------- concurrent readers

// TSan-gated in CI: many threads hammer one LocalEndpoint (one shared
// plan cache) with aliased and distinct queries while reading stats.
TEST(PlanCacheConcurrencyTest, SharedCacheUnderConcurrentReaders) {
  rdf::TripleStore store = MakeSmallStore();
  endpoint::LocalEndpoint ep("http://x/sparql", "x", &store);
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 200;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        // Rotate over 15 distinct texts (5 variable spellings x 3 shapes)
        // so hits, misses, and inserts interleave.
        std::string v = "?x" + std::to_string((t + i) % 5);
        std::string q;
        if (i % 3 == 0) {
          q = "SELECT " + v + " WHERE { " + v + " <http://x/p> ?o . }";
        } else if (i % 3 == 1) {
          q = "SELECT " + v + " WHERE { " + v + " <http://x/q> ?o . " + v +
              " <http://x/p> ?c . }";
        } else {
          q = "SELECT (COUNT(*) AS ?n) WHERE { " + v + " <http://x/p> ?o . }";
        }
        sparql::ExecStats stats;
        auto r = ep.QueryWithStats(q, &stats);
        if (!r.ok()) failures.fetch_add(1);
        if (i % 16 == 0) (void)ep.engine_stats();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  endpoint::QueryEngineStats es = ep.engine_stats();
  EXPECT_EQ(es.plan_cache_hits + es.plan_cache_misses,
            static_cast<uint64_t>(kThreads) * kQueriesPerThread);
  // 15 distinct texts -> at least one miss each (two threads may race on
  // the same text); the steady state is cache hits.
  EXPECT_GE(es.plan_cache_misses, 2u);
  EXPECT_GT(es.plan_cache_hits, es.plan_cache_misses);
}

// Two threads sighting each text once: exactly one of them records the
// second sighting and inserts, so each text leaves one resident entry, and
// both threads' tables are identical.
TEST(PlanCacheConcurrencyTest, ConcurrentSightingsAdmitOnce) {
  rdf::TripleStore store = MakeSmallStore();
  PlanCache cache;
  Executor ex(&store, ExecOptions{}, &cache);
  constexpr size_t kTexts = 64;
  auto text = [](size_t i) {
    return "SELECT ?a ?b WHERE { ?a <http://x/q> ?b . ?b <http://x/p> "
           "<http://x/o" +
           std::to_string(i % 3) + "> . } LIMIT " + std::to_string(i + 1);
  };
  std::vector<ResultTable> tables[2];
  std::atomic<int> ready{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t]() {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      for (size_t i = 0; i < kTexts; ++i) {
        auto r = ex.Execute(text(i));
        if (!r.ok()) {
          failures.fetch_add(1);
          tables[t].emplace_back();
        } else {
          tables[t].push_back(*std::move(r));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  PlanCacheStats cs = cache.stats();
  EXPECT_EQ(cs.entries, kTexts);
  EXPECT_EQ(cs.seen, kTexts);
  EXPECT_EQ(cs.hits + cs.misses, 2 * kTexts);
  for (size_t i = 0; i < kTexts; ++i) {
    EXPECT_EQ(tables[0][i], tables[1][i]) << text(i);
  }
}

}  // namespace
}  // namespace hbold::sparql
