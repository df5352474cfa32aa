// Serving-layer tests: session transcript determinism across thread counts
// and cache modes, LayoutCache semantics (single-flight, LRU, epoch flush),
// snapshot readers racing daily extraction cycles (the TSan hammer),
// drill-down determinism, and EffectivenessSimulator tie-break stability.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "endpoint/simulated_endpoint.h"
#include "hbold/effectiveness.h"
#include "hbold/exploration_service.h"
#include "hbold/fleet.h"
#include "hbold/presentation.h"
#include "viz/layout_cache.h"
#include "workload/exploration_workload.h"
#include "workload/ld_generator.h"

namespace hbold {
namespace {

using endpoint::EndpointRecord;
using endpoint::SimulatedRemoteEndpoint;
using workload::ExplorationWorkloadOptions;
using workload::GenerateSessions;
using workload::SessionPlan;

constexpr size_t kEndpoints = 6;

std::string Url(size_t i) {
  return "http://serve" + std::to_string(i) + ".example.org/sparql";
}

/// A small seeded fleet world the serving tests run against.
class ServingWorld {
 public:
  explicit ServingWorld(int num_shards, size_t fleet_workers = 1) {
    for (size_t i = 0; i < kEndpoints; ++i) {
      auto store = std::make_unique<rdf::TripleStore>();
      workload::SyntheticLdConfig config;
      config.namespace_iri = Url(i).substr(0, Url(i).size() - 6);
      config.num_classes = 4 + i * 2;
      config.max_instances_per_class = 15;
      config.seed = 900 + i;
      workload::GenerateSyntheticLd(config, store.get());
      stores_.push_back(std::move(store));
    }
    FleetOptions options;
    options.num_shards = num_shards;
    options.fleet_workers = fleet_workers;
    fleet_ = std::make_unique<Fleet>(&loop_, options);
    for (size_t i = 0; i < kEndpoints; ++i) {
      endpoints_.push_back(std::make_unique<SimulatedRemoteEndpoint>(
          Url(i), "Serve " + std::to_string(i), stores_[i].get(),
          loop_.clock()));
      EndpointRecord record;
      record.url = Url(i);
      record.name = endpoints_[i]->name();
      fleet_->RegisterEndpoint(record);
      fleet_->AttachEndpoint(Url(i), endpoints_[i].get());
    }
  }

  Fleet& fleet() { return *fleet_; }

 private:
  sim::EventLoop loop_;
  std::vector<std::unique_ptr<rdf::TripleStore>> stores_;
  std::vector<std::unique_ptr<SimulatedRemoteEndpoint>> endpoints_;
  std::unique_ptr<Fleet> fleet_;
};

ExplorationWorkloadOptions SmallWorkload() {
  ExplorationWorkloadOptions options;
  options.sessions = 24;
  options.seed = 4242;
  return options;
}

// ------------------------------------------- transcript determinism gate

TEST(ExplorationServingTest, TranscriptsInvariantAcrossThreadsAndCache) {
  ServingWorld world(2);
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());

  std::vector<SessionPlan> plans =
      GenerateSessions(SmallWorkload(), kEndpoints);

  auto serve = [&](bool use_cache, size_t threads) {
    ExplorationServiceOptions options;
    options.use_layout_cache = use_cache;
    ExplorationService service(&world.fleet(), options);
    EXPECT_EQ(service.RefreshSnapshots(), kEndpoints);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    return service.RunSessions(plans, pool.get());
  };

  std::vector<SessionResult> baseline = serve(/*use_cache=*/true, 1);
  ASSERT_EQ(baseline.size(), plans.size());
  // Sessions actually exercised rendering and live queries.
  size_t renders = 0, queries = 0;
  for (const SessionResult& r : baseline) {
    ASSERT_FALSE(r.transcript.empty());
    EXPECT_EQ(r.interaction_wall_ms.size(),
              plans[r.session_id].actions.size());
    if (r.transcript.find(" geometry=") != std::string::npos) ++renders;
    if (r.transcript.find(" sparql=") != std::string::npos) ++queries;
    EXPECT_EQ(r.transcript.find("no_dataset"), std::string::npos)
        << r.transcript;
  }
  EXPECT_GT(renders, 0u);
  EXPECT_GT(queries, 0u);

  uint64_t anchor = ExplorationService::CombinedFingerprint(baseline);
  for (bool cache : {true, false}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      std::vector<SessionResult> run = serve(cache, threads);
      ASSERT_EQ(run.size(), baseline.size());
      for (size_t i = 0; i < run.size(); ++i) {
        EXPECT_EQ(run[i].transcript, baseline[i].transcript)
            << "cache=" << cache << " threads=" << threads << " session " << i;
      }
      EXPECT_EQ(ExplorationService::CombinedFingerprint(run), anchor);
    }
  }
}

TEST(ExplorationServingTest, CacheMissesAreUniqueKeysUnderConcurrency) {
  ServingWorld world(1);
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());
  std::vector<SessionPlan> plans =
      GenerateSessions(SmallWorkload(), kEndpoints);

  viz::LayoutCacheStats inline_stats, pooled_stats;
  for (int pooled = 0; pooled < 2; ++pooled) {
    ExplorationService service(&world.fleet(), {});
    ASSERT_EQ(service.RefreshSnapshots(), kEndpoints);
    std::unique_ptr<ThreadPool> pool;
    if (pooled) pool = std::make_unique<ThreadPool>(4);
    service.RunSessions(plans, pool.get());
    (pooled ? pooled_stats : inline_stats) = service.cache_stats();
  }
  // Single-flight: misses == distinct datasets rendered, independent of
  // scheduling; every other render is a hit.
  EXPECT_GT(inline_stats.misses, 0u);
  EXPECT_LE(inline_stats.misses, kEndpoints);
  EXPECT_EQ(inline_stats.misses, pooled_stats.misses);
  EXPECT_EQ(inline_stats.hits, pooled_stats.hits);
  EXPECT_EQ(inline_stats.evictions, 0u);
  EXPECT_EQ(pooled_stats.evictions, 0u);
}

TEST(ExplorationServingTest, RefreshFlushesCacheAndKeepsTranscripts) {
  ServingWorld world(1);
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());
  std::vector<SessionPlan> plans = GenerateSessions(SmallWorkload(), 1);

  ExplorationService service(&world.fleet(), {});
  ASSERT_EQ(service.RefreshSnapshots(), kEndpoints);
  uint64_t gen1 = service.generation();
  std::vector<SessionResult> first = service.RunSessions(plans, nullptr);
  viz::LayoutCacheStats before = service.cache_stats();
  EXPECT_GT(before.misses, 0u);

  // Same store content: a refresh must flush the cache (new epoch) but
  // leave the transcripts byte-identical.
  ASSERT_EQ(service.RefreshSnapshots(), kEndpoints);
  EXPECT_GT(service.generation(), gen1);
  std::vector<SessionResult> second = service.RunSessions(plans, nullptr);
  viz::LayoutCacheStats after = service.cache_stats();
  EXPECT_GT(after.epoch_flushes, before.epoch_flushes);
  EXPECT_GT(after.misses, before.misses);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].transcript, second[i].transcript);
  }
}

TEST(ExplorationServingTest, EmptyCatalogServesGracefully) {
  ServingWorld world(1);  // no simulation run: nothing persisted yet
  ExplorationService service(&world.fleet(), {});
  EXPECT_EQ(service.RefreshSnapshots(), 0u);
  std::vector<SessionPlan> plans = GenerateSessions(SmallWorkload(), 0);
  std::vector<SessionResult> results = service.RunSessions(plans, nullptr);
  ASSERT_EQ(results.size(), plans.size());
  for (const SessionResult& r : results) {
    EXPECT_NE(r.transcript.find("catalog_empty"), std::string::npos);
  }
}

// ------------------------------------------------------------ LayoutCache

TEST(LayoutCacheTest, SingleFlightComputesOncePerKey) {
  viz::LayoutCache cache(8);
  std::atomic<int> computed{0};
  auto compute = [&]() {
    computed.fetch_add(1);
    viz::LayoutSet set;
    set.geometry_fingerprint = 77;
    return set;
  };
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      auto set = cache.GetOrCompute(1, 2, compute);
      EXPECT_EQ(set->geometry_fingerprint, 77u);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computed.load(), 1);
  viz::LayoutCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(LayoutCacheTest, EvictsLeastRecentlyUsed) {
  viz::LayoutCache cache(2);
  auto make = [](uint64_t fp) {
    return [fp]() {
      viz::LayoutSet set;
      set.geometry_fingerprint = fp;
      return set;
    };
  };
  cache.GetOrCompute(1, 0, make(1));
  cache.GetOrCompute(2, 0, make(2));
  cache.GetOrCompute(1, 0, make(1));  // touch 1: now 2 is the LRU
  cache.GetOrCompute(3, 0, make(3));  // evicts 2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.GetOrCompute(1, 0, make(1));
  EXPECT_EQ(cache.stats().hits, 2u);
  cache.GetOrCompute(2, 0, make(2));  // 2 was evicted: a miss again
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(LayoutCacheTest, EpochChangeFlushes) {
  viz::LayoutCache cache(8);
  auto compute = []() { return viz::LayoutSet{}; };
  cache.SetEpoch(1);
  cache.GetOrCompute(1, 0, compute);
  cache.SetEpoch(1);  // same epoch: no flush
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().epoch_flushes, 0u);
  cache.SetEpoch(2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().epoch_flushes, 1u);
  cache.GetOrCompute(1, 0, compute);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(LayoutCacheTest, ZeroCapacityClampsToOne) {
  viz::LayoutCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  auto compute = []() { return viz::LayoutSet{}; };
  cache.GetOrCompute(1, 0, compute);
  cache.GetOrCompute(2, 0, compute);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------- readers vs. daily-cycle writers

/// The TSan hammer: presentation snapshots and serving reads race real
/// extraction cycles. Every observed state must be a complete extraction —
/// a summary that loads must decode, and its cluster schema must load too
/// (the atomic Replace contract: readers never see the gap between the
/// old document's removal and the new one's insertion).
TEST(PresentationConcurrencyTest, SnapshotReadersRaceDailyCycles) {
  ServingWorld world(2, /*fleet_workers=*/2);
  // Force daily re-extraction so every hammered day rewrites the docs.
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());

  std::atomic<bool> stop{false};
  std::atomic<size_t> observed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load()) {
        for (size_t s = 0; s < world.fleet().num_shards(); ++s) {
          Presentation pres(&world.fleet().shard_db(s));
          PresentationSnapshot snap = pres.Snapshot();
          for (const DatasetInfo& info : snap.ListDatasets()) {
            auto summary = snap.LoadSchemaSummary(info.url);
            ASSERT_TRUE(summary.ok()) << summary.status();
            EXPECT_GT(summary->NodeCount(), 0u);
            auto clusters = snap.LoadClusterSchema(info.url);
            ASSERT_TRUE(clusters.ok()) << clusters.status();
            observed.fetch_add(1);
          }
        }
      }
    });
  }

  // Writers: several daily cycles with a refresh age of 0 would need
  // option plumbing; instead drive ProcessEndpoint directly per shard so
  // every iteration rewrites summaries/clusters under the readers.
  for (int round = 0; round < 4; ++round) {
    for (size_t s = 0; s < world.fleet().num_shards(); ++s) {
      Server& server = world.fleet().shard(s);
      for (const auto& url : world.fleet().registration_order()) {
        if (world.fleet().ShardOf(url) != s) continue;
        auto report = server.ProcessEndpoint(url);
        EXPECT_TRUE(report.ok()) << report.status();
      }
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(observed.load(), 0u);
}

// ------------------------------------------------- drill-down determinism

TEST(DrilldownDeterminismTest, RepeatedQueriesAreByteIdentical) {
  ServingWorld world(1);
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());
  ExplorationService service(&world.fleet(), {});
  ASSERT_EQ(service.RefreshSnapshots(), kEndpoints);
  const DatasetSnapshot& ds = service.catalog().front();
  ASSERT_NE(ds.endpoint, nullptr);
  ASSERT_GT(ds.summary->NodeCount(), 0u);
  const std::string& iri = ds.summary->nodes()[0].iri;

  auto a = drilldown::SampleInstances(ds.endpoint, iri, 5);
  auto b = drilldown::SampleInstances(ds.endpoint, iri, 5);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(a->num_rows(), 0u);
  EXPECT_EQ(a->ToTsv(), b->ToTsv());

  auto instance = a->Cell(0, a->columns()[0]);
  ASSERT_TRUE(instance.has_value());
  auto d1 = drilldown::DescribeResource(ds.endpoint, instance->lexical());
  auto d2 = drilldown::DescribeResource(ds.endpoint, instance->lexical());
  ASSERT_TRUE(d1.ok() && d2.ok());
  EXPECT_GT(d1->num_rows(), 0u);
  EXPECT_EQ(d1->ToTsv(), d2->ToTsv());
}

// --------------------------------------- effectiveness tie-break stability

TEST(EffectivenessDeterminismTest, RepeatedTasksAgreeAcrossCopies) {
  ServingWorld world(1);
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());
  ExplorationService service(&world.fleet(), {});
  ASSERT_EQ(service.RefreshSnapshots(), kEndpoints);

  for (const DatasetSnapshot& ds : service.catalog()) {
    // Two independently decoded copies of the same dataset must agree on
    // every task outcome — the comparators behind the cluster ordering
    // are total, so ties cannot flip with sort internals.
    schema::SchemaSummary summary_copy = *ds.summary;
    cluster::ClusterSchema clusters_copy = *ds.clusters;
    EffectivenessSimulator a(*ds.summary, *ds.clusters);
    EffectivenessSimulator b(summary_copy, clusters_copy);
    for (ExplorationStrategy strategy :
         {ExplorationStrategy::kClusterFirst, ExplorationStrategy::kFlatScan}) {
      TaskOutcome pa = a.FindMostPopulatedClass(strategy);
      TaskOutcome pb = b.FindMostPopulatedClass(strategy);
      EXPECT_EQ(pa.interactions, pb.interactions);
      EXPECT_EQ(pa.success, pb.success);
      for (const schema::ClassNode& node : ds.summary->nodes()) {
        TaskOutcome fa = a.FindClassByLabel(node.label, strategy);
        TaskOutcome fb = b.FindClassByLabel(node.label, strategy);
        EXPECT_EQ(fa.interactions, fb.interactions) << node.label;
        EXPECT_EQ(fa.success, fb.success) << node.label;
      }
    }
  }
}

TEST(EffectivenessDeterminismTest, EmptyClusterSchemaIsHandled) {
  schema::SchemaSummary empty_summary;
  cluster::ClusterSchema empty_clusters;
  EffectivenessSimulator sim(empty_summary, empty_clusters);
  for (ExplorationStrategy strategy :
       {ExplorationStrategy::kClusterFirst, ExplorationStrategy::kFlatScan}) {
    TaskOutcome find = sim.FindClassByLabel("Person", strategy);
    EXPECT_FALSE(find.success);
    TaskOutcome top = sim.FindMostPopulatedClass(strategy);
    EXPECT_FALSE(top.success);
    TaskOutcome conn = sim.FindConnection(0, 1, strategy);
    EXPECT_FALSE(conn.success);
  }

  // A real summary paired with an EMPTY cluster schema: cluster-first
  // strategies fall through without crashing and stay deterministic.
  ServingWorld world(1);
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());
  ExplorationService service(&world.fleet(), {});
  ASSERT_GT(service.RefreshSnapshots(), 0u);
  const DatasetSnapshot& ds = service.catalog().front();
  EffectivenessSimulator degenerate(*ds.summary, empty_clusters);
  TaskOutcome first = degenerate.FindMostPopulatedClass(
      ExplorationStrategy::kClusterFirst);
  TaskOutcome second = degenerate.FindMostPopulatedClass(
      ExplorationStrategy::kClusterFirst);
  EXPECT_EQ(first.interactions, second.interactions);
  EXPECT_EQ(first.success, second.success);
}

// ----------------------------------------------- workload generator shape

TEST(ExplorationWorkloadTest, PlansAreSeededAndWellFormed) {
  ExplorationWorkloadOptions options = SmallWorkload();
  std::vector<SessionPlan> a = GenerateSessions(options, 8);
  std::vector<SessionPlan> b = GenerateSessions(options, 8);
  ASSERT_EQ(a.size(), options.sessions);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].dataset_rank, b[i].dataset_rank);
    ASSERT_EQ(a[i].actions.size(), b[i].actions.size());
    // Prologue: list, open, render.
    ASSERT_GE(a[i].actions.size(), 3u + options.min_steps);
    EXPECT_EQ(a[i].actions[0].kind, workload::SessionActionKind::kListDatasets);
    EXPECT_EQ(a[i].actions[1].kind, workload::SessionActionKind::kOpenDataset);
    EXPECT_EQ(a[i].actions[2].kind,
              workload::SessionActionKind::kRenderLayouts);
    for (size_t j = 0; j < a[i].actions.size(); ++j) {
      EXPECT_EQ(a[i].actions[j].kind, b[i].actions[j].kind);
      EXPECT_EQ(a[i].actions[j].pick_a, b[i].actions[j].pick_a);
    }
  }
  // Different seed: different plans.
  options.seed = 999;
  std::vector<SessionPlan> c = GenerateSessions(options, 8);
  bool any_diff = false;
  for (size_t i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = a[i].dataset_rank != c[i].dataset_rank ||
               a[i].actions.size() != c[i].actions.size();
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace hbold
