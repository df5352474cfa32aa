// Fleet-layer tests: stable sharding, the multi-day determinism property
// (canonical history and persisted artifacts are byte-identical across
// shard counts, parallelism, and batching), seeded churn semantics
// (arrivals schedulable the NEXT day, deaths retried daily), the
// clock-advance contract, the inline claim order,
// the fleet counters as shard sums, and the RefreshScheduler mid-cycle
// pickup regression.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "endpoint/registry.h"
#include "endpoint/simulated_endpoint.h"
#include "extraction/scheduler.h"
#include "hbold/fleet.h"
#include "hbold/server.h"
#include "store/database.h"
#include "workload/ld_generator.h"

namespace hbold {
namespace {

using endpoint::AvailabilityModel;
using endpoint::Dialect;
using endpoint::EndpointRecord;
using endpoint::EndpointRegistry;
using endpoint::SimulatedRemoteEndpoint;
using extraction::RefreshScheduler;

constexpr size_t kBaseEndpoints = 10;   // last one registered, never attached
constexpr size_t kLatentEndpoints = 2;  // churn in on day 0 (processed day 1)
constexpr double kDeathProbability = 0.08;
constexpr uint64_t kChurnSeed = 77;

/// Canonical view of one collection's persisted content (same idiom as
/// async_extraction_test): endpoint_url -> dump with the
/// insertion-order-dependent _id normalized away.
std::map<std::string, std::string> CanonicalCollection(
    const store::Database& db, const std::string& collection) {
  std::map<std::string, std::string> canonical;
  const store::Collection* c = db.FindCollection(collection);
  if (c == nullptr) return canonical;
  for (const store::DocHandle& stored : c->Snapshot()) {
    store::Document doc = *stored;
    std::string url = doc.GetString("endpoint_url");
    doc.Set("_id", 0);
    canonical[url] = doc.Dump();
  }
  return canonical;
}

/// Union of a collection across every shard's database. Each endpoint
/// lives in exactly one shard, so the union is key-disjoint and directly
/// comparable to a 1-shard run's collection.
std::map<std::string, std::string> MergedCanonicalCollection(
    const Fleet& fleet, const std::string& collection) {
  std::map<std::string, std::string> merged;
  for (size_t s = 0; s < fleet.num_shards(); ++s) {
    for (auto& [url, dump] : CanonicalCollection(fleet.shard_db(s),
                                                 collection)) {
      merged.emplace(url, dump);
    }
  }
  return merged;
}

/// A throttling proxy: the backing store answers, but anything with a
/// GROUP BY blows the simulated work budget — so the efficient
/// direct-aggregation strategy times out (one throttle event) and the
/// extractor lands on per-class counting. Deterministic by construction.
class GroupByThrottlingEndpoint : public endpoint::SparqlEndpoint {
 public:
  explicit GroupByThrottlingEndpoint(endpoint::SparqlEndpoint* inner)
      : inner_(inner) {}

  Result<endpoint::QueryOutcome> Query(const std::string& q) override {
    if (q.find("GROUP BY") != std::string::npos) {
      return Status::Timeout("simulated throttling on " + inner_->url());
    }
    return inner_->Query(q);
  }
  const std::string& url() const override { return inner_->url(); }
  const std::string& name() const override { return inner_->name(); }
  size_t queries_served() const override { return inner_->queries_served(); }

 private:
  endpoint::SparqlEndpoint* inner_;
};

/// Forwards queries to `inner` and logs its URL each time a different
/// endpoint starts answering — on an inline fleet, the order the
/// pipelines ran in.
class RecordingEndpoint : public endpoint::SparqlEndpoint {
 public:
  RecordingEndpoint(endpoint::SparqlEndpoint* inner,
                    std::vector<std::string>* log)
      : inner_(inner), log_(log) {}

  Result<endpoint::QueryOutcome> Query(const std::string& q) override {
    if (log_->empty() || log_->back() != inner_->url()) {
      log_->push_back(inner_->url());
    }
    return inner_->Query(q);
  }
  const std::string& url() const override { return inner_->url(); }
  const std::string& name() const override { return inner_->name(); }
  size_t queries_served() const override { return inner_->queries_served(); }

 private:
  endpoint::SparqlEndpoint* inner_;
  std::vector<std::string>* log_;
};

/// One seeded simulated world: stores are shared across configurations
/// (content is immutable), endpoints are rebuilt per run because they
/// bind to the run's loop.
class FleetWorld {
 public:
  /// Builds the shared stores once.
  static std::vector<std::unique_ptr<rdf::TripleStore>> BuildStores() {
    std::vector<std::unique_ptr<rdf::TripleStore>> stores;
    for (size_t i = 0; i < kBaseEndpoints + kLatentEndpoints; ++i) {
      auto store = std::make_unique<rdf::TripleStore>();
      workload::SyntheticLdConfig config;
      config.namespace_iri = Url(i).substr(0, Url(i).size() - 6);  // strip "sparql"
      config.num_classes = 5 + i * 2;
      config.max_instances_per_class = 20;
      config.seed = 1400 + i;
      workload::GenerateSyntheticLd(config, store.get());
      stores.push_back(std::move(store));
    }
    return stores;
  }

  static std::string Url(size_t i) {
    return "http://fleet" + std::to_string(i) + ".example.org/sparql";
  }

  explicit FleetWorld(const std::vector<std::unique_ptr<rdf::TripleStore>>&
                          stores,
                      FleetOptions options) {
    options.churn.death_probability = kDeathProbability;
    options.churn.seed = kChurnSeed;
    fleet_ = std::make_unique<Fleet>(&loop_, options);
    for (size_t i = 0; i < kBaseEndpoints + kLatentEndpoints; ++i) {
      Dialect dialect = Dialect::Full();
      if (i % 4 == 1) dialect = Dialect::NoGroupBy();
      if (i % 4 == 2) dialect = Dialect::NoAggregates();
      if (i % 4 == 3) dialect = Dialect::RowCapped(64);
      AvailabilityModel availability;
      if (i == 8) availability.forced_outage_days = {0};  // flaps on day 0
      if (i == 7) dialect = Dialect::Full();  // throttled via proxy below
      endpoints_.push_back(std::make_unique<SimulatedRemoteEndpoint>(
          Url(i), "Fleet " + std::to_string(i), stores[i].get(), loop_.clock(),
          dialect, availability));
    }
    throttler_ = std::make_unique<GroupByThrottlingEndpoint>(
        endpoints_[7].get());
    for (size_t i = 0; i < kBaseEndpoints; ++i) {
      EndpointRecord record;
      record.url = Url(i);
      record.name = endpoints_[i]->name();
      fleet_->RegisterEndpoint(record);
      if (i + 1 < kBaseEndpoints) {
        // The last base endpoint has no route: a permanent §3.1 failure
        // retried every day. Endpoint 7 answers through the throttling
        // proxy so every extraction reports throttle pressure.
        fleet_->AttachEndpoint(
            Url(i), i == 7
                        ? static_cast<endpoint::SparqlEndpoint*>(
                              throttler_.get())
                        : endpoints_[i].get());
      }
    }
    for (size_t i = kBaseEndpoints; i < kBaseEndpoints + kLatentEndpoints;
         ++i) {
      EndpointRecord record;
      record.url = Url(i);
      record.name = endpoints_[i]->name();
      fleet_->churn().ScheduleArrival(/*day=*/0, std::move(record),
                                      endpoints_[i].get());
    }
  }

  Fleet& fleet() { return *fleet_; }
  const sim::EventLoop& loop() const { return loop_; }

  /// One simulated day: schedules a single cycle at the current instant,
  /// drains the loop, and takes that day's report.
  FleetDayReport NextDay() {
    fleet_->ScheduleCycles(1);
    loop_.RunUntilIdle();
    return fleet_->TakeReport().days.at(0);
  }

 private:
  sim::EventLoop loop_;
  std::vector<std::unique_ptr<SimulatedRemoteEndpoint>> endpoints_;
  std::unique_ptr<GroupByThrottlingEndpoint> throttler_;
  std::unique_ptr<Fleet> fleet_;
};

class FleetSimulationTest : public ::testing::Test {
 protected:
  void SetUp() override { stores_ = FleetWorld::BuildStores(); }

  FleetOptions Config(int shards, int parallelism, int width) {
    FleetOptions options;
    options.num_shards = shards;
    options.server.parallelism = parallelism;
    options.server.query_batch_width = width;
    if (shards == 1 && parallelism == 1) options.fleet_workers = 1;
    return options;
  }

  std::vector<std::unique_ptr<rdf::TripleStore>> stores_;
};

// ------------------------------------------------------------- sharding

TEST_F(FleetSimulationTest, ShardAssignmentStableAndPartitioned) {
  FleetWorld a(stores_, Config(4, 1, 1));
  FleetWorld b(stores_, Config(4, 1, 1));
  size_t total = 0;
  std::set<size_t> used;
  for (size_t i = 0; i < kBaseEndpoints; ++i) {
    const std::string url = FleetWorld::Url(i);
    EXPECT_EQ(a.fleet().ShardOf(url), b.fleet().ShardOf(url)) << url;
    used.insert(a.fleet().ShardOf(url));
  }
  for (size_t s = 0; s < a.fleet().num_shards(); ++s) {
    total += a.fleet().shard(s).registry().size();
  }
  EXPECT_EQ(total, kBaseEndpoints);
  // 10 urls over 4 shards: the stable hash should actually spread them.
  EXPECT_GE(used.size(), 2u);
  EXPECT_EQ(a.fleet().registration_order().size(), kBaseEndpoints);
}

// ------------------------------------------------- the determinism gate

TEST_F(FleetSimulationTest, CanonicalHistoryInvariantAcrossDeployments) {
  constexpr int64_t kDays = 4;
  FleetWorld baseline_world(stores_, Config(1, 1, 1));
  FleetReport baseline = baseline_world.fleet().RunSimulation(kDays);
  const std::string baseline_dump = baseline.CanonicalDump();
  auto baseline_summaries =
      MergedCanonicalCollection(baseline_world.fleet(), kSummariesCollection);
  auto baseline_clusters =
      MergedCanonicalCollection(baseline_world.fleet(), kClustersCollection);
  ASSERT_EQ(baseline.days.size(), static_cast<size_t>(kDays));
  // The world must actually exercise the interesting machinery.
  EXPECT_EQ(baseline.days[0].arrivals, kLatentEndpoints);
  EXPECT_GE(baseline.days[0].failed, 1u);  // the unattached endpoint
  size_t total_deaths = 0;
  size_t total_throttle_events = 0;
  for (const auto& day : baseline.days) {
    total_deaths += day.deaths;
    EXPECT_FALSE(day.overran_day);
    for (const DueOutcome& o : day.outcomes) {
      total_throttle_events += o.throttle_events;
    }
  }
  EXPECT_GE(total_deaths, 1u) << "churn seed produced no deaths; the "
                                 "differential test would not cover them";
  EXPECT_GE(total_throttle_events, 1u)
      << "the throttling proxy reported no throttle_events";
  ASSERT_GE(baseline_summaries.size(), kBaseEndpoints - 2);

  struct Deployment {
    int shards, parallelism, width;
  };
  const Deployment deployments[] = {
      {2, 1, 1}, {4, 1, 1}, {4, 4, 1}, {2, 4, 4}, {4, 1, 4}, {4, 4, 4},
  };
  for (const Deployment& dep : deployments) {
    SCOPED_TRACE("shards=" + std::to_string(dep.shards) +
                 " parallelism=" + std::to_string(dep.parallelism) +
                 " width=" + std::to_string(dep.width));
    FleetWorld world(stores_, Config(dep.shards, dep.parallelism, dep.width));
    FleetReport report = world.fleet().RunSimulation(kDays);
    EXPECT_EQ(report.CanonicalDump(), baseline_dump);
    EXPECT_EQ(report.Fingerprint(), baseline.Fingerprint());
    EXPECT_EQ(MergedCanonicalCollection(world.fleet(), kSummariesCollection),
              baseline_summaries);
    EXPECT_EQ(MergedCanonicalCollection(world.fleet(), kClustersCollection),
              baseline_clusters);
  }
}

TEST_F(FleetSimulationTest, RepeatedRunsBitIdenticalIncludingDurations) {
  FleetWorld a(stores_, Config(4, 4, 4));
  FleetWorld b(stores_, Config(4, 4, 4));
  FleetReport ra = a.fleet().RunSimulation(3);
  FleetReport rb = b.fleet().RunSimulation(3);
  ASSERT_EQ(ra.days.size(), rb.days.size());
  EXPECT_EQ(ra.CanonicalDump(), rb.CanonicalDump());
  for (size_t d = 0; d < ra.days.size(); ++d) {
    // Same deployment => even the duration figures are bit-identical.
    EXPECT_EQ(ra.days[d].fleet_makespan_ms, rb.days[d].fleet_makespan_ms);
  }
}

// ------------------------------------------- parallel data-day advance

/// A churning 2-shard world with stores of its own: its endpoints mutate
/// their data every day (triples, class births, class retirements), so
/// each run needs fresh stores.
class ChurningWorld {
 public:
  static constexpr size_t kEndpoints = 10;

  explicit ChurningWorld(size_t fleet_workers) {
    FleetOptions options;
    options.num_shards = 2;
    options.server.parallelism = 2;
    options.server.refresh_age_days = 1;
    options.server.incremental.mode = IncrementalMode::kBounded;
    options.fleet_workers = fleet_workers;
    fleet_ = std::make_unique<Fleet>(&loop_, options);
    for (size_t i = 0; i < kEndpoints; ++i) {
      const std::string url =
          "http://churn" + std::to_string(i) + ".example.org/sparql";
      auto store = std::make_unique<rdf::TripleStore>();
      workload::SyntheticLdConfig config;
      config.namespace_iri = url.substr(0, url.size() - 6);
      config.num_classes = 4 + i;
      config.max_instances_per_class = 15;
      config.seed = 3100 + i;
      workload::GenerateSyntheticLd(config, store.get());
      endpoint::MutationModel mutation;
      mutation.daily_churn_fraction = 0.05;
      mutation.class_birth_probability = 0.3;
      mutation.class_retire_probability = 0.2;
      mutation.seed = 4100 + i * 7919;
      endpoints_.push_back(std::make_unique<SimulatedRemoteEndpoint>(
          url, "Churn " + std::to_string(i), store.get(), loop_.clock(),
          Dialect::Full(), AvailabilityModel{}, endpoint::LatencyModel{},
          mutation));
      stores_.push_back(std::move(store));
      EndpointRecord record;
      record.url = url;
      record.name = endpoints_.back()->name();
      fleet_->RegisterEndpoint(record);
      fleet_->AttachEndpoint(url, endpoints_.back().get());
    }
  }

  Fleet& fleet() { return *fleet_; }

  std::vector<uint64_t> Generations() const {
    std::vector<uint64_t> out;
    for (const auto& store : stores_) out.push_back(store->generation());
    return out;
  }

 private:
  sim::EventLoop loop_;
  std::vector<std::unique_ptr<rdf::TripleStore>> stores_;
  std::vector<std::unique_ptr<SimulatedRemoteEndpoint>> endpoints_;
  std::unique_ptr<Fleet> fleet_;
};

/// A shard database's content with the `_id`s normalized away: pipelines
/// that finish in a different order insert their documents in a different
/// order, so only the ids may differ across pool sizes. Collection name ->
/// sorted document dumps.
std::map<std::string, std::vector<std::string>> ShardContent(
    const store::Database& db) {
  std::map<std::string, std::vector<std::string>> content;
  for (const std::string& name : db.CollectionNames()) {
    std::vector<std::string>& docs = content[name];
    for (const store::DocHandle& stored :
         db.FindCollection(name)->Snapshot()) {
      store::Document doc = *stored;
      doc.Set("_id", 0);
      docs.push_back(doc.Dump());
    }
    std::sort(docs.begin(), docs.end());
  }
  return content;
}

TEST(FleetDataDayTest, ParallelAdvanceMatchesInlineRun) {
  constexpr int64_t kDays = 6;
  ChurningWorld inline_world(/*fleet_workers=*/1);
  ChurningWorld pooled_world(/*fleet_workers=*/4);
  const std::vector<uint64_t> initial = inline_world.Generations();
  const FleetReport inline_report = inline_world.fleet().RunSimulation(kDays);
  const FleetReport pooled_report = pooled_world.fleet().RunSimulation(kDays);

  EXPECT_EQ(pooled_report.Fingerprint(), inline_report.Fingerprint());
  EXPECT_EQ(pooled_report.CanonicalDump(), inline_report.CanonicalDump());
  EXPECT_EQ(pooled_world.Generations(), inline_world.Generations());
  bool class_born = false;
  for (size_t s = 0; s < 2; ++s) {
    const auto content = ShardContent(inline_world.fleet().shard_db(s));
    EXPECT_EQ(ShardContent(pooled_world.fleet().shard_db(s)), content)
        << "shard " << s;
    for (const std::string& doc : content.at(kClustersCollection)) {
      class_born = class_born || doc.find("class-born-d") != std::string::npos;
    }
  }
  // The world must actually churn, births included.
  const std::vector<uint64_t> final_generations = inline_world.Generations();
  size_t moved = 0;
  for (size_t i = 0; i < initial.size(); ++i) {
    if (final_generations[i] != initial[i]) ++moved;
  }
  EXPECT_EQ(moved, ChurningWorld::kEndpoints);
  EXPECT_TRUE(class_born);
}

// ------------------------------------------------- claim order, counters

TEST_F(FleetSimulationTest, InlineFleetRunsPipelinesInRegistrationOrder) {
  sim::EventLoop loop;
  FleetOptions options;
  options.num_shards = 2;
  options.fleet_workers = 1;
  Fleet fleet(&loop, options);
  std::vector<std::string> ran;
  std::vector<std::unique_ptr<SimulatedRemoteEndpoint>> endpoints;
  std::vector<std::unique_ptr<RecordingEndpoint>> recorders;
  for (size_t i = 0; i < kBaseEndpoints; ++i) {
    const std::string url = FleetWorld::Url(i);
    endpoints.push_back(std::make_unique<SimulatedRemoteEndpoint>(
        url, "Fleet " + std::to_string(i), stores_[i].get(), loop.clock()));
    recorders.push_back(
        std::make_unique<RecordingEndpoint>(endpoints.back().get(), &ran));
    EndpointRecord record;
    record.url = url;
    ASSERT_TRUE(fleet.RegisterEndpoint(record));
    fleet.AttachEndpoint(url, recorders.back().get());
  }
  FleetReport report = fleet.RunSimulation(1);
  ASSERT_EQ(report.days.at(0).succeeded, kBaseEndpoints);
  EXPECT_EQ(ran, fleet.registration_order());
  // The registration order interleaves the shards, so running shard by
  // shard could not match it.
  std::vector<std::string> shard_major = fleet.registration_order();
  std::stable_sort(shard_major.begin(), shard_major.end(),
                   [&](const std::string& a, const std::string& b) {
                     return fleet.ShardOf(a) < fleet.ShardOf(b);
                   });
  EXPECT_NE(shard_major, fleet.registration_order());
}

TEST_F(FleetSimulationTest, DayCountersAreTheSumOfShardCounters) {
  FleetOptions options = Config(4, 2, 2);
  options.server.incremental.mode = IncrementalMode::kBounded;
  FleetWorld world(stores_, options);
  FleetReport report = world.fleet().RunSimulation(9);
  constexpr size_t CycleCounters::*kSizes[] = {
      &CycleCounters::due,
      &CycleCounters::succeeded,
      &CycleCounters::failed,
      &CycleCounters::reused,
      &CycleCounters::probes,
      &CycleCounters::probe_skips,
      &CycleCounters::delta_extractions,
      &CycleCounters::probe_mismatches,
      &CycleCounters::forced_refreshes,
      &CycleCounters::quarantines_entered,
      &CycleCounters::quarantines_exited,
  };
  constexpr uint64_t CycleCounters::*kEngine[] = {
      &CycleCounters::plan_cache_hits,
      &CycleCounters::plan_cache_misses,
  };
  size_t probes = 0;
  size_t histogram_days = 0;
  for (const FleetDayReport& day : report.days) {
    SCOPED_TRACE("day " + std::to_string(day.day));
    ASSERT_EQ(day.shard_reports.size(), 4u);
    for (size_t CycleCounters::*field : kSizes) {
      size_t sum = 0;
      for (const DailyReport& s : day.shard_reports) sum += s.*field;
      EXPECT_EQ(day.*field, sum);
    }
    for (uint64_t CycleCounters::*field : kEngine) {
      uint64_t sum = 0;
      for (const DailyReport& s : day.shard_reports) sum += s.*field;
      EXPECT_EQ(day.*field, sum);
    }
    std::map<int64_t, size_t> histogram;
    for (const DailyReport& s : day.shard_reports) {
      for (const auto& [days_stale, n] : s.staleness_histogram) {
        histogram[days_stale] += n;
      }
    }
    EXPECT_EQ(day.staleness_histogram, histogram);
    // The counters describe the merged lists.
    EXPECT_EQ(day.due, day.outcomes.size());
    EXPECT_EQ(day.succeeded, day.reports.size());
    probes += day.probes;
    histogram_days += day.staleness_histogram.empty() ? 0 : 1;
  }
  EXPECT_GT(probes, 0u);
  EXPECT_GT(histogram_days, 0u);
}

// ------------------------------------------------------- clock contract

TEST_F(FleetSimulationTest, ClockAdvancesByMakespanThenSnapsToDayBoundary) {
  FleetWorld world(stores_, Config(2, 1, 1));
  EXPECT_EQ(world.loop().NowDay(), 0);
  FleetDayReport day0 = world.NextDay();
  EXPECT_EQ(day0.day, 0);
  EXPECT_GT(day0.fleet_makespan_ms, 0);
  double max_shard = 0;
  for (const DailyReport& s : day0.shard_reports) {
    max_shard = std::max(max_shard, s.batched_makespan_ms);
  }
  EXPECT_EQ(day0.fleet_makespan_ms, max_shard);
  // The makespan is far under a simulated day, so the clock snapped to
  // the next boundary exactly.
  EXPECT_FALSE(day0.overran_day);
  EXPECT_EQ(world.loop().NowMs(), SimClock::kMillisPerDay);
  EXPECT_EQ(world.loop().NowDay(), 1);
}

// ---------------------------------------------------------------- churn

TEST_F(FleetSimulationTest, ChurnArrivalsPickedUpNextDayNotSameDay) {
  FleetWorld world(stores_, Config(2, 1, 1));
  FleetDayReport day0 = world.NextDay();
  EXPECT_EQ(day0.arrivals, kLatentEndpoints);
  std::set<std::string> day0_urls;
  for (const DueOutcome& o : day0.outcomes) day0_urls.insert(o.url);
  const std::string latent = FleetWorld::Url(kBaseEndpoints);
  EXPECT_EQ(day0_urls.count(latent), 0u)
      << "an endpoint that churned in on day 0 must not be extracted on "
         "day 0";

  FleetDayReport day1 = world.NextDay();
  std::set<std::string> day1_urls;
  for (const DueOutcome& o : day1.outcomes) day1_urls.insert(o.url);
  EXPECT_EQ(day1_urls.count(latent), 1u)
      << "the day-0 arrival must be deterministically picked up on day 1";
}

TEST_F(FleetSimulationTest, DeadEndpointsFailAndRetryDaily) {
  FleetWorld world(stores_, Config(2, 1, 1));
  FleetReport report = world.fleet().RunSimulation(4);
  // Find the first death and check the url keeps failing afterwards.
  std::string victim;
  size_t death_day = 0;
  for (size_t d = 0; d < report.days.size() && victim.empty(); ++d) {
    if (report.days[d].deaths == 0) continue;
    death_day = d;
    // The victim shows up as a newly failing, previously succeeding url.
    for (const DueOutcome& o : report.days[d].outcomes) {
      if (!o.succeeded && o.url != FleetWorld::Url(kBaseEndpoints - 1)) {
        victim = o.url;
        break;
      }
    }
  }
  ASSERT_FALSE(victim.empty()) << "no death in 4 days with this seed";
  for (size_t d = death_day; d < report.days.size(); ++d) {
    bool found = false;
    for (const DueOutcome& o : report.days[d].outcomes) {
      if (o.url == victim) {
        EXPECT_FALSE(o.succeeded) << "day " << d;
        found = true;
      }
    }
    EXPECT_TRUE(found) << "a dead endpoint must be retried daily (day " << d
                       << ")";
  }
}

// ------------------------------- RefreshScheduler mid-cycle regression

TEST(SchedulerMidCycleTest, FirstEligibleDayDefersBothDuePaths) {
  RefreshScheduler scheduler(7);
  EndpointRegistry registry;
  EndpointRecord seed;
  seed.url = "http://seed/sparql";
  registry.Add(seed);

  // Mid-cycle on day 3: a crawler (or churn) adds a record. The next-day
  // eligibility horizon makes both due paths skip it today...
  EndpointRecord newcomer;
  newcomer.url = "http://new/sparql";
  newcomer.added_day = 3;
  newcomer.first_eligible_day = 4;
  registry.Add(newcomer);

  std::vector<std::string> live = scheduler.DueToday(registry, 3);
  std::vector<std::string> snap = scheduler.DueToday(registry.Snapshot(), 3);
  EXPECT_EQ(live, snap);
  EXPECT_EQ(live, std::vector<std::string>{"http://seed/sparql"});

  // ...and deterministically include it the next simulated day.
  live = scheduler.DueToday(registry, 4);
  snap = scheduler.DueToday(registry.Snapshot(), 4);
  EXPECT_EQ(live, snap);
  EXPECT_EQ(live, (std::vector<std::string>{"http://seed/sparql",
                                            "http://new/sparql"}));
}

TEST(SchedulerMidCycleTest, LegacyRecordsWithoutHorizonStayImmediate) {
  RefreshScheduler scheduler(7);
  EndpointRecord legacy;
  legacy.url = "http://old/sparql";
  legacy.added_day = 5;  // default first_eligible_day = -1
  EXPECT_TRUE(scheduler.IsDue(legacy, 5));
}

TEST(SchedulerMidCycleTest, FirstEligibleDayRoundTripsThroughJson) {
  EndpointRecord record;
  record.url = "http://r/sparql";
  record.first_eligible_day = 12;
  EndpointRecord reloaded = EndpointRecord::FromJson(record.ToJson());
  EXPECT_EQ(reloaded.first_eligible_day, 12);

  // Registries persisted before the field existed load as "immediately".
  Json old = record.ToJson();
  Json stripped = Json::MakeObject();
  stripped.Set("url", "http://r/sparql");
  stripped.Set("added_day", static_cast<int64_t>(3));
  EXPECT_EQ(EndpointRecord::FromJson(stripped).first_eligible_day, -1);
}

}  // namespace
}  // namespace hbold
