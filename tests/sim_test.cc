// Simulation-core tests: EventLoop dispatch order and tie-breaks, the
// history serialization, Process single-activation semantics, seeded
// ArrivalProcess determinism, and the fleet-on-loop contracts — event
// histories invariant across deployment shapes and the overrun-day
// catch-up cycle.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "endpoint/registry.h"
#include "endpoint/simulated_endpoint.h"
#include "hbold/fleet.h"
#include "sim/event_loop.h"
#include "workload/ld_generator.h"

namespace hbold {
namespace {

using endpoint::Dialect;
using endpoint::EndpointRecord;
using endpoint::LatencyModel;
using endpoint::SimulatedRemoteEndpoint;

// ------------------------------------------------------ event-loop units

TEST(EventLoopTest, DispatchesInTimeOrderWithStableTieBreaks) {
  sim::EventLoop loop;
  std::vector<std::string> fired;
  loop.ScheduleAt(10, sim::EventKind::kGeneric, "a",
                  [&] { fired.push_back("a"); });
  loop.ScheduleAt(5, sim::EventKind::kGeneric, "b",
                  [&] { fired.push_back("b"); });
  loop.ScheduleAt(10, sim::EventKind::kGeneric, "c",
                  [&] { fired.push_back("c"); });
  EXPECT_EQ(loop.RunUntilIdle(), 3u);
  // Time order first; the two t=10 events replay in scheduling order.
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], "b");
  EXPECT_EQ(fired[1], "a");
  EXPECT_EQ(fired[2], "c");
  EXPECT_EQ(loop.NowMs(), 10);
  ASSERT_EQ(loop.history().size(), 3u);
  EXPECT_EQ(loop.history()[0].time_ms, 5);
  EXPECT_LT(loop.history()[1].sequence, loop.history()[2].sequence);
}

TEST(EventLoopTest, RunUntilStopsAtHorizonAndAdvancesClock) {
  sim::EventLoop loop;
  int fired = 0;
  loop.ScheduleAfter(100, sim::EventKind::kGeneric, "later", [&] { ++fired; });
  EXPECT_EQ(loop.RunUntil(50), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(loop.NowMs(), 50) << "a bare fast-forward still advances time";
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_EQ(loop.RunUntil(200), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.NowMs(), 200);
}

TEST(EventLoopTest, CancelledEventsNeverDispatchOrEnterHistory) {
  sim::EventLoop loop;
  int fired = 0;
  sim::EventId id =
      loop.ScheduleAt(10, sim::EventKind::kGeneric, "x", [&] { ++fired; });
  EXPECT_TRUE(loop.IsPending(id));
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.IsPending(id));
  EXPECT_FALSE(loop.Cancel(id)) << "double cancel";
  EXPECT_EQ(loop.RunUntilIdle(), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(loop.history().empty());
}

TEST(EventLoopTest, PastTimesClampToNow) {
  sim::EventLoop loop;
  loop.RunUntil(100);
  int64_t seen = -1;
  loop.ScheduleAt(10, sim::EventKind::kGeneric, "late",
                  [&] { seen = loop.NowMs(); });
  loop.RunUntilIdle();
  EXPECT_EQ(seen, 100) << "the past is not schedulable";
}

TEST(EventLoopTest, NotesAnnotateTheCurrentInstant) {
  sim::EventLoop loop;
  loop.ScheduleAt(7, sim::EventKind::kGeneric, "outer", [&] {
    loop.Note(sim::EventKind::kThrottle, "inner");
  });
  loop.RunUntilIdle();
  ASSERT_EQ(loop.history().size(), 2u);
  EXPECT_EQ(loop.history()[1].time_ms, 7);
  EXPECT_EQ(loop.history()[1].label, "inner");
  const std::string dump = loop.HistoryDump();
  EXPECT_NE(dump.find("generic|outer"), std::string::npos);
  EXPECT_NE(dump.find("throttle|inner"), std::string::npos);
}

TEST(EventLoopTest, IdenticallyDrivenLoopsHaveIdenticalHistories) {
  auto drive = [](sim::EventLoop* loop) {
    loop->ScheduleAt(3, sim::EventKind::kCycleStart, "cycle", [loop] {
      loop->Note(sim::EventKind::kPipelineComplete, "e0");
    });
    loop->ScheduleAt(3, sim::EventKind::kGeneric, "tied", nullptr);
    loop->RunUntilIdle();
  };
  sim::EventLoop a, b;
  drive(&a);
  drive(&b);
  EXPECT_EQ(a.HistoryDump(), b.HistoryDump());
  EXPECT_EQ(a.HistoryFingerprint(), b.HistoryFingerprint());
  EXPECT_EQ(a.HistoryFingerprint().size(), 16u);
}

TEST(ProcessTest, ReactivationReplacesThePendingActivation) {
  sim::EventLoop loop;
  std::vector<int64_t> fired_at;
  sim::Process p(&loop, sim::EventKind::kCycleStart, "proc");
  p.ActivateAt(10, [&] { fired_at.push_back(loop.NowMs()); });
  p.ActivateAt(20, [&] { fired_at.push_back(loop.NowMs()); });
  EXPECT_TRUE(p.active());
  loop.RunUntilIdle();
  // Only the second activation fired: a process owns one pending event.
  ASSERT_EQ(fired_at.size(), 1u);
  EXPECT_EQ(fired_at[0], 20);
  EXPECT_FALSE(p.active());
}

TEST(ProcessTest, DestructionCancelsThePendingActivation) {
  sim::EventLoop loop;
  int fired = 0;
  {
    sim::Process p(&loop, sim::EventKind::kGeneric, "doomed");
    p.ActivateAt(5, [&] { ++fired; });
  }
  EXPECT_EQ(loop.RunUntilIdle(), 0u);
  EXPECT_EQ(fired, 0) << "an activity must not fire into a destroyed owner";
}

TEST(ArrivalProcessTest, IndexAddressedAndSeedDeterministic) {
  sim::ArrivalProcess a(42, 1000.0);
  sim::ArrivalProcess same(42, 1000.0);
  sim::ArrivalProcess other(43, 1000.0);
  bool any_diff = false;
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_GE(a.GapMs(i), 1) << "gaps are at least 1ms";
    EXPECT_EQ(a.GapMs(i), same.GapMs(i)) << "same seed, same draw " << i;
    any_diff = any_diff || a.GapMs(i) != other.GapMs(i);
  }
  EXPECT_TRUE(any_diff) << "different seeds should differ somewhere";

  // ArrivalsIn is the cumulative sum of the indexed gaps.
  std::vector<int64_t> times = a.ArrivalsIn(100, 10000);
  ASSERT_FALSE(times.empty());
  int64_t expect = 100;
  for (size_t i = 0; i < times.size(); ++i) {
    expect += a.GapMs(i);
    EXPECT_EQ(times[i], expect);
    EXPECT_LT(times[i], 10000);
  }
}

// ---------------------------------------------------- fleet on the loop

constexpr size_t kEndpoints = 4;

std::string WorldUrl(size_t i) {
  return "http://sim" + std::to_string(i) + ".example.org/sparql";
}

std::vector<std::unique_ptr<rdf::TripleStore>> BuildWorldStores() {
  std::vector<std::unique_ptr<rdf::TripleStore>> stores;
  for (size_t i = 0; i < kEndpoints; ++i) {
    auto store = std::make_unique<rdf::TripleStore>();
    workload::SyntheticLdConfig config;
    config.namespace_iri = WorldUrl(i).substr(0, WorldUrl(i).size() - 6);
    config.num_classes = 3 + i;
    config.max_instances_per_class = 8;
    config.seed = 900 + i;
    workload::GenerateSyntheticLd(config, store.get());
    stores.push_back(std::move(store));
  }
  return stores;
}

/// A compact seeded world on one EventLoop. Endpoints read time through
/// the loop's clock.
class SimWorld {
 public:
  SimWorld(const std::vector<std::unique_ptr<rdf::TripleStore>>& stores,
           const FleetOptions& options, const LatencyModel& latency = {}) {
    fleet_ = std::make_unique<Fleet>(&loop_, options);
    for (size_t i = 0; i < kEndpoints; ++i) {
      endpoints_.push_back(std::make_unique<SimulatedRemoteEndpoint>(
          WorldUrl(i), "Sim " + std::to_string(i), stores[i].get(),
          loop_.clock(), Dialect::Full(), endpoint::AvailabilityModel{},
          latency));
      EndpointRecord record;
      record.url = WorldUrl(i);
      record.name = endpoints_[i]->name();
      fleet_->RegisterEndpoint(record);
      fleet_->AttachEndpoint(WorldUrl(i), endpoints_[i].get());
    }
  }

  sim::EventLoop& loop() { return loop_; }
  Fleet& fleet() { return *fleet_; }

 private:
  sim::EventLoop loop_;
  std::vector<std::unique_ptr<SimulatedRemoteEndpoint>> endpoints_;
  std::unique_ptr<Fleet> fleet_;
};

FleetOptions Deployment(int shards, int parallelism, int width) {
  FleetOptions options;
  options.num_shards = shards;
  options.server.parallelism = parallelism;
  options.server.query_batch_width = width;
  if (shards == 1 && parallelism == 1) options.fleet_workers = 1;
  return options;
}

TEST(SimFleetTest, EventHistoryInvariantAcrossDeployments) {
  auto stores = BuildWorldStores();
  constexpr int64_t kDays = 3;

  SimWorld baseline(stores, Deployment(1, 1, 1));
  FleetReport base_report = baseline.fleet().RunSimulation(kDays);
  const std::string base_history = baseline.loop().HistoryDump();
  ASSERT_EQ(base_report.days.size(), static_cast<size_t>(kDays));
  // The history must actually contain the full event taxonomy chain.
  for (const char* needle :
       {"day-boundary", "churn", "cycle-start", "pipeline-complete",
        "cycle-complete"}) {
    EXPECT_NE(base_history.find(needle), std::string::npos) << needle;
  }

  struct Shape {
    int shards, parallelism, width;
  };
  for (const Shape& s : {Shape{2, 1, 1}, Shape{2, 4, 2}, Shape{4, 4, 4}}) {
    SCOPED_TRACE("shards=" + std::to_string(s.shards) +
                 " parallelism=" + std::to_string(s.parallelism) +
                 " width=" + std::to_string(s.width));
    SimWorld world(stores, Deployment(s.shards, s.parallelism, s.width));
    FleetReport report = world.fleet().RunSimulation(kDays);
    EXPECT_EQ(report.CanonicalDump(), base_report.CanonicalDump());
    EXPECT_EQ(world.loop().HistoryDump(), base_history)
        << "event histories are part of the determinism contract";
  }
}

TEST(SimFleetTest, OverrunDayRunsCatchUpCycleDeploymentInvariantly) {
  auto stores = BuildWorldStores();
  // Price every query so high that one cycle's canonical makespan on the
  // fleet's four virtual workers dwarfs a simulated day.
  LatencyModel slow;
  slow.base_ms = 8e6;
  constexpr int64_t kDays = 3;

  SimWorld baseline(stores, Deployment(1, 1, 1), slow);
  FleetReport base_report = baseline.fleet().RunSimulation(kDays);
  const std::string base_history = baseline.loop().HistoryDump();
  ASSERT_EQ(base_report.days.size(), static_cast<size_t>(kDays));
  EXPECT_TRUE(base_report.days[0].overran_day);
  EXPECT_GT(base_report.days[0].sim_makespan_ms,
            static_cast<double>(SimClock::kMillisPerDay));
  // Catch-up semantics: the next cycle started immediately after the
  // overrun, so its day index is past day 0 and strictly increasing.
  EXPECT_GT(base_report.days[1].day, 0);
  EXPECT_GT(base_report.days[2].day, base_report.days[1].day);

  // Overrun scheduling is priced on the canonical ledger, so the whole
  // catch-up history is byte-identical across deployment shapes.
  for (int shards : {2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    SimWorld world(stores, Deployment(shards, 4, 2),
                   slow);
    FleetReport report = world.fleet().RunSimulation(kDays);
    EXPECT_EQ(report.CanonicalDump(), base_report.CanonicalDump());
    EXPECT_EQ(world.loop().HistoryDump(), base_history);
  }
}

}  // namespace
}  // namespace hbold
