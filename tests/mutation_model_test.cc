// Mutation-model and TripleStore-removal tests: staged retractions,
// removal-wins-over-add batch semantics, the seeded per-day mutation
// model's determinism (bit-identical stores across deployment shapes and
// batching on/off), generation movement iff data moved, and the change
// probe protocol.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "endpoint/simulated_endpoint.h"
#include "hbold/server.h"
#include "rdf/graph.h"
#include "rdf/vocab.h"
#include "store/database.h"
#include "workload/ld_generator.h"

namespace hbold {
namespace {

using endpoint::ChangeProbe;
using endpoint::MutationModel;
using endpoint::SimulatedRemoteEndpoint;
using rdf::Term;
using rdf::TriplePattern;

/// Canonical lexical dump of every triple, in SPO index order — the
/// bit-identity comparator for two stores.
std::string DumpStore(const rdf::TripleStore& store) {
  std::string out;
  for (const rdf::Triple& t : store.Span(TriplePattern{})) {
    out += store.dict().Get(t.s).lexical();
    out += ' ';
    out += store.dict().Get(t.p).lexical();
    out += ' ';
    out += store.dict().Get(t.o).lexical();
    out += '\n';
  }
  return out;
}

void BuildLd(rdf::TripleStore* store, uint64_t seed) {
  workload::SyntheticLdConfig config;
  config.namespace_iri = "http://mut.example.org/";
  config.num_classes = 12;
  config.max_instances_per_class = 30;
  config.seed = seed;
  workload::GenerateSyntheticLd(config, store);
}

// ------------------------------------------------------ staged removals

TEST(TripleStoreRemovalTest, RemoveDropsTriple) {
  rdf::TripleStore store;
  store.Add(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
            Term::Iri("http://x/o"));
  store.Add(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
            Term::Iri("http://x/o2"));
  ASSERT_EQ(store.size(), 2u);
  store.Remove(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
               Term::Iri("http://x/o"));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.Contains(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
                              Term::Iri("http://x/o")));
  EXPECT_TRUE(store.Contains(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
                             Term::Iri("http://x/o2")));
}

TEST(TripleStoreRemovalTest, RemovingAbsentTripleIsNoOp) {
  rdf::TripleStore store;
  store.Add(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
            Term::Iri("http://x/o"));
  store.Remove(Term::Iri("http://x/other"), Term::Iri("http://x/p"),
               Term::Iri("http://x/o"));
  EXPECT_EQ(store.size(), 1u);
  // The removal interned its terms anyway: id assignment stays a pure
  // function of term-arrival order, present or not.
  EXPECT_NE(store.dict().Lookup(Term::Iri("http://x/other")),
            rdf::kInvalidTermId);
}

TEST(TripleStoreRemovalTest, RemovalWinsOverAddInSameBatch) {
  rdf::TripleStore store;
  store.Add(Term::Iri("http://x/keep"), Term::Iri("http://x/p"),
            Term::Iri("http://x/o"));
  store.FinalizeIndex();
  // One staged batch describing a day's end state: the triple both added
  // and retracted must end up absent.
  store.Add(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
            Term::Iri("http://x/o"));
  store.Remove(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
               Term::Iri("http://x/o"));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.Contains(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
                              Term::Iri("http://x/o")));
}

TEST(TripleStoreRemovalTest, RemovalBumpsGeneration) {
  rdf::TripleStore store;
  store.Add(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
            Term::Iri("http://x/o"));
  uint64_t g0 = store.generation();
  store.Remove(Term::Iri("http://x/s"), Term::Iri("http://x/p"),
               Term::Iri("http://x/o"));
  EXPECT_GT(store.generation(), g0);
  EXPECT_EQ(store.size(), 0u);
}

// ------------------------------------------------------- mutation model

TEST(MutationModelTest, AdvanceIsDeterministic) {
  rdf::TripleStore a, b;
  BuildLd(&a, 99);
  BuildLd(&b, 99);
  sim::EventLoop loop_a, loop_b;
  MutationModel mutation;
  mutation.daily_churn_fraction = 0.05;
  mutation.seed = 7;
  SimulatedRemoteEndpoint ep_a("http://a/sparql", "a", &a, loop_a.clock(),
                               endpoint::Dialect::Full(), {}, {}, mutation);
  SimulatedRemoteEndpoint ep_b("http://b/sparql", "b", &b, loop_b.clock(),
                               endpoint::Dialect::Full(), {}, {}, mutation);
  ep_a.AdvanceDataDay(4);
  ep_b.AdvanceDataDay(4);
  EXPECT_EQ(DumpStore(a), DumpStore(b));
  EXPECT_EQ(a.generation(), b.generation());
}

TEST(MutationModelTest, StepwiseEqualsJumpAdvance) {
  rdf::TripleStore a, b;
  BuildLd(&a, 42);
  BuildLd(&b, 42);
  sim::EventLoop loop_a, loop_b;
  MutationModel mutation;
  mutation.daily_churn_fraction = 0.04;
  mutation.seed = 3;
  SimulatedRemoteEndpoint ep_a("http://a/sparql", "a", &a, loop_a.clock(),
                               endpoint::Dialect::Full(), {}, {}, mutation);
  SimulatedRemoteEndpoint ep_b("http://b/sparql", "b", &b, loop_b.clock(),
                               endpoint::Dialect::Full(), {}, {}, mutation);
  for (int64_t d = 1; d <= 5; ++d) ep_a.AdvanceDataDay(d);
  ep_b.AdvanceDataDay(5);  // catch-up replays days 1..5
  EXPECT_EQ(DumpStore(a), DumpStore(b));
}

TEST(MutationModelTest, MutationActuallyChangesData) {
  rdf::TripleStore store;
  BuildLd(&store, 17);
  const std::string before = DumpStore(store);
  const uint64_t g0 = store.generation();
  sim::EventLoop loop;
  MutationModel mutation;
  mutation.daily_churn_fraction = 0.05;
  mutation.seed = 1;
  SimulatedRemoteEndpoint ep("http://m/sparql", "m", &store, loop.clock(),
                             endpoint::Dialect::Full(), {}, {}, mutation);
  ep.AdvanceDataDay(1);
  EXPECT_NE(DumpStore(store), before);
  EXPECT_GT(store.generation(), g0);
}

TEST(MutationModelTest, ZeroChurnLeavesStoreAndGenerationAlone) {
  rdf::TripleStore store;
  BuildLd(&store, 17);
  const std::string before = DumpStore(store);
  const uint64_t g0 = store.generation();
  sim::EventLoop loop;
  SimulatedRemoteEndpoint ep("http://m/sparql", "m", &store, loop.clock());
  ep.AdvanceDataDay(10);
  EXPECT_EQ(DumpStore(store), before);
  EXPECT_EQ(store.generation(), g0);
}

TEST(MutationModelTest, MostClassesStayQuiet) {
  rdf::TripleStore store;
  BuildLd(&store, 23);
  sim::EventLoop loop;
  MutationModel mutation;
  mutation.daily_churn_fraction = 0.05;
  mutation.hot_class_fraction = 0.25;
  mutation.seed = 11;
  SimulatedRemoteEndpoint ep("http://m/sparql", "m", &store, loop.clock(),
                             endpoint::Dialect::Full(), {}, {}, mutation);
  auto before = ep.ProbeChanges();
  ASSERT_TRUE(before.ok()) << before.status();
  ep.AdvanceDataDay(3);
  auto after = ep.ProbeChanges();
  ASSERT_TRUE(after.ok()) << after.status();
  // Diff the two probes: the hot-class skew must leave most classes at
  // their original version.
  size_t moved = 0;
  for (const auto& cf : after->classes) {
    for (const auto& prev : before->classes) {
      if (prev.class_iri == cf.class_iri && prev.version != cf.version) {
        ++moved;
      }
    }
  }
  ASSERT_GT(moved, 0u);
  EXPECT_LT(moved, before->classes.size() / 2);
}

// ------------------------------------------ determinism across cycles

/// The daily cycle applies mutations sequentially at cycle start, so the
/// evolved stores must be bit-identical whatever parallelism/batching the
/// cycle itself used.
TEST(MutationModelTest, StoresIdenticalAcrossCycleDeployments) {
  auto run = [](int parallelism, int width) {
    auto store = std::make_unique<rdf::TripleStore>();
    BuildLd(store.get(), 5);
    sim::EventLoop loop;
    MutationModel mutation;
    mutation.daily_churn_fraction = 0.05;
    mutation.seed = 9;
    SimulatedRemoteEndpoint ep("http://d/sparql", "d", store.get(),
                               loop.clock(), endpoint::Dialect::Full(), {}, {},
                               mutation);
    store::Database db;
    ServerOptions options;
    options.refresh_age_days = 1;
    options.parallelism = parallelism;
    options.query_batch_width = width;
    Server server(&db, &loop, options);
    server.AttachEndpoint(ep.url(), &ep);
    endpoint::EndpointRecord record;
    record.url = ep.url();
    server.RegisterEndpoint(record);
    for (int day = 0; day < 4; ++day) {
      server.RunDailyUpdate();
      loop.RunUntil(loop.NowMs() + SimClock::kMillisPerDay);
    }
    return DumpStore(*store);
  };
  const std::string sequential = run(1, 1);
  EXPECT_EQ(run(4, 1), sequential);
  EXPECT_EQ(run(4, 4), sequential);
}

// -------------------------------------------------------- change probe

TEST(ProbeTest, ProbeReportsSortedClassFingerprints) {
  rdf::TripleStore store;
  BuildLd(&store, 31);
  sim::EventLoop loop;
  SimulatedRemoteEndpoint ep("http://p/sparql", "p", &store, loop.clock());
  size_t served_before = ep.queries_served();
  auto probe = ep.ProbeChanges();
  ASSERT_TRUE(probe.ok()) << probe.status();
  EXPECT_EQ(ep.queries_served(), served_before + 1);  // one batched query
  EXPECT_EQ(probe->store_generation, store.generation());
  ASSERT_FALSE(probe->classes.empty());
  EXPECT_GT(probe->latency_ms, 0.0);
  for (size_t i = 1; i < probe->classes.size(); ++i) {
    EXPECT_LT(probe->classes[i - 1].class_iri, probe->classes[i].class_iri);
  }
  // Untouched store: every version still 0.
  for (const auto& cf : probe->classes) EXPECT_EQ(cf.version, 0u);
}

TEST(ProbeTest, ProbeVersionsMoveOnlyForDirtyClasses) {
  rdf::TripleStore store;
  BuildLd(&store, 31);
  sim::EventLoop loop;
  MutationModel mutation;
  mutation.daily_churn_fraction = 0.03;
  mutation.seed = 13;
  SimulatedRemoteEndpoint ep("http://p/sparql", "p", &store, loop.clock(),
                             endpoint::Dialect::Full(), {}, {}, mutation);
  ep.AdvanceDataDay(1);
  auto probe = ep.ProbeChanges();
  ASSERT_TRUE(probe.ok()) << probe.status();
  size_t dirty = 0;
  for (const auto& cf : probe->classes) {
    if (cf.version > 0) ++dirty;
  }
  EXPECT_GT(dirty, 0u);
  EXPECT_LT(dirty, probe->classes.size());
}

TEST(ProbeTest, ProbeRespectsAvailability) {
  rdf::TripleStore store;
  BuildLd(&store, 31);
  sim::EventLoop loop;
  endpoint::AvailabilityModel availability;
  availability.forced_outage_days = {0};
  SimulatedRemoteEndpoint ep("http://p/sparql", "p", &store, loop.clock(),
                             endpoint::Dialect::Full(), availability);
  auto probe = ep.ProbeChanges();
  EXPECT_TRUE(probe.status().IsUnavailable());
}

TEST(ProbeTest, PlainLocalEndpointHasNoProbe) {
  rdf::TripleStore store;
  BuildLd(&store, 31);
  endpoint::LocalEndpoint ep("http://l/sparql", "l", &store);
  auto probe = ep.ProbeChanges();
  EXPECT_TRUE(probe.status().IsUnsupported());
}

}  // namespace
}  // namespace hbold
