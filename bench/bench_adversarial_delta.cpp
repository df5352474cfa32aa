// Adversarial delta-extraction bench + gate: a mixed fleet of honest,
// lying, partial-fingerprint, and transiently-flaky endpoints crawled
// under IncrementalMode::kBounded (staleness-bounded incremental with
// quarantine) versus IncrementalMode::kTrack (probe + full re-extraction
// every cycle, the always-full control arm).
//
// The adversary and the world both freeze a few days before the end
// (ProbeFaultModel/MutationModel::freeze_after_day), leaving at least one
// staleness budget of honest days: the gate is that the bounded arm's
// FINAL persisted artifacts are byte-identical to the control arm's —
// whatever the probes lied about mid-run, quarantine + forced refresh
// converged back to the truth within the budget.
//
// Emits machine-readable BENCH_adversarial_delta.json and exits nonzero
// when a gate fails:
//   - final-state identity: normalized summaries + cluster docs of the
//     kBounded run match the kTrack run byte-for-byte after convergence;
//   - deployment invariance: the kBounded canonical history is identical
//     across {1, 2, 4} shards x {1, 4} parallelism — fault coins are pure
//     functions of (seed, day, attempt), never of thread schedule;
//   - adversary detected: the run actually surfaced probe mismatches and
//     forced refreshes (a silent pass would mean the faults never fired);
//   - makespan: the bounded arm still beats always-full-refresh >= 1.2x
//     in simulated fleet time despite paying for forced refreshes.
//
//   ./build/bench_adversarial_delta [num_endpoints] [days]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/logging.h"
#include "endpoint/simulated_endpoint.h"
#include "hbold/fleet.h"
#include "rdf/graph.h"
#include "store/database.h"
#include "workload/ld_generator.h"

namespace {

using hbold::FleetReport;
using hbold::IncrementalMode;
using hbold::Json;
using hbold::Stopwatch;

constexpr double kChurnFraction = 0.05;
constexpr int64_t kStalenessBudgetDays = 4;

/// One seeded adversarial world: endpoints, their stores, and the fleet
/// driving them. Rebuilt from scratch per arm — mutation rewrites the
/// stores day by day, so arms must not share them.
struct AdversarialWorld {
  hbold::sim::EventLoop loop;
  std::vector<std::unique_ptr<hbold::rdf::TripleStore>> stores;
  std::vector<std::unique_ptr<hbold::endpoint::SimulatedRemoteEndpoint>>
      endpoints;
  std::unique_ptr<hbold::Fleet> fleet;
};

std::string Url(size_t i) {
  return "http://adv" + std::to_string(i) + ".example.org/sparql";
}

std::unique_ptr<AdversarialWorld> BuildWorld(size_t num_endpoints,
                                             int64_t freeze_day,
                                             IncrementalMode mode, int shards,
                                             int parallelism) {
  auto world = std::make_unique<AdversarialWorld>();
  hbold::FleetOptions options;
  options.num_shards = shards;
  options.server.parallelism = parallelism;
  options.server.refresh_age_days = 1;  // churn-sensitive: crawl daily
  options.server.incremental.mode = mode;
  options.server.incremental.staleness_budget_days = kStalenessBudgetDays;
  options.server.incremental.quarantine_strikes = 2;
  options.server.incremental.quarantine_days = 2;
  if (shards == 1 && parallelism == 1) options.fleet_workers = 1;
  world->fleet = std::make_unique<hbold::Fleet>(&world->loop, options);

  for (size_t i = 0; i < num_endpoints; ++i) {
    auto store = std::make_unique<hbold::rdf::TripleStore>();
    hbold::workload::SyntheticLdConfig config;
    config.namespace_iri =
        "http://adv" + std::to_string(i) + ".example.org/";
    config.num_classes = 8 + (i * 7) % 40;
    config.num_domains = 2 + config.num_classes / 12;
    config.max_instances_per_class = 24;
    config.seed = 7100 + i * 7919;
    hbold::workload::GenerateSyntheticLd(config, store.get());

    hbold::endpoint::Dialect dialect = hbold::endpoint::Dialect::Full();
    if (i % 4 == 1) dialect = hbold::endpoint::Dialect::NoGroupBy();
    if (i % 4 == 2) dialect = hbold::endpoint::Dialect::NoAggregates();
    if (i % 4 == 3) dialect = hbold::endpoint::Dialect::RowCapped(4096);

    hbold::endpoint::MutationModel mutation;
    // A third of the fleet is quiet; the rest churns daily. Everything
    // freezes after `freeze_day` so the convergence gate is well-defined.
    mutation.daily_churn_fraction = (i % 3 == 0) ? 0.0 : kChurnFraction;
    mutation.hot_class_fraction = 0.5;
    mutation.seed = 6300 + i * 104729;
    mutation.freeze_after_day = freeze_day;

    // Fault mix: honest / quiet-liar / partial+truncated / flaky probes.
    hbold::endpoint::ProbeFaultModel faults;
    faults.seed = 9900 + i * 31337;
    faults.freeze_after_day = freeze_day;
    switch (i % 4) {
      case 1:
        faults.lie_generation_probability = 0.4;
        faults.lie_fingerprint_probability = 0.4;
        break;
      case 2:
        faults.partial_probability = 0.4;
        faults.truncate_probability = 0.25;
        break;
      case 3:
        faults.transient_failure_probability = 0.35;
        break;
      default:  // honest
        break;
    }

    auto ep = std::make_unique<hbold::endpoint::SimulatedRemoteEndpoint>(
        Url(i), "Adv " + std::to_string(i), store.get(),
        world->loop.clock(), dialect, hbold::endpoint::AvailabilityModel{},
        hbold::endpoint::LatencyModel{}, mutation, faults);
    hbold::endpoint::EndpointRecord record;
    record.url = Url(i);
    record.name = ep->name();
    world->fleet->RegisterEndpoint(record);
    world->fleet->AttachEndpoint(Url(i), ep.get());
    world->stores.push_back(std::move(store));
    world->endpoints.push_back(std::move(ep));
  }
  return world;
}

/// The arm's counters summed over its days, plus its run figures.
struct ArmResult : hbold::CycleCounters {
  FleetReport report;
  /// Final persisted artifacts, endpoint_url -> normalized doc dump
  /// (provenance fields zeroed so kTrack's daily re-extraction stamps
  /// compare equal to kBounded's skip-and-refresh stamps).
  std::map<std::string, std::string> final_state;
  double wall_ms = 0;
  double total_makespan_ms = 0;
  size_t queries = 0;
};

ArmResult RunArm(size_t num_endpoints, int64_t days, int64_t freeze_day,
                 IncrementalMode mode, int shards, int parallelism) {
  std::unique_ptr<AdversarialWorld> world =
      BuildWorld(num_endpoints, freeze_day, mode, shards, parallelism);
  ArmResult result;
  Stopwatch wall;
  result.report = world->fleet->RunSimulation(days);
  result.wall_ms = wall.ElapsedMillis();
  for (const hbold::FleetDayReport& day : result.report.days) {
    result.total_makespan_ms += day.fleet_makespan_ms;
    result.Add(day);
  }
  for (const auto& ep : world->endpoints) {
    result.queries += ep->queries_served();
  }
  for (const char* collection :
       {hbold::kSummariesCollection, hbold::kClustersCollection}) {
    for (size_t s = 0; s < world->fleet->num_shards(); ++s) {
      const hbold::store::Collection* c =
          world->fleet->shard_db(s).FindCollection(collection);
      if (c == nullptr) continue;
      for (const hbold::store::DocHandle& stored : c->Snapshot()) {
        hbold::store::Document doc = *stored;
        std::string key =
            std::string(collection) + "|" + doc.GetString("endpoint_url");
        doc.Set("_id", 0);
        doc.Set("extracted_day", 0);
        result.final_state[key] = doc.Dump();
      }
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  hbold::Logger::set_threshold(hbold::LogLevel::kWarn);
  const size_t num_endpoints =
      argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 24;
  const int64_t days = argc > 2 ? std::atoll(argv[2]) : 14;
  // Freeze the world and the adversary one staleness budget (plus the
  // final crawl day) before the end, so convergence is guaranteed iff the
  // bounded pipeline's forced refreshes work as specified.
  const int64_t freeze_day = days - kStalenessBudgetDays - 1;

  std::printf("=== adversarial delta: %zu endpoints, %lld days (freeze "
              "after day %lld), %.0f%% churn ===\n",
              num_endpoints, static_cast<long long>(days),
              static_cast<long long>(freeze_day), kChurnFraction * 100);

  ArmResult track = RunArm(num_endpoints, days, freeze_day,
                           IncrementalMode::kTrack, 1, 1);
  ArmResult bounded = RunArm(num_endpoints, days, freeze_day,
                             IncrementalMode::kBounded, 1, 1);

  // Gate 1: after the honest tail, the bounded arm's persisted artifacts
  // are byte-identical to always-full-refresh truth.
  bool final_identity = bounded.final_state == track.final_state;

  // Gate 2: kBounded's canonical history is deployment-invariant even
  // with every fault class firing.
  const std::string canonical = bounded.report.CanonicalDump();
  bool invariant = true;
  struct Deployment {
    int shards, parallelism;
  };
  for (const Deployment& dep :
       {Deployment{2, 1}, Deployment{4, 1}, Deployment{1, 4},
        Deployment{4, 4}}) {
    ArmResult run = RunArm(num_endpoints, days, freeze_day,
                           IncrementalMode::kBounded, dep.shards,
                           dep.parallelism);
    invariant = invariant && run.report.CanonicalDump() == canonical;
  }

  // Gate 3: the defenses actually fired — a run where no probe ever
  // mismatched would be vacuous.
  bool adversary_detected =
      bounded.probe_mismatches > 0 && bounded.forced_refreshes > 0;

  // Gate 4: even paying for forced refreshes and quarantine, bounded
  // incremental still beats always-full-refresh in simulated fleet time.
  double makespan_reduction =
      bounded.total_makespan_ms > 0
          ? track.total_makespan_ms / bounded.total_makespan_ms
          : 0;

  std::printf("%-28s %14s %14s\n", "", "kTrack (full)", "kBounded");
  std::printf("%-28s %12.1f ms %12.1f ms\n", "total fleet makespan",
              track.total_makespan_ms, bounded.total_makespan_ms);
  std::printf("%-28s %14zu %14zu\n", "endpoint queries", track.queries,
              bounded.queries);
  std::printf("%-28s %14zu %14zu\n", "probe skips", track.probe_skips,
              bounded.probe_skips);
  std::printf("%-28s %14zu %14zu\n", "delta extractions",
              track.delta_extractions, bounded.delta_extractions);
  std::printf("%-28s %14zu %14zu\n", "probe mismatches",
              track.probe_mismatches, bounded.probe_mismatches);
  std::printf("%-28s %14zu %14zu\n", "forced refreshes",
              track.forced_refreshes, bounded.forced_refreshes);
  std::printf("%-28s %14zu %14zu\n", "quarantines entered",
              track.quarantines_entered, bounded.quarantines_entered);
  std::printf("\nmakespan reduction %.2fx; final state %s; kBounded "
              "history %s across {1,2,4} shards x {1,4} parallelism\n",
              makespan_reduction,
              final_identity ? "IDENTICAL" : "DIVERGED",
              invariant ? "IDENTICAL" : "DIVERGED");

  Json report = Json::MakeObject();
  report.Set("endpoints", static_cast<int64_t>(num_endpoints));
  report.Set("days", static_cast<int64_t>(days));
  report.Set("freeze_day", freeze_day);
  report.Set("staleness_budget_days", kStalenessBudgetDays);
  report.Set("churn_fraction", kChurnFraction);
  report.Set("bounded_fingerprint", bounded.report.Fingerprint());
  report.Set("track_total_makespan_ms", track.total_makespan_ms);
  report.Set("bounded_total_makespan_ms", bounded.total_makespan_ms);
  report.Set("makespan_reduction", makespan_reduction);
  report.Set("track_queries", static_cast<int64_t>(track.queries));
  report.Set("bounded_queries", static_cast<int64_t>(bounded.queries));
  report.Set("probe_skips", static_cast<int64_t>(bounded.probe_skips));
  report.Set("delta_extractions",
             static_cast<int64_t>(bounded.delta_extractions));
  report.Set("probe_mismatches",
             static_cast<int64_t>(bounded.probe_mismatches));
  report.Set("forced_refreshes",
             static_cast<int64_t>(bounded.forced_refreshes));
  report.Set("quarantines_entered",
             static_cast<int64_t>(bounded.quarantines_entered));
  report.Set("quarantines_exited",
             static_cast<int64_t>(bounded.quarantines_exited));
  report.Set("track_wall_ms", track.wall_ms);
  report.Set("bounded_wall_ms", bounded.wall_ms);
  Json gates = Json::MakeObject();
  gates.Set("final_state_identity", final_identity);
  gates.Set("deployment_invariance", invariant);
  gates.Set("adversary_detected", adversary_detected);
  gates.Set("makespan_reduction_1_2x", makespan_reduction >= 1.2);
  report.Set("gates", std::move(gates));

  std::ofstream out("BENCH_adversarial_delta.json");
  out << report.Dump(2) << "\n";
  out.close();
  std::printf("wrote BENCH_adversarial_delta.json\n");

  if (!final_identity) {
    std::fprintf(stderr,
                 "GATE FAILED: kBounded final artifacts diverged from "
                 "always-full truth after the honest tail\n");
    return 1;
  }
  if (!invariant) {
    std::fprintf(stderr,
                 "GATE FAILED: kBounded canonical history diverged across "
                 "deployments\n");
    return 1;
  }
  if (!adversary_detected) {
    std::fprintf(stderr,
                 "GATE FAILED: no probe mismatch / forced refresh was ever "
                 "recorded — the adversary never fired\n");
    return 1;
  }
  if (makespan_reduction < 1.2) {
    std::fprintf(stderr, "GATE FAILED: makespan reduction %.2fx < 1.2x\n",
                 makespan_reduction);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
