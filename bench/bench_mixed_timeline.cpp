// Mixed-timeline bench + gate: extraction and serving traffic on ONE
// sim::EventLoop. Eight scheduled daily cycles (one deliberately heavy
// enough that its canonical makespan overruns the day and forces a
// catch-up cycle) interleave with a seeded ArrivalProcess stream of user
// sessions; every cycle completion refreshes the serving snapshots, so
// later arrivals explore fresher data — the full event taxonomy on one
// timeline.
//
// Emits machine-readable BENCH_mixed_timeline.json and exits nonzero when
// a gate fails:
//   - history invariance: the loop's event history (times, sequence,
//     kinds, labels) is byte-identical across deployment shapes
//     ({1,1,1}, {2,2,2}, {4,4,4} shards/workers/parallelism);
//   - transcript identity: the combined session transcript fingerprint
//     matches across the same shapes;
//   - overrun present: at least one simulated day overran its boundary
//     and was followed by a catch-up cycle;
//   - sessions served: the arrival stream actually dispatched sessions.
//
//   ./build/bench_mixed_timeline [endpoints] [days] [sessions]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "endpoint/simulated_endpoint.h"
#include "hbold/exploration_service.h"
#include "hbold/fleet.h"
#include "sim/event_loop.h"
#include "workload/exploration_workload.h"
#include "workload/ld_generator.h"

namespace {

using hbold::ExplorationService;
using hbold::Fleet;
using hbold::FleetReport;
using hbold::HexU64;
using hbold::Json;
using hbold::SessionResult;
using hbold::SimClock;
using hbold::Stopwatch;
using hbold::workload::SessionPlan;
namespace sim = hbold::sim;

constexpr uint64_t kArrivalSeed = 2468;
constexpr uint64_t kChurnSeed = 55;

std::string UrlOf(size_t i) {
  return "http://mixed" + std::to_string(i) + ".example.org/sparql";
}

std::vector<std::unique_ptr<hbold::rdf::TripleStore>> BuildStores(
    size_t count) {
  std::vector<std::unique_ptr<hbold::rdf::TripleStore>> stores;
  stores.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    auto store = std::make_unique<hbold::rdf::TripleStore>();
    hbold::workload::SyntheticLdConfig config;
    config.namespace_iri =
        "http://mixed" + std::to_string(i) + ".example.org/";
    config.num_classes = 4 + (i * 13) % 18;
    config.num_domains = 2 + config.num_classes / 10;
    config.max_instances_per_class = 20;
    config.seed = 7000 + i;
    hbold::workload::GenerateSyntheticLd(config, store.get());
    stores.push_back(std::move(store));
  }
  return stores;
}

struct RunOutcome {
  FleetReport report;
  std::vector<SessionResult> sessions;
  std::string history;
  std::string history_fingerprint;
  uint64_t transcript_fingerprint = 0;
  double wall_ms = 0;
};

RunOutcome RunWorld(
    const std::vector<std::unique_ptr<hbold::rdf::TripleStore>>& stores,
    const std::vector<SessionPlan>& plans, int shards, int fleet_workers,
    int parallelism, int64_t days) {
  sim::EventLoop loop;

  std::vector<std::unique_ptr<hbold::endpoint::SimulatedRemoteEndpoint>>
      endpoints;
  endpoints.reserve(stores.size());
  for (size_t i = 0; i < stores.size(); ++i) {
    hbold::endpoint::Dialect dialect = hbold::endpoint::Dialect::Full();
    if (i % 5 == 1) dialect = hbold::endpoint::Dialect::NoGroupBy();
    if (i % 5 == 2) dialect = hbold::endpoint::Dialect::RowCapped(2000);
    hbold::endpoint::LatencyModel latency;
    if (i % 8 == 3) {
      // Heavy remote stores: each charged query costs simulated minutes,
      // so a full-extraction cycle's canonical makespan blows past the
      // day boundary (overrun + catch-up cycle) while the in-between
      // incremental-age days stay cheap and boundary-aligned — the bench
      // exercises both scheduling regimes on one timeline.
      latency.base_ms = 5e5;
    }
    endpoints.push_back(
        std::make_unique<hbold::endpoint::SimulatedRemoteEndpoint>(
            UrlOf(i), "Mixed " + std::to_string(i), stores[i].get(),
            loop.clock(), dialect, hbold::endpoint::AvailabilityModel{},
            latency));
  }

  hbold::FleetOptions options;
  options.num_shards = shards;
  options.server.parallelism = parallelism;
  options.fleet_workers = static_cast<size_t>(fleet_workers);
  options.churn.death_probability = 0.02;
  options.churn.seed = kChurnSeed;
  Fleet fleet(&loop, options);
  for (size_t i = 0; i < stores.size(); ++i) {
    hbold::endpoint::EndpointRecord record;
    record.url = UrlOf(i);
    record.name = endpoints[i]->name();
    fleet.RegisterEndpoint(record);
    fleet.AttachEndpoint(UrlOf(i), endpoints[i].get());
  }

  ExplorationService service(&fleet);
  fleet.SetCycleCompleteHandler([&](const hbold::FleetDayReport&) {
    // Sessions arriving after this instant explore the fresh extraction.
    service.RefreshSnapshots();
  });

  // The session stream: seeded exponential-ish arrivals poured over the
  // whole simulated horizon. Scheduled before the cycles so arrival
  // events take the low sequence numbers in every deployment shape.
  sim::ArrivalProcess arrivals(
      kArrivalSeed, static_cast<double>(days * SimClock::kMillisPerDay) /
                        static_cast<double>(plans.size() + 1));
  service.ScheduleSessions(
      &loop, plans, arrivals.ArrivalsIn(0, days * SimClock::kMillisPerDay));
  fleet.ScheduleCycles(days);

  RunOutcome outcome;
  Stopwatch wall;
  loop.RunUntilIdle();
  outcome.wall_ms = wall.ElapsedMillis();
  outcome.report = fleet.TakeReport();
  outcome.sessions = service.TakeScheduledResults();
  outcome.history = loop.HistoryDump();
  outcome.history_fingerprint = loop.HistoryFingerprint();
  outcome.transcript_fingerprint =
      ExplorationService::CombinedFingerprint(outcome.sessions);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  hbold::Logger::set_threshold(hbold::LogLevel::kError);
  const size_t num_endpoints =
      argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 16;
  const int64_t days = argc > 2 ? std::atoll(argv[2]) : 8;
  const size_t num_sessions =
      argc > 3 ? static_cast<size_t>(std::atoll(argv[3])) : 48;

  auto stores = BuildStores(num_endpoints);
  hbold::workload::ExplorationWorkloadOptions workload;
  workload.sessions = num_sessions;
  workload.seed = 3030;
  std::vector<SessionPlan> plans =
      hbold::workload::GenerateSessions(workload, num_endpoints);

  std::printf(
      "=== mixed timeline: %zu endpoints, %lld days, %zu session plans ===\n",
      num_endpoints, static_cast<long long>(days), plans.size());

  RunOutcome base = RunWorld(stores, plans, 1, 1, 1, days);
  RunOutcome two = RunWorld(stores, plans, 2, 2, 2, days);
  RunOutcome four = RunWorld(stores, plans, 4, 4, 4, days);

  const bool history_invariance =
      base.history == two.history && base.history == four.history;
  const bool transcript_identity =
      base.transcript_fingerprint == two.transcript_fingerprint &&
      base.transcript_fingerprint == four.transcript_fingerprint &&
      base.report.CanonicalDump() == two.report.CanonicalDump() &&
      base.report.CanonicalDump() == four.report.CanonicalDump();

  size_t overran_days = 0;
  double total_sim_makespan = 0;
  for (const hbold::FleetDayReport& day : base.report.days) {
    if (day.overran_day) ++overran_days;
    total_sim_makespan += day.sim_makespan_ms;
  }
  // A catch-up cycle exists when some cycle started past its nominal
  // boundary: with at least one overrun the recorded day indices skip.
  const bool overrun_present = overran_days >= 1;
  const size_t sessions_served = base.sessions.size();

  std::printf("%-10s %8s %8s %10s %14s %8s\n", "day", "due", "ok", "overran",
              "sim makespan", "events");
  for (const hbold::FleetDayReport& day : base.report.days) {
    std::printf("%-10lld %8zu %8zu %10s %12.1f ms\n",
                static_cast<long long>(day.day), day.due, day.succeeded,
                day.overran_day ? "YES" : "no", day.sim_makespan_ms);
  }
  std::printf(
      "\n%zu sessions served on the shared loop; event history %s across "
      "deployments (fingerprint %s)\n",
      sessions_served, history_invariance ? "IDENTICAL" : "DIVERGED",
      base.history_fingerprint.c_str());
  std::printf("wall: %.1f ms (1 shard) / %.1f ms (4 shards)\n", base.wall_ms,
              four.wall_ms);

  Json report = Json::MakeObject();
  report.Set("endpoints", static_cast<int64_t>(num_endpoints));
  report.Set("days", static_cast<int64_t>(days));
  report.Set("cycles_run", static_cast<int64_t>(base.report.days.size()));
  report.Set("overran_days", static_cast<int64_t>(overran_days));
  report.Set("sessions_served", static_cast<int64_t>(sessions_served));
  report.Set("fingerprint", base.report.Fingerprint());
  report.Set("history_fingerprint", base.history_fingerprint);
  report.Set("transcript_fingerprint",
             HexU64(base.transcript_fingerprint));
  report.Set("total_sim_makespan_ms", total_sim_makespan);
  report.Set("wall_ms_sequential", base.wall_ms);
  report.Set("wall_ms_sharded", four.wall_ms);
  Json gates = Json::MakeObject();
  gates.Set("history_invariance", history_invariance);
  gates.Set("transcript_identity", transcript_identity);
  gates.Set("overrun_present", overrun_present);
  gates.Set("sessions_served_nonzero", sessions_served > 0);
  report.Set("gates", std::move(gates));

  std::ofstream out("BENCH_mixed_timeline.json");
  out << report.Dump(2) << "\n";
  out.close();
  std::printf("wrote BENCH_mixed_timeline.json\n");

  if (!history_invariance) {
    std::fprintf(stderr,
                 "GATE FAILED: event histories diverged across deployment "
                 "shapes\n");
    return 1;
  }
  if (!transcript_identity) {
    std::fprintf(stderr,
                 "GATE FAILED: session transcripts or fleet reports "
                 "diverged\n");
    return 1;
  }
  if (!overrun_present) {
    std::fprintf(stderr, "GATE FAILED: no day overran its boundary\n");
    return 1;
  }
  if (sessions_served == 0) {
    std::fprintf(stderr, "GATE FAILED: no sessions dispatched\n");
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
