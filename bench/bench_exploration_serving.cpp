// Exploration-serving bench + gate: the concurrent session engine against a
// freshly extracted fleet, across {1,4} serving threads x layout cache
// on/off. The workload is the seeded multi-step session stream
// (workload::exploration_workload): open a dataset, render the four
// high-level views, walk Fig. 2 expansion steps, run effectiveness tasks,
// drill into instances and issue visual queries against the owning shard's
// endpoint.
//
// Emits machine-readable BENCH_exploration_serving.json and exits nonzero
// when a gate fails:
//   - transcript identity: the combined session transcript is byte-identical
//     (same FNV fingerprint) across every (threads, cache) configuration
//   - cache speedup >= 2x sessions/sec at equal thread count
//   - cache determinism: single-flight misses match across thread counts
//
//   ./build/bench_exploration_serving [endpoints] [sessions]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/json.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "hbold/exploration_service.h"
#include "hbold/fleet.h"
#include "workload/exploration_workload.h"

namespace {

using hbold::ExplorationService;
using hbold::ExplorationServiceOptions;
using hbold::Fleet;
using hbold::HexU64;
using hbold::Json;
using hbold::SessionResult;
using hbold::Stopwatch;
using hbold::ThreadPool;
using hbold::workload::ExplorationWorkloadOptions;
using hbold::workload::SessionPlan;

struct RunFigures {
  double best_ms = 0;
  double sessions_per_sec = 0;
  uint64_t fingerprint = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_hits = 0;
  double p50_interaction_ms = 0;
  double p99_interaction_ms = 0;
};

RunFigures ServeWorkload(Fleet* fleet, const std::vector<SessionPlan>& plans,
                         bool use_cache, size_t threads) {
  RunFigures figures;
  constexpr int kReps = 2;  // best-of, for noisy shared runners
  for (int rep = 0; rep < kReps; ++rep) {
    ExplorationServiceOptions options;
    options.use_layout_cache = use_cache;
    ExplorationService service(fleet, options);
    if (service.RefreshSnapshots() == 0) {
      std::fprintf(stderr, "no datasets extracted\n");
      std::exit(1);
    }
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    Stopwatch sw;
    std::vector<SessionResult> results = service.RunSessions(plans, pool.get());
    double ms = sw.ElapsedMillis();
    if (rep == 0 || ms < figures.best_ms) {
      figures.best_ms = ms;
      std::vector<double> latencies;
      for (const SessionResult& r : results) {
        latencies.insert(latencies.end(), r.interaction_wall_ms.begin(),
                         r.interaction_wall_ms.end());
      }
      figures.p50_interaction_ms = hbold::bench::Percentile(latencies, 50);
      figures.p99_interaction_ms = hbold::bench::Percentile(latencies, 99);
    }
    figures.fingerprint = ExplorationService::CombinedFingerprint(results);
    figures.cache_misses = service.cache_stats().misses;
    figures.cache_hits = service.cache_stats().hits;
  }
  figures.sessions_per_sec =
      figures.best_ms > 0
          ? static_cast<double>(plans.size()) / (figures.best_ms / 1000.0)
          : 0;
  return figures;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t num_endpoints =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 24;
  const size_t num_sessions =
      argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 64;

  // A 2-shard fleet over the standard bench endpoint mix, extracted once;
  // serving runs against the persisted summaries/cluster schemas.
  hbold::sim::EventLoop loop;
  hbold::bench::FleetOptions world_options;
  world_options.size = num_endpoints;
  std::vector<hbold::bench::FleetMember> members =
      hbold::bench::BuildFleet(world_options, loop.clock());
  hbold::FleetOptions fleet_options;
  fleet_options.num_shards = 2;
  fleet_options.fleet_workers = 4;
  Fleet fleet(&loop, fleet_options);
  for (hbold::bench::FleetMember& m : members) {
    hbold::endpoint::EndpointRecord record;
    record.url = m.url;
    record.name = m.endpoint->name();
    fleet.RegisterEndpoint(record);
    fleet.AttachEndpoint(m.url, m.endpoint.get());
  }
  if (fleet.RunSimulation(1).days.empty()) return 1;

  ExplorationWorkloadOptions workload;
  workload.sessions = num_sessions;
  workload.seed = 2020;
  std::vector<SessionPlan> plans =
      hbold::workload::GenerateSessions(workload, num_endpoints);

  std::printf("=== exploration serving: %zu endpoints, %zu sessions ===\n",
              num_endpoints, plans.size());

  RunFigures cached_1 = ServeWorkload(&fleet, plans, true, 1);
  RunFigures cached_4 = ServeWorkload(&fleet, plans, true, 4);
  RunFigures uncached_1 = ServeWorkload(&fleet, plans, false, 1);
  RunFigures uncached_4 = ServeWorkload(&fleet, plans, false, 4);

  auto print_run = [](const char* label, const RunFigures& f) {
    std::printf(
        "%-22s %8.1f ms  %7.1f sessions/s  p50 %6.3f ms  p99 %6.3f ms  "
        "fp %s\n",
        label, f.best_ms, f.sessions_per_sec, f.p50_interaction_ms,
        f.p99_interaction_ms, HexU64(f.fingerprint).c_str());
  };
  print_run("cache on,  1 thread", cached_1);
  print_run("cache on,  4 threads", cached_4);
  print_run("cache off, 1 thread", uncached_1);
  print_run("cache off, 4 threads", uncached_4);

  const bool transcript_identity =
      cached_1.fingerprint == cached_4.fingerprint &&
      cached_1.fingerprint == uncached_1.fingerprint &&
      cached_1.fingerprint == uncached_4.fingerprint;
  const double speedup_1 = cached_1.best_ms > 0
                               ? uncached_1.best_ms / cached_1.best_ms
                               : 0;
  const double speedup_4 = cached_4.best_ms > 0
                               ? uncached_4.best_ms / cached_4.best_ms
                               : 0;
  const bool cache_speedup_2x = speedup_1 >= 2.0;
  const bool deterministic_misses =
      cached_1.cache_misses == cached_4.cache_misses &&
      cached_1.cache_hits == cached_4.cache_hits;

  std::printf("cache speedup: %.2fx (1 thread), %.2fx (4 threads)\n",
              speedup_1, speedup_4);
  std::printf("layout cache: %llu misses, %llu hits (thread-invariant: %s)\n",
              static_cast<unsigned long long>(cached_1.cache_misses),
              static_cast<unsigned long long>(cached_1.cache_hits),
              deterministic_misses ? "yes" : "NO");

  Json report = Json::MakeObject();
  report.Set("endpoints", static_cast<int64_t>(num_endpoints));
  report.Set("sessions", static_cast<int64_t>(plans.size()));
  report.Set("transcript_fingerprint", HexU64(cached_1.fingerprint));
  report.Set("cache_misses", static_cast<int64_t>(cached_1.cache_misses));
  report.Set("cache_hits", static_cast<int64_t>(cached_1.cache_hits));
  report.Set("cached_ms", cached_1.best_ms);
  report.Set("uncached_ms", uncached_1.best_ms);
  report.Set("cached_threads4_ms", cached_4.best_ms);
  report.Set("uncached_threads4_ms", uncached_4.best_ms);
  report.Set("sessions_per_sec_cached", cached_1.sessions_per_sec);
  report.Set("sessions_per_sec_uncached", uncached_1.sessions_per_sec);
  report.Set("speedup", speedup_1);
  report.Set("speedup_threads4", speedup_4);
  report.Set("p50_interaction_ms", cached_4.p50_interaction_ms);
  report.Set("p99_interaction_ms", cached_4.p99_interaction_ms);
  Json gates = Json::MakeObject();
  gates.Set("transcript_identity", transcript_identity);
  gates.Set("cache_speedup_2x", cache_speedup_2x);
  gates.Set("deterministic_misses", deterministic_misses);
  report.Set("gates", std::move(gates));

  std::ofstream out("BENCH_exploration_serving.json");
  out << report.Dump(2) << "\n";
  out.close();
  std::printf("wrote BENCH_exploration_serving.json\n");

  if (!transcript_identity) {
    std::fprintf(stderr,
                 "GATE FAILED: transcripts differ across configurations\n");
    return 1;
  }
  if (!deterministic_misses) {
    std::fprintf(stderr,
                 "GATE FAILED: cache misses vary with thread count\n");
    return 1;
  }
  if (!cache_speedup_2x) {
    std::fprintf(stderr, "GATE FAILED: cache speedup %.2fx < 2x\n", speedup_1);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
