// explore_open: the serving path under open-loop arrivals. Independent users
// arrive on a seeded Poisson schedule and each runs one exploration session
// (open a dataset, render its four layouts, expand classes, drill down into
// instances, issue visual queries). Latency is timed from when a session was
// due, so a stall also counts against the sessions queued behind it.
//
// The catalog (384 datasets) is larger than the default 256-entry layout
// cache and dataset popularity is Zipf, so misses and evictions happen in
// steady state. Nothing is extracted or written while timed.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "hbold/exploration_service.h"
#include "layers.h"
#include "workload/exploration_workload.h"
#include "world.h"

namespace hbold::e2e {

namespace {

using workload::SessionPlan;

/// The fixed arrival rate latency is measured at: about a fifth of the
/// closed-loop capacity of the 4-thread service on the reference machine
/// (~10k sessions/s), so queueing stays light in the sandbox's slower phases
/// too and the tail reflects service time. Frozen: changing it changes the
/// workload.
constexpr double kArrivalRate = 2000;
/// Rounds of a closed-loop chunk and a fixed-rate segment.
constexpr int kRounds = 5;
constexpr size_t kCapacitySessions = 4000;
/// Share of --seconds the fixed-rate segments take together.
constexpr double kArrivalShare = 0.7;
/// Service-level objective for the capacity search of traced runs.
constexpr double kSloP99Ms = 25;
constexpr double kSloLagMs = 50;
/// Capacity search: log-space bisection over [kSearchLo, kSearchHi] down to
/// 2% resolution, kTrialSessions sessions per trial.
constexpr double kSearchLo = 1000;
constexpr double kSearchHi = 16000;
constexpr double kResolution = 1.02;
constexpr size_t kTrialSessions = 5000;
constexpr size_t kWarmupSessions = 2000;
constexpr size_t kMinArrivalSessions = 2000;
/// Workers sleep until this close to a session's due time, then spin.
constexpr int64_t kSpinNs = 100000;
constexpr int kSetups = 3;

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

std::vector<SessionPlan> Plans(size_t count, uint64_t seed, size_t catalog) {
  workload::ExplorationWorkloadOptions options;
  options.sessions = count;
  options.seed = seed;
  return workload::GenerateSessions(options, catalog);
}

/// The 5% of sessions whose transcripts are replayed as the output check.
bool Sampled(const SessionPlan& plan) { return Mix(plan.seed, 17) % 20 == 0; }

struct Served {
  std::vector<double> latency_ms;
  std::vector<double> wait_ms;
  std::vector<double> service_ms;
  std::vector<SessionResult> results;  // sampled sessions (all with keep_all)
  double lag_ms = 0;
  uint64_t failed = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  bool MeetsSlo() const {
    return Percentile(latency_ms, 99) <= kSloP99Ms && lag_ms <= kSloLagMs;
  }
};

/// Serves `plans` on `threads` workers with seeded Poisson arrivals at
/// `rate` sessions/s; rate 0 makes every session due at once (closed loop).
/// Workers claim sessions in due order, sleep until just before the due
/// time and spin through the rest.
Served ServeOpenLoop(ExplorationService* service,
                     const std::vector<SessionPlan>& plans, double rate,
                     size_t threads, uint64_t seed, bool keep_all) {
  const size_t n = plans.size();
  Served out;
  out.latency_ms.resize(n);
  out.wait_ms.resize(n);
  out.service_ms.resize(n);
  out.results.resize(n);
  std::vector<int64_t> due(n);
  Rng rng(seed);
  out.start_ns = NowNs() + 2000000;
  double t = static_cast<double>(out.start_ns);
  for (size_t i = 0; i < n; ++i) {
    if (rate > 0) t += -std::log(1.0 - rng.NextDouble()) / rate * 1e9;
    due[i] = static_cast<int64_t>(t);
  }
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> failed{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      if (NowNs() < due[i]) {
        ScopedSpan wait("hbold.wait", i);
        const int64_t sleep_ns = due[i] - kSpinNs - NowNs();
        if (sleep_ns > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
        }
        while (NowNs() < due[i]) {
        }
      }
      const int64_t start = NowNs();
      SessionResult r;
      {
        ScopedSpan span("hbold.session", plans[i].session_id);
        r = service->RunSession(plans[i]);
      }
      const int64_t end = NowNs();
      out.latency_ms[i] = static_cast<double>(end - due[i]) / 1e6;
      out.wait_ms[i] = static_cast<double>(start - due[i]) / 1e6;
      out.service_ms[i] = static_cast<double>(end - start) / 1e6;
      if (r.transcript.find(" error=") != std::string::npos) failed.fetch_add(1);
      if (keep_all || Sampled(plans[i])) out.results[i] = std::move(r);
    }
  };
  std::vector<std::thread> pool;
  for (size_t w = 0; w < threads; ++w) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();
  out.end_ns = NowNs();
  out.lag_ms = n > 0 ? out.wait_ms[n - 1] : 0;
  out.failed = failed.load();
  return out;
}

struct World {
  std::vector<Source> sources;
  std::unique_ptr<FleetRun> run;
  std::unique_ptr<ExplorationService> service;
  double finalize_ms = 0;
  double refresh_ms = 0;
};

/// Generates the portal, extracts it once (day 0) and opens the service.
std::unique_ptr<World> SetUp(const RunConfig& cfg, QueryLog* log) {
  auto world = std::make_unique<World>();
  PortalShape shape;
  if (cfg.smoke) shape.endpoints = 20;
  world->sources = BuildPortal(shape, cfg.seed, &world->finalize_ms);
  Deployment deploy;
  deploy.workers = cfg.threads - 1;
  world->run = std::make_unique<FleetRun>(world->sources, deploy, log);
  world->run->fleet.ScheduleCycles(1);
  world->run->loop.RunUntilIdle();
  world->run->fleet.TakeReport();
  world->service = std::make_unique<ExplorationService>(&world->run->fleet);
  const int64_t start = NowNs();
  world->service->RefreshSnapshots();
  world->refresh_ms = MsSince(start);
  return world;
}

}  // namespace

Outcome RunExploreOpen(const RunConfig& cfg) {
  Outcome out;
  QueryLog log;
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (int k = 0; k < (cfg.trace ? 1 : kSetups); ++k) {
    world.reset();
    const int64_t start = NowNs();
    world = SetUp(cfg, &log);
    setup_s.push_back(MsSince(start) / 1e3);
  }
  ExplorationService& service = *world->service;
  const size_t catalog = service.catalog().size();
  std::printf("explore_open: %zu datasets, layout cache %zu entries\n", catalog,
              ExplorationServiceOptions{}.layout_cache_capacity);

  const size_t scale = cfg.smoke ? 20 : 1;
  std::vector<std::unique_ptr<Served>> kept;
  std::vector<std::vector<SessionPlan>> kept_plans;
  auto serve = [&](size_t sessions, uint64_t salt, double rate,
                   bool keep_all = false) {
    kept_plans.push_back(Plans(sessions / scale, Mix(cfg.seed, salt), catalog));
    kept.push_back(std::make_unique<Served>(
        ServeOpenLoop(&service, kept_plans.back(), rate, cfg.threads,
                      Mix(cfg.seed, salt + 1), keep_all)));
    out.Count(kept.back()->latency_ms.size(), kept.back()->failed);
    return kept.back().get();
  };

  // After a warm-up, rounds of a closed-loop chunk (every session due at
  // once) and a segment of Poisson arrivals at the fixed rate, so both
  // figures sample the whole run. Capacity is the median chunk rate; the
  // latency sample pools the segments, whose total size depends only on
  // --seconds, so every run's percentiles describe the same kind of mix.
  serve(kWarmupSessions, 10, 0);
  const size_t segment_sessions =
      std::max(kMinArrivalSessions,
               static_cast<size_t>(kArrivalRate * kArrivalShare * cfg.seconds)) /
      kRounds;
  std::vector<double> capacity, latency_ms;
  std::vector<const Served*> segments;
  for (int r = 0; r < kRounds; ++r) {
    const Served* chunk = serve(kCapacitySessions, 20 + 4 * r, 0);
    capacity.push_back(static_cast<double>(chunk->latency_ms.size()) /
                       (static_cast<double>(chunk->end_ns - chunk->start_ns) / 1e9));
    segments.push_back(serve(segment_sessions, 22 + 4 * r, kArrivalRate));
    latency_ms.insert(latency_ms.end(), segments.back()->latency_ms.begin(),
                      segments.back()->latency_ms.end());
  }
  LayerInputs layers;
  layers.threads = cfg.threads;
  layers.refresh_snapshots_ms = world->refresh_ms;
  layers.finalize_ms = world->finalize_ms;
  if (cfg.trace) {
    // The SLO search, then the first fixed-rate segment again, traced.
    double lo = kSearchLo, up = kSearchHi;
    for (uint64_t trial = 0; up / lo > kResolution; ++trial) {
      const double mid = std::sqrt(lo * up);
      (serve(kTrialSessions, 100 + 2 * trial, mid)->MeetsSlo() ? lo : up) = mid;
    }
    layers.max_rate_at_slo = lo;
    const viz::LayoutCacheStats before = service.cache_stats();
    const endpoint::QueryEngineStats engine_before = world->run->EngineStats();
    const uint64_t ok_before = world->run->OkQueries();
    const uint64_t rows_before = world->run->Rows();
    Tracer::Get().SetUnit(0);
    Tracer::Get().Enable(true);
    log.SetCapturing(true);
    const Served* traced = serve(segment_sessions, 22, kArrivalRate, true);
    Tracer::Get().Enable(false);
    log.SetCapturing(false);
    layers.units.push_back(UnitRecord{traced->start_ns, traced->end_ns, {}});
    const viz::LayoutCacheStats after = service.cache_stats();
    layers.layout_cache.hits = after.hits - before.hits;
    layers.layout_cache.misses = after.misses - before.misses;
    layers.layout_cache.evictions = after.evictions - before.evictions;
    layers.engine = world->run->EngineStats() - engine_before;
    layers.ok_queries = world->run->OkQueries() - ok_before;
    layers.rows = world->run->Rows() - rows_before;
    layers.untraced_ms = Median(segments[0]->service_ms);
    layers.traced_ms = Median(traced->service_ms);
    layers.session_service_ms = traced->service_ms;
    layers.session_wait_ms = traced->wait_ms;
    layers.generator_lag_ms = traced->lag_ms;
    const std::vector<SessionPlan>& plans = kept_plans.back();
    for (size_t i = 0; i < plans.size(); ++i) {
      const SessionResult& r = traced->results[i];
      for (size_t k = 0; k < r.interaction_wall_ms.size(); ++k) {
        layers.interaction_us.push_back(r.interaction_wall_ms[k] * 1e3);
        if (plans[i].actions[k].kind ==
            workload::SessionActionKind::kRenderLayouts) {
          layers.render_ms.push_back(r.interaction_wall_ms[k]);
        }
      }
    }
  }

  // Output check: sampled transcripts replayed on one thread against a
  // fresh service over the same fleet.
  ExplorationService fresh(&world->run->fleet);
  fresh.RefreshSnapshots();
  size_t replayed = 0, mismatched = 0;
  for (size_t p = 0; p < kept.size(); ++p) {
    for (size_t i = 0; i < kept_plans[p].size(); ++i) {
      if (!Sampled(kept_plans[p][i])) continue;
      ++replayed;
      if (fresh.RunSession(kept_plans[p][i]).transcript_fingerprint !=
          kept[p]->results[i].transcript_fingerprint) {
        ++mismatched;
      }
    }
  }
  out.Check("sampled_transcripts", replayed > 0 && mismatched == 0,
            std::to_string(replayed - mismatched) + "/" +
                std::to_string(replayed) + " replayed transcripts match");
  std::vector<SessionResult> pinned;
  for (size_t i = 0; i < std::min<size_t>(64, kept_plans[0].size()); ++i) {
    pinned.push_back(fresh.RunSession(kept_plans[0][i]));
  }
  out.SetFingerprint(HexU64(ExplorationService::CombinedFingerprint(pinned)));

  if (!cfg.trace) {
    std::printf("closed-loop capacity %.0f sessions/s (median of %zu chunks); "
                "%zu sessions at %.0f/s\n",
                Median(capacity), capacity.size(), latency_ms.size(),
                kArrivalRate);
    AddEndToEnd(&out, setup_s, Median(capacity), latency_ms);
    return out;
  }
  ReplayWorld(world->sources, log, ShardDbs(world->run->fleet), cfg.seed,
              &layers);
  FinishTrace(cfg, layers, &out);
  return out;
}

}  // namespace hbold::e2e
