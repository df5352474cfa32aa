// The server side of H-BOLD over a whole portal of Linked Data endpoints.
//
// portal_full: every timed cycle is a cold full extraction of the portal on
// a fresh deployment (new fleet, new endpoints, empty plan caches) over the
// same stores. Extraction-dominated: SPARQL execution, aggregate pushdown,
// dialect fallbacks, summary/cluster/persist; no store writes.
//
// portal_churn: stores churn daily; incremental extraction (kBounded) runs
// 14 days and every cycle ends with a durable snapshot of each shard. Writes
// beside reads: mutation, index rebuilds, plan-cache epoch flushes, probes,
// dirty-class re-extraction, summary patching, fsync'd snapshots.
//
// Both report per-pipeline latency (an endpoint's query window plus the
// stage times the program reports for it) and pipelines per second.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "world.h"

namespace hbold::e2e {

namespace {

namespace fs = std::filesystem;

/// Set-ups per run (median reported); the portal builds in ~0.2 s.
constexpr int kSetups = 5;
/// Parallel cycles run before timing: the first ones in a process pay for
/// allocator growth and are several times slower.
constexpr int kWarmupCycles = 2;
constexpr size_t kMinCycles = 5;
constexpr int64_t kChurnDays = 14;
constexpr size_t kMinChurnReps = 3;

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// ------------------------------------------------------------ portal_full

PortalShape FullShape(bool smoke) {
  PortalShape shape;  // 384 endpoints: 3x the paper's 130-endpoint portal
  if (smoke) shape.endpoints = 20;
  return shape;
}

/// One cold full-portal cycle on a fresh deployment. The deployment is
/// returned so callers can read its endpoints and persisted datasets.
std::unique_ptr<FleetRun> RunCycle(const std::vector<Source>& sources,
                                   const Deployment& d, QueryLog* log,
                                   UnitRecord* unit, FleetReport* report) {
  auto run = std::make_unique<FleetRun>(sources, d, log);
  run->fleet.ScheduleCycles(1);
  unit->start_ns = NowNs();
  {
    ScopedSpan span("unit.cycle", 0);
    run->loop.RunUntilIdle();
  }
  unit->end_ns = NowNs();
  *report = run->fleet.TakeReport();
  unit->pipelines = report->days.at(0).reports;
  return run;
}

// ------------------------------------------------------------ portal_churn

PortalShape ChurnShape(bool smoke) {
  PortalShape shape;
  shape.endpoints = smoke ? 12 : 64;
  shape.max_instances_per_class = 60;
  shape.daily_churn = 0.05;
  shape.class_birth_probability = 0.02;
  shape.class_retire_probability = 0.01;
  shape.quiet_share = 1.0 / 3.0;
  return shape;
}

struct ChurnRep {
  FleetReport report;
  double setup_s = 0;
  double timed_ms = 0;
  uint64_t endpoint_days = 0;
  std::vector<double> pipeline_ms;
  bool snapshots_ok = true;
  bool reload_identical = true;
};

/// One rep: a freshly generated world, day 0 as set-up, then kChurnDays
/// timed days, each ending with a durable snapshot of every shard. With
/// `layers` the timed days are traced, one unit per day.
ChurnRep RunChurnRep(const RunConfig& cfg, const Deployment& d,
                     const std::string& dir, QueryLog* log,
                     LayerInputs* layers) {
  ChurnRep rep;
  fs::remove_all(dir);
  const int64_t setup_start = NowNs();
  double finalize_ms = 0;
  std::vector<Source> sources =
      BuildPortal(ChurnShape(cfg.smoke), cfg.seed, &finalize_ms);
  FleetRun run(sources, d, log);
  run.fleet.ScheduleCycles(1);
  run.loop.RunUntilIdle();
  run.fleet.TakeReport();
  rep.setup_s = MsSince(setup_start) / 1e3;
  TakePipelineLatencies(run.endpoints, {}, nullptr);

  const endpoint::QueryEngineStats engine_before = run.EngineStats();
  const uint64_t ok_before = run.OkQueries();
  const uint64_t rows_before = run.Rows();
  int64_t day_start = 0;
  run.fleet.SetCycleCompleteHandler([&](const FleetDayReport& day) {
    TakePipelineLatencies(run.endpoints, day.reports, &rep.pipeline_ms);
    for (size_t s = 0; s < run.fleet.num_shards(); ++s) {
      const std::string shard_dir = dir + "/shard" + std::to_string(s);
      const int64_t start = NowNs();
      Status saved;
      {
        ScopedSpan span("store.snapshot", s);
        saved = run.fleet.shard_db(s).SaveToDirectory(shard_dir);
      }
      rep.snapshots_ok = rep.snapshots_ok && saved.ok();
      if (layers == nullptr) continue;
      layers->snapshot_ms += MsSince(start);
      for (const auto& entry : fs::directory_iterator(shard_dir)) {
        layers->snapshot_bytes += entry.file_size();
        ++layers->snapshot_files;
      }
    }
    if (layers != nullptr) {
      layers->units.push_back(UnitRecord{day_start, NowNs(), day.reports});
      Tracer::Get().SetUnit(static_cast<uint32_t>(layers->units.size()));
    }
    day_start = NowNs();
  });
  if (layers != nullptr) {
    for (size_t i = 0; i < sources.size(); ++i) {
      layers->url_ids[sources[i].url] = i;
    }
    Tracer::Get().SetUnit(static_cast<uint32_t>(layers->units.size()));
    Tracer::Get().Enable(true);
    log->SetCapturing(true);
  }
  run.fleet.ScheduleCycles(kChurnDays);
  const int64_t timed_start = NowNs();
  day_start = timed_start;
  run.loop.RunUntilIdle();
  rep.timed_ms = MsSince(timed_start);
  rep.report = run.fleet.TakeReport();
  for (const FleetDayReport& day : rep.report.days) {
    rep.endpoint_days += day.succeeded;
  }
  if (layers != nullptr) {
    Tracer::Get().Enable(false);
    log->SetCapturing(false);
    layers->finalize_ms = finalize_ms;
    layers->engine += run.EngineStats() - engine_before;
    layers->ok_queries += run.OkQueries() - ok_before;
    layers->rows += run.Rows() - rows_before;
    ReplayWorld(sources, *log, ShardDbs(run.fleet), cfg.seed, layers);
  }

  // The last snapshot must load back to exactly what the shard holds.
  for (size_t s = 0; s < run.fleet.num_shards(); ++s) {
    store::Database reloaded;
    Status loaded =
        reloaded.LoadFromDirectory(dir + "/shard" + std::to_string(s));
    rep.reload_identical = rep.reload_identical && loaded.ok() &&
                           reloaded.CanonicalDump() ==
                               run.fleet.shard_db(s).CanonicalDump();
  }
  return rep;
}

}  // namespace

Outcome RunPortalFull(const RunConfig& cfg) {
  Outcome out;
  Deployment deploy;
  deploy.workers = cfg.threads - 1;
  Deployment reference = deploy;
  reference.workers = 1;

  std::vector<double> setup_s;
  std::vector<Source> sources;
  double finalize_ms = 0;
  for (int k = 0; k < (cfg.trace ? 1 : kSetups); ++k) {
    sources.clear();
    finalize_ms = 0;
    const int64_t start = NowNs();
    sources = BuildPortal(FullShape(cfg.smoke), cfg.seed, &finalize_ms);
    setup_s.push_back(MsSince(start) / 1e3);
  }
  std::printf("portal_full: %zu endpoints, %zu triples\n", sources.size(),
              TotalTriples(sources));

  // The inline 1-worker cycle every parallel cycle must reproduce.
  UnitRecord unit;
  FleetReport report;
  RunCycle(sources, reference, nullptr, &unit, &report);
  const std::string want = report.Fingerprint();
  out.SetFingerprint(want);
  size_t cycles = 0, mismatches = 0;
  auto check = [&](const FleetReport& r) {
    ++cycles;
    if (r.Fingerprint() != want) ++mismatches;
    out.Count(r.days.at(0).due, r.days.at(0).failed);
  };
  for (int k = 0; k < kWarmupCycles; ++k) {
    RunCycle(sources, deploy, nullptr, &unit, &report);
    check(report);
  }

  QueryLog log;
  LayerInputs layers;
  layers.threads = cfg.threads;
  layers.finalize_ms = finalize_ms;
  for (size_t i = 0; i < sources.size(); ++i) layers.url_ids[sources[i].url] = i;
  std::unique_ptr<FleetRun> last_traced;
  std::vector<double> cycle_ms, traced_ms, pipeline_ms;
  const int64_t phase_start = NowNs();
  while (cycle_ms.size() < kMinCycles || MsSince(phase_start) < cfg.seconds * 1e3) {
    // Traced runs alternate untraced and traced cycles: the untraced ones
    // give the tracing overhead.
    const bool traced = cfg.trace && cycle_ms.size() > traced_ms.size();
    if (traced) {
      Tracer::Get().SetUnit(static_cast<uint32_t>(layers.units.size()));
      Tracer::Get().Enable(true);
      log.SetCapturing(layers.units.empty());
    }
    std::unique_ptr<FleetRun> run = RunCycle(sources, deploy, &log, &unit, &report);
    Tracer::Get().Enable(false);
    log.SetCapturing(false);
    check(report);
    const double ms = static_cast<double>(unit.end_ns - unit.start_ns) / 1e6;
    if (!traced) {
      cycle_ms.push_back(ms);
      TakePipelineLatencies(run->endpoints, unit.pipelines, &pipeline_ms);
      continue;
    }
    traced_ms.push_back(ms);
    layers.units.push_back(unit);
    layers.engine += run->EngineStats();
    layers.ok_queries += run->OkQueries();
    layers.rows += run->Rows();
    last_traced = std::move(run);
  }
  out.Check("fleet_fingerprint", mismatches == 0,
            std::to_string(cycles - mismatches) + "/" + std::to_string(cycles) +
                " parallel cycles match the inline reference " + want);
  if (!cfg.trace) {
    std::printf("cycles: %zu timed, median %.1f ms\n", cycle_ms.size(),
                Median(cycle_ms));
    AddEndToEnd(&out, setup_s,
                static_cast<double>(sources.size()) / (Median(cycle_ms) / 1e3),
                pipeline_ms);
    return out;
  }
  layers.untraced_ms = Median(cycle_ms);
  layers.traced_ms = Median(traced_ms);
  ReplayWorld(sources, log, ShardDbs(last_traced->fleet), cfg.seed, &layers);
  FinishTrace(cfg, layers, &out);
  return out;
}

Outcome RunPortalChurn(const RunConfig& cfg) {
  Outcome out;
  Deployment deploy;
  deploy.workers = cfg.threads - 1;
  deploy.mode = IncrementalMode::kBounded;
  deploy.refresh_age_days = 1;  // the staleness budget keeps its default, 7
  const std::string dir = cfg.tmp_dir + "/churn";

  // Rep 0 warms the process up and, in a traced run, is the untraced
  // baseline; a traced run traces rep 1 only.
  QueryLog log;
  LayerInputs layers;
  layers.threads = cfg.threads;
  std::vector<ChurnRep> reps;
  double timed_ms = 0;
  const size_t min_reps = cfg.trace ? 2 : 1 + kMinChurnReps;
  while (reps.size() < min_reps || (!cfg.trace && timed_ms < cfg.seconds * 1e3)) {
    const bool traced = cfg.trace && reps.size() == 1;
    reps.push_back(RunChurnRep(cfg, deploy, dir, &log, traced ? &layers : nullptr));
    if (reps.size() > 1) timed_ms += reps.back().timed_ms;
  }
  fs::remove_all(dir);

  const std::string content = reps[0].report.ContentFingerprint();
  const std::string canonical = reps[0].report.Fingerprint();
  out.SetFingerprint(content);
  bool same = true, snapshots_ok = true, reloads_ok = true;
  std::vector<double> setup_s, rate, rep_ms, pipeline_ms;
  for (size_t r = 0; r < reps.size(); ++r) {
    const ChurnRep& rep = reps[r];
    same = same && rep.report.ContentFingerprint() == content &&
           rep.report.Fingerprint() == canonical;
    snapshots_ok = snapshots_ok && rep.snapshots_ok;
    reloads_ok = reloads_ok && rep.reload_identical;
    for (const FleetDayReport& day : rep.report.days) {
      out.Count(day.due, day.failed);
    }
    setup_s.push_back(rep.setup_s);
    if (r == 0) continue;
    rate.push_back(static_cast<double>(rep.endpoint_days) / (rep.timed_ms / 1e3));
    rep_ms.push_back(rep.timed_ms);
    pipeline_ms.insert(pipeline_ms.end(), rep.pipeline_ms.begin(),
                       rep.pipeline_ms.end());
  }
  out.Check("content_fingerprint", same,
            std::to_string(reps.size()) + " reps agree on " + content +
                " (canonical " + canonical + ")");
  out.Check("snapshots", snapshots_ok && reloads_ok,
            "every save succeeded and the last one reloads identically");
  if (!cfg.trace) {
    std::printf("reps: %zu timed, median %.1f ms\n", rep_ms.size(),
                Median(rep_ms));
    AddEndToEnd(&out, setup_s, Median(rate), pipeline_ms);
    return out;
  }
  layers.untraced_ms = reps[0].timed_ms;
  layers.traced_ms = reps[1].timed_ms;
  FinishTrace(cfg, layers, &out);
  return out;
}

}  // namespace hbold::e2e
