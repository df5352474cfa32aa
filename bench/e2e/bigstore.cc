// bigstore_ooc: one large Linked Data source whose store is past the
// backend threshold, so it is served from mmap'd sorted runs on disk. The
// timed phase alternates a cold extraction with one closed-loop client's
// whole pass over seeded drill-downs: instance samples, resource
// descriptions, visual queries with a label FILTER and two-class arc
// queries. Whole passes keep every run's latency sample the same mix.
// Hash-join builds past a small budget spill to disk runs.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "endpoint/local_endpoint.h"
#include "hbold/presentation.h"
#include "hbold/server.h"
#include "hbold/visual_query.h"
#include "layers.h"
#include "world.h"

namespace hbold::e2e {

namespace {

namespace fs = std::filesystem;

/// Instances of the largest class: about 1.6M triples in all.
constexpr size_t kMaxInstances = 80000;
/// Stores at or past this many triples move out of core. Below the
/// production default (4M) so that a run can afford to generate the store
/// several times; the backend and every read path are the same.
constexpr size_t kDiskThresholdTriples = size_t{1} << 20;
/// Hash-join builds larger than this (~21k triples: the biggest few
/// classes' type spans) spill to sorted runs on disk.
constexpr const char* kSpillBudgetBytes = "262144";
constexpr int kSetups = 3;
/// Minimum rounds of an extraction and a drill-down pass.
constexpr int kExtractReps = 3;
/// Drill-downs whose results are compared with a one-thread replay.
constexpr size_t kCheckedOps = 256;

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// One seeded drill-down: either a drilldown:: call or a generated query.
struct DrillOp {
  enum Kind { kSample, kDescribe, kQuery } kind = kSample;
  std::string target;  // class IRI, resource IRI, or SPARQL text
};

uint64_t HashTable(const Result<sparql::ResultTable>& table) {
  return table.ok() ? Fnv64(table->ToTsv()) : 0;
}

uint64_t RunOp(endpoint::SparqlEndpoint* ep, const DrillOp& op) {
  switch (op.kind) {
    case DrillOp::kSample:
      return HashTable(drilldown::SampleInstances(ep, op.target, 5));
    case DrillOp::kDescribe:
      return HashTable(drilldown::DescribeResource(ep, op.target));
    case DrillOp::kQuery: {
      Result<endpoint::QueryOutcome> outcome = ep->Query(op.target);
      return outcome.ok() ? Fnv64(outcome->table.ToTsv()) : 0;
    }
  }
  return 0;
}

/// Builds the drill-down mix from the extracted summary: for every class an
/// instance sample, two resource descriptions, a visual query filtering an
/// attribute by a label text and a query following one of its arcs. Every
/// seed asks the same classes the same kinds of question; the seed picks
/// the resources, attributes, filter texts, arcs and the order.
std::vector<DrillOp> BuildOps(const schema::SchemaSummary& summary,
                              endpoint::SparqlEndpoint* ep, uint64_t seed) {
  Rng rng(Mix(seed, 5000));
  std::vector<DrillOp> ops;
  for (size_t node = 0; node < summary.NodeCount(); ++node) {
    const schema::ClassNode& cls = summary.nodes()[node];
    ops.push_back({DrillOp::kSample, cls.iri});

    Result<sparql::ResultTable> rows = drilldown::SampleInstances(ep, cls.iri, 16);
    if (rows.ok() && rows->num_rows() > 0 && rows->num_columns() > 0) {
      for (int k = 0; k < 2; ++k) {
        auto cell = rows->Cell(rng.Uniform(rows->num_rows()), rows->columns()[0]);
        if (cell) ops.push_back({DrillOp::kDescribe, cell->lexical()});
      }
    }

    VisualQuery filtered(summary);
    filtered.SelectClass(node);
    if (!cls.attributes.empty()) {
      const schema::Attribute& attr =
          cls.attributes[rng.Uniform(cls.attributes.size())];
      const std::string var = filtered.SelectAttribute(node, attr.iri);
      filtered.FilterRegex(var, "v" + std::to_string(rng.Uniform(100)), true);
    }
    filtered.SetLimit(10);
    ops.push_back({DrillOp::kQuery, filtered.GenerateSparql()});

    std::vector<const schema::PropertyArc*> out_arcs;
    for (const schema::PropertyArc& arc : summary.arcs()) {
      if (arc.src == node) out_arcs.push_back(&arc);
    }
    if (!out_arcs.empty()) {
      VisualQuery joined(summary);
      joined.SelectClass(node);
      joined.FollowArc(*out_arcs[rng.Uniform(out_arcs.size())]);
      joined.SetLimit(10);
      ops.push_back({DrillOp::kQuery, joined.GenerateSparql()});
    }
  }
  rng.Shuffle(&ops);
  return ops;
}

struct Extraction {
  double wall_ms = 0;
  int64_t start_ns = 0;
  DailyReport report;
  uint64_t summary_hash = 0;
  uint64_t ok_queries = 0;
  uint64_t rows = 0;
  std::unique_ptr<store::Database> db;
};

/// One cold extraction of the big source by a fresh server; deployments
/// with parallelism > 1 get a pool of `threads` - 1 workers.
Extraction Extract(const std::vector<Source>& sources, const Deployment& d,
                   QueryLog* log, size_t threads) {
  Extraction out;
  out.db = std::make_unique<store::Database>();
  sim::EventLoop loop;
  Endpoints endpoints(sources, loop.clock(), log);
  Server server(out.db.get(), &loop, MakeServerOptions(d));
  endpoint::EndpointRecord record;
  record.url = sources[0].url;
  record.name = sources[0].name;
  server.RegisterEndpoint(record);
  server.AttachEndpoint(record.url, endpoints.at(0));
  std::optional<ThreadPool> pool;
  if (d.parallelism > 1) pool.emplace(threads - 1);
  out.start_ns = NowNs();
  {
    ScopedSpan span("unit.extract", 0);
    out.report = server.RunDailyCycleOn(pool ? &*pool : nullptr, d.parallelism);
  }
  out.wall_ms = MsSince(out.start_ns);
  out.ok_queries = endpoints.traced(0).ok_queries();
  out.rows = endpoints.traced(0).rows();
  PresentationSnapshot snap = PresentationSnapshot::Capture(*out.db);
  const Json* summary = snap.FindSummaryDoc(record.url);
  const Json* clusters = snap.FindClusterDoc(record.url);
  if (summary != nullptr && clusters != nullptr) {
    out.summary_hash = Fnv64(summary->Dump() + "\n" + clusters->Dump());
  }
  return out;
}

}  // namespace

Outcome RunBigstoreOoc(const RunConfig& cfg) {
  Outcome out;
  setenv("HBOLD_HASH_SPILL_BUDGET", kSpillBudgetBytes, 1);
  const std::string dir = cfg.tmp_dir + "/bigstore";
  const size_t max_instances = cfg.smoke ? kMaxInstances / 20 : kMaxInstances;
  endpoint::StoreBackendPolicy policy;
  policy.disk_threshold_triples = cfg.smoke ? kDiskThresholdTriples / 20
                                            : kDiskThresholdTriples;
  policy.directory = dir;

  std::vector<Source> sources;
  std::vector<double> setup_s;
  double finalize_ms = 0;
  bool on_disk = true;
  for (int k = 0; k < (cfg.trace ? 1 : kSetups); ++k) {
    sources.clear();
    fs::remove_all(dir);
    const int64_t start = NowNs();
    sources.push_back(BuildBigSource(max_instances, cfg.seed));
    const int64_t generated = NowNs();
    Status moved =
        endpoint::ApplyStoreBackendPolicy(sources[0].store.get(), policy);
    sources[0].store->FinalizeIndex();
    finalize_ms = MsSince(generated);
    setup_s.push_back(MsSince(start) / 1e3);
    on_disk = on_disk && moved.ok() && sources[0].store->on_disk();
  }
  const size_t triples = sources[0].store->size();
  std::printf("bigstore_ooc: %zu triples, %s\n", triples,
              on_disk ? "mmap-backed runs" : "IN RAM");
  out.Check("out_of_core", on_disk, "store served from disk runs");

  // Timed extractions run one query at a time: on this class of machine
  // the width-4 fan-out flips between ~3.5x and no gain from one minute to
  // the next, which no bound could absorb. Traced runs measure the fan-out
  // as a per-layer figure instead.
  Deployment sequential;
  sequential.parallelism = 1;
  Deployment batched;
  batched.parallelism = static_cast<int>(cfg.threads - 1);
  batched.query_batch_width = 4;

  // A warm-up extraction, whose summary seeds the drill-downs; the first
  // drill-downs' results on a fresh endpoint are the output check.
  QueryLog log;
  std::vector<uint64_t> hashes;
  Extraction warm = Extract(sources, sequential, &log, cfg.threads);
  out.Count(warm.report.due, warm.report.failed);
  hashes.push_back(warm.summary_hash);
  sim::EventLoop loop;
  Endpoints endpoints(sources, loop.clock(), &log);
  endpoint::SparqlEndpoint* ep = endpoints.at(0);
  Result<schema::SchemaSummary> summary =
      PresentationSnapshot::Capture(*warm.db).LoadSchemaSummary(sources[0].url);
  std::vector<DrillOp> ops =
      summary.ok() ? BuildOps(*summary, ep, cfg.seed) : std::vector<DrillOp>{};
  std::vector<uint64_t> want;
  for (size_t i = 0; i < kCheckedOps && i < ops.size(); ++i) {
    want.push_back(RunOp(ep, ops[i]));
  }

  // Rounds of one cold extraction and one whole pass over the drill-downs,
  // until the time is up, so both figures sample the whole run. A traced
  // run traces round 1; round 0 is its untraced baseline.
  LayerInputs layers;
  layers.threads = cfg.threads;
  layers.finalize_ms = finalize_ms;
  layers.url_ids[sources[0].url] = 0;
  std::vector<double> extract_ms, drill_ms;
  std::vector<uint64_t> got;
  std::unique_ptr<store::Database> db;
  const int64_t phase_start = NowNs();
  const int min_rounds = cfg.trace ? 2 : kExtractReps;
  for (int round = 0;
       !ops.empty() && (round < min_rounds ||
                        (!cfg.trace && MsSince(phase_start) < cfg.seconds * 1e3));
       ++round) {
    const bool traced = cfg.trace && round == 1;
    if (traced) {
      Tracer::Get().SetUnit(0);
      Tracer::Get().Enable(true);
      log.SetCapturing(true);
    }
    Extraction e = Extract(sources, sequential, &log, cfg.threads);
    out.Count(e.report.due, e.report.failed);
    extract_ms.push_back(e.wall_ms);
    hashes.push_back(e.summary_hash);
    const uint64_t ok_before = endpoints.traced(0).ok_queries();
    const uint64_t rows_before = endpoints.traced(0).rows();
    const endpoint::QueryEngineStats engine_before = ep->engine_stats();
    if (traced) {
      layers.units.push_back(UnitRecord{
          e.start_ns, e.start_ns + static_cast<int64_t>(e.wall_ms * 1e6),
          e.report.reports});
      layers.engine.plan_cache_hits += e.report.plan_cache_hits;
      layers.engine.plan_cache_misses += e.report.plan_cache_misses;
      layers.engine.hash_join_builds += e.report.hash_join_builds;
      layers.ok_queries += e.ok_queries;
      layers.rows += e.rows;
      Tracer::Get().SetUnit(1);
    }
    const int64_t pass_start = NowNs();
    for (size_t k = 0; k < ops.size(); ++k) {
      const int64_t start = NowNs();
      uint64_t h;
      {
        ScopedSpan span("hbold.drilldown", k);
        h = RunOp(ep, ops[k]);
      }
      drill_ms.push_back(MsSince(start));
      if (got.size() < want.size()) got.push_back(h);
    }
    Tracer::Get().Enable(false);
    log.SetCapturing(false);
    if (traced) {
      layers.units.push_back(UnitRecord{pass_start, NowNs(), {}});
      layers.engine += ep->engine_stats() - engine_before;
      layers.ok_queries += endpoints.traced(0).ok_queries() - ok_before;
      layers.rows += endpoints.traced(0).rows() - rows_before;
    }
    db = std::move(e.db);
  }
  out.Count(drill_ms.size(), 0);
  if (cfg.trace) {
    layers.untraced_ms = extract_ms[0];
    layers.traced_ms = extract_ms[1];
    Extraction e = Extract(sources, batched, &log, cfg.threads);
    hashes.push_back(e.summary_hash);
    layers.batch_speedup = layers.untraced_ms / e.wall_ms;
  }

  bool same = hashes[0] != 0;
  for (uint64_t h : hashes) same = same && h == hashes[0];
  out.Check("summary_hash", same,
            std::to_string(hashes.size()) + " extractions agree on " +
                HexU64(hashes[0]));
  out.Check("drilldown_results", !want.empty() && got == want,
            std::to_string(want.size()) +
                " drill-downs match a replay on a fresh endpoint");
  uint64_t fp = hashes[0];
  for (uint64_t h : want) fp = fp * 1099511628211ULL ^ h;
  out.SetFingerprint(HexU64(fp));
  std::printf("bigstore_ooc: %zu rounds of an extraction and %zu "
              "drill-downs; extraction median %.1f ms\n",
              extract_ms.size(), ops.size(), Median(extract_ms));

  if (!cfg.trace) {
    AddEndToEnd(&out, setup_s,
                static_cast<double>(triples) / (Median(extract_ms) / 1e3),
                drill_ms);
    fs::remove_all(dir);
    return out;
  }
  ReplayWorld(sources, log, {db.get()}, cfg.seed, &layers);
  FinishTrace(cfg, layers, &out);
  fs::remove_all(dir);
  return out;
}

}  // namespace hbold::e2e
