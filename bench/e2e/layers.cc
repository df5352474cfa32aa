#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "cluster/cluster_schema.h"
#include "cluster/louvain.h"
#include "common/random.h"
#include "extraction/extractor.h"
#include "hbold/presentation.h"
#include "schema/schema_summary.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/planner.h"
#include "world.h"

namespace hbold::e2e {

namespace {

double MsBetween(int64_t a_ns, int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e6;
}

/// Evenly spaced picks of `want` indexes out of `n`, offset by the seed.
std::vector<size_t> SpreadSample(size_t n, size_t want, uint64_t seed) {
  std::vector<size_t> picks;
  if (n == 0) return picks;
  want = std::min(want, n);
  const size_t offset = static_cast<size_t>(seed % n);
  for (size_t k = 0; k < want; ++k) picks.push_back((offset + k * n / want) % n);
  std::sort(picks.begin(), picks.end());
  return picks;
}

struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Per-call statistics of one layer.
struct LayerRow {
  double self_ms = 0;
  std::vector<double> per_call_ms;
};

/// Everything the layer table and the per-layer metrics derive from spans.
struct Accounting {
  std::map<std::string, LayerRow> rows;
  std::vector<double> unit_wall_ms;
  std::vector<double> idle_tail_ms;  // wall length of each unit's tail
  double worker_ms = 0;              // sum of unit wall x threads
  double busy_ms = 0;                // per-thread activity unions
  double idle_tail_worker_ms = 0;    // idle worker time inside the tails
};

bool IsContainer(const char* name) { return std::strncmp(name, "unit.", 5) == 0; }

Accounting Account(const LayerInputs& in, const std::vector<Span>& spans) {
  Accounting acc;
  std::vector<std::vector<const Span*>> by_unit(in.units.size());
  for (const Span& s : spans) {
    if (s.unit < by_unit.size()) by_unit[s.unit].push_back(&s);
  }
  for (size_t u = 0; u < in.units.size(); ++u) {
    const UnitRecord& unit = in.units[u];
    if (unit.end_ns <= unit.start_ns) continue;
    acc.unit_wall_ms.push_back(MsBetween(unit.start_ns, unit.end_ns));
    acc.worker_ms += MsBetween(unit.start_ns, unit.end_ns) *
                     static_cast<double>(in.threads);

    // Pipelines: an endpoint's first to last query in this unit, run by the
    // thread that issued the first one, extended by the stage times the
    // program reported for it.
    struct Pipe {
      int64_t start = 0, end = 0;
      uint32_t tid = 0;
      double own_ms = 0;
      bool seen = false;
    };
    std::unordered_map<uint64_t, Pipe> pipes;
    std::map<uint32_t, std::vector<Interval>> activity;
    for (const Span* s : by_unit[u]) {
      if (IsContainer(s->name)) continue;
      LayerRow& row = acc.rows[s->name];
      row.self_ms += s->ms();
      row.per_call_ms.push_back(s->ms());
      const bool endpoint_call = std::strcmp(s->name, "endpoint.query") == 0 ||
                                 std::strcmp(s->name, "endpoint.probe") == 0;
      if (endpoint_call && !unit.pipelines.empty()) {
        Pipe& p = pipes[s->id];
        if (!p.seen || s->start_ns < p.start) {
          p.start = s->start_ns;
          p.tid = s->tid;
        }
        p.end = p.seen ? std::max(p.end, s->end_ns) : s->end_ns;
        p.seen = true;
      }
      activity[s->tid].push_back(Interval{s->start_ns, s->end_ns});
    }
    std::unordered_map<uint64_t, double> stage_ms;
    for (const PipelineReport& r : unit.pipelines) {
      auto it = in.url_ids.find(r.url);
      if (it == in.url_ids.end()) continue;
      stage_ms[it->second] += r.summary_ms + r.cluster_ms + r.persist_ms;
    }
    for (const Span* s : by_unit[u]) {
      auto it = pipes.find(s->id);
      if (it == pipes.end() || IsContainer(s->name)) continue;
      const bool endpoint_call = std::strcmp(s->name, "endpoint.query") == 0 ||
                                 std::strcmp(s->name, "endpoint.probe") == 0;
      if (endpoint_call && s->tid == it->second.tid) it->second.own_ms += s->ms();
    }
    for (auto& [id, p] : pipes) {
      const double stages = stage_ms.count(id) ? stage_ms[id] : 0;
      const int64_t end = p.end + static_cast<int64_t>(stages * 1e6);
      activity[p.tid].push_back(Interval{p.start, end});
      acc.rows["extraction"].self_ms +=
          std::max(0.0, MsBetween(p.start, p.end) - p.own_ms);
      acc.rows["extraction"].per_call_ms.push_back(MsBetween(p.start, p.end));
    }

    // Busy time: per-thread unions clipped to the unit. Tail: from the last
    // instant every thread was busy to the end of the unit.
    std::vector<std::pair<int64_t, int>> edges;
    for (auto& [tid, list] : activity) {
      std::sort(list.begin(), list.end(), [](const Interval& a, const Interval& b) {
        return a.start < b.start;
      });
      std::vector<Interval> merged;
      for (const Interval& i : list) {
        const int64_t start = std::max(i.start, unit.start_ns);
        const int64_t end = std::max(start, std::min(i.end, unit.end_ns));
        if (!merged.empty() && start <= merged.back().end) {
          merged.back().end = std::max(merged.back().end, end);
        } else {
          merged.push_back(Interval{start, end});
        }
      }
      for (const Interval& i : merged) {
        acc.busy_ms += MsBetween(i.start, i.end);
        edges.emplace_back(i.start, +1);
        edges.emplace_back(i.end, -1);
      }
    }
    std::sort(edges.begin(), edges.end());
    const int threads = static_cast<int>(in.threads);
    int inflight = 0;
    int64_t tail_start = unit.start_ns;
    for (const auto& [t, delta] : edges) {
      const int before = inflight;
      inflight += delta;
      if (before >= threads && inflight < threads) tail_start = t;
    }
    int64_t idle_ns = 0;
    inflight = 0;
    int64_t prev = tail_start;
    for (const auto& [t, delta] : edges) {
      if (t > tail_start) {
        idle_ns += (t - std::max(prev, tail_start)) *
                   std::max(0, threads - inflight);
        prev = t;
      }
      inflight += delta;
    }
    idle_ns += (unit.end_ns - std::max(prev, tail_start)) *
               std::max(0, threads - inflight);
    acc.idle_tail_ms.push_back(MsBetween(tail_start, unit.end_ns));
    acc.idle_tail_worker_ms += static_cast<double>(idle_ns) / 1e6;
  }

  // Stages the program timed itself.
  for (const UnitRecord& unit : in.units) {
    for (const PipelineReport& r : unit.pipelines) {
      acc.rows["schema.summary"].self_ms += r.summary_ms;
      acc.rows["schema.summary"].per_call_ms.push_back(r.summary_ms);
      acc.rows["cluster"].self_ms += r.cluster_ms;
      acc.rows["cluster"].per_call_ms.push_back(r.cluster_ms);
      acc.rows["store.persist"].self_ms += r.persist_ms;
      acc.rows["store.persist"].per_call_ms.push_back(r.persist_ms);
    }
  }

  // Parents whose nested calls belong to other layers: report self time.
  auto nested_ms = [&](const char* parent, const char* child) {
    std::map<uint32_t, std::vector<const Span*>> by_tid;
    for (const Span& s : spans) {
      if (std::strcmp(s.name, parent) == 0 || std::strcmp(s.name, child) == 0) {
        by_tid[s.tid].push_back(&s);
      }
    }
    double total = 0;
    for (auto& [tid, list] : by_tid) {
      std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
        return a->start_ns < b->start_ns;
      });
      int64_t open_end = -1;
      for (const Span* s : list) {
        if (std::strcmp(s->name, parent) == 0) {
          open_end = s->end_ns;
        } else if (s->end_ns <= open_end) {
          total += s->ms();
        }
      }
    }
    return total;
  };
  auto subtract = [&](const char* parent, double ms) {
    auto it = acc.rows.find(parent);
    if (it != acc.rows.end()) it->second.self_ms = std::max(0.0, it->second.self_ms - ms);
  };
  subtract("hbold.session", nested_ms("hbold.session", "endpoint.query"));
  subtract("hbold.drilldown", nested_ms("hbold.drilldown", "endpoint.query"));
  if (!in.render_ms.empty()) {
    double render = 0;
    for (double ms : in.render_ms) render += ms;
    acc.rows["viz.render"].self_ms = render;
    acc.rows["viz.render"].per_call_ms = in.render_ms;
    subtract("hbold.session", render);
  }
  return acc;
}

}  // namespace

SparqlReplay ReplaySparql(
    const std::vector<std::pair<uint64_t, std::string>>& captured,
    const std::vector<const rdf::TripleStore*>& stores, size_t max_queries) {
  SparqlReplay out;
  std::map<uint64_t, std::unique_ptr<sparql::Executor>> executors;
  for (size_t index : SpreadSample(captured.size(), max_queries, 0)) {
    const auto& [id, text] = captured[index];
    if (id >= stores.size()) continue;
    const rdf::TripleStore* store = stores[id];
    auto& executor = executors[id];
    if (!executor) executor = std::make_unique<sparql::Executor>(store);
    const int64_t t0 = NowNs();
    Result<sparql::SelectQuery> query = sparql::ParseQuery(text);
    const int64_t t1 = NowNs();
    if (!query.ok()) continue;
    sparql::QueryPlan plan =
        sparql::PlanQuery(*query, sparql::ExecOptions{}, store);
    const int64_t t2 = NowNs();
    sparql::ExecStats stats;
    Result<sparql::ResultTable> table = executor->Execute(*query, &stats);
    const int64_t t3 = NowNs();
    if (!table.ok() || plan.groups.empty()) continue;
    ++out.queries;
    out.parse_ms += MsBetween(t0, t1);
    out.plan_ms += MsBetween(t1, t2);
    out.exec_ms += std::max(0.0, MsBetween(t2, t3) - MsBetween(t1, t2));
    out.bindings += stats.intermediate_bindings;
    out.rows += stats.result_rows;
    out.fast_path += stats.fast_path_hits > 0 ? 1 : 0;
    out.spills += stats.hash_join_spills;
  }
  return out;
}

RdfReplay ReplayRdf(const std::vector<const rdf::TripleStore*>& stores,
                    uint64_t seed) {
  constexpr size_t kTriples = 256;
  std::vector<double> count_ns, span_ns;
  Rng rng(Mix(seed, 4000));
  for (size_t index : SpreadSample(stores.size(), 16, seed)) {
    const rdf::TripleStore* store = stores[index];
    rdf::TripleSpan all = store->Span(rdf::TriplePattern{});
    if (all.empty()) continue;
    std::vector<rdf::TriplePattern> patterns;
    for (size_t k = 0; k < kTriples; ++k) {
      const rdf::Triple& t = all.data[rng.Uniform(all.size)];
      patterns.push_back({t.s, rdf::kInvalidTermId, rdf::kInvalidTermId});
      patterns.push_back({rdf::kInvalidTermId, t.p, rdf::kInvalidTermId});
      patterns.push_back({rdf::kInvalidTermId, t.p, t.o});
      patterns.push_back({t.s, t.p, rdf::kInvalidTermId});
      patterns.push_back({rdf::kInvalidTermId, rdf::kInvalidTermId, t.o});
    }
    int64_t start = NowNs();
    for (const rdf::TriplePattern& p : patterns) store->Count(p);
    count_ns.push_back(static_cast<double>(NowNs() - start) /
                       static_cast<double>(patterns.size()));
    start = NowNs();
    for (const rdf::TriplePattern& p : patterns) store->Span(p);
    span_ns.push_back(static_cast<double>(NowNs() - start) /
                      static_cast<double>(patterns.size()));
  }
  RdfReplay out;
  out.count_p50_ns = Median(count_ns);
  out.span_p50_ns = Median(span_ns);
  return out;
}

SchemaReplay ReplaySchemaCluster(
    const std::vector<endpoint::SparqlEndpoint*>& endpoints, size_t sample,
    uint64_t seed) {
  SchemaReplay out;
  extraction::IndexExtractor extractor;
  std::vector<double> louvain_us;
  for (size_t index : SpreadSample(endpoints.size(), sample, seed)) {
    extraction::ExtractionReport report;
    Result<extraction::IndexSummary> indexes =
        extractor.Extract(endpoints[index], &report);
    if (!indexes.ok()) continue;
    int64_t t0 = NowNs();
    schema::SchemaSummary summary = schema::SchemaSummary::FromIndexes(*indexes);
    int64_t t1 = NowNs();
    cluster::UGraph graph = cluster::BuildClassGraph(summary);
    cluster::Partition partition = cluster::Louvain(graph);
    cluster::ClusterSchema::FromPartition(summary, partition);
    int64_t t2 = NowNs();
    out.from_indexes_ms += MsBetween(t0, t1);
    out.louvain_ms += MsBetween(t1, t2);
    louvain_us.push_back(MsBetween(t1, t2) * 1e3);
  }
  out.louvain_p99_us = Percentile(louvain_us, 99);
  return out;
}

VizReplay ReplayLayouts(const std::vector<const store::Database*>& dbs,
                        size_t max_datasets) {
  std::vector<double> ms;
  viz::LayoutSetOptions options;
  for (const store::Database* db : dbs) {
    PresentationSnapshot snap = PresentationSnapshot::Capture(*db);
    for (const DatasetInfo& info : snap.ListDatasets()) {
      if (ms.size() >= max_datasets) break;
      Result<schema::SchemaSummary> summary = snap.LoadSchemaSummary(info.url);
      Result<cluster::ClusterSchema> clusters = snap.LoadClusterSchema(info.url);
      if (!summary.ok() || !clusters.ok()) continue;
      const int64_t start = NowNs();
      viz::ComputeLayoutSet(*summary, *clusters, info.url, options);
      ms.push_back(MsBetween(start, NowNs()));
    }
  }
  VizReplay out;
  out.compute_p50_ms = Percentile(ms, 50);
  out.compute_p99_ms = Percentile(ms, 99);
  return out;
}

void ReplayWorld(const std::vector<Source>& sources, const QueryLog& log,
                 const std::vector<const store::Database*>& dbs, uint64_t seed,
                 LayerInputs* layers) {
  std::vector<const rdf::TripleStore*> stores;
  for (const Source& s : sources) stores.push_back(s.store.get());
  layers->sparql = ReplaySparql(log.Sorted(), stores, 3000);
  layers->rdf = ReplayRdf(stores, seed);
  sim::EventLoop loop;
  Endpoints raw(sources, loop.clock(), nullptr);
  std::vector<endpoint::SparqlEndpoint*> endpoints;
  for (size_t i = 0; i < raw.size(); ++i) endpoints.push_back(raw.at(i));
  layers->schema = ReplaySchemaCluster(endpoints, 64, seed);
  layers->viz = ReplayLayouts(dbs, 128);
}

std::vector<const store::Database*> ShardDbs(const Fleet& fleet) {
  std::vector<const store::Database*> dbs;
  for (size_t s = 0; s < fleet.num_shards(); ++s) dbs.push_back(&fleet.shard_db(s));
  return dbs;
}

void FinishTrace(const RunConfig& cfg, const LayerInputs& in, Outcome* out) {
  Tracer::Get().Enable(false);
  const std::string path = cfg.out_dir + "/trace_" + cfg.workload + ".json";
  if (Tracer::Get().WriteChromeTrace(path, 0)) {
    std::printf("wrote %s\n", path.c_str());
  }
  const std::vector<Span> spans = Tracer::Get().Collect();
  Accounting acc = Account(in, spans);
  auto row = [&](const char* name) -> const LayerRow& {
    static const LayerRow kEmpty;
    auto it = acc.rows.find(name);
    return it == acc.rows.end() ? kEmpty : it->second;
  };
  const double attributed = acc.busy_ms + acc.idle_tail_worker_ms;
  const double coverage =
      acc.worker_ms > 0 ? std::min(1.0, attributed / acc.worker_ms) : 0;

  // ---- layer table
  std::printf("\nlayer table (%zu traced units, %zu threads, %.1f ms worker "
              "time)\n",
              acc.unit_wall_ms.size(), in.threads, acc.worker_ms);
  std::printf("%-22s %12s %7s %9s %12s %12s\n", "layer", "self_ms", "share",
              "calls", "p50_ms", "p99_ms");
  const char* order[] = {"endpoint.query",  "endpoint.probe",
                         "endpoint.advance_day", "extraction",
                         "schema.summary",  "cluster",
                         "store.persist",   "store.snapshot",
                         "viz.render",      "hbold.session",
                         "hbold.drilldown", "hbold.wait"};
  for (const char* name : order) {
    const LayerRow& r = row(name);
    if (r.per_call_ms.empty()) continue;
    std::printf("%-22s %12.2f %6.1f%% %9zu %12.4f %12.4f\n", name, r.self_ms,
                acc.worker_ms > 0 ? 100.0 * r.self_ms / acc.worker_ms : 0,
                r.per_call_ms.size(), Percentile(r.per_call_ms, 50),
                Percentile(r.per_call_ms, 99));
  }
  std::printf("%-22s %12.2f %6.1f%%\n", "idle (tail)", acc.idle_tail_worker_ms,
              acc.worker_ms > 0 ? 100.0 * acc.idle_tail_worker_ms / acc.worker_ms
                                : 0);
  std::printf("%-22s %12.2f %6.1f%%\n", "unattributed",
              std::max(0.0, acc.worker_ms - attributed),
              100.0 * (1 - coverage));
  const double overhead =
      in.untraced_ms > 0 ? in.traced_ms / in.untraced_ms - 1 : 0;
  std::printf("coverage %.1f%% of worker time; tracing overhead %+.1f%% "
              "(%.4g ms traced vs %.4g ms untraced)\n\n",
              100.0 * coverage, 100.0 * overhead, in.traced_ms, in.untraced_ms);

  // ---- metrics, fixed order
  const LayerRow& query = row("endpoint.query");
  const double calls = static_cast<double>(query.per_call_ms.size());
  out->AddMetric("endpoint.query.calls", calls, "count");
  out->AddMetric("endpoint.query.busy_ms", query.self_ms, "ms");
  out->AddMetric("endpoint.query.p50_us", Percentile(query.per_call_ms, 50) * 1e3, "us");
  out->AddMetric("endpoint.query.p99_us", Percentile(query.per_call_ms, 99) * 1e3, "us");
  out->AddMetric("endpoint.query.useful_ratio",
                 calls > 0 ? static_cast<double>(in.ok_queries) / calls : 0,
                 "ratio");
  out->AddMetric("endpoint.query.rows", static_cast<double>(in.rows), "count");
  out->AddMetric("endpoint.probe.calls",
                 static_cast<double>(row("endpoint.probe").per_call_ms.size()),
                 "count");
  out->AddMetric("endpoint.probe.busy_ms", row("endpoint.probe").self_ms, "ms");
  out->AddMetric("endpoint.advance_day.busy_ms",
                 row("endpoint.advance_day").self_ms, "ms");
  const double lookups =
      static_cast<double>(in.engine.plan_cache_hits + in.engine.plan_cache_misses);
  out->AddMetric("endpoint.plan_cache.hit_ratio",
                 lookups > 0 ? static_cast<double>(in.engine.plan_cache_hits) / lookups
                             : 0,
                 "ratio");
  out->AddMetric("endpoint.hash_join.builds",
                 static_cast<double>(in.engine.hash_join_builds), "count");

  out->AddMetric("sparql.replay.queries", static_cast<double>(in.sparql.queries),
                 "count");
  out->AddMetric("sparql.parse.busy_ms", in.sparql.parse_ms, "ms");
  out->AddMetric("sparql.plan.busy_ms", in.sparql.plan_ms, "ms");
  out->AddMetric("sparql.exec.busy_ms", in.sparql.exec_ms, "ms");
  out->AddMetric("sparql.exec.bindings_per_row",
                 in.sparql.rows > 0 ? static_cast<double>(in.sparql.bindings) /
                                          static_cast<double>(in.sparql.rows)
                                    : 0,
                 "ratio");
  out->AddMetric("sparql.exec.fast_path_share",
                 in.sparql.queries > 0
                     ? static_cast<double>(in.sparql.fast_path) /
                           static_cast<double>(in.sparql.queries)
                     : 0,
                 "ratio");
  out->AddMetric("sparql.exec.hash_join_spills",
                 static_cast<double>(in.sparql.spills), "count");

  out->AddMetric("rdf.finalize.ms", in.finalize_ms, "ms");
  out->AddMetric("rdf.count.p50_ns", in.rdf.count_p50_ns, "ns");
  out->AddMetric("rdf.span.p50_ns", in.rdf.span_p50_ns, "ns");

  size_t pipelines = 0, queries = 0, direct = 0, per_class = 0, paginated = 0;
  size_t delta = 0, skips = 0, throttles = 0;
  for (const UnitRecord& unit : in.units) {
    for (const PipelineReport& r : unit.pipelines) {
      ++pipelines;
      queries += r.extraction.queries_issued;
      const std::string& s = r.extraction.strategy_used;
      if (s == "direct-aggregation") ++direct;
      if (s == "per-class-count") ++per_class;
      if (s == "paginated-scan") ++paginated;
      if (r.delta_extracted) ++delta;
      if (r.probe_skipped) ++skips;
      throttles += r.extraction.throttle_events;
    }
  }
  const double per = pipelines > 0 ? 1.0 / static_cast<double>(pipelines) : 0;
  out->AddMetric("extraction.pipelines", static_cast<double>(pipelines), "count");
  out->AddMetric("extraction.queries_per_pipeline",
                 static_cast<double>(queries) * per, "ratio");
  out->AddMetric("extraction.strategy.direct", static_cast<double>(direct), "count");
  out->AddMetric("extraction.strategy.per_class", static_cast<double>(per_class),
                 "count");
  out->AddMetric("extraction.strategy.paginated", static_cast<double>(paginated),
                 "count");
  out->AddMetric("extraction.delta_share", static_cast<double>(delta) * per, "ratio");
  out->AddMetric("extraction.probe_skip_share", static_cast<double>(skips) * per,
                 "ratio");
  out->AddMetric("extraction.pipeline.p99_ms",
                 Percentile(row("extraction").per_call_ms, 99), "ms");
  out->AddMetric("extraction.throttle_events", static_cast<double>(throttles),
                 "count");
  out->AddMetric("extraction.batch_speedup", in.batch_speedup, "ratio");

  out->AddMetric("schema.pipeline.busy_ms", row("schema.summary").self_ms, "ms");
  out->AddMetric("schema.from_indexes.busy_ms", in.schema.from_indexes_ms, "ms");
  out->AddMetric("cluster.pipeline.busy_ms", row("cluster").self_ms, "ms");
  out->AddMetric("cluster.louvain.busy_ms", in.schema.louvain_ms, "ms");
  out->AddMetric("cluster.louvain.p99_us", in.schema.louvain_p99_us, "us");

  out->AddMetric("store.persist.busy_ms", row("store.persist").self_ms, "ms");
  out->AddMetric("store.snapshot.ms", in.snapshot_ms, "ms");
  out->AddMetric("store.snapshot.bytes_written",
                 static_cast<double>(in.snapshot_bytes), "B");
  out->AddMetric("store.snapshot.files", static_cast<double>(in.snapshot_files),
                 "count");

  const double layout_lookups =
      static_cast<double>(in.layout_cache.hits + in.layout_cache.misses);
  out->AddMetric("viz.layout.compute.p50_ms", in.viz.compute_p50_ms, "ms");
  out->AddMetric("viz.layout.compute.p99_ms", in.viz.compute_p99_ms, "ms");
  out->AddMetric("viz.layout_cache.hit_ratio",
                 layout_lookups > 0
                     ? static_cast<double>(in.layout_cache.hits) / layout_lookups
                     : 0,
                 "ratio");
  out->AddMetric("viz.layout_cache.misses",
                 static_cast<double>(in.layout_cache.misses), "count");
  out->AddMetric("viz.layout_cache.evictions",
                 static_cast<double>(in.layout_cache.evictions), "count");
  out->AddMetric("viz.render.p99_ms", Percentile(in.render_ms, 99), "ms");

  out->AddMetric("hbold.cycle.wall_ms", Median(acc.unit_wall_ms), "ms");
  out->AddMetric("hbold.cycle.unattributed_share", 1 - coverage, "ratio");
  out->AddMetric("hbold.cycle.idle_tail_ms", Median(acc.idle_tail_ms), "ms");
  out->AddMetric("hbold.session.service_p99_ms",
                 Percentile(in.session_service_ms, 99), "ms");
  out->AddMetric("hbold.session.queue_wait_p99_ms",
                 Percentile(in.session_wait_ms, 99), "ms");
  out->AddMetric("hbold.interaction.p99_us", Percentile(in.interaction_us, 99),
                 "us");
  out->AddMetric("hbold.generator_lag.max_ms", in.generator_lag_ms, "ms");
  out->AddMetric("hbold.session.max_rate_at_slo", in.max_rate_at_slo, "1/s");
  out->AddMetric("hbold.refresh_snapshots.ms", in.refresh_snapshots_ms, "ms");

  out->AddMetric("trace.coverage", coverage, "ratio");
  out->AddMetric("trace.overhead_share", overhead, "ratio");
}

}  // namespace hbold::e2e
