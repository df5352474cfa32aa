#ifndef HBOLD_BENCH_E2E_LAYERS_H_
#define HBOLD_BENCH_E2E_LAYERS_H_

// Per-layer figures of a traced run: the spans recorded around public
// calls, the counters the program already returns, and replay passes that
// time one layer's public entry points on the workload's captured inputs.
// EmitLayerMetrics turns them into every per-layer metric (zero where a
// workload does not exercise the layer) and prints the layer table.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "endpoint/endpoint.h"
#include "hbold/fleet.h"
#include "hbold/server.h"
#include "rdf/graph.h"
#include "store/database.h"
#include "viz/layout_cache.h"
#include "e2e.h"
#include "trace.h"
#include "world.h"

namespace hbold::e2e {

/// One traced unit of work (a fleet cycle, a churn day, a serving phase, an
/// extraction rep, a drill-down phase): its wall window and the pipeline
/// reports the program returned for it. Spans carry the unit's index.
struct UnitRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<PipelineReport> pipelines;
};

struct SparqlReplay {
  size_t queries = 0;
  double parse_ms = 0;
  double plan_ms = 0;
  /// Execution with the executor's own planning subtracted.
  double exec_ms = 0;
  uint64_t bindings = 0;
  uint64_t rows = 0;
  uint64_t fast_path = 0;
  uint64_t spills = 0;
};

struct RdfReplay {
  double count_p50_ns = 0;
  double span_p50_ns = 0;
};

struct SchemaReplay {
  double from_indexes_ms = 0;
  double louvain_ms = 0;
  double louvain_p99_us = 0;
};

struct VizReplay {
  double compute_p50_ms = 0;
  double compute_p99_ms = 0;
};

struct LayerInputs {
  size_t threads = 4;
  std::vector<UnitRecord> units;
  /// Endpoint url -> the id its tracing decorator stamps on spans.
  std::map<std::string, uint64_t> url_ids;
  /// Query-engine counters accumulated over the traced units.
  endpoint::QueryEngineStats engine;
  uint64_t ok_queries = 0;
  uint64_t rows = 0;
  double finalize_ms = 0;
  double snapshot_ms = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t snapshot_files = 0;
  viz::LayoutCacheStats layout_cache;
  std::vector<double> session_service_ms;
  std::vector<double> session_wait_ms;
  std::vector<double> interaction_us;
  std::vector<double> render_ms;
  double generator_lag_ms = 0;
  double max_rate_at_slo = 0;
  /// Sequential over width-4 batched extraction wall time.
  double batch_speedup = 0;
  double refresh_snapshots_ms = 0;
  SparqlReplay sparql;
  RdfReplay rdf;
  SchemaReplay schema;
  VizReplay viz;
  /// Same work timed with tracing off and on (tracing overhead).
  double untraced_ms = 0;
  double traced_ms = 0;
};

/// Replays a seeded sample of captured query texts through ParseQuery,
/// PlanQuery and Executor::Execute against the stores they ran on.
SparqlReplay ReplaySparql(
    const std::vector<std::pair<uint64_t, std::string>>& captured,
    const std::vector<const rdf::TripleStore*>& stores, size_t max_queries);

/// Seeded Count/Span calls on a sample of the workload's stores.
RdfReplay ReplayRdf(const std::vector<const rdf::TripleStore*>& stores,
                    uint64_t seed);

/// Extracts a seeded sample of endpoints (untimed), then times
/// SchemaSummary::FromIndexes and BuildClassGraph+Louvain+FromPartition.
SchemaReplay ReplaySchemaCluster(
    const std::vector<endpoint::SparqlEndpoint*>& endpoints, size_t sample,
    uint64_t seed);

/// Times ComputeLayoutSet over the datasets persisted in `dbs`.
VizReplay ReplayLayouts(const std::vector<const store::Database*>& dbs,
                        size_t max_datasets);

/// The replay passes every traced workload runs after its timed phase, over
/// its sources, the queries it captured and the datasets it persisted.
void ReplayWorld(const std::vector<Source>& sources, const QueryLog& log,
                 const std::vector<const store::Database*>& dbs, uint64_t seed,
                 LayerInputs* layers);

std::vector<const store::Database*> ShardDbs(const Fleet& fleet);

/// Stops tracing, writes the Chrome trace of the first traced unit, prints
/// the layer table and adds every per-layer metric to `out`.
void FinishTrace(const RunConfig& cfg, const LayerInputs& layers, Outcome* out);

}  // namespace hbold::e2e

#endif  // HBOLD_BENCH_E2E_LAYERS_H_
