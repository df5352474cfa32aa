// Intra-pipeline async extraction bench: one *wide* endpoint (>= 100
// classes, per-class-count dialect, so the query set is large) swept
// across batch widths, plus the same sweep under the server's daily
// cycle where inter- and intra-pipeline work share one pool.
//
// Two checks gate the exit code:
//   - sequential equality: every batched run must produce the byte-
//     identical IndexSummary and the identical charged cost as the
//     sequential run (the determinism contract of QueryBatch);
//   - the simulated intra-pipeline makespan at batch width 4 must beat
//     the sequential extraction by >= 2x on the wide endpoint.
//
//   ./build/bench_async_extraction [num_classes]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "extraction/strategies.h"

namespace {

using hbold::ThreadPool;
using hbold::extraction::ExtractionContext;
using hbold::extraction::ExtractionReport;
using hbold::extraction::PerClassCountStrategy;

}  // namespace

int main(int argc, char** argv) {
  hbold::Logger::set_threshold(hbold::LogLevel::kWarn);

  const size_t num_classes =
      argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 120;

  hbold::rdf::TripleStore data;
  hbold::workload::SyntheticLdConfig config;
  config.namespace_iri = "http://wide.example.org/";
  config.num_classes = num_classes;
  config.num_domains = 2 + num_classes / 12;
  config.max_instances_per_class = 30;
  config.seed = 4242;
  hbold::workload::GenerateSyntheticLd(config, &data);

  hbold::sim::EventLoop loop;
  // No GROUP BY: the extractor lands on per-class counting, whose query
  // count scales with classes * properties — the widest fan-out surface.
  hbold::endpoint::SimulatedRemoteEndpoint ep(
      "http://wide.example.org/sparql", "wide", &data, loop.clock(),
      hbold::endpoint::Dialect::NoGroupBy());

  hbold::bench::PrintHeader(
      "intra-pipeline async extraction, 1 endpoint x " +
      std::to_string(num_classes) + " classes (per-class-count)");

  PerClassCountStrategy strategy;
  ExtractionReport sequential_report;
  hbold::Stopwatch seq_wall;
  auto sequential = strategy.Extract(&ep, ExtractionContext{},
                                     &sequential_report);
  double seq_wall_ms = seq_wall.ElapsedMillis();
  if (!sequential.ok()) {
    std::fprintf(stderr, "sequential extraction failed: %s\n",
                 sequential.status().ToString().c_str());
    return 1;
  }
  const std::string sequential_dump = sequential->ToJson().Dump();

  std::printf("%zu queries, %.1f ms simulated sequential latency\n\n",
              sequential_report.queries_issued,
              sequential_report.total_latency_ms);
  std::printf("%-8s %-8s %12s %14s %14s %10s\n", "width", "workers",
              "wall ms", "sim cost ms", "sim intra ms", "sim x");

  bool all_match = true;
  double speedup_at_4 = 0;
  for (size_t width : {1, 2, 4, 8}) {
    const size_t workers = width;  // pool sized to the batch width
    ThreadPool pool(workers);
    ExtractionContext ctx;
    ctx.pool = width > 1 ? &pool : nullptr;
    ctx.batch_width = width;
    ExtractionReport report;
    hbold::Stopwatch wall;
    auto result = strategy.Extract(&ep, ctx, &report);
    double wall_ms = width > 1 ? wall.ElapsedMillis() : seq_wall_ms;

    bool match = result.ok() &&
                 result->ToJson().Dump() == sequential_dump &&
                 report.queries_issued == sequential_report.queries_issued &&
                 report.total_latency_ms == sequential_report.total_latency_ms;
    all_match = all_match && match;
    double speedup = report.intra_makespan_ms > 0
                         ? sequential_report.total_latency_ms /
                               report.intra_makespan_ms
                         : 0;
    if (width == 4) speedup_at_4 = speedup;
    std::printf("%-8zu %-8zu %12.1f %14.1f %14.1f %9.2fx%s\n", width,
                workers, wall_ms, report.total_latency_ms,
                report.intra_makespan_ms, speedup,
                match ? "" : "  RESULT MISMATCH");
  }

  // --- The same sweep through the server: one pool drives pipelines AND
  // their nested batches; batched_makespan_ms is the cycle-level figure.
  std::printf("\ndaily cycle over 8 wide endpoints, parallelism=4:\n");
  std::printf("%-8s %14s %14s %16s\n", "width", "sim sum ms",
              "sim makespan", "sim batched mk");
  hbold::bench::FleetOptions fleet_options;
  fleet_options.size = 8;
  fleet_options.min_classes = num_classes;
  fleet_options.max_classes = num_classes + 1;
  fleet_options.no_group_by_fraction = 1.0;  // all per-class-count
  fleet_options.no_aggregates_fraction = 0;
  fleet_options.row_capped_fraction = 0;
  auto fleet = hbold::bench::BuildFleet(fleet_options, loop.clock());

  double cycle_makespan = 0, cycle_batched_makespan = 0;
  for (int width : {1, 4}) {
    hbold::store::Database db;
    hbold::ServerOptions options;
    options.parallelism = 4;
    options.query_batch_width = width;
    hbold::Server server(&db, &loop, options);
    hbold::bench::AttachFleet(&fleet, &server);
    hbold::DailyReport report = server.RunDailyUpdate();
    std::printf("%-8d %14.1f %14.1f %16.1f\n", width, report.sum_latency_ms,
                report.makespan_ms, report.batched_makespan_ms);
    if (width == 1) cycle_makespan = report.makespan_ms;
    if (width == 4) cycle_batched_makespan = report.batched_makespan_ms;
  }

  bool speedup_ok = speedup_at_4 >= 2.0;
  std::printf(
      "\nsequential equality: batched runs %s the sequential summary and "
      "cost\nwidth-4 intra-pipeline speedup: %.2fx (gate: >= 2x) %s\n"
      "cycle-level: batching compresses the 4-worker makespan %.1f -> %.1f "
      "ms\n",
      all_match ? "reproduce" : "DIVERGE FROM", speedup_at_4,
      speedup_ok ? "PASS" : "FAIL",
      cycle_makespan, cycle_batched_makespan);

  // Machine-readable report for the CI bench-regression harness. Every
  // figure here is *simulated* (deterministic per seed), so baseline
  // comparisons are immune to runner noise.
  hbold::Json json = hbold::Json::MakeObject();
  json.Set("num_classes", static_cast<int64_t>(num_classes));
  json.Set("queries_issued",
           static_cast<int64_t>(sequential_report.queries_issued));
  json.Set("sim_cost_ms", sequential_report.total_latency_ms);
  json.Set("intra_speedup_at_4", speedup_at_4);
  json.Set("cycle_makespan_ms", cycle_makespan);
  json.Set("cycle_batched_makespan_ms", cycle_batched_makespan);
  hbold::Json gates = hbold::Json::MakeObject();
  gates.Set("sequential_equality", all_match);
  gates.Set("intra_speedup_2x", speedup_ok);
  json.Set("gates", std::move(gates));
  std::ofstream out("BENCH_async_extraction.json");
  out << json.Dump(2) << "\n";
  out.close();
  std::printf("wrote BENCH_async_extraction.json\n");

  return all_match && speedup_ok ? 0 : 1;
}
