// Parallel daily-cycle bench: the §3.1 refresh over a ~50-endpoint portal,
// swept across worker counts. Two speedup figures matter:
//
//   - simulated: the cycle's endpoint-latency makespan vs. the sequential
//     sum — what parallelism buys when pipelines wait on remote endpoints
//     (the production regime: extraction time is dominated by network
//     latency, so N workers overlap N endpoints' waits).
//   - wall-clock: real elapsed time of the cycle, which also includes the
//     CPU-bound summary/cluster stages; it only scales with real cores.
//
// The bench additionally asserts the parallel DailyReport merges back in
// registry order with the same counts and reused flags as the sequential
// cycle — the determinism contract of Server::RunDailyUpdate.
//
//   ./build/bench_parallel_pipeline [fleet_size]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"

namespace {

using hbold::DailyReport;
using hbold::Server;

/// One fresh server over the shared fleet, one daily cycle at `workers`.
DailyReport RunCycle(std::vector<hbold::bench::FleetMember>* fleet,
                     const hbold::sim::EventLoop& loop, int workers) {
  hbold::store::Database db;
  hbold::ServerOptions options;
  options.parallelism = workers;
  Server server(&db, &loop, options);
  hbold::bench::AttachFleet(fleet, &server);
  return server.RunDailyUpdate();
}

bool SameOutcome(const DailyReport& a, const DailyReport& b) {
  if (a.due != b.due || a.succeeded != b.succeeded || a.failed != b.failed ||
      a.reused != b.reused || a.reports.size() != b.reports.size()) {
    return false;
  }
  for (size_t i = 0; i < a.reports.size(); ++i) {
    const hbold::PipelineReport& x = a.reports[i];
    const hbold::PipelineReport& y = b.reports[i];
    if (x.url != y.url || x.classes != y.classes || x.arcs != y.arcs ||
        x.clusters != y.clusters ||
        x.reused_cluster_schema != y.reused_cluster_schema ||
        x.extraction_ms != y.extraction_ms) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  hbold::Logger::set_threshold(hbold::LogLevel::kWarn);

  hbold::bench::FleetOptions fleet_options;
  fleet_options.size = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 50;
  fleet_options.max_classes = 60;
  hbold::sim::EventLoop loop;
  auto fleet = hbold::bench::BuildFleet(fleet_options, loop.clock());

  hbold::bench::PrintHeader("parallel daily cycle, " +
                            std::to_string(fleet.size()) + " endpoints");

  DailyReport sequential = RunCycle(&fleet, loop, 1);
  std::printf("%-8s %12s %14s %14s %10s %10s\n", "workers", "wall ms",
              "sim sum ms", "sim makespan", "sim x", "wall x");

  bool all_match = true;
  for (int workers : {1, 2, 4, 8}) {
    DailyReport report = RunCycle(&fleet, loop, workers);
    bool match = SameOutcome(report, sequential);
    all_match = all_match && match;
    double sim_speedup = report.makespan_ms > 0
                             ? sequential.makespan_ms / report.makespan_ms
                             : 1.0;
    double wall_speedup =
        report.wall_ms > 0 ? sequential.wall_ms / report.wall_ms : 1.0;
    std::printf("%-8d %12.1f %14.1f %14.1f %9.2fx %9.2fx%s\n", workers,
                report.wall_ms, report.sum_latency_ms, report.makespan_ms,
                sim_speedup, wall_speedup,
                match ? "" : "  REPORT MISMATCH");
  }

  std::printf(
      "\nreport determinism: parallel cycles %s the sequential outcome\n"
      "(endpoint order, counts, reused flags).\n",
      all_match ? "reproduce" : "DIVERGE FROM");
  std::printf(
      "shape check: simulated speedup approaches the worker count while\n"
      "endpoint latency dominates; wall-clock speedup is bounded by real\n"
      "cores available to the pool.\n");
  return all_match ? 0 : 1;
}
