// E2 — §3.2 Cluster Schema display time: precomputed (stored in the
// document DB by the server layer) vs computed on-the-fly at every click
// (the previous H-BOLD demo).
//
// Paper claim: "on half of the SPARQL endpoints stored in H-BOLD, the time
// needed to display the Cluster Schema to the user is decreased by the
// 35%" — i.e. the median improvement is at least 35%.
//
// We process a 130-endpoint fleet once, then measure for every endpoint:
//   old path: load Schema Summary + run Louvain + build the Cluster Schema
//   new path: load the precomputed Cluster Schema document
// and report the distribution of per-endpoint improvements.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "hbold/hbold.h"

int main() {
  using hbold::bench::Percentile;

  hbold::sim::EventLoop loop;
  hbold::store::Database db;
  hbold::Server server(&db, &loop, hbold::ServerOptions{});

  hbold::bench::FleetOptions options;
  options.size = 130;
  options.min_classes = 5;
  options.max_classes = 150;
  options.max_instances_per_class = 30;
  // Dialect quirks don't matter here; keep every endpoint extractable fast.
  options.no_aggregates_fraction = 0;
  options.no_group_by_fraction = 0;
  options.row_capped_fraction = 0;
  auto fleet = hbold::bench::BuildFleet(options, loop.clock());
  hbold::bench::AttachFleet(&fleet, &server);

  std::printf("processing %zu endpoints through the server pipeline...\n",
              fleet.size());
  size_t processed = 0;
  for (const auto& member : fleet) {
    if (server.ProcessEndpoint(member.url).ok()) ++processed;
  }
  std::printf("processed %zu/%zu\n", processed, fleet.size());

  hbold::Presentation presentation(&db);
  constexpr int kRepetitions = 15;

  std::vector<double> improvements;  // percent reduction per endpoint
  std::vector<double> old_times, new_times;
  for (const auto& member : fleet) {
    // Median of repeated measurements per path, interleaved.
    std::vector<double> old_ms, new_ms;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      double compute = 0, load = 0;
      auto on_the_fly =
          presentation.ComputeClusterSchemaOnTheFly(member.url, &compute);
      auto stored = presentation.LoadClusterSchema(member.url, &load);
      if (!on_the_fly.ok() || !stored.ok()) break;
      old_ms.push_back(compute);
      new_ms.push_back(load);
    }
    if (old_ms.empty()) continue;
    double old_t = Percentile(old_ms, 50);
    double new_t = Percentile(new_ms, 50);
    old_times.push_back(old_t);
    new_times.push_back(new_t);
    improvements.push_back(100.0 * (old_t - new_t) / old_t);
  }

  hbold::bench::PrintHeader(
      "E2: §3.2 Cluster Schema display time, precomputed vs on-the-fly");
  std::printf("endpoints measured: %zu\n", improvements.size());
  std::printf("on-the-fly (old) median: %.3f ms   p95: %.3f ms\n",
              Percentile(old_times, 50), Percentile(old_times, 95));
  std::printf("precomputed (new) median: %.3f ms   p95: %.3f ms\n",
              Percentile(new_times, 50), Percentile(new_times, 95));
  std::printf("\nper-endpoint display-time reduction:\n");
  for (double p : {5.0, 25.0, 50.0, 75.0, 95.0}) {
    std::printf("  p%-3.0f  %6.1f%%\n", p, Percentile(improvements, p));
  }
  size_t at_least_35 = 0;
  for (double i : improvements) {
    if (i >= 35.0) ++at_least_35;
  }
  double fraction = improvements.empty()
                        ? 0
                        : 100.0 * static_cast<double>(at_least_35) /
                              static_cast<double>(improvements.size());

  std::printf("\n%-56s %-14s %s\n", "metric", "paper", "measured");
  std::printf("%-56s %-14s %.0f%% of endpoints\n",
              "display time reduced by >= 35%", ">= 50% of endpoints",
              fraction);
  bool ok = fraction >= 50.0;
  std::printf("\nshape holds (median improvement >= 35%%): %s\n",
              ok ? "YES" : "NO");
  return ok ? 0 : 1;
}
