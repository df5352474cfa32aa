// E9 — community detection for the Cluster Schema [Po & Malvezzi 2018]:
// Louvain (the algorithm H-BOLD ships) against label propagation, on
// schema-shaped graphs of growing size.
// Reports modularity, community count and runtime per (algorithm, size).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "cluster/cluster_schema.h"
#include "cluster/label_propagation.h"
#include "cluster/louvain.h"
#include "cluster/modularity.h"
#include "extraction/extractor.h"
#include "workload/ld_generator.h"

namespace {

/// Builds the class graph of a synthetic LD with `classes` classes (the
/// same pipeline the server uses, so the graphs have schema-like shape:
/// domains with dense intra-links).
hbold::cluster::UGraph SchemaGraph(size_t classes, uint64_t seed) {
  hbold::rdf::TripleStore store;
  hbold::workload::SyntheticLdConfig config;
  config.num_classes = classes;
  config.num_domains = 2 + classes / 10;
  config.max_instances_per_class = 20;
  config.seed = seed;
  hbold::workload::GenerateSyntheticLd(config, &store);
  hbold::SimClock clock;
  hbold::endpoint::SimulatedRemoteEndpoint ep("u", "n", &store, &clock);
  auto indexes = hbold::extraction::IndexExtractor().Extract(&ep, nullptr);
  auto summary = hbold::schema::SchemaSummary::FromIndexes(*indexes);
  return hbold::cluster::BuildClassGraph(summary);
}

void PrintTable() {
  hbold::bench::PrintHeader(
      "E9: community detection on Schema Summary graphs");
  std::printf("%-10s %-18s %12s %12s %12s\n", "classes", "algorithm",
              "modularity", "clusters", "time ms");
  for (size_t classes : {10, 50, 100, 400, 1000}) {
    hbold::cluster::UGraph graph = SchemaGraph(classes, classes * 13);
    struct Algo {
      const char* name;
      hbold::cluster::Partition (*run)(const hbold::cluster::UGraph&);
    };
    const Algo algos[] = {
        {"louvain",
         [](const hbold::cluster::UGraph& g) {
           return hbold::cluster::Louvain(g);
         }},
        {"label-propagation",
         [](const hbold::cluster::UGraph& g) {
           return hbold::cluster::LabelPropagation(g);
         }},
    };
    for (const Algo& algo : algos) {
      hbold::Stopwatch sw;
      hbold::cluster::Partition partition = algo.run(graph);
      double ms = sw.ElapsedMillis();
      double q = hbold::cluster::Modularity(graph, partition);
      std::printf("%-10zu %-18s %12.4f %12zu %12.3f\n", classes, algo.name, q,
                  hbold::cluster::CommunityCount(partition), ms);
    }
  }
  std::printf(
      "\nshape check: Louvain matches or beats the baseline on modularity\n"
      "at every size while staying near-linear in runtime — the reason the\n"
      "Cluster Schema uses it.\n");
}

void BM_Louvain(benchmark::State& state) {
  hbold::cluster::UGraph graph =
      SchemaGraph(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto partition = hbold::cluster::Louvain(graph);
    benchmark::DoNotOptimize(partition);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Louvain)->Arg(10)->Arg(100)->Arg(1000)->Complexity();

void BM_LabelPropagation(benchmark::State& state) {
  hbold::cluster::UGraph graph =
      SchemaGraph(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    auto partition = hbold::cluster::LabelPropagation(graph);
    benchmark::DoNotOptimize(partition);
  }
}
BENCHMARK(BM_LabelPropagation)->Arg(10)->Arg(100)->Arg(1000);

void BM_Modularity(benchmark::State& state) {
  hbold::cluster::UGraph graph =
      SchemaGraph(static_cast<size_t>(state.range(0)), 5);
  auto partition = hbold::cluster::Louvain(graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hbold::cluster::Modularity(graph, partition));
  }
}
BENCHMARK(BM_Modularity)->Arg(100)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
