// E3 — Fig. 2: the four-step interactive exploration of the Scholarly LD.
// Reproduces the step sequence (Cluster Schema -> class focus -> expansion
// -> full Schema Summary), reporting the node counts and instance-coverage
// percentages each partial view shows to the user, plus per-step layout
// latency (what the browser would spend before painting).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "hbold/hbold.h"
#include "workload/scholarly.h"

namespace {

struct Fixture {
  hbold::rdf::TripleStore store;
  hbold::sim::EventLoop loop;
  hbold::store::Database db;
  std::unique_ptr<hbold::endpoint::SimulatedRemoteEndpoint> ep;
  std::unique_ptr<hbold::Server> server;
  hbold::schema::SchemaSummary summary;
  hbold::cluster::ClusterSchema clusters;

  static Fixture& Get() {
    static Fixture* fixture = [] {
      auto* f = new Fixture();
      hbold::workload::ScholarlyConfig config;
      hbold::workload::GenerateScholarly(config, &f->store);
      f->ep = std::make_unique<hbold::endpoint::SimulatedRemoteEndpoint>(
          "http://www.scholarlydata.org/sparql", "ScholarlyData", &f->store,
          f->loop.clock());
      f->server = std::make_unique<hbold::Server>(&f->db, &f->loop,
                                                 hbold::ServerOptions{});
      f->server->AttachEndpoint(f->ep->url(), f->ep.get());
      hbold::endpoint::EndpointRecord record;
      record.url = f->ep->url();
      f->server->RegisterEndpoint(record);
      auto report = f->server->ProcessEndpoint(f->ep->url());
      if (!report.ok()) {
        std::fprintf(stderr, "pipeline failed\n");
        std::exit(1);
      }
      hbold::Presentation presentation(&f->db);
      f->summary = *presentation.LoadSchemaSummary(f->ep->url());
      f->clusters = *presentation.LoadClusterSchema(f->ep->url());
      return f;
    }();
    return *fixture;
  }
};

void PrintStepTable() {
  Fixture& f = Fixture::Get();
  hbold::ExplorationSession session(f.summary, f.clusters);
  int event = f.summary.FindNode(
      std::string(hbold::workload::kScholarlyNs) + "Event");

  hbold::bench::PrintHeader(
      "E3: Fig. 2 exploration walk over the Scholarly LD");
  std::printf("%-34s %8s %10s %12s\n", "step", "nodes", "coverage",
              "layout ms");
  auto report = [&](const char* name, size_t nodes, double coverage,
                    double ms) {
    std::printf("%-34s %8zu %9.1f%% %12.3f\n", name, nodes, coverage, ms);
  };

  // Step 1: Cluster Schema (force layout over cluster nodes).
  {
    hbold::Stopwatch sw;
    std::vector<hbold::viz::ForceEdge> edges;
    for (const auto& arc : f.clusters.arcs()) {
      edges.push_back({arc.src, arc.dst, 1.0});
    }
    auto pos = hbold::viz::ForceLayout(f.clusters.ClusterCount(), edges, {});
    benchmark::DoNotOptimize(pos);
    report("1: cluster schema", f.clusters.ClusterCount(), 0.0,
           sw.ElapsedMillis());
  }
  // Steps 2-4 over the Schema Summary subgraph.
  struct Step {
    const char* name;
    int kind;  // 1=focus 2=expand 3=all
  };
  for (const Step& step : {Step{"2: select Event", 1},
                           Step{"3: expand Event", 2},
                           Step{"4: full schema summary", 3}}) {
    hbold::Stopwatch sw;
    if (step.kind == 1) session.FocusClass(static_cast<size_t>(event));
    if (step.kind == 2) session.ExpandClass(static_cast<size_t>(event));
    if (step.kind == 3) session.ExpandAll();
    auto edges = session.VisibleEdges();
    auto pos = hbold::viz::ForceLayout(session.VisibleNodeCount(), edges, {});
    benchmark::DoNotOptimize(pos);
    report(step.name, session.VisibleNodeCount(), session.CoveragePercent(),
           sw.ElapsedMillis());
  }
  std::printf(
      "\nshape check: coverage grows monotonically to 100%% and the node\n"
      "count reaches the full Schema Summary, as in Fig. 2.\n");
}

void BM_FocusAndExpand(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  int event = f.summary.FindNode(
      std::string(hbold::workload::kScholarlyNs) + "Event");
  for (auto _ : state) {
    hbold::ExplorationSession session(f.summary, f.clusters);
    session.FocusClass(static_cast<size_t>(event));
    session.ExpandClass(static_cast<size_t>(event));
    benchmark::DoNotOptimize(session.CoveragePercent());
  }
}
BENCHMARK(BM_FocusAndExpand);

void BM_ExpandAllAndLayout(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  for (auto _ : state) {
    hbold::ExplorationSession session(f.summary, f.clusters);
    session.ExpandAll();
    auto pos = hbold::viz::ForceLayout(session.VisibleNodeCount(),
                                       session.VisibleEdges(), {});
    benchmark::DoNotOptimize(pos);
  }
}
BENCHMARK(BM_ExpandAllAndLayout);

}  // namespace

int main(int argc, char** argv) {
  PrintStepTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
