// Quickstart: load a small Turtle dataset, run the full H-BOLD pipeline
// (index extraction -> Schema Summary -> Cluster Schema), explore it, and
// write a treemap SVG.
//
//   ./build/examples/quickstart [output_dir]

#include <cstdio>
#include <string>

#include "hbold/hbold.h"

namespace {

constexpr char kTurtle[] = R"(
@prefix ex:   <http://example.org/onto#> .
@prefix inst: <http://example.org/inst/> .

inst:alice a ex:Person ; ex:name "Alice" ; ex:worksAt inst:acme ;
    ex:knows inst:bob .
inst:bob a ex:Person ; ex:name "Bob" ; ex:worksAt inst:acme .
inst:carol a ex:Person ; ex:name "Carol" ; ex:worksAt inst:initech .
inst:acme a ex:Organisation ; ex:name "ACME" ; ex:basedIn inst:rome .
inst:initech a ex:Organisation ; ex:name "Initech" ; ex:basedIn inst:milan .
inst:rome a ex:City ; ex:name "Rome" .
inst:milan a ex:City ; ex:name "Milan" .
inst:p1 a ex:Project ; ex:name "Apollo" ; ex:ownedBy inst:acme .
inst:p2 a ex:Project ; ex:name "Hermes" ; ex:ownedBy inst:initech .
)";

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = argc > 1 ? argv[1] : ".";

  // 1. Load RDF into an in-process triple store and expose it as a
  //    simulated SPARQL endpoint.
  hbold::rdf::TripleStore store;
  auto parsed = hbold::rdf::ParseTurtle(kTurtle, &store);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu triples\n", store.size());

  hbold::sim::EventLoop loop;
  hbold::endpoint::SimulatedRemoteEndpoint ep(
      "http://example.org/sparql", "example", &store, loop.clock());

  // 2. Server layer: register, extract, summarize, cluster, persist.
  hbold::store::Database db;
  hbold::Server server(&db, &loop, hbold::ServerOptions{});
  server.AttachEndpoint(ep.url(), &ep);
  hbold::endpoint::EndpointRecord record;
  record.url = ep.url();
  record.name = "Example LD";
  server.RegisterEndpoint(record);

  auto report = server.ProcessEndpoint(ep.url());
  if (!report.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("pipeline ok: strategy=%s queries=%zu classes=%zu arcs=%zu "
              "clusters=%zu\n",
              report->extraction.strategy_used.c_str(),
              report->extraction.queries_issued, report->classes, report->arcs,
              report->clusters);

  // 3. Presentation layer: load the stored artifacts and explore.
  hbold::Presentation presentation(&db);
  auto summary = presentation.LoadSchemaSummary(ep.url());
  auto clusters = presentation.LoadClusterSchema(ep.url());
  if (!summary.ok() || !clusters.ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }
  for (const auto& cluster : clusters->clusters()) {
    std::printf("cluster '%s': %zu classes, %zu instances\n",
                cluster.label.c_str(), cluster.class_nodes.size(),
                cluster.total_instances);
  }

  hbold::ExplorationSession session(*summary, *clusters);
  int person = summary->FindNode("http://example.org/onto#Person");
  session.FocusClass(static_cast<size_t>(person));
  session.ExpandClass(static_cast<size_t>(person));
  std::printf("after expanding Person: %zu/%zu classes visible, %.1f%% of "
              "instances\n",
              session.VisibleNodeCount(), session.TotalNodeCount(),
              session.CoveragePercent());

  // 4. Treemap of the Cluster Schema (Fig. 4 style) to SVG.
  hbold::viz::Hierarchy hierarchy =
      hbold::viz::HierarchyFromClusterSchema(*clusters, *summary, "Example");
  auto cells = hbold::viz::TreemapLayout(
      hierarchy, hbold::viz::Rect{0, 0, 640, 480});
  auto svg = hbold::viz::RenderTreemap(cells, 640, 480);
  std::string path = out_dir + "/quickstart_treemap.svg";
  auto write = svg.WriteFile(path);
  if (!write.ok()) {
    std::fprintf(stderr, "svg write failed: %s\n", write.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
