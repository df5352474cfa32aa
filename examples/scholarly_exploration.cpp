// Reproduces the paper's figures on the Scholarly LD: the Fig. 2 four-step
// exploration walk and the four new visualization layouts — Treemap
// (Fig. 4), Sunburst (Fig. 5), Circle Packing (Fig. 6), and Hierarchical
// Edge Bundling (Fig. 7) — written as SVG files.
//
//   ./build/examples/scholarly_exploration [output_dir]

#include <cstdio>
#include <string>

#include "hbold/hbold.h"
#include "workload/scholarly.h"

int main(int argc, char** argv) {
  std::string out_dir = argc > 1 ? argv[1] : ".";

  // Build the Scholarly LD and run the server pipeline on it.
  hbold::rdf::TripleStore store;
  hbold::workload::ScholarlyConfig config;
  size_t triples = hbold::workload::GenerateScholarly(config, &store);
  std::printf("scholarly dataset: %zu triples\n", triples);

  hbold::sim::EventLoop loop;
  hbold::endpoint::SimulatedRemoteEndpoint ep(
      "http://www.scholarlydata.org/sparql", "ScholarlyData", &store,
      loop.clock());
  hbold::store::Database db;
  hbold::Server server(&db, &loop, hbold::ServerOptions{});
  server.AttachEndpoint(ep.url(), &ep);
  hbold::endpoint::EndpointRecord record;
  record.url = ep.url();
  record.name = "ScholarlyData";
  server.RegisterEndpoint(record);
  auto report = server.ProcessEndpoint(ep.url());
  if (!report.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  hbold::Presentation presentation(&db);
  auto summary = presentation.LoadSchemaSummary(ep.url());
  auto clusters = presentation.LoadClusterSchema(ep.url());
  if (!summary.ok() || !clusters.ok()) return 1;
  std::printf("schema summary: %zu classes, %zu arcs; cluster schema: %zu "
              "clusters\n",
              summary->NodeCount(), summary->ArcCount(),
              clusters->ClusterCount());

  auto write = [&](const hbold::viz::SvgDocument& doc,
                   const std::string& name) {
    std::string path = out_dir + "/" + name;
    auto st = doc.WriteFile(path);
    if (st.ok()) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "failed: %s\n", st.ToString().c_str());
    }
  };

  // ---- Fig. 2: the four-step exploration, each step rendered. ----
  hbold::ExplorationSession session(*summary, *clusters);
  std::string event_iri =
      std::string(hbold::workload::kScholarlyNs) + "Event";
  int event = summary->FindNode(event_iri);

  struct Step {
    const char* label;
    const char* file;
  };
  const Step steps[] = {
      {"step 1: cluster schema", "fig2_step1_cluster_schema.svg"},
      {"step 2: Event focused", "fig2_step2_event.svg"},
      {"step 3: Event expanded", "fig2_step3_expanded.svg"},
      {"step 4: full schema summary", "fig2_step4_schema_summary.svg"},
  };
  for (int step = 0; step < 4; ++step) {
    if (step == 1) session.FocusClass(static_cast<size_t>(event));
    if (step == 2) session.ExpandClass(static_cast<size_t>(event));
    if (step == 3) session.ExpandAll();

    std::vector<hbold::viz::GraphNode> nodes;
    std::vector<hbold::viz::ForceEdge> edges;
    if (step == 0) {
      // Cluster Schema view: one node per cluster.
      for (const auto& cluster : clusters->clusters()) {
        nodes.push_back(hbold::viz::GraphNode{
            cluster.label,
            8.0 + 2.0 * static_cast<double>(cluster.class_nodes.size()),
            nodes.size()});
      }
      for (const auto& arc : clusters->arcs()) {
        edges.push_back(hbold::viz::ForceEdge{arc.src, arc.dst, 1.0});
      }
    } else {
      for (size_t node : session.VisibleNodes()) {
        nodes.push_back(hbold::viz::GraphNode{
            summary->nodes()[node].label, 8.0,
            static_cast<size_t>(clusters->ClusterOf(node))});
      }
      edges = session.VisibleEdges();
    }
    auto positions = hbold::viz::ForceLayout(
        nodes.size(), edges, {800, 600, 300, 42});
    write(hbold::viz::RenderGraph(nodes, edges, positions, 800, 600),
          steps[step].file);
    std::printf("%-30s nodes=%2zu coverage=%5.1f%%\n", steps[step].label,
                step == 0 ? clusters->ClusterCount()
                          : session.VisibleNodeCount(),
                session.CoveragePercent());
  }

  // ---- Figs. 4-6: hierarchy layouts over the Cluster Schema. ----
  hbold::viz::Hierarchy hierarchy = hbold::viz::HierarchyFromClusterSchema(
      *clusters, *summary, "ScholarlyData");
  write(hbold::viz::RenderTreemap(
            hbold::viz::TreemapLayout(hierarchy,
                                      hbold::viz::Rect{0, 0, 800, 600}),
            800, 600),
        "fig4_treemap.svg");
  write(hbold::viz::RenderSunburst(hbold::viz::SunburstLayout(hierarchy, {}),
                                   300),
        "fig5_sunburst.svg");
  write(hbold::viz::RenderCirclePack(hbold::viz::CirclePackLayout(hierarchy,
                                                                  {}),
                                     300),
        "fig6_circle_pack.svg");

  // ---- Fig. 7: hierarchical edge bundling, Event as class of interest.
  auto bundling = hbold::viz::BundleSchemaSummary(*summary, *clusters, {});
  int focus = -1;
  for (size_t i = 0; i < bundling.leaves.size(); ++i) {
    if (static_cast<int>(bundling.leaves[i].schema_node) == event) {
      focus = static_cast<int>(i);
    }
  }
  write(hbold::viz::RenderEdgeBundling(bundling, 300, focus),
        "fig7_edge_bundling.svg");
  std::printf("edge bundling: %zu leaves, %zu edges, ink %.0f (straight "
              "%.0f)\n",
              bundling.leaves.size(), bundling.edges.size(),
              bundling.TotalInk(), bundling.StraightInk());
  return 0;
}
