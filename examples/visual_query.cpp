// The visual query interface: select classes on the Schema Summary, follow
// property arcs, add filters — H-BOLD generates and runs the SPARQL.
//
//   ./build/examples/visual_query

#include <cstdio>

#include "hbold/hbold.h"
#include "workload/scholarly.h"

int main() {
  // Scholarly endpoint + pipeline.
  hbold::rdf::TripleStore store;
  hbold::workload::ScholarlyConfig config;
  config.conferences = 2;
  config.people = 80;
  hbold::workload::GenerateScholarly(config, &store);

  hbold::sim::EventLoop loop;
  hbold::endpoint::SimulatedRemoteEndpoint ep(
      "http://www.scholarlydata.org/sparql", "ScholarlyData", &store,
      loop.clock());
  hbold::store::Database db;
  hbold::Server server(&db, &loop, hbold::ServerOptions{});
  server.AttachEndpoint(ep.url(), &ep);
  hbold::endpoint::EndpointRecord record;
  record.url = ep.url();
  server.RegisterEndpoint(record);
  if (!server.ProcessEndpoint(ep.url()).ok()) return 1;

  hbold::Presentation presentation(&db);
  auto summary = presentation.LoadSchemaSummary(ep.url());
  if (!summary.ok()) return 1;

  // The user clicks Person on the Schema Summary ...
  std::string ns = hbold::workload::kScholarlyNs;
  int person = summary->FindNode(ns + "Person");
  if (person < 0) return 1;

  hbold::VisualQuery query(*summary);
  std::string person_var = query.SelectClass(static_cast<size_t>(person));

  // ... ticks the rdfs:label attribute ...
  std::string label_var = query.SelectAttribute(
      static_cast<size_t>(person),
      "http://www.w3.org/2000/01/rdf-schema#label");

  // ... follows the affiliation arc to Organisation ...
  for (const auto& arc : summary->arcs()) {
    if (arc.src == static_cast<size_t>(person) &&
        arc.iri == ns + "hasAffiliation") {
      query.FollowArc(arc);
    }
  }

  // ... and filters people whose label contains "1".
  query.FilterRegex(label_var, "1");
  query.SetLimit(8);

  std::printf("generated SPARQL:\n%s\n\n", query.GenerateSparql().c_str());

  auto outcome = query.Execute(&ep);
  if (!outcome.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  std::printf("results (%zu rows, %.2f ms simulated):\n%s",
              outcome->table.num_rows(), outcome->latency_ms,
              outcome->table.ToTsv().c_str());
  return 0;
}
