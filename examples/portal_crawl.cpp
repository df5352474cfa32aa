// Simulates the §3.3 endpoint-discovery workflow: three open-data portals
// are crawled with the paper's Listing 1 query, discovered endpoints are
// deduplicated into the registry, and a few days of the §3.1 refresh
// cycle run over the result.
//
//   ./build/portal_crawl [parallelism]

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "hbold/hbold.h"
#include "workload/ld_generator.h"
#include "workload/portal_generator.h"

namespace {

struct Portal {
  std::string name;
  hbold::rdf::TripleStore catalog;
  std::unique_ptr<hbold::endpoint::SimulatedRemoteEndpoint> endpoint;
};

}  // namespace

int main(int argc, char** argv) {
  hbold::sim::EventLoop loop;
  hbold::store::Database db;
  hbold::ServerOptions options;
  if (argc > 1) options.parallelism = std::atoi(argv[1]);
  hbold::Server server(&db, &loop, options);

  // Three portals, each listing a few SPARQL endpoints among many plain
  // file datasets.
  std::vector<std::vector<std::string>> urls = {
      {"http://data.europa.one/sparql", "http://data.europa.two/sparql",
       "http://stats.example.eu/sparql"},
      {"http://opendata.eu/sparql"},
      {"http://io.paris.example.org/sparql",
       "http://lod.paris.example.org/sparql"},
  };
  const char* names[] = {"European Data Portal", "EU Open Data Portal",
                         "IO Data Science Paris"};
  std::vector<Portal> portals(3);
  for (size_t i = 0; i < portals.size(); ++i) {
    portals[i].name = names[i];
    hbold::workload::PortalConfig config;
    config.portal_name = names[i];
    config.namespace_iri =
        "http://portal" + std::to_string(i) + ".example.org/";
    config.total_datasets = 40;
    config.sparql_urls = urls[i];
    hbold::workload::GeneratePortalCatalog(config, &portals[i].catalog);
    portals[i].endpoint =
        std::make_unique<hbold::endpoint::SimulatedRemoteEndpoint>(
            config.namespace_iri + "sparql", names[i], &portals[i].catalog,
            loop.clock());
  }

  // Crawl.
  hbold::PortalCrawler crawler(&server.registry());
  std::printf("%-24s %9s %8s %6s %6s\n", "portal", "matched", "distinct",
              "known", "new");
  for (Portal& portal : portals) {
    auto result =
        crawler.Crawl(portal.name, portal.endpoint.get(), loop.NowDay());
    if (!result.ok()) {
      std::fprintf(stderr, "crawl failed: %s\n",
                   result.status().ToString().c_str());
      continue;
    }
    std::printf("%-24s %9zu %8zu %6zu %6zu\n", result->portal_name.c_str(),
                result->datasets_matched, result->distinct_urls,
                result->already_known, result->newly_added);
  }
  std::printf("registry now lists %zu endpoints\n", server.registry().size());

  // Back the discovered endpoints with simulated LD sources (two of the
  // six are dead and never extract).
  std::vector<std::unique_ptr<hbold::rdf::TripleStore>> stores;
  std::vector<std::unique_ptr<hbold::endpoint::SimulatedRemoteEndpoint>> eps;
  size_t attach_count = 0;
  for (const auto* record : server.registry().All()) {
    ++attach_count;
    if (attach_count % 3 == 0) continue;  // dead endpoint: no route
    auto store = std::make_unique<hbold::rdf::TripleStore>();
    hbold::workload::SyntheticLdConfig config;
    config.num_classes = 4 + attach_count * 3;
    config.max_instances_per_class = 40;
    config.seed = attach_count;
    hbold::workload::GenerateSyntheticLd(config, store.get());
    auto ep = std::make_unique<hbold::endpoint::SimulatedRemoteEndpoint>(
        record->url, record->name, store.get(), loop.clock());
    server.AttachEndpoint(record->url, ep.get());
    stores.push_back(std::move(store));
    eps.push_back(std::move(ep));
  }

  // Run the daily refresh cycle for a week (fanning out over
  // options.parallelism workers when > 1).
  for (int day = 0; day < 7; ++day) {
    hbold::DailyReport report = server.RunDailyUpdate();
    std::printf(
        "day %lld: due=%zu ok=%zu failed=%zu workers=%d "
        "latency sum=%.0fms makespan=%.0fms (indexed total: %zu)\n",
        static_cast<long long>(report.day), report.due, report.succeeded,
        report.failed, report.parallelism, report.sum_latency_ms,
        report.makespan_ms, server.registry().IndexedCount());
    loop.RunUntil(loop.NowMs() + hbold::SimClock::kMillisPerDay);
  }

  // Show the dataset list a user would see.
  hbold::Presentation presentation(&db);
  for (const hbold::DatasetInfo& info : presentation.ListDatasets()) {
    std::printf("dataset %-42s classes=%3zu instances=%5zu\n",
                info.url.c_str(), info.classes, info.total_instances);
  }
  return 0;
}
