#include "hbold/metadata_crawler.h"

#include <cstdio>
#include <set>

namespace hbold {

std::string MetadataRepositoryCrawler::DiscoveryQuery(
    double min_availability) {
  char threshold[32];
  std::snprintf(threshold, sizeof(threshold), "%.3f", min_availability);
  return std::string("PREFIX sq: <http://sparqles.example.org/ns#>\n") +
         "SELECT ?ep ?url ?avail\n"
         "WHERE {\n"
         "  ?ep a sq:Endpoint .\n"
         "  ?ep sq:url ?url .\n"
         "  ?ep sq:availability ?avail .\n"
         "  FILTER (?avail >= " +
         threshold +
         ") .\n"
         "}";
}

namespace {

/// The unfiltered census query (total entries, for the listed/filtered
/// funnel).
std::string CensusQuery() {
  return "PREFIX sq: <http://sparqles.example.org/ns#>\n"
         "SELECT (COUNT(DISTINCT ?ep) AS ?n) WHERE { ?ep a sq:Endpoint . }";
}

}  // namespace

MetadataCrawlResult MetadataRepositoryCrawler::Merge(
    const std::string& repository_name, const endpoint::QueryOutcome& census,
    const endpoint::QueryOutcome& filtered, int64_t today) {
  MetadataCrawlResult result;
  result.repository_name = repository_name;
  result.endpoints_listed =
      static_cast<size_t>(census.table.ScalarInt("n").value_or(0));

  std::set<std::string> urls;
  const sparql::ResultTable& table = filtered.table;
  const int url_col =
      table.ColumnIndex("url", sparql::ResultTable::ColumnType::kTerm);
  for (size_t i = 0; url_col >= 0 && i < table.num_rows(); ++i) {
    const rdf::Term* url = table.TermAt(i, url_col);
    if (url == nullptr) continue;
    const std::string& u = url->lexical();
    if (!urls.insert(u).second) continue;
    if (registry_->Contains(u)) {
      ++result.already_known;
      continue;
    }
    endpoint::EndpointRecord record;
    record.url = u;
    record.name = u;
    record.source = endpoint::EndpointSource::kPortalCrawl;
    record.added_day = today;
    // Mid-cycle discovery: schedulable from the next day (see
    // PortalCrawler::Merge for the rationale).
    record.first_eligible_day = today + 1;
    registry_->Add(std::move(record));
    ++result.newly_added;
  }
  result.above_threshold = urls.size();
  return result;
}

Result<MetadataCrawlResult> MetadataRepositoryCrawler::Crawl(
    const std::string& repository_name, endpoint::SparqlEndpoint* repository,
    double min_availability, int64_t today) {
  HBOLD_ASSIGN_OR_RETURN(endpoint::QueryOutcome all,
                         repository->Query(CensusQuery()));
  HBOLD_ASSIGN_OR_RETURN(endpoint::QueryOutcome filtered,
                         repository->Query(DiscoveryQuery(min_availability)));
  return Merge(repository_name, all, filtered, today);
}

std::vector<Result<MetadataCrawlResult>> MetadataRepositoryCrawler::CrawlAll(
    const std::vector<MetadataRepositoryTarget>& repositories,
    double min_availability, int64_t today,
    const endpoint::QueryBatchOptions& options) {
  // Two jobs per repository, all repositories in one batch: the fan-out
  // overlaps across repositories while the politeness cap still bounds
  // what any single repository sees in flight.
  std::vector<endpoint::QueryJob> jobs;
  jobs.reserve(repositories.size() * 2);
  for (const MetadataRepositoryTarget& repo : repositories) {
    jobs.push_back(endpoint::QueryJob{repo.endpoint, CensusQuery()});
    jobs.push_back(
        endpoint::QueryJob{repo.endpoint, DiscoveryQuery(min_availability)});
  }
  endpoint::QueryBatchOptions crawl_options = options;
  crawl_options.abort_on_failure = false;  // repositories are independent
  std::vector<Result<endpoint::QueryOutcome>> outcomes =
      endpoint::QueryBatch::Run(jobs, crawl_options);

  std::vector<Result<MetadataCrawlResult>> results;
  results.reserve(repositories.size());
  for (size_t i = 0; i < repositories.size(); ++i) {
    Result<endpoint::QueryOutcome>& census = outcomes[i * 2];
    Result<endpoint::QueryOutcome>& filtered = outcomes[i * 2 + 1];
    if (!census.ok()) {
      results.push_back(census.status());
      continue;
    }
    if (!filtered.ok()) {
      results.push_back(filtered.status());
      continue;
    }
    results.push_back(
        Merge(repositories[i].name, *census, *filtered, today));
  }
  return results;
}

}  // namespace hbold
