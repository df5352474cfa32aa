#include "hbold/crawler.h"

#include <set>

namespace hbold {

std::string Listing1Query() {
  // Listing 1 of the paper (whitespace normalized): "perfectly fits all
  // the portals".
  return R"(PREFIX dcat: <http://www.w3.org/ns/dcat#>
PREFIX dc: <http://purl.org/dc/terms/>
SELECT ?dataset ?title ?url
WHERE {
  ?dataset a dcat:Dataset .
  ?dataset dc:title ?title .
  ?dataset dcat:distribution ?distribution .
  ?distribution dcat:accessURL ?url .
  FILTER ( regex(?url, "sparql") ) .
})";
}

PortalCrawlResult PortalCrawler::Merge(const std::string& portal_name,
                                       const endpoint::QueryOutcome& outcome,
                                       int64_t today) {
  PortalCrawlResult result;
  result.portal_name = portal_name;
  result.datasets_matched = outcome.table.num_rows();

  // Distinct URLs with their dataset titles (first title wins).
  std::set<std::string> urls;
  const sparql::ResultTable& table = outcome.table;
  constexpr auto kTerm = sparql::ResultTable::ColumnType::kTerm;
  const int url_col = table.ColumnIndex("url", kTerm);
  const int title_col = table.ColumnIndex("title", kTerm);
  for (size_t i = 0; url_col >= 0 && i < table.num_rows(); ++i) {
    const rdf::Term* url = table.TermAt(i, url_col);
    const rdf::Term* title =
        title_col >= 0 ? table.TermAt(i, title_col) : nullptr;
    if (url == nullptr) continue;
    const std::string& u = url->lexical();
    if (!urls.insert(u).second) continue;
    if (registry_->Contains(u)) {
      ++result.already_known;
      continue;
    }
    endpoint::EndpointRecord record;
    record.url = u;
    record.name = title != nullptr ? title->lexical() : u;
    record.source = endpoint::EndpointSource::kPortalCrawl;
    record.added_day = today;
    // Crawls run while the daily cycle may already be in flight; a record
    // landing mid-cycle becomes schedulable on the *next* day so the
    // snapshot and live due-list paths can never disagree about it.
    record.first_eligible_day = today + 1;
    registry_->Add(std::move(record));
    ++result.newly_added;
  }
  result.distinct_urls = urls.size();
  return result;
}

Result<PortalCrawlResult> PortalCrawler::Crawl(
    const std::string& portal_name, endpoint::SparqlEndpoint* portal,
    int64_t today) {
  HBOLD_ASSIGN_OR_RETURN(endpoint::QueryOutcome outcome,
                         portal->Query(Listing1Query()));
  return Merge(portal_name, outcome, today);
}

std::vector<Result<PortalCrawlResult>> PortalCrawler::CrawlAll(
    const std::vector<PortalTarget>& portals, int64_t today,
    const endpoint::QueryBatchOptions& options) {
  std::vector<endpoint::QueryJob> jobs;
  jobs.reserve(portals.size());
  for (const PortalTarget& portal : portals) {
    jobs.push_back(endpoint::QueryJob{portal.endpoint, Listing1Query()});
  }
  // Portals are independent errands: one dead portal must not abandon
  // the others' crawls.
  endpoint::QueryBatchOptions crawl_options = options;
  crawl_options.abort_on_failure = false;
  std::vector<Result<endpoint::QueryOutcome>> outcomes =
      endpoint::QueryBatch::Run(jobs, crawl_options);

  // Merge strictly in portal order, on this thread, after every probe
  // finished — the registry sees the same insertion sequence a
  // sequential crawl would produce.
  std::vector<Result<PortalCrawlResult>> results;
  results.reserve(portals.size());
  for (size_t i = 0; i < portals.size(); ++i) {
    if (!outcomes[i].ok()) {
      results.push_back(outcomes[i].status());
      continue;
    }
    results.push_back(Merge(portals[i].name, *outcomes[i], today));
  }
  return results;
}

}  // namespace hbold
