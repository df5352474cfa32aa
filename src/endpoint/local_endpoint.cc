#include "endpoint/local_endpoint.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>

#include "common/clock.h"

namespace hbold::endpoint {

namespace {

/// Forwarded to DiskBackendOptions::memory_budget_bytes for every store
/// the policy moves to disk.
constexpr size_t kServedStoreMemoryBudgetBytes = size_t{64} << 20;

}  // namespace

Status ApplyStoreBackendPolicy(rdf::TripleStore* store,
                               const StoreBackendPolicy& policy) {
  if (store->on_disk() || store->size() < policy.disk_threshold_triples) {
    return Status::OK();
  }
  rdf::DiskBackendOptions options;
  options.memory_budget_bytes = kServedStoreMemoryBudgetBytes;
  if (!policy.directory.empty()) {
    options.directory = policy.directory;
  } else {
    namespace fs = std::filesystem;
    static std::atomic<uint64_t> counter{0};
    options.directory =
        (fs::temp_directory_path() /
         ("hbold-store-" + std::to_string(static_cast<long>(::getpid())) +
          "-" + std::to_string(counter.fetch_add(1))))
            .string();
  }
  return store->EnableDiskBackend(options);
}

Result<QueryOutcome> LocalEndpoint::Query(const std::string& query_text) {
  sparql::ExecStats stats;
  return QueryWithStats(query_text, &stats);
}

Result<QueryOutcome> LocalEndpoint::QueryWithStats(
    const std::string& query_text, sparql::ExecStats* stats) {
  Stopwatch sw;
  Result<sparql::ParsedQuery> parsed = Parse(query_text);
  if (!parsed.ok()) {
    *stats = sparql::ExecStats{};
    queries_served_.fetch_add(1, std::memory_order_relaxed);
    return parsed.status();
  }
  HBOLD_ASSIGN_OR_RETURN(
      QueryOutcome outcome,
      Execute(query_text, std::move(parsed).value(), stats));
  outcome.latency_ms = sw.ElapsedMillis();  // the parse included
  return outcome;
}

Result<QueryOutcome> LocalEndpoint::Execute(const std::string& query_text,
                                            sparql::ParsedQuery parsed,
                                            sparql::ExecStats* stats) {
  *stats = sparql::ExecStats{};  // per-query stats, never accumulated
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  Stopwatch sw;
  HBOLD_ASSIGN_OR_RETURN(
      sparql::ResultTable table,
      executor_.Execute(query_text, std::move(parsed), stats));
  if (stats->hash_join_builds > 0) {
    hash_join_builds_.fetch_add(stats->hash_join_builds,
                                std::memory_order_relaxed);
  }
  QueryOutcome outcome;
  outcome.table = std::move(table);
  outcome.latency_ms = sw.ElapsedMillis();
  return outcome;
}

}  // namespace hbold::endpoint
