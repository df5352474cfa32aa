#ifndef HBOLD_ENDPOINT_LOCAL_ENDPOINT_H_
#define HBOLD_ENDPOINT_LOCAL_ENDPOINT_H_

#include <atomic>
#include <string>

#include "endpoint/endpoint.h"
#include "rdf/graph.h"
#include "sparql/executor.h"

namespace hbold::endpoint {

/// Backend selection for stores served by endpoints: small corpora stay in
/// RAM, million-triple corpora move out of core before serving begins.
/// Applied by ApplyStoreBackendPolicy — typically right after bulk load,
/// before the endpoint (and its FinalizeIndex) is constructed.
struct StoreBackendPolicy {
  /// Stores with at least this many triples switch to the mmap-backed
  /// disk backend. With ~36 B/triple mapped across the three runs, the
  /// default (4M triples, ~144 MB on disk) is where the in-RAM vectors'
  /// doubling slack starts to dominate typical endpoint memory budgets.
  size_t disk_threshold_triples = size_t{4} << 20;
  /// Scratch root for the store's run files; empty = a fresh directory
  /// under the system temp dir.
  std::string directory;
};

/// Enables the disk backend on `store` when it is at or past the policy
/// threshold. No-op (OK) below the threshold or when already on disk.
/// Same write-side synchronization rules as TripleStore::Add.
Status ApplyStoreBackendPolicy(rdf::TripleStore* store,
                               const StoreBackendPolicy& policy);

/// An endpoint backed directly by an in-process TripleStore. Latency is the
/// measured wall-clock execution time; no availability or dialect modeling.
///
/// Thread safety — the truly concurrent read path: the constructor eagerly
/// finalizes the store's indexes (so the mutable lazy rebuild can never run
/// inside a query), the executor is stateless, and the served counter is
/// atomic, so any number of Query()/QueryWithStats() calls may run fully in
/// parallel — a width-4 QueryBatch against one local store gets real
/// wall-clock overlap, not serialized turns on a big lock. Callers that add
/// triples to the store after construction must not overlap those writes
/// with queries (same contract as TripleStore itself).
class LocalEndpoint : public SparqlEndpoint {
 public:
  /// `store` must outlive the endpoint. Every endpoint owns one
  /// cross-query plan cache (keyed on query text and the store's rebuild
  /// generation). The cache only memoizes parsing and planning — results
  /// and charged accounting are bit-identical to an uncached executor.
  LocalEndpoint(std::string url, std::string name,
                const rdf::TripleStore* store)
      : url_(std::move(url)), name_(std::move(name)), store_(store),
        executor_(store, sparql::ExecOptions{}, &plan_cache_) {
    store_->FinalizeIndex();
  }

  Result<QueryOutcome> Query(const std::string& query_text) override;

  /// Like Query(), but writes the execution stats to caller-owned storage.
  /// Exactly Parse() then Execute(); a text that fails to parse still
  /// counts as served.
  Result<QueryOutcome> QueryWithStats(const std::string& query_text,
                                      sparql::ExecStats* stats);

  /// Step 1 of a query, text -> AST (see sparql::Executor::Parse). Counts,
  /// plans and caches nothing, so a caller can still refuse the query by
  /// its AST: the simulated endpoint's dialect gate does.
  Result<sparql::ParsedQuery> Parse(const std::string& query_text) const {
    return executor_.Parse(query_text);
  }

  /// Step 2: executes `parsed`, which Parse() built from `query_text`,
  /// into caller-owned `stats`, and counts one served query.
  Result<QueryOutcome> Execute(const std::string& query_text,
                               sparql::ParsedQuery parsed,
                               sparql::ExecStats* stats);

  const std::string& url() const override { return url_; }
  const std::string& name() const override { return name_; }
  size_t queries_served() const override {
    return queries_served_.load(std::memory_order_relaxed);
  }

  const rdf::TripleStore* store() const { return store_; }

  /// Plan-cache effectiveness, cumulative. Reads atomics / takes the
  /// cache's shared lock only — never the query path.
  QueryEngineStats engine_stats() const override {
    sparql::PlanCacheStats cache = plan_cache_.stats();
    QueryEngineStats s;
    s.plan_cache_hits = cache.hits;
    s.plan_cache_misses = cache.misses;
    s.plan_cache_invalidations = cache.invalidations;
    return s;
  }

 private:
  std::string url_;
  std::string name_;
  const rdf::TripleStore* store_;
  /// Declared before executor_: the executor captures its address.
  sparql::PlanCache plan_cache_;
  sparql::Executor executor_;
  std::atomic<size_t> queries_served_{0};
};

}  // namespace hbold::endpoint

#endif  // HBOLD_ENDPOINT_LOCAL_ENDPOINT_H_
