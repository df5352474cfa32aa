#ifndef HBOLD_EXTRACTION_STRATEGIES_H_
#define HBOLD_EXTRACTION_STRATEGIES_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "endpoint/endpoint.h"
#include "extraction/indexes.h"

namespace hbold {
class ThreadPool;
}  // namespace hbold

namespace hbold::extraction {

/// How a strategy is allowed to talk to its endpoint: the shared worker
/// pool the whole daily cycle runs on, plus the endpoint "politeness" cap.
/// Default-constructed context means strictly sequential queries — the
/// pre-batching behavior.
struct ExtractionContext {
  /// Pool shared with the inter-pipeline fan-out; null runs batch jobs on
  /// the calling thread. Strategies submit batch work through
  /// endpoint::QueryBatch, whose caller-participates design makes nested
  /// submission from a pool worker deadlock-free.
  ThreadPool* pool = nullptr;
  /// Max concurrent queries against the endpoint (and the width used for
  /// the deterministic intra-pipeline makespan model). <= 1 disables
  /// batching.
  size_t batch_width = 1;

  /// Prior-summary magnitudes for dirty-class re-extraction (0 = unknown).
  /// Restricted strategies whose dirty-class path is not obviously cheaper
  /// than their full scan (the paginated scan) use these to price the two
  /// and decline (Unsupported) when the full chain would win.
  size_t prior_num_triples = 0;
  size_t prior_num_instances = 0;
  size_t prior_class_count = 0;

  bool batching_enabled() const { return batch_width > 1; }
};

/// Cost accounting for one extraction run (per strategy attempt or total).
///
/// Deterministic-accounting contract: every figure below depends only on
/// the endpoint's content/dialect and the configured batch width — never
/// on the pool size, thread scheduling, or whether batch jobs physically
/// overlapped. Batched strategies charge the *logical* sequential query
/// stream in submission order; when a batch aborts mid-way, outcomes up
/// to and including the first failure (in submission order) are charged
/// and later jobs are not, which is exactly what a sequential run would
/// have issued.
struct ExtractionReport {
  std::string strategy_used;
  size_t queries_issued = 0;
  /// Result rows received from the endpoint across all queries — the
  /// network volume a strategy implies (aggregation-pushdown strategies
  /// transfer little; the paginated scan transfers the whole dataset).
  size_t rows_transferred = 0;
  double total_latency_ms = 0;
  /// Simulated *duration* of the extraction when batched queries overlap:
  /// sequential queries contribute their full latency, every batch its
  /// list-scheduled makespan over `batch_width` lanes. Equals
  /// total_latency_ms when batching is off; the cost figure
  /// total_latency_ms is unchanged by batching.
  double intra_makespan_ms = 0;
  /// Query batches fanned out through the shared pool (0 when batching is
  /// off or the strategy had nothing to batch).
  size_t batches_issued = 0;
  /// Names of strategies that were tried and rejected before the one that
  /// succeeded (Unsupported/Timeout fallbacks).
  std::vector<std::string> fallbacks;
  /// Strategy attempts the endpoint pushed back on with Timeout (work
  /// budget blown). Part of the fleet's canonical dump, and each nonzero
  /// count becomes a kThrottle event. Deterministic per endpoint
  /// content/dialect: whether a strategy times out depends on query
  /// results, never on wall clock or batch width.
  size_t throttle_events = 0;
};

/// One "pattern strategy" [1]: a way of phrasing the index-extraction
/// queries that matches what a given endpoint implementation can answer.
class ExtractionStrategy {
 public:
  virtual ~ExtractionStrategy() = default;
  virtual const char* name() const = 0;

  /// Runs the full index extraction against `ep`, fanning independent
  /// query sets out per `context`. Returns Unsupported when the
  /// endpoint's dialect cannot answer this strategy's query shapes
  /// (callers then fall back to the next strategy).
  virtual Result<IndexSummary> Extract(endpoint::SparqlEndpoint* ep,
                                       const ExtractionContext& context,
                                       ExtractionReport* report) const = 0;

  /// Sequential convenience overload (the pre-batching call shape).
  Result<IndexSummary> Extract(endpoint::SparqlEndpoint* ep,
                               ExtractionReport* report) const {
    return Extract(ep, ExtractionContext{}, report);
  }

  /// Dirty-class re-extraction mode: re-runs this strategy's query shapes
  /// restricted to `class_iris` (skipping the class-enumeration step
  /// entirely), plus the cheap global counts. The returned summary holds
  /// ONLY the requested classes (those re-extracted to zero instances are
  /// dropped) with fresh num_triples/num_instances; callers merge it into
  /// the prior full summary via MergeDirtyClasses. Per-class figures are
  /// value-identical to what a full Extract would produce, so merge ==
  /// full re-extraction. Default: Unsupported (strategies without a cheap
  /// restricted form fall back to the full chain).
  virtual Result<IndexSummary> ExtractClasses(
      endpoint::SparqlEndpoint* ep, const ExtractionContext& context,
      const std::vector<std::string>& class_iris,
      ExtractionReport* report) const {
    (void)context;
    (void)class_iris;
    (void)report;
    return Status::Unsupported(std::string(name()) +
                               " has no dirty-class re-extraction mode for " +
                               ep->url());
  }
};

/// Strategy 1 — aggregation pushed to the endpoint: COUNT + GROUP BY do the
/// heavy lifting server-side. Fewest queries, needs a full-featured
/// endpoint (Virtuoso-class).
class DirectAggregationStrategy : public ExtractionStrategy {
 public:
  using ExtractionStrategy::Extract;
  const char* name() const override { return "direct-aggregation"; }
  Result<IndexSummary> Extract(endpoint::SparqlEndpoint* ep,
                               const ExtractionContext& context,
                               ExtractionReport* report) const override;
  Result<IndexSummary> ExtractClasses(
      endpoint::SparqlEndpoint* ep, const ExtractionContext& context,
      const std::vector<std::string>& class_iris,
      ExtractionReport* report) const override;
};

/// Strategy 2 — plain COUNT without GROUP BY: enumerate classes with
/// SELECT DISTINCT, then issue one COUNT per class/property. Many more
/// queries; works on endpoints whose aggregation support is partial.
class PerClassCountStrategy : public ExtractionStrategy {
 public:
  using ExtractionStrategy::Extract;
  const char* name() const override { return "per-class-count"; }
  Result<IndexSummary> Extract(endpoint::SparqlEndpoint* ep,
                               const ExtractionContext& context,
                               ExtractionReport* report) const override;
  Result<IndexSummary> ExtractClasses(
      endpoint::SparqlEndpoint* ep, const ExtractionContext& context,
      const std::vector<std::string>& class_iris,
      ExtractionReport* report) const override;
};

/// Strategy 3 — no aggregates at all: page through raw triples with
/// LIMIT/OFFSET and count client-side. Slowest, works everywhere, and is
/// the only strategy that tolerates hard result-row caps.
class PaginatedScanStrategy : public ExtractionStrategy {
 public:
  using ExtractionStrategy::Extract;
  explicit PaginatedScanStrategy(size_t page_size = 10000)
      : page_size_(page_size) {}
  const char* name() const override { return "paginated-scan"; }
  Result<IndexSummary> Extract(endpoint::SparqlEndpoint* ep,
                               const ExtractionContext& context,
                               ExtractionReport* report) const override;
  /// Restricted dirty-class form for aggregate-free / row-capped dialects:
  /// one full type scan (for instance counts and the range map), an exact
  /// global triple count via LIMIT 1 OFFSET probes galloping out from the
  /// prior count, then one paged scan per dirty class. Declines
  /// (Unsupported) when the prior-summary hints say the full scan is
  /// cheaper or are absent.
  Result<IndexSummary> ExtractClasses(
      endpoint::SparqlEndpoint* ep, const ExtractionContext& context,
      const std::vector<std::string>& class_iris,
      ExtractionReport* report) const override;

 private:
  size_t page_size_;
};

}  // namespace hbold::extraction

#endif  // HBOLD_EXTRACTION_STRATEGIES_H_
