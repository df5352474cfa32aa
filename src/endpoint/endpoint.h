#ifndef HBOLD_ENDPOINT_ENDPOINT_H_
#define HBOLD_ENDPOINT_ENDPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "sparql/results.h"

namespace hbold::endpoint {

/// Outcome of one endpoint query: the solution table plus the metadata the
/// server layer needs for cost accounting and robustness decisions.
struct QueryOutcome {
  sparql::ResultTable table;
  /// Simulated (or measured) end-to-end latency.
  double latency_ms = 0;
  /// True when the endpoint's result-size cap truncated the table — the
  /// signal that makes paginated extraction strategies necessary.
  bool truncated = false;
};

/// Cumulative query-engine counters of one endpoint: plan-cache
/// effectiveness and hash-join activity. Deployment figures only — they
/// describe which machinery answered queries, never how much simulated
/// work was charged, so they are reported next to wall-clock numbers and
/// excluded from every canonical accounting contract (concurrent batches
/// make the hit/miss split timing-dependent). Every field is a monotonic
/// counter, so the difference of two readings is the activity between them.
struct QueryEngineStats {
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t plan_cache_invalidations = 0;
  uint64_t hash_join_builds = 0;

  QueryEngineStats& operator+=(const QueryEngineStats& o) {
    plan_cache_hits += o.plan_cache_hits;
    plan_cache_misses += o.plan_cache_misses;
    plan_cache_invalidations += o.plan_cache_invalidations;
    hash_join_builds += o.hash_join_builds;
    return *this;
  }
  QueryEngineStats operator-(const QueryEngineStats& o) const {
    QueryEngineStats d;
    d.plan_cache_hits = plan_cache_hits - o.plan_cache_hits;
    d.plan_cache_misses = plan_cache_misses - o.plan_cache_misses;
    d.plan_cache_invalidations =
        plan_cache_invalidations - o.plan_cache_invalidations;
    d.hash_join_builds = hash_join_builds - o.hash_join_builds;
    return d;
  }
};

/// One entry of a change-detection probe: a class IRI plus an opaque
/// version counter that changes whenever any triple describing an instance
/// of that class changed. Versions are comparable only against earlier
/// probes of the same endpoint.
struct ClassFingerprint {
  std::string class_iri;
  uint64_t version = 0;
};

/// Result of the batched change-detection probe: the endpoint's current
/// store generation plus one fingerprint per instantiated class, in
/// ascending IRI order. A crawler diffs this against the fingerprints it
/// persisted last cycle to decide which classes need re-extraction — the
/// all-quiet case costs this one probe instead of a strategy chain.
struct ChangeProbe {
  uint64_t store_generation = 0;
  std::vector<ClassFingerprint> classes;
  /// Simulated latency charged for the probe round-trip.
  double latency_ms = 0;
  /// True when the endpoint cut the fingerprint list short (row cap,
  /// adversarial truncation). A truncated probe proves nothing about the
  /// classes it omitted — consumers must not infer removals from absence
  /// and must not take the all-quiet shortcut.
  bool truncated = false;
};

/// A SPARQL endpoint as H-BOLD sees it: an opaque URL that answers SPARQL
/// SELECT text. Implementations: LocalEndpoint (in-process store) and
/// SimulatedRemoteEndpoint (availability/latency/dialect model on top).
class SparqlEndpoint {
 public:
  virtual ~SparqlEndpoint() = default;

  /// Executes a SELECT query. Error statuses the server layer reacts to:
  ///   Unavailable — endpoint offline today (retry tomorrow, §3.1)
  ///   Timeout     — query exceeded the endpoint's work budget
  ///   Unsupported — dialect rejects a feature (COUNT/GROUP BY/...)
  ///   ParseError  — malformed query
  virtual Result<QueryOutcome> Query(const std::string& query_text) = 0;

  /// Stable identifier (the endpoint URL).
  virtual const std::string& url() const = 0;

  /// Human-readable name for listings.
  virtual const std::string& name() const = 0;

  /// Total number of Query() calls (for strategy cost accounting).
  virtual size_t queries_served() const = 0;

  /// Cumulative query-engine counters (zeros for implementations without a
  /// plan cache / local executor). Safe to call concurrently with queries;
  /// the server layer reads it between cycles for DailyReport deltas.
  virtual QueryEngineStats engine_stats() const { return {}; }

  /// Advances the endpoint's *data* to `day`: endpoints with a mutation
  /// model apply their seeded per-day churn (triples added/retracted) for
  /// every day up to and including `day`, exactly once per day regardless
  /// of how often this is called. Static endpoints ignore it. Write-side
  /// call: must not overlap Query()/ProbeChanges().
  ///
  /// Concurrency contract: endpoints over distinct stores may advance
  /// concurrently (a server advances all of its endpoints side by side);
  /// a day's mutation reads and writes only the endpoint's own store and
  /// state. Two mutating endpoints must therefore never share one store,
  /// and one endpoint must not be attached under two URLs.
  virtual void AdvanceDataDay(int64_t day) { (void)day; }

  /// Batched change-detection probe (one round-trip). Default: the
  /// endpoint cannot answer it (crawlers fall back to full extraction).
  /// Unavailable propagates like any query so §3.1 retry applies.
  virtual Result<ChangeProbe> ProbeChanges() {
    return Status::Unsupported("endpoint " + url() +
                               " does not support change probes");
  }
};

/// Liveness probe: runs the idiomatic `ASK { ?s ?p ?o . }`. Returns true
/// if the endpoint answered and holds at least one triple, false if it
/// answered but is empty; error statuses (Unavailable/Timeout) propagate
/// so the §3.1 scheduler can distinguish "down" from "empty".
Result<bool> Probe(SparqlEndpoint* ep);

}  // namespace hbold::endpoint

#endif  // HBOLD_ENDPOINT_ENDPOINT_H_
