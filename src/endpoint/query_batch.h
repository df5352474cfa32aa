#ifndef HBOLD_ENDPOINT_QUERY_BATCH_H_
#define HBOLD_ENDPOINT_QUERY_BATCH_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "endpoint/endpoint.h"

namespace hbold {
class ThreadPool;
}  // namespace hbold

namespace hbold::endpoint {

/// One unit of batch work: a SPARQL query against an endpoint. Jobs in a
/// batch are independent of one another (no job reads another's result).
struct QueryJob {
  SparqlEndpoint* endpoint = nullptr;
  std::string query;
};

/// Knobs for QueryBatch::Run.
struct QueryBatchOptions {
  /// Shared worker pool the batch fans out over. Null runs every job on
  /// the calling thread (the degenerate sequential mode). The pool may be
  /// the same one whose workers call Run — see the nested-submission rule
  /// below.
  ThreadPool* pool = nullptr;
  /// Politeness cap: at most this many queries in flight against any one
  /// endpoint at a time. 0 means unlimited. Public SPARQL endpoints
  /// throttle or ban aggressive clients, so the daily cycle keeps this
  /// small regardless of how many pool workers are idle.
  size_t per_endpoint_limit = 1;
  /// Abandon not-yet-started jobs once one fails — the all-or-nothing
  /// mode extraction batches want (their caller aborts on the first
  /// failure anyway, so the rest of the batch would be wasted endpoint
  /// work). Set false when jobs are independent errands (portal crawls):
  /// every job then runs and carries its own outcome.
  bool abort_on_failure = true;
  /// Also abandon not-yet-started jobs once one outcome comes back
  /// truncated by the endpoint's row cap. Extraction batches set this:
  /// their callers treat truncation as Unsupported and fall back to the
  /// next strategy, so issuing the rest of the batch would charge the
  /// endpoint for answers nobody reads.
  bool abort_on_truncation = false;
};

/// Fans a set of independent queries out over a shared ThreadPool and
/// collects the outcomes in submission order.
///
/// Guarantees:
///   - Outcomes are returned in submission order regardless of the order
///     jobs actually finished in; callers can account costs and merge
///     results deterministically.
///   - Jobs *start* in submission order (a shared cursor hands out
///     indices), so when a job fails (or, with abort_on_truncation, is
///     truncated), every job before it in submission order has started
///     and will produce a real outcome. Jobs not yet started when the
///     abort lands are abandoned with Status::Cancelled; in-flight jobs
///     run to completion. Scanning the returned vector in order
///     therefore meets every pre-abort outcome before any Cancelled
///     placeholder — the deterministic-accounting contract the
///     extraction layer builds on.
///   - Nested-submission safe: the calling thread claims and runs jobs
///     itself alongside the pool workers. A batch submitted from inside a
///     pool worker (an endpoint pipeline fanning out its own queries)
///     makes progress even when every other worker is busy or the pool's
///     queue never schedules the batch's runners — there is no
///     futures-wait on queued work, so no deadlock.
class QueryBatch {
 public:
  /// Runs all jobs; returns one Result per job, in submission order.
  static std::vector<Result<QueryOutcome>> Run(
      const std::vector<QueryJob>& jobs, const QueryBatchOptions& options);

  /// Convenience for the common case of N queries against one endpoint.
  static std::vector<Result<QueryOutcome>> RunOnOne(
      SparqlEndpoint* ep, const std::vector<std::string>& queries,
      const QueryBatchOptions& options);
};

}  // namespace hbold::endpoint

#endif  // HBOLD_ENDPOINT_QUERY_BATCH_H_
