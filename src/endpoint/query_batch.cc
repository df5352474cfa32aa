#include "endpoint/query_batch.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "common/thread_pool.h"

namespace hbold::endpoint {

namespace {

/// Shared state of one running batch. Held by shared_ptr: pool runner
/// tasks that only get scheduled after the batch already completed (their
/// claims all miss) must still find the cursor alive.
struct BatchState {
  BatchState(std::vector<QueryJob> jobs_in, const QueryBatchOptions& options)
      : jobs(std::move(jobs_in)),
        limit(options.per_endpoint_limit),
        abort_on_failure(options.abort_on_failure),
        abort_on_truncation(options.abort_on_truncation),
        results(jobs.size(), Status::Internal("batch job never ran")) {}

  /// Owned copy: a pool runner scheduled only after the batch finished
  /// still reads jobs.size() through the shared_ptr, which must not
  /// dangle into the caller's stack.
  const std::vector<QueryJob> jobs;
  const size_t limit;  // per-endpoint cap, 0 = unlimited
  const bool abort_on_failure;
  const bool abort_on_truncation;

  /// Claim cursor: hands out job indices in submission order.
  std::atomic<size_t> next{0};
  /// Set on the first job failure; jobs claimed afterwards are abandoned.
  std::atomic<bool> aborted{false};

  std::vector<Result<QueryOutcome>> results;

  // Completion tracking (caller blocks until completed == jobs.size()).
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t completed = 0;

  // Politeness semaphore: in-flight queries per endpoint.
  std::mutex slots_mu;
  std::condition_variable slots_cv;
  std::map<SparqlEndpoint*, size_t> in_flight;
};

void AcquireSlot(BatchState* s, SparqlEndpoint* ep) {
  if (s->limit == 0) return;
  std::unique_lock<std::mutex> lock(s->slots_mu);
  s->slots_cv.wait(lock, [&] { return s->in_flight[ep] < s->limit; });
  ++s->in_flight[ep];
}

void ReleaseSlot(BatchState* s, SparqlEndpoint* ep) {
  if (s->limit == 0) return;
  {
    std::lock_guard<std::mutex> lock(s->slots_mu);
    --s->in_flight[ep];
  }
  s->slots_cv.notify_all();
}

void MarkDone(BatchState* s) {
  bool all = false;
  {
    std::lock_guard<std::mutex> lock(s->done_mu);
    all = ++s->completed == s->jobs.size();
  }
  if (all) s->done_cv.notify_all();
}

/// Claim-and-run loop shared by the caller thread and the pool runners.
///
/// The abort flag is sampled *before* claiming: a job claimed while the
/// flag was still clear always executes, so the set of real (non-
/// Cancelled) outcomes is a prefix-closed superset of everything before
/// the first failure in submission order — see the header contract.
void RunClaimLoop(const std::shared_ptr<BatchState>& s) {
  const size_t n = s->jobs.size();
  for (;;) {
    const bool aborted = s->aborted.load();
    const size_t i = s->next.fetch_add(1);
    if (i >= n) return;
    if (aborted) {
      s->results[i] =
          Status::Cancelled("batch aborted after an earlier job failed");
      MarkDone(s.get());
      continue;
    }
    SparqlEndpoint* ep = s->jobs[i].endpoint;
    Result<QueryOutcome> outcome =
        Status::Unavailable("null endpoint in batch job");
    if (ep != nullptr) {
      AcquireSlot(s.get(), ep);
      // An escaping exception would be swallowed by the pool task's
      // discarded future and this job would never MarkDone — hanging
      // the whole batch. Fold it into a Status instead.
      try {
        outcome = ep->Query(s->jobs[i].query);
      } catch (const std::exception& e) {
        outcome = Status::Internal(std::string("batch job threw: ") +
                                   e.what());
      } catch (...) {
        outcome = Status::Internal("batch job threw");
      }
      ReleaseSlot(s.get(), ep);
    }
    const bool failed = !outcome.ok() && s->abort_on_failure;
    const bool truncated =
        outcome.ok() && outcome->truncated && s->abort_on_truncation;
    if (failed || truncated) s->aborted.store(true);
    s->results[i] = std::move(outcome);
    MarkDone(s.get());
  }
}

}  // namespace

std::vector<Result<QueryOutcome>> QueryBatch::Run(
    const std::vector<QueryJob>& jobs, const QueryBatchOptions& options) {
  auto state = std::make_shared<BatchState>(jobs, options);
  if (jobs.empty()) return std::move(state->results);

  if (options.pool != nullptr && state->jobs.size() > 1) {
    // Useful concurrency: the politeness cap bounds it per endpoint, the
    // pool bounds it globally. The caller thread is one more runner, so
    // the batch completes even if the pool never schedules any of these.
    std::set<SparqlEndpoint*> distinct;
    for (const QueryJob& job : jobs) distinct.insert(job.endpoint);
    size_t bound = jobs.size();
    if (options.per_endpoint_limit > 0) {
      bound = std::min(bound, distinct.size() * options.per_endpoint_limit);
    }
    const size_t runners =
        std::min({jobs.size() - 1, bound, options.pool->size()});
    for (size_t r = 0; r < runners; ++r) {
      options.pool->Submit([state] { RunClaimLoop(state); });
    }
  }
  RunClaimLoop(state);
  {
    std::unique_lock<std::mutex> lock(state->done_mu);
    state->done_cv.wait(
        lock, [&] { return state->completed == state->jobs.size(); });
  }
  return std::move(state->results);
}

std::vector<Result<QueryOutcome>> QueryBatch::RunOnOne(
    SparqlEndpoint* ep, const std::vector<std::string>& queries,
    const QueryBatchOptions& options) {
  std::vector<QueryJob> jobs;
  jobs.reserve(queries.size());
  for (const std::string& q : queries) jobs.push_back(QueryJob{ep, q});
  return Run(jobs, options);
}

}  // namespace hbold::endpoint
