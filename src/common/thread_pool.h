#ifndef HBOLD_COMMON_THREAD_POOL_H_
#define HBOLD_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hbold {

/// Fixed-size worker pool with a FIFO task queue. Tasks are arbitrary
/// callables; Submit returns a future for the callable's result. The pool
/// is the concurrency primitive behind the server's parallel daily cycle
/// (one endpoint pipeline per task) and any future fan-out work (sharded
/// crawls, batched extraction).
///
/// `num_workers == 0` is clamped to 1. Destruction drains the queue: all
/// already-submitted tasks run to completion before the workers join.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues `fn` and returns a future for its result. Exceptions thrown
  /// by `fn` are captured in the future.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs fn(0) .. fn(n-1) across the pool and blocks until all complete.
  /// With `pool == nullptr` (or a 1-worker pool, or n <= 1) the calls run
  /// inline on the caller's thread — the degenerate sequential mode used
  /// when `parallelism <= 1`. Exceptions from any iteration propagate
  /// (first one wins) after all iterations finish.
  ///
  /// Nesting-safe: iterations are claimed from a shared cursor by helper
  /// tasks AND by the calling thread, so a pool worker that calls
  /// ParallelFor on its own pool drives its iterations itself even when
  /// every other worker is blocked the same way. The fleet runs every
  /// shard's pipelines from one ParallelFor, and each pipeline submits
  /// its query batches (QueryBatch, the same claim-loop design) back into
  /// that pool, so the nesting that remains is batches inside pipelines.
  static void ParallelFor(ThreadPool* pool, size_t n,
                          const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// Deterministic per-worker accounting of *simulated* latency under
/// concurrency.
///
/// The sequential daily cycle attributes cost trivially: the cycle's
/// simulated latency is the sum of every endpoint's simulated latency.
/// Under a pool of N workers the sum is still the right *cost* figure
/// (total endpoint-side work is unchanged) but the wrong *duration*
/// figure: pipelines overlap, so the cycle's simulated wall-clock is the
/// makespan of the schedule, not the sum.
///
/// Real thread completion order is nondeterministic, so the ledger does
/// NOT observe threads. It replays classic list scheduling: tasks are
/// assigned, in submission order, to the worker that becomes free
/// earliest. Given the same per-task latencies and worker count the
/// makespan is bit-identical on every run — which keeps SimClock cost
/// attribution reproducible no matter how the OS interleaved the real
/// threads.
class WorkerLatencyLedger {
 public:
  explicit WorkerLatencyLedger(size_t num_workers);

  size_t num_workers() const { return busy_until_ms_.size(); }

  /// Assigns a task of `latency_ms` simulated milliseconds to the worker
  /// with the smallest accumulated load (ties broken by lowest worker id).
  /// Returns the worker id chosen.
  size_t Assign(double latency_ms);

  /// Sum of all assigned latencies — the cost figure, identical to the
  /// sequential cycle's total.
  double TotalMs() const;

  /// Largest per-worker accumulated latency — the simulated duration of
  /// the parallel cycle (what a SimClock should advance by).
  double MakespanMs() const;

  /// Accumulated simulated latency of one worker.
  double WorkerMs(size_t worker) const { return busy_until_ms_[worker]; }

 private:
  std::vector<double> busy_until_ms_;
};

}  // namespace hbold

#endif  // HBOLD_COMMON_THREAD_POOL_H_
