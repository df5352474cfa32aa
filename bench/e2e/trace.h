#ifndef HBOLD_BENCH_E2E_TRACE_H_
#define HBOLD_BENCH_E2E_TRACE_H_

// Out-of-process-style tracing for the end-to-end benchmark: every span is
// recorded by benchmark code around a public call into the program, never
// inside it. Spans live in per-thread buffers and are exported at exit as
// Chrome trace-event JSON (chrome://tracing / Perfetto open it offline).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "endpoint/endpoint.h"

namespace hbold::e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One closed interval of work on one thread. `id` groups the spans of one
/// request (endpoint index, session id, drill-down index); `unit` is the
/// traced unit (cycle, rep, phase) that was current when the span closed.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint32_t tid = 0;
  uint32_t unit = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Process-wide span recorder. Disabled it costs one relaxed load per span.
class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Marks the traced unit later spans belong to (main thread, between
  /// units, while no worker records).
  void SetUnit(uint32_t unit) { unit_.store(unit, std::memory_order_relaxed); }

  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t id);

  /// Every recorded span, buffers concatenated. Call only while no thread
  /// is recording.
  std::vector<Span> Collect() const;

  /// Writes the spans of `unit` as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path, uint32_t unit) const;

 private:
  struct Buffer {
    uint32_t tid = 0;
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  mutable std::mutex mu_;
  /// Never shrinks: thread-local pointers into it stay valid for the run.
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> unit_{0};
};

/// Records [construction, destruction) as a span when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t id)
      : name_(name), id_(id), start_ns_(Tracer::Get().enabled() ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (start_ns_ != 0) Tracer::Get().Record(name_, start_ns_, NowNs(), id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t id_;
  int64_t start_ns_;
};

/// Query texts captured by tracing endpoints while capture is on, for the
/// SPARQL replay pass.
class QueryLog {
 public:
  void SetCapturing(bool on) { capturing_.store(on, std::memory_order_relaxed); }
  bool capturing() const { return capturing_.load(std::memory_order_relaxed); }
  void Add(uint64_t endpoint_id, const std::string& text);
  /// Every capture, in an order fixed by (endpoint id, text) — independent
  /// of thread interleaving.
  std::vector<std::pair<uint64_t, std::string>> Sorted() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<uint64_t, std::string>> entries_;
  std::atomic<bool> capturing_{false};
};

/// Decorator forwarding every SparqlEndpoint virtual to `inner`. It is the
/// benchmark's measurement point at the boundary between H-BOLD and a
/// (simulated) remote endpoint: it keeps the wall window of the endpoint's
/// queries, which is one pipeline's extraction as the endpoint sees it, and
/// the outcome counters; with tracing on it also records a span per call.
class TracingEndpoint final : public endpoint::SparqlEndpoint {
 public:
  TracingEndpoint(endpoint::SparqlEndpoint* inner, uint64_t id, QueryLog* log)
      : inner_(inner), id_(id), log_(log) {}

  Result<endpoint::QueryOutcome> Query(const std::string& query_text) override;
  const std::string& url() const override { return inner_->url(); }
  const std::string& name() const override { return inner_->name(); }
  size_t queries_served() const override { return inner_->queries_served(); }
  endpoint::QueryEngineStats engine_stats() const override {
    return inner_->engine_stats();
  }
  void AdvanceDataDay(int64_t day) override;
  Result<endpoint::ChangeProbe> ProbeChanges() override;

  uint64_t ok_queries() const { return ok_.load(std::memory_order_relaxed); }
  uint64_t rows() const { return rows_.load(std::memory_order_relaxed); }

  /// First call's start and last call's end since ResetWindow(); 0 when no
  /// query or probe reached the endpoint. Read and reset only while no call
  /// is in flight.
  int64_t window_start_ns() const {
    return first_ns_.load(std::memory_order_relaxed);
  }
  int64_t window_end_ns() const {
    return last_ns_.load(std::memory_order_relaxed);
  }
  void ResetWindow() {
    first_ns_.store(0, std::memory_order_relaxed);
    last_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  void Observe(const char* name, int64_t start_ns, int64_t end_ns);

  endpoint::SparqlEndpoint* inner_;
  uint64_t id_;
  QueryLog* log_;
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<int64_t> first_ns_{0};
  std::atomic<int64_t> last_ns_{0};
};

}  // namespace hbold::e2e

#endif  // HBOLD_BENCH_E2E_TRACE_H_
