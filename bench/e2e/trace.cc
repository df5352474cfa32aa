#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace hbold::e2e {

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->tid = static_cast<uint32_t>(buffers_.size());
    buffer->spans.reserve(1 << 14);
  }
  return buffer;
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t id) {
  if (!enabled()) return;
  Buffer* buffer = ThreadBuffer();
  buffer->spans.push_back(Span{name, start_ns, end_ns, id, buffer->tid,
                               unit_.load(std::memory_order_relaxed)});
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

bool Tracer::WriteChromeTrace(const std::string& path, uint32_t unit) const {
  std::vector<Span> spans = Collect();
  int64_t origin = 0;
  for (const Span& s : spans) {
    if (s.unit == unit && (origin == 0 || s.start_ns < origin)) {
      origin = s.start_ns;
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const Span& s : spans) {
    if (s.unit != unit) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                 first ? "" : ",\n", s.name, s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void QueryLog::Add(uint64_t endpoint_id, const std::string& text) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.emplace_back(endpoint_id, text);
}

std::vector<std::pair<uint64_t, std::string>> QueryLog::Sorted() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<uint64_t, std::string>> sorted = entries_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

void TracingEndpoint::Observe(const char* name, int64_t start_ns,
                              int64_t end_ns) {
  Tracer::Get().Record(name, start_ns, end_ns, id_);
  int64_t first = first_ns_.load(std::memory_order_relaxed);
  while ((first == 0 || start_ns < first) &&
         !first_ns_.compare_exchange_weak(first, start_ns,
                                          std::memory_order_relaxed)) {
  }
  int64_t last = last_ns_.load(std::memory_order_relaxed);
  while (end_ns > last &&
         !last_ns_.compare_exchange_weak(last, end_ns,
                                         std::memory_order_relaxed)) {
  }
}

Result<endpoint::QueryOutcome> TracingEndpoint::Query(
    const std::string& query_text) {
  const int64_t start = NowNs();
  Result<endpoint::QueryOutcome> outcome = inner_->Query(query_text);
  Observe("endpoint.query", start, NowNs());
  if (outcome.ok()) {
    ok_.fetch_add(1, std::memory_order_relaxed);
    rows_.fetch_add(outcome->table.num_rows(), std::memory_order_relaxed);
    if (log_ != nullptr && log_->capturing()) log_->Add(id_, query_text);
  }
  return outcome;
}

Result<endpoint::ChangeProbe> TracingEndpoint::ProbeChanges() {
  const int64_t start = NowNs();
  Result<endpoint::ChangeProbe> probe = inner_->ProbeChanges();
  Observe("endpoint.probe", start, NowNs());
  return probe;
}

void TracingEndpoint::AdvanceDataDay(int64_t day) {
  ScopedSpan span("endpoint.advance_day", id_);
  inner_->AdvanceDataDay(day);
}

}  // namespace hbold::e2e
