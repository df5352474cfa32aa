#include "sim/event_loop.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/hash.h"

namespace hbold::sim {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kGeneric:
      return "generic";
    case EventKind::kDayBoundary:
      return "day-boundary";
    case EventKind::kChurn:
      return "churn";
    case EventKind::kCycleStart:
      return "cycle-start";
    case EventKind::kPipelineComplete:
      return "pipeline-complete";
    case EventKind::kThrottle:
      return "throttle";
    case EventKind::kCycleComplete:
      return "cycle-complete";
    case EventKind::kSessionArrival:
      return "session-arrival";
  }
  return "unknown";
}

EventId EventLoop::ScheduleAt(int64_t time_ms, EventKind kind,
                              std::string label, Handler fn) {
  // The past is not schedulable: a handler asking for an elapsed instant
  // gets "as soon as possible" (now, after everything already queued at
  // now — the sequence tie-break preserves scheduling order).
  time_ms = std::max(time_ms, clock_.NowMs());
  const EventId id = next_id_++;
  queue_.emplace(std::make_pair(time_ms, id),
                 Pending{kind, std::move(label), std::move(fn)});
  time_of_.emplace(id, time_ms);
  return id;
}

EventId EventLoop::ScheduleAfter(int64_t delay_ms, EventKind kind,
                                 std::string label, Handler fn) {
  return ScheduleAt(clock_.NowMs() + std::max<int64_t>(0, delay_ms), kind,
                    std::move(label), std::move(fn));
}

bool EventLoop::Cancel(EventId id) {
  auto it = time_of_.find(id);
  if (it == time_of_.end()) return false;
  queue_.erase(std::make_pair(it->second, id));
  time_of_.erase(it);
  return true;
}

void EventLoop::Note(EventKind kind, std::string label) {
  // Annotations share the id space with scheduled events so the history's
  // sequence column stays strictly increasing within an instant.
  history_.push_back(
      EventRecord{clock_.NowMs(), next_id_++, kind, std::move(label)});
}

void EventLoop::Dispatch(int64_t time_ms, EventId id, Pending pending) {
  // Time only moves forward through here: set, never add, so a re-entrant
  // read during the handler sees exactly the event's instant.
  clock_.AdvanceMs(time_ms - clock_.NowMs());
  history_.push_back(EventRecord{time_ms, id, pending.kind, pending.label});
  if (pending.fn) pending.fn();
}

bool EventLoop::Step() {
  auto it = queue_.begin();
  if (it == queue_.end()) return false;
  const auto [time_ms, id] = it->first;
  Pending pending = std::move(it->second);
  queue_.erase(it);
  time_of_.erase(id);
  Dispatch(time_ms, id, std::move(pending));
  return true;
}

size_t EventLoop::RunUntilIdle() {
  size_t dispatched = 0;
  while (Step()) ++dispatched;
  return dispatched;
}

size_t EventLoop::RunUntil(int64_t horizon_ms) {
  size_t dispatched = 0;
  while (!queue_.empty() && queue_.begin()->first.first <= horizon_ms) {
    Step();
    ++dispatched;
  }
  if (clock_.NowMs() < horizon_ms) {
    clock_.AdvanceMs(horizon_ms - clock_.NowMs());
  }
  return dispatched;
}

std::string EventLoop::HistoryDump() const {
  std::string dump;
  dump.reserve(history_.size() * 48);
  for (const EventRecord& e : history_) {
    dump += std::to_string(e.time_ms);
    dump += '|';
    dump += std::to_string(e.sequence);
    dump += '|';
    dump += EventKindName(e.kind);
    dump += '|';
    dump += e.label;
    dump += '\n';
  }
  return dump;
}

std::string EventLoop::HistoryFingerprint() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv64(HistoryDump())));
  return buf;
}

void EventLoop::ClearHistory() { history_.clear(); }

// --------------------------------------------------------------- process

Process::Process(EventLoop* loop, EventKind kind, std::string label)
    : loop_(loop), kind_(kind), label_(std::move(label)) {}

Process::~Process() { Cancel(); }

void Process::ActivateAt(int64_t time_ms, EventLoop::Handler fn) {
  Cancel();
  pending_ = loop_->ScheduleAt(time_ms, kind_, label_, std::move(fn));
}

void Process::ActivateAfter(int64_t delay_ms, EventLoop::Handler fn) {
  Cancel();
  pending_ = loop_->ScheduleAfter(delay_ms, kind_, label_, std::move(fn));
}

void Process::Cancel() {
  if (pending_ != 0) loop_->Cancel(pending_);
  pending_ = 0;
}

bool Process::active() const {
  return pending_ != 0 && loop_->IsPending(pending_);
}

// ------------------------------------------------------- arrival process

namespace {

/// Uniform draw in (0, 1]: top 53 bits of an FNV-1a hash over the
/// canonical "seed|index" key — the same platform-stable construction the
/// fleet's churn coins use.
double UniformDraw(uint64_t seed, uint64_t index) {
  std::string key = std::to_string(seed);
  key += "|arrival|";
  key += std::to_string(index);
  const double u =
      static_cast<double>(Fnv64(key) >> 11) / 9007199254740992.0;  // 2^53
  return 1.0 - u;  // (0, 1]: log() below must never see 0
}

}  // namespace

ArrivalProcess::ArrivalProcess(uint64_t seed, double mean_gap_ms)
    : seed_(seed), mean_gap_ms_(mean_gap_ms > 0 ? mean_gap_ms : 1.0) {}

int64_t ArrivalProcess::GapMs(uint64_t index) const {
  // Inverse-CDF exponential gap, rounded to whole simulated milliseconds
  // (event times are integers). At least 1ms so arrivals stay strictly
  // ordered even at silly rates.
  const double gap = -std::log(UniformDraw(seed_, index)) * mean_gap_ms_;
  return std::max<int64_t>(1, static_cast<int64_t>(std::llround(gap)));
}

std::vector<int64_t> ArrivalProcess::ArrivalsIn(int64_t start_ms,
                                                int64_t end_ms,
                                                uint64_t first_index) const {
  std::vector<int64_t> arrivals;
  int64_t t = start_ms;
  for (uint64_t i = first_index;; ++i) {
    t += GapMs(i);
    if (t >= end_ms) break;
    arrivals.push_back(t);
  }
  return arrivals;
}

}  // namespace hbold::sim
