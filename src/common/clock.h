#ifndef HBOLD_COMMON_CLOCK_H_
#define HBOLD_COMMON_CLOCK_H_

#include <cstdint>
#include <string>

namespace hbold {

/// Simulated wall-clock used by the refresh scheduler and the endpoint
/// availability model. Time is measured in milliseconds since an arbitrary
/// epoch; days matter for the §3.1 refresh policy (weekly re-extraction,
/// daily retry after failure). In a simulation the sim::EventLoop owns the
/// one clock and alone advances it; endpoints hold it read-only.
class SimClock {
 public:
  static constexpr int64_t kMillisPerSecond = 1000;
  static constexpr int64_t kMillisPerMinute = 60 * kMillisPerSecond;
  static constexpr int64_t kMillisPerHour = 60 * kMillisPerMinute;
  static constexpr int64_t kMillisPerDay = 24 * kMillisPerHour;

  SimClock() = default;
  explicit SimClock(int64_t start_ms) : now_ms_(start_ms) {}

  int64_t NowMs() const { return now_ms_; }
  int64_t NowDay() const { return now_ms_ / kMillisPerDay; }

  void AdvanceMs(int64_t ms) { now_ms_ += ms; }
  void AdvanceDays(int64_t days) { now_ms_ += days * kMillisPerDay; }

  /// Human-readable "day D hh:mm:ss.mmm" timestamp for logs.
  std::string ToString() const;

 private:
  int64_t now_ms_ = 0;
};

/// Monotonic real-time stopwatch (nanosecond resolution) used by benchmarks
/// and the §3.2 display-time measurements.
class Stopwatch {
 public:
  Stopwatch();
  /// Restarts the stopwatch.
  void Reset();
  /// Elapsed time since construction/Reset, in nanoseconds / milliseconds.
  int64_t ElapsedNanos() const;
  double ElapsedMillis() const;

 private:
  int64_t start_ns_;
};

}  // namespace hbold

#endif  // HBOLD_COMMON_CLOCK_H_
