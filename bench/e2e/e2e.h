#ifndef HBOLD_BENCH_E2E_E2E_H_
#define HBOLD_BENCH_E2E_E2E_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hbold::e2e {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// About 1/20 of the full sizes, for a quick all-workload check.
  bool smoke = false;
  /// Where traces go, and scratch space for store files and snapshots.
  std::string out_dir;
  std::string tmp_dir;
  /// Threads a workload may run at once: pool workers plus the caller.
  size_t threads = 4;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports.
class Outcome {
 public:
  void AddMetric(const std::string& name, double value,
                 const std::string& unit);
  /// Records and prints one output check; a failure makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Counts operations; `failed` of them did not succeed.
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// The run's output fingerprint, pinned per seed in expect.json.
  void SetFingerprint(std::string fp) { fingerprint_ = std::move(fp); }
  const std::string& fingerprint() const { return fingerprint_; }

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  /// A failed output check counts every operation as failed.
  uint64_t failed() const { return correct_ ? failed_ : attempted_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string fingerprint_;
  std::vector<Metric> metrics_;
};

/// p in [0, 100], linear interpolation between order statistics.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMiB();

/// Adds the end-to-end metrics, the same five for every workload:
/// median set-up time, throughput, latency p50/p99 of the workload's unit
/// of work, and peak RSS. Prints the sample counts behind them.
void AddEndToEnd(Outcome* out, const std::vector<double>& setup_s,
                 double throughput_per_s,
                 const std::vector<double>& latency_ms);

Outcome RunPortalFull(const RunConfig& cfg);
Outcome RunPortalChurn(const RunConfig& cfg);
Outcome RunExploreOpen(const RunConfig& cfg);
Outcome RunBigstoreOoc(const RunConfig& cfg);

}  // namespace hbold::e2e

#endif  // HBOLD_BENCH_E2E_E2E_H_
