// End-to-end benchmark for H-BOLD: one seeded workload per process.
//
//   hbold_e2e --workload <portal_full|portal_churn|explore_open|bigstore_ooc>
//             --seed N --seconds S --trace 0|1 [--scale full|smoke]
//             --out DIR --tmp DIR [--expect FILE]
//
// Prints one "workload metric value unit" line per metric and one line per
// output check, then, as the last line of stdout, a JSON object with
// correct/attempted/failed/metrics. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones (and writes a Chrome trace).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/json.h"
#include "e2e.h"

namespace hbold::e2e {

void Outcome::AddMetric(const std::string& name, double value,
                        const std::string& unit) {
  metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit});
}

void Outcome::Check(const std::string& name, bool ok,
                    const std::string& detail) {
  std::printf("check %s %s %s\n", name.c_str(), ok ? "PASS" : "FAIL",
              detail.c_str());
  std::fflush(stdout);
  if (!ok) correct_ = false;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void AddEndToEnd(Outcome* out, const std::vector<double>& setup_s,
                 double throughput_per_s,
                 const std::vector<double>& latency_ms) {
  std::printf("samples setup=%zu latency=%zu\n", setup_s.size(),
              latency_ms.size());
  out->AddMetric("setup_s", Median(setup_s), "s");
  out->AddMetric("throughput_per_s", throughput_per_s, "1/s");
  out->AddMetric("latency_p50_ms", Percentile(latency_ms, 50), "ms");
  out->AddMetric("latency_p99_ms", Percentile(latency_ms, 99), "ms");
  out->AddMetric("peak_rss_mb", PeakRssMiB(), "MiB");
}

}  // namespace hbold::e2e

namespace {

using hbold::Json;
using hbold::e2e::Outcome;
using hbold::e2e::RunConfig;

int Usage(const char* why) {
  std::fprintf(stderr,
               "hbold_e2e: %s\nusage: hbold_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale full|smoke] --out DIR "
               "--tmp DIR [--expect FILE]\n",
               why);
  return 2;
}

/// The pinned fingerprint for (workload, scale, seed), or "" when none.
std::string Expected(const std::string& path, const RunConfig& cfg) {
  if (path.empty()) return "";
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  hbold::Result<Json> doc = Json::Parse(text.str());
  if (!doc.ok()) return "";
  const Json* w = doc->Find(cfg.workload);
  const Json* s = w ? w->Find(cfg.smoke ? "smoke" : "full") : nullptr;
  const Json* fp = s ? s->Find(std::to_string(cfg.seed)) : nullptr;
  return fp && fp->is_string() ? fp->as_string() : "";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string expect_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke") return Usage("bad --scale");
      cfg.smoke = value == "smoke";
    } else if (flag == "--out") {
      cfg.out_dir = value;
    } else if (flag == "--tmp") {
      cfg.tmp_dir = value;
    } else if (flag == "--expect") {
      expect_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (cfg.out_dir.empty() || cfg.tmp_dir.empty()) {
    return Usage("--out and --tmp are required");
  }
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");
  cfg.threads = std::clamp<size_t>(std::thread::hardware_concurrency(), 2, 4);

  Outcome outcome;
  if (cfg.workload == "portal_full") {
    outcome = hbold::e2e::RunPortalFull(cfg);
  } else if (cfg.workload == "portal_churn") {
    outcome = hbold::e2e::RunPortalChurn(cfg);
  } else if (cfg.workload == "explore_open") {
    outcome = hbold::e2e::RunExploreOpen(cfg);
  } else if (cfg.workload == "bigstore_ooc") {
    outcome = hbold::e2e::RunBigstoreOoc(cfg);
  } else {
    return Usage(("unknown workload " + cfg.workload).c_str());
  }

  const std::string expected = Expected(expect_path, cfg);
  if (expected.empty()) {
    std::printf("check pinned SKIP no pinned fingerprint for %s seed %llu\n",
                cfg.smoke ? "smoke" : "full",
                static_cast<unsigned long long>(cfg.seed));
  } else {
    outcome.Check("pinned", outcome.fingerprint() == expected,
                  "got " + outcome.fingerprint() + " want " + expected);
  }
  std::printf("fingerprint %s %s\n", cfg.workload.c_str(),
              outcome.fingerprint().c_str());

  Json metrics = Json::MakeObject();
  for (const hbold::e2e::Metric& m : outcome.metrics()) {
    std::printf("%s %s %.6g %s\n", cfg.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
    Json entry = Json::MakeObject();
    entry.Set("value", m.value);
    entry.Set("unit", m.unit);
    metrics.Set(m.name, std::move(entry));
  }
  std::printf("%s %s\n", cfg.workload.c_str(),
              outcome.correct() ? "PASS" : "FAIL");
  Json result = Json::MakeObject();
  result.Set("correct", outcome.correct());
  result.Set("attempted", outcome.attempted());
  result.Set("failed", outcome.failed());
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}
