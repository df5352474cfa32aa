// E11 — §3.1 refresh policy over a simulated month: endpoints flap
// day-to-day, LD content changes rarely, and the scheduler re-extracts
// weekly when healthy and daily after a failure. Reports the per-day
// schedule and verifies the policy's two invariants.

#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "hbold/hbold.h"
#include "workload/ld_generator.h"

int main() {
  hbold::sim::EventLoop loop;
  hbold::store::Database db;
  hbold::Server server(&db, &loop, hbold::ServerOptions{});

  // 40 endpoints with 90% daily uptime (the paper: endpoints are "often
  // not available [but] might work again after 1 or 2 days").
  constexpr size_t kEndpoints = 40;
  constexpr int64_t kDays = 30;
  std::vector<std::unique_ptr<hbold::rdf::TripleStore>> stores;
  std::vector<std::unique_ptr<hbold::endpoint::SimulatedRemoteEndpoint>> eps;
  for (size_t i = 0; i < kEndpoints; ++i) {
    auto store = std::make_unique<hbold::rdf::TripleStore>();
    hbold::workload::SyntheticLdConfig config;
    config.num_classes = 6 + i % 20;
    config.max_instances_per_class = 20;
    config.seed = 1000 + i;
    hbold::workload::GenerateSyntheticLd(config, store.get());

    hbold::endpoint::AvailabilityModel avail;
    avail.uptime = 0.9;
    avail.seed = 50 + i;
    std::string url = "http://flaky" + std::to_string(i) +
                      ".example.org/sparql";
    auto ep = std::make_unique<hbold::endpoint::SimulatedRemoteEndpoint>(
        url, "Flaky " + std::to_string(i), store.get(), loop.clock(),
        hbold::endpoint::Dialect::Full(), avail);
    server.AttachEndpoint(url, ep.get());
    hbold::endpoint::EndpointRecord record;
    record.url = url;
    server.RegisterEndpoint(record);
    stores.push_back(std::move(store));
    eps.push_back(std::move(ep));
  }

  hbold::bench::PrintHeader("E11: §3.1 refresh policy over 30 simulated days");
  std::printf("%-6s %6s %6s %8s %8s\n", "day", "due", "ok", "failed",
              "reused");
  size_t total_attempts = 0, total_ok = 0, total_reused = 0;
  std::map<std::string, int64_t> last_success;
  bool policy_violation = false;
  for (int64_t day = 0; day < kDays; ++day) {
    // Policy invariant 1: a healthy endpoint is never re-extracted before
    // 7 days have passed.
    for (const auto* record : server.registry().All()) {
      auto it = last_success.find(record->url);
      if (it != last_success.end() && !record->last_attempt_failed) {
        hbold::extraction::RefreshScheduler scheduler(7);
        if (scheduler.IsDue(*record, day) && day - it->second < 7) {
          policy_violation = true;
        }
      }
    }
    hbold::DailyReport report = server.RunDailyUpdate();
    total_attempts += report.due;
    total_ok += report.succeeded;
    total_reused += report.reused;
    for (const auto& r : report.reports) last_success[r.url] = day;
    std::printf("%-6lld %6zu %6zu %8zu %8zu\n", static_cast<long long>(day),
                report.due, report.succeeded, report.failed, report.reused);
    loop.RunUntil(loop.NowMs() + hbold::SimClock::kMillisPerDay);
  }

  // With weekly refresh and 90% uptime, each endpoint is attempted roughly
  // 30/7 times plus a retry per failure: far fewer than daily extraction
  // (30 per endpoint) — the §3.1 point ("it is useless to run the index
  // extraction over all the datasets daily").
  double attempts_per_endpoint =
      static_cast<double>(total_attempts) / kEndpoints;
  std::printf("\nattempts per endpoint over %lld days: %.1f (daily policy "
              "would be %lld)\n",
              static_cast<long long>(kDays), attempts_per_endpoint,
              static_cast<long long>(kDays));
  std::printf("successful extractions: %zu; endpoints indexed: %zu/%zu\n",
              total_ok, server.registry().IndexedCount(), kEndpoints);
  std::printf("clustering runs avoided (unchanged Schema Summary, §3.2): "
              "%zu of %zu successes\n",
              total_reused, total_ok);
  bool ok = !policy_violation && attempts_per_endpoint < 10 &&
            server.registry().IndexedCount() == kEndpoints;
  std::printf("\npolicy invariants hold (weekly refresh, daily retry after "
              "failure): %s\n",
              ok ? "YES" : "NO");
  return ok ? 0 : 1;
}
