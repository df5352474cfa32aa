#include "hbold/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace hbold {

namespace {

/// Stable (seed, url, day) coin in [0, 1): top 53 bits of an FNV-1a hash
/// over a canonical key string. Identical on every platform and in every
/// deployment shape, which is what keeps the death calendar — and with it
/// the whole simulated history — shard-invariant.
double ChurnCoin(uint64_t seed, const std::string& url, int64_t day) {
  std::string key = url;
  key += '|';
  key += std::to_string(day);
  key += '|';
  key += std::to_string(seed);
  return static_cast<double>(Fnv64(key) >> 11) /
         9007199254740992.0;  // 2^53
}

std::string HexFingerprint(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

// ---------------------------------------------------------------- churn

void ChurnModel::ScheduleArrival(int64_t day, endpoint::EndpointRecord record,
                                 endpoint::SparqlEndpoint* ep) {
  ChurnArrival arrival;
  arrival.day = day;
  arrival.record = std::move(record);
  arrival.endpoint = ep;
  // Keep the schedule sorted by day with ties in insertion order, so
  // arrivals apply in a deterministic sequence.
  auto it = std::upper_bound(
      arrivals_.begin(), arrivals_.end(), day,
      [](int64_t d, const ChurnArrival& a) { return d < a.day; });
  arrivals_.insert(it, std::move(arrival));
}

int64_t ChurnModel::ArrivalDayFor(const std::string& url, int64_t first_day,
                                  int64_t span) const {
  if (span <= 1) return first_day;
  return first_day +
         static_cast<int64_t>(Fnv64(url + "|arrival|" +
                                    std::to_string(options_.seed)) %
                              static_cast<uint64_t>(span));
}

bool ChurnModel::DiesOn(const std::string& url, int64_t day) const {
  if (options_.death_probability <= 0) return false;
  return ChurnCoin(options_.seed, url, day) < options_.death_probability;
}

std::vector<ChurnArrival> ChurnModel::TakeArrivalsThrough(int64_t day) {
  auto it = std::upper_bound(
      arrivals_.begin(), arrivals_.end(), day,
      [](int64_t d, const ChurnArrival& a) { return d < a.day; });
  std::vector<ChurnArrival> taken(std::make_move_iterator(arrivals_.begin()),
                                  std::make_move_iterator(it));
  arrivals_.erase(arrivals_.begin(), it);
  return taken;
}

// ----------------------------------------------------------------- fleet

Fleet::Fleet(sim::EventLoop* loop, const FleetOptions& options)
    : loop_(loop),
      options_(options),
      churn_(options.churn),
      cycle_process_(loop_, sim::EventKind::kCycleStart, "fleet-cycle") {
  options_.num_shards = std::max(1, options_.num_shards);
  if (options_.fleet_workers == 0) {
    options_.fleet_workers =
        static_cast<size_t>(options_.num_shards) *
        static_cast<size_t>(std::max(1, options_.server.parallelism));
  }
  // The pool comes first: every shard's database saves on it.
  if (options_.fleet_workers > 1) pool_.emplace(options_.fleet_workers);
  ThreadPool* pool = pool_ ? &*pool_ : nullptr;
  dbs_.reserve(options_.num_shards);
  shards_.reserve(options_.num_shards);
  for (int s = 0; s < options_.num_shards; ++s) {
    dbs_.push_back(std::make_unique<store::Database>(pool));
    shards_.push_back(std::make_unique<Server>(
        dbs_.back().get(), loop_, options_.server));
  }
}

size_t Fleet::ShardOf(const std::string& url) const {
  return static_cast<size_t>(Fnv64(url) %
                             static_cast<uint64_t>(shards_.size()));
}

bool Fleet::RegisterEndpoint(endpoint::EndpointRecord record) {
  std::string url = record.url;
  if (!shards_[ShardOf(url)]->RegisterEndpoint(std::move(record))) {
    return false;
  }
  registration_order_.push_back(std::move(url));
  return true;
}

void Fleet::AttachEndpoint(const std::string& url,
                           endpoint::SparqlEndpoint* ep) {
  attached_[url] = ep;
  shards_[ShardOf(url)]->AttachEndpoint(url, ep);
}

void Fleet::DetachEndpoint(const std::string& url) {
  attached_.erase(url);
  shards_[ShardOf(url)]->DetachEndpoint(url);
}

endpoint::SparqlEndpoint* Fleet::EndpointFor(const std::string& url) const {
  auto it = attached_.find(url);
  return it == attached_.end() ? nullptr : it->second;
}

void Fleet::ApplyChurn(int64_t day, FleetDayReport* day_report) {
  for (ChurnArrival& arrival : churn_.TakeArrivalsThrough(day)) {
    std::string url = arrival.record.url;
    arrival.record.added_day = day;
    // The §3.1 contract for mid-simulation newcomers: schedulable from
    // the NEXT day, so every deployment shape sees the same due lists.
    arrival.record.first_eligible_day = day + 1;
    if (RegisterEndpoint(std::move(arrival.record))) {
      if (arrival.endpoint != nullptr) AttachEndpoint(url, arrival.endpoint);
      ++day_report->arrivals;
      loop_->Note(sim::EventKind::kChurn, "arrival|" + url);
      HBOLD_LOG(kDebug) << "fleet churn: " << url << " arrived on day "
                        << day;
    } else if (arrival.endpoint != nullptr && attached_.count(url) == 0) {
      // Known URL coming back online (e.g. a portal that died earlier in
      // the simulation): the registry record persists by design, so
      // restore the route and count the recovery as an arrival.
      AttachEndpoint(url, arrival.endpoint);
      ++day_report->arrivals;
      loop_->Note(sim::EventKind::kChurn, "recover|" + url);
      HBOLD_LOG(kDebug) << "fleet churn: " << url << " recovered on day "
                        << day;
    } else {
      HBOLD_LOG(kDebug) << "fleet churn: arrival for " << url << " on day "
                        << day << " ignored (already registered"
                        << (attached_.count(url) > 0 ? " and attached)"
                                                     : ", no endpoint)");
    }
  }
  if (options_.churn.death_probability > 0) {
    std::vector<std::string> victims;
    for (const auto& [url, ep] : attached_) {
      if (churn_.DiesOn(url, day)) victims.push_back(url);
    }
    for (const std::string& url : victims) {
      DetachEndpoint(url);
      ++day_report->deaths;
      loop_->Note(sim::EventKind::kChurn, "death|" + url);
      HBOLD_LOG(kDebug) << "fleet churn: " << url << " died on day " << day;
    }
  }
}

// ------------------------------------------------- the event-loop chain

void Fleet::ScheduleCycles(int64_t count) {
  if (count <= 0) return;
  const bool chain_idle = cycles_remaining_ == 0;
  cycles_remaining_ += count;
  if (chain_idle) ScheduleCycleAt(loop_->NowMs());
}

void Fleet::ScheduleCycleAt(int64_t start_ms) {
  const int64_t day = start_ms / SimClock::kMillisPerDay;
  // A cycle landing on a day boundary crosses it with an explicit
  // kDayBoundary event — boundaries are scheduled occurrences on the
  // timeline, not clock arithmetic. Catch-up cycles start mid-day and
  // cross no boundary.
  if (start_ms % SimClock::kMillisPerDay == 0 &&
      start_ms > last_boundary_ms_) {
    last_boundary_ms_ = start_ms;
    loop_->ScheduleAt(start_ms, sim::EventKind::kDayBoundary,
                      "day " + std::to_string(day), nullptr);
  }
  // Churn precedes the cycle at the same instant (scheduled first, lower
  // sequence): arrivals/deaths applied for the day the cycle runs in.
  loop_->ScheduleAt(start_ms, sim::EventKind::kChurn,
                    "day " + std::to_string(day), [this] {
                      pending_day_ = FleetDayReport{};
                      pending_day_.day = loop_->NowDay();
                      ApplyChurn(pending_day_.day, &pending_day_);
                    });
  cycle_process_.ActivateAt(start_ms, [this] { RunCycleBody(); });
}

void Fleet::RunCycleBody() {
  const int64_t day = loop_->NowDay();
  const int64_t start_ms = loop_->NowMs();
  FleetDayReport& day_report = pending_day_;  // primed by the kChurn event

  Stopwatch wall;
  ThreadPool* pool = pool_ ? &*pool_ : nullptr;
  // Shards begin side by side, and each advances its own endpoints' data
  // day on the same pool.
  std::vector<Server::Cycle> cycles(shards_.size());
  ThreadPool::ParallelFor(pool, shards_.size(), [&](size_t s) {
    cycles[s] = shards_[s]->BeginCycle(options_.server.parallelism, pool);
  });
  // One claim list over every shard's due entries, in global registration
  // order: a shard's due list is the registration order restricted to
  // that shard, so one walk with a per-shard cursor interleaves them.
  std::vector<std::pair<size_t, size_t>> claims;
  std::vector<size_t> cursor(shards_.size(), 0);
  for (const std::string& url : registration_order_) {
    const size_t s = ShardOf(url);
    const std::vector<std::string>& due = cycles[s].due;
    if (cursor[s] < due.size() && due[cursor[s]] == url) {
      claims.emplace_back(s, cursor[s]++);
    }
  }
  // One claim loop runs them all, so a lane whose shard has run dry keeps
  // claiming the other shards' pipelines; each pipeline's query batches
  // nest on the same pool. The loop itself never leaves this thread —
  // workers compute, only the dispatcher schedules.
  ThreadPool::ParallelFor(pool, claims.size(), [&](size_t k) {
    const auto [s, i] = claims[k];
    shards_[s]->RunDue(&cycles[s], i, pool);
  });
  for (size_t s = 0; s < shards_.size(); ++s) {
    day_report.shard_reports.push_back(
        shards_[s]->FinishCycle(std::move(cycles[s])));
    const DailyReport& shard = day_report.shard_reports.back();
    day_report.Add(shard);
    day_report.fleet_makespan_ms =
        std::max(day_report.fleet_makespan_ms, shard.batched_makespan_ms);
  }
  day_report.wall_ms = wall.ElapsedMillis();

  // Merge by walking the claims: every due entry once, in the order a
  // 1-shard registry would have produced. A shard's reports hold its
  // successful entries in due order, so a per-shard cursor finds each
  // one. The cost fold is canonical because it runs in this order, never
  // via the per-shard ledger sums (whose float addition order depends on
  // the deployment).
  std::vector<size_t> next_report(shards_.size(), 0);
  for (const auto& [s, i] : claims) {
    DailyReport& shard = day_report.shard_reports[s];
    const DueOutcome& outcome = shard.outcomes[i];
    day_report.sum_latency_ms += outcome.charged_latency_ms;
    day_report.outcomes.push_back(outcome);
    if (outcome.succeeded) {
      day_report.reports.push_back(std::move(shard.reports[next_report[s]++]));
    }
  }
  // The merged list owns the pipeline reports; drop the moved-from shells.
  // The per-shard view keeps its counters, outcomes, and makespans.
  for (DailyReport& shard : day_report.shard_reports) shard.reports.clear();

  // Price the simulated timeline with the canonical ledger: merged
  // charged latencies, global registration order, kVirtualWorkers wide.
  // The width is a *simulation* constant, deliberately decoupled from the
  // physical deployment (fleet_workers, parallelism, shard count). Every
  // figure feeding the ledger is deployment-invariant, so the resulting
  // event times (and overrun decisions, and the whole event history) are
  // too; physical knobs only move real wall-clock.
  constexpr size_t kVirtualWorkers = 4;
  WorkerLatencyLedger ledger(kVirtualWorkers);
  for (const DueOutcome& o : day_report.outcomes) {
    const size_t worker = ledger.Assign(o.charged_latency_ms);
    const int64_t finish_ms =
        start_ms + static_cast<int64_t>(std::ceil(ledger.WorkerMs(worker)));
    loop_->ScheduleAt(finish_ms, sim::EventKind::kPipelineComplete,
                      o.url + (o.succeeded ? "" : "|failed"), nullptr);
    if (o.throttle_events > 0) {
      loop_->ScheduleAt(finish_ms, sim::EventKind::kThrottle,
                        o.url + "|x" + std::to_string(o.throttle_events),
                        nullptr);
    }
  }
  day_report.sim_makespan_ms = ledger.MakespanMs();
  const int64_t complete_ms =
      start_ms + static_cast<int64_t>(std::ceil(day_report.sim_makespan_ms));
  loop_->ScheduleAt(complete_ms, sim::EventKind::kCycleComplete,
                    "day " + std::to_string(day),
                    [this, day] { CompleteCycle(day); });
}

void Fleet::CompleteCycle(int64_t day) {
  FleetDayReport report = std::move(pending_day_);
  pending_day_ = FleetDayReport{};
  const int64_t boundary = (day + 1) * SimClock::kMillisPerDay;
  const int64_t now = loop_->NowMs();
  if (now >= boundary) {
    report.overran_day = true;
    HBOLD_LOG(kWarn) << "fleet day " << day << " overran its boundary ("
                     << report.sim_makespan_ms
                     << " ms canonical makespan); scheduling a catch-up "
                        "cycle";
  }
  collected_days_.push_back(std::move(report));
  const FleetDayReport& done = collected_days_.back();
  if (cycle_complete_handler_) cycle_complete_handler_(done);
  --cycles_remaining_;
  if (cycles_remaining_ > 0) {
    // Overrun -> catch-up: the next cycle starts immediately instead of
    // waiting for a boundary that already passed.
    ScheduleCycleAt(done.overran_day ? now : boundary);
  } else if (!done.overran_day && boundary > last_boundary_ms_) {
    // No further cycles: cross into the next day so the clock contract
    // ("a drained day ends at the next boundary") still holds.
    last_boundary_ms_ = boundary;
    loop_->ScheduleAt(boundary, sim::EventKind::kDayBoundary,
                      "day " + std::to_string(day + 1), nullptr);
  }
}

FleetReport Fleet::TakeReport() {
  FleetReport report;
  report.num_shards = options_.num_shards;
  report.parallelism = std::max(1, options_.server.parallelism);
  report.query_batch_width = std::max(1, options_.server.query_batch_width);
  report.days = std::move(collected_days_);
  collected_days_.clear();
  return report;
}

FleetReport Fleet::RunSimulation(int64_t days) {
  collected_days_.clear();
  ScheduleCycles(days);
  loop_->RunUntilIdle();
  return TakeReport();
}

// ---------------------------------------------------------------- report

namespace {

/// The deployment-invariant slice of one pipeline report. Incremental
/// markers are emitted only when a probe actually ran, so kOff dumps stay
/// byte-identical to pre-incremental builds (the committed baseline gates
/// on the exact fingerprint).
Json CanonicalPipelineJson(const PipelineReport& r) {
  Json j = Json::MakeObject();
  j.Set("url", r.url);
  j.Set("classes", static_cast<int64_t>(r.classes));
  j.Set("arcs", static_cast<int64_t>(r.arcs));
  j.Set("clusters", static_cast<int64_t>(r.clusters));
  j.Set("reused", r.reused_cluster_schema);
  j.Set("strategy", r.extraction.strategy_used);
  j.Set("queries", static_cast<int64_t>(r.extraction.queries_issued));
  j.Set("rows", static_cast<int64_t>(r.extraction.rows_transferred));
  j.Set("latency_ms", r.extraction.total_latency_ms);
  j.Set("throttle_events",
        static_cast<int64_t>(r.extraction.throttle_events));
  Json fallbacks = Json::MakeArray();
  for (const std::string& f : r.extraction.fallbacks) fallbacks.Append(f);
  j.Set("fallbacks", std::move(fallbacks));
  if (r.probed) {
    j.Set("probed", true);
    j.Set("probe_skipped", r.probe_skipped);
    j.Set("delta", r.delta_extracted);
    j.Set("dirty", static_cast<int64_t>(r.dirty_classes));
    j.Set("removed", static_cast<int64_t>(r.removed_classes));
  }
  // Defense markers are emitted only when they fired, so honest-fleet
  // dumps (and their committed fingerprints) are byte-identical to
  // pre-hardening builds.
  if (r.probe_mismatch) j.Set("probe_mismatch", true);
  if (r.forced_refresh) j.Set("forced_refresh", true);
  if (r.quarantined) j.Set("quarantined", true);
  if (r.quarantine_entered) j.Set("quarantine_entered", true);
  if (r.quarantine_exited) j.Set("quarantine_exited", true);
  if (r.probe_retries > 0) {
    j.Set("probe_retries", static_cast<int64_t>(r.probe_retries));
  }
  if (r.staleness_days > 0) j.Set("staleness_days", r.staleness_days);
  return j;
}

/// The content slice of one pipeline report: what was learned, not how.
Json ContentPipelineJson(const PipelineReport& r) {
  Json j = Json::MakeObject();
  j.Set("url", r.url);
  j.Set("classes", static_cast<int64_t>(r.classes));
  j.Set("arcs", static_cast<int64_t>(r.arcs));
  j.Set("clusters", static_cast<int64_t>(r.clusters));
  j.Set("reused", r.reused_cluster_schema);
  return j;
}

}  // namespace

std::string FleetReport::CanonicalDump() const {
  Json root = Json::MakeObject();
  Json day_array = Json::MakeArray();
  for (const FleetDayReport& day : days) {
    Json d = Json::MakeObject();
    d.Set("day", day.day);
    d.Set("due", static_cast<int64_t>(day.due));
    d.Set("succeeded", static_cast<int64_t>(day.succeeded));
    d.Set("failed", static_cast<int64_t>(day.failed));
    d.Set("reused", static_cast<int64_t>(day.reused));
    // Conditional like the per-report markers: absent under kOff so the
    // committed pre-incremental fingerprints still match.
    if (day.probes > 0) {
      d.Set("probes", static_cast<int64_t>(day.probes));
      d.Set("probe_skips", static_cast<int64_t>(day.probe_skips));
      d.Set("delta_extractions",
            static_cast<int64_t>(day.delta_extractions));
    }
    // Defense counters and the staleness histogram, likewise emitted only
    // when something moved (honest kOff/kTrack days stay byte-identical).
    if (day.probe_mismatches > 0) {
      d.Set("probe_mismatches", static_cast<int64_t>(day.probe_mismatches));
    }
    if (day.forced_refreshes > 0) {
      d.Set("forced_refreshes", static_cast<int64_t>(day.forced_refreshes));
    }
    if (day.quarantines_entered > 0) {
      d.Set("quarantines_entered",
            static_cast<int64_t>(day.quarantines_entered));
    }
    if (day.quarantines_exited > 0) {
      d.Set("quarantines_exited",
            static_cast<int64_t>(day.quarantines_exited));
    }
    if (!day.staleness_histogram.empty()) {
      Json hist = Json::MakeObject();
      for (const auto& [days_stale, n] : day.staleness_histogram) {
        hist.Set(std::to_string(days_stale), static_cast<int64_t>(n));
      }
      d.Set("staleness_histogram", std::move(hist));
    }
    d.Set("arrivals", static_cast<int64_t>(day.arrivals));
    d.Set("deaths", static_cast<int64_t>(day.deaths));
    d.Set("sum_latency_ms", day.sum_latency_ms);
    Json outcomes = Json::MakeArray();
    for (const DueOutcome& o : day.outcomes) {
      Json oj = Json::MakeObject();
      oj.Set("url", o.url);
      oj.Set("ok", o.succeeded);
      // charged_intra_ms is deliberately absent: it is a function of the
      // batch width, a deployment knob.
      oj.Set("latency_ms", o.charged_latency_ms);
      outcomes.Append(std::move(oj));
    }
    d.Set("outcomes", std::move(outcomes));
    Json reports = Json::MakeArray();
    for (const PipelineReport& r : day.reports) {
      reports.Append(CanonicalPipelineJson(r));
    }
    d.Set("reports", std::move(reports));
    day_array.Append(std::move(d));
  }
  root.Set("days", std::move(day_array));
  return root.Dump();
}

std::string FleetReport::Fingerprint() const {
  return HexFingerprint(Fnv64(CanonicalDump()));
}

std::string FleetReport::ContentDump() const {
  Json root = Json::MakeObject();
  Json day_array = Json::MakeArray();
  for (const FleetDayReport& day : days) {
    Json d = Json::MakeObject();
    d.Set("day", day.day);
    d.Set("due", static_cast<int64_t>(day.due));
    d.Set("succeeded", static_cast<int64_t>(day.succeeded));
    d.Set("failed", static_cast<int64_t>(day.failed));
    d.Set("reused", static_cast<int64_t>(day.reused));
    d.Set("arrivals", static_cast<int64_t>(day.arrivals));
    d.Set("deaths", static_cast<int64_t>(day.deaths));
    Json outcomes = Json::MakeArray();
    for (const DueOutcome& o : day.outcomes) {
      Json oj = Json::MakeObject();
      oj.Set("url", o.url);
      oj.Set("ok", o.succeeded);
      outcomes.Append(std::move(oj));
    }
    d.Set("outcomes", std::move(outcomes));
    Json reports = Json::MakeArray();
    for (const PipelineReport& r : day.reports) {
      reports.Append(ContentPipelineJson(r));
    }
    d.Set("reports", std::move(reports));
    day_array.Append(std::move(d));
  }
  root.Set("days", std::move(day_array));
  return root.Dump();
}

std::string FleetReport::ContentFingerprint() const {
  return HexFingerprint(Fnv64(ContentDump()));
}

Json FleetReport::ToJson() const {
  Json root = Json::MakeObject();
  root.Set("num_shards", static_cast<int64_t>(num_shards));
  root.Set("parallelism", static_cast<int64_t>(parallelism));
  root.Set("query_batch_width", static_cast<int64_t>(query_batch_width));
  root.Set("fingerprint", Fingerprint());
  Json day_array = Json::MakeArray();
  for (const FleetDayReport& day : days) {
    Json d = Json::MakeObject();
    d.Set("day", day.day);
    d.Set("due", static_cast<int64_t>(day.due));
    d.Set("succeeded", static_cast<int64_t>(day.succeeded));
    d.Set("failed", static_cast<int64_t>(day.failed));
    d.Set("reused", static_cast<int64_t>(day.reused));
    d.Set("probes", static_cast<int64_t>(day.probes));
    d.Set("probe_skips", static_cast<int64_t>(day.probe_skips));
    d.Set("delta_extractions", static_cast<int64_t>(day.delta_extractions));
    d.Set("probe_mismatches", static_cast<int64_t>(day.probe_mismatches));
    d.Set("forced_refreshes", static_cast<int64_t>(day.forced_refreshes));
    d.Set("quarantines_entered",
          static_cast<int64_t>(day.quarantines_entered));
    d.Set("quarantines_exited",
          static_cast<int64_t>(day.quarantines_exited));
    {
      Json hist = Json::MakeObject();
      for (const auto& [days_stale, n] : day.staleness_histogram) {
        hist.Set(std::to_string(days_stale), static_cast<int64_t>(n));
      }
      d.Set("staleness_histogram", std::move(hist));
    }
    d.Set("arrivals", static_cast<int64_t>(day.arrivals));
    d.Set("deaths", static_cast<int64_t>(day.deaths));
    d.Set("sum_latency_ms", day.sum_latency_ms);
    d.Set("fleet_makespan_ms", day.fleet_makespan_ms);
    d.Set("sim_makespan_ms", day.sim_makespan_ms);
    d.Set("wall_ms", day.wall_ms);
    d.Set("overran_day", day.overran_day);
    d.Set("plan_cache_hits", static_cast<int64_t>(day.plan_cache_hits));
    d.Set("plan_cache_misses", static_cast<int64_t>(day.plan_cache_misses));
    Json shards = Json::MakeArray();
    for (const DailyReport& s : day.shard_reports) {
      Json sj = Json::MakeObject();
      sj.Set("due", static_cast<int64_t>(s.due));
      sj.Set("succeeded", static_cast<int64_t>(s.succeeded));
      sj.Set("failed", static_cast<int64_t>(s.failed));
      sj.Set("makespan_ms", s.makespan_ms);
      sj.Set("batched_makespan_ms", s.batched_makespan_ms);
      shards.Append(std::move(sj));
    }
    d.Set("shards", std::move(shards));
    day_array.Append(std::move(d));
  }
  root.Set("days", std::move(day_array));
  return root;
}

}  // namespace hbold
