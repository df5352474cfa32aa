#ifndef HBOLD_HBOLD_EXPLORATION_SERVICE_H_
#define HBOLD_HBOLD_EXPLORATION_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_schema.h"
#include "common/thread_pool.h"
#include "endpoint/endpoint.h"
#include "hbold/fleet.h"
#include "schema/schema_summary.h"
#include "viz/layout_cache.h"
#include "workload/exploration_workload.h"

namespace hbold {

/// One dataset as the serving layer sees it: immutable decoded copies of
/// the shard's persisted Schema Summary and Cluster Schema, content
/// fingerprints over their canonical JSON (never over raw store documents,
/// whose `_id`s vary per deployment), and the live endpoint routed at
/// snapshot time. Sessions read these without any locking; the daily
/// extraction cycle can rewrite the stores underneath without ever being
/// observed mid-write.
struct DatasetSnapshot {
  std::string url;
  int64_t extracted_day = -1;
  std::shared_ptr<const schema::SchemaSummary> summary;
  std::shared_ptr<const cluster::ClusterSchema> clusters;
  /// Fnv64 over the decoded summary's canonical JSON.
  uint64_t schema_fingerprint = 0;
  /// Fnv64 over the decoded cluster schema's canonical JSON — the content
  /// half of the layout-cache key.
  uint64_t cluster_fingerprint = 0;
  /// Live endpoint routed when the snapshot was taken (may be null: the
  /// portal is dark). The endpoint object must outlive the snapshot;
  /// detaching only drops the route, it never destroys the endpoint.
  endpoint::SparqlEndpoint* endpoint = nullptr;
};

/// Everything one served session produced.
struct SessionResult {
  size_t session_id = 0;
  /// The deterministic interaction log: action kinds, resolved picks,
  /// visible-node counts, coverage, geometry fingerprints, generated
  /// SPARQL fingerprints, row counts and *simulated* latencies. Contains
  /// no wall-clock and no cache/thread observables, so it is byte-identical
  /// across thread counts and cache on/off — the serving determinism
  /// contract, gated in bench_exploration_serving.
  std::string transcript;
  uint64_t transcript_fingerprint = 0;
  /// Wall-clock per interaction, index-aligned with transcript lines.
  /// Deployment figures (p50/p99 material), never part of the transcript.
  std::vector<double> interaction_wall_ms;
};

struct ExplorationServiceOptions {
  viz::LayoutSetOptions layout;
  /// When false every render recomputes from scratch — the baseline the
  /// cache speedup gate compares against.
  bool use_layout_cache = true;
  size_t layout_cache_capacity = 256;
};

/// The serving layer: answers simulated exploration sessions against a
/// Fleet's persisted extraction output. Reads go through per-shard
/// Collection snapshots captured by RefreshSnapshots(); renders go through
/// a fingerprint-keyed LayoutCache; live drill-downs and visual queries go
/// to the owning shard's endpoint. RunSessions fans sessions out over a
/// thread pool and merges results in plan order, so the combined
/// transcript is independent of scheduling.
class ExplorationService {
 public:
  /// `fleet` must outlive the service.
  explicit ExplorationService(Fleet* fleet,
                              const ExplorationServiceOptions& options = {});

  /// Rebuilds the dataset catalog from one consistent snapshot per shard,
  /// sorted by URL (deployment-invariant order), bumps the catalog
  /// generation and epoch-flushes the layout cache. Call between daily
  /// cycles; sessions already running keep reading the previous catalog's
  /// shared_ptrs safely. Returns the catalog size.
  size_t RefreshSnapshots();

  const std::vector<DatasetSnapshot>& catalog() const { return catalog_; }
  uint64_t generation() const { return generation_; }

  /// Serves one session. Thread-safe against other RunSession calls; must
  /// not overlap RefreshSnapshots().
  SessionResult RunSession(const workload::SessionPlan& plan);

  /// Serves every plan, fanned out over `pool` (nullptr = inline), results
  /// merged in plan order.
  std::vector<SessionResult> RunSessions(
      const std::vector<workload::SessionPlan>& plans, ThreadPool* pool);

  /// Mixed-timeline serving: registers plan `i` as a kSessionArrival
  /// event at absolute time `arrival_times_ms[i]` on `loop` (typically
  /// the fleet's — one shared timeline for extraction and serving, with
  /// sim::ArrivalProcess generating the times). Sessions run inline on
  /// the dispatching thread, in event order, against whatever snapshot
  /// catalog is current when they fire — so a cycle-complete handler that
  /// calls RefreshSnapshots() hands later arrivals the fresher data, the
  /// way a live deployment would. Results accumulate in arrival order
  /// until TakeScheduledResults(). Arrival times must not collide with a
  /// RefreshSnapshots() running on another thread (the loop is
  /// single-threaded, so scheduling both on it is always safe).
  void ScheduleSessions(sim::EventLoop* loop,
                        std::vector<workload::SessionPlan> plans,
                        std::vector<int64_t> arrival_times_ms);

  /// Drains the results of sessions served through ScheduleSessions, in
  /// the order their arrival events dispatched.
  std::vector<SessionResult> TakeScheduledResults();

  /// Order-independent-free combined fingerprint: FNV-1a folded over the
  /// per-session transcripts in session order. Two serving runs are the
  /// same history iff this matches.
  static uint64_t CombinedFingerprint(
      const std::vector<SessionResult>& results);

  viz::LayoutCacheStats cache_stats() const { return cache_.stats(); }
  const ExplorationServiceOptions& options() const { return options_; }

 private:
  std::shared_ptr<const viz::LayoutSet> LayoutsFor(const DatasetSnapshot& ds);

  Fleet* fleet_;
  ExplorationServiceOptions options_;
  uint64_t options_fingerprint_;
  std::vector<DatasetSnapshot> catalog_;
  uint64_t generation_ = 0;
  viz::LayoutCache cache_;
  /// Results of loop-scheduled sessions, in dispatch order.
  std::vector<SessionResult> scheduled_results_;
};

}  // namespace hbold

#endif  // HBOLD_HBOLD_EXPLORATION_SERVICE_H_
