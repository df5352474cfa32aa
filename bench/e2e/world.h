#ifndef HBOLD_BENCH_E2E_WORLD_H_
#define HBOLD_BENCH_E2E_WORLD_H_

// The benchmark's own world generator and deployment settings. Nothing here
// is shared with the older benches, so editing them cannot move these
// workloads. The program receives only what this file generates.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "endpoint/simulated_endpoint.h"
#include "hbold/fleet.h"
#include "rdf/graph.h"
#include "trace.h"

namespace hbold::e2e {

/// Stable 64-bit mix of a run seed and a salt (splitmix64 finalizer).
uint64_t Mix(uint64_t seed, uint64_t salt);

/// One Linked Data source: its store and how its endpoint behaves.
struct Source {
  std::string url;
  std::string name;
  std::unique_ptr<rdf::TripleStore> store;
  endpoint::Dialect dialect;
  endpoint::MutationModel mutation;
};

/// Shape of a generated portal of Linked Data sources. Every portal has
/// Zipf 5-120 classes per endpoint (mass at the large end, as in the
/// 130-endpoint pipeline bench) and 15% no-GROUP-BY, 10% no-aggregates and
/// 10% row-capped dialects. Class counts, dialects and quiet endpoints
/// follow a fixed stream, the same for every seed; the seed changes the
/// generated triples and the churn.
struct PortalShape {
  size_t endpoints = 384;
  size_t max_instances_per_class = 30;
  /// Data churn per day on a quarter of the classes (0 keeps every store
  /// static), and daily class birth / retirement probabilities.
  double daily_churn = 0;
  double class_birth_probability = 0;
  double class_retire_probability = 0;
  /// Share of endpoints whose data never changes while others churn.
  double quiet_share = 0;
};

/// Generates the portal for `seed`; every store is index-finalized, which
/// takes `finalize_ms` (optional) of the total.
std::vector<Source> BuildPortal(const PortalShape& shape, uint64_t seed,
                                double* finalize_ms = nullptr);

/// One large source (200 classes, 12 domains) with `max_instances` instances
/// in its biggest class.
Source BuildBigSource(size_t max_instances, uint64_t seed);

size_t TotalTriples(const std::vector<Source>& sources);

/// Simulated endpoints over `sources`, all reading `clock`, each with a
/// fresh plan cache and each behind a TracingEndpoint (the program is handed
/// the decorator). `log` (optional) captures successful query texts while
/// capturing is on.
class Endpoints {
 public:
  Endpoints(const std::vector<Source>& sources, const SimClock* clock,
            QueryLog* log);

  size_t size() const { return raw_.size(); }
  endpoint::SparqlEndpoint* at(size_t i) const { return traced_[i].get(); }
  TracingEndpoint& traced(size_t i) const { return *traced_[i]; }

 private:
  std::vector<std::unique_ptr<endpoint::SimulatedRemoteEndpoint>> raw_;
  std::vector<std::unique_ptr<TracingEndpoint>> traced_;
};

/// How a workload deploys the program (fleets always have 2 shards). Every
/// option the benchmark sets is set from this struct in MakeFleetOptions/
/// MakeServerOptions and nowhere else, so an options-surface change in the
/// program is a one-place edit.
struct Deployment {
  int parallelism = 2;
  /// Fleet pool size; 1 runs the whole fleet inline on the caller.
  size_t workers = 3;
  IncrementalMode mode = IncrementalMode::kOff;
  int64_t refresh_age_days = 7;
  int query_batch_width = 1;
};

ServerOptions MakeServerOptions(const Deployment& d);
FleetOptions MakeFleetOptions(const Deployment& d);

/// Appends one latency per endpoint queried since the last call: its query
/// window plus the summary/cluster/persist time `reports` give for it.
/// Resets the windows; `latency_ms` may be null to reset only. Call while no
/// query is in flight.
void TakePipelineLatencies(const Endpoints& endpoints,
                           const std::vector<PipelineReport>& reports,
                           std::vector<double>* latency_ms);

/// A fresh deployment over `sources`: its own event loop, endpoints (new
/// plan caches) and fleet, with every source registered and attached.
struct FleetRun {
  FleetRun(const std::vector<Source>& sources, const Deployment& d,
           QueryLog* log);

  /// Engine counters summed over the endpoints.
  endpoint::QueryEngineStats EngineStats() const;
  /// Successful queries and result rows seen by the tracing decorators.
  uint64_t OkQueries() const;
  uint64_t Rows() const;

  sim::EventLoop loop;
  Endpoints endpoints;
  Fleet fleet;
};

}  // namespace hbold::e2e

#endif  // HBOLD_BENCH_E2E_WORLD_H_
