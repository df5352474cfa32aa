#include "world.h"

#include <unordered_map>

#include "common/random.h"
#include "workload/ld_generator.h"

namespace hbold::e2e {

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<Source> BuildPortal(const PortalShape& shape, uint64_t seed,
                                double* finalize_ms) {
  constexpr size_t kMinClasses = 5;
  constexpr size_t kMaxClasses = 120;
  constexpr double kNoAggregatesShare = 0.10;
  constexpr double kNoGroupByShare = 0.15;
  constexpr double kRowCappedShare = 0.10;
  constexpr size_t kRowCap = 5000;
  // The shape (class counts, dialects, quiet endpoints) comes from a fixed
  // stream, so every seed asks for the same amount of work; the seed drives
  // the generated content and the churn.
  constexpr uint64_t kShapeSeed = 20200330;
  Rng shape_rng(kShapeSeed);
  std::vector<Source> sources;
  sources.reserve(shape.endpoints);
  const size_t span = kMaxClasses - kMinClasses;
  for (size_t i = 0; i < shape.endpoints; ++i) {
    Source source;
    const std::string host = "http://e2e-ld" + std::to_string(i) + ".example.org/";
    source.url = host + "sparql";
    source.name = "LD " + std::to_string(i);
    source.store = std::make_unique<rdf::TripleStore>();

    workload::SyntheticLdConfig config;
    config.namespace_iri = host;
    config.num_classes = kMinClasses + (span - shape_rng.Zipf(span + 1, 1.0));
    config.num_domains = 2 + config.num_classes / 12;
    config.max_instances_per_class = shape.max_instances_per_class;
    config.seed = Mix(seed, 1000 + i);
    workload::GenerateSyntheticLd(config, source.store.get());
    const int64_t start = NowNs();
    source.store->FinalizeIndex();
    if (finalize_ms != nullptr) {
      *finalize_ms += static_cast<double>(NowNs() - start) / 1e6;
    }

    const double roll = shape_rng.NextDouble();
    if (roll < kNoAggregatesShare) {
      source.dialect = endpoint::Dialect::NoAggregates();
    } else if (roll < kNoAggregatesShare + kNoGroupByShare) {
      source.dialect = endpoint::Dialect::NoGroupBy();
    } else if (roll < kNoAggregatesShare + kNoGroupByShare + kRowCappedShare) {
      source.dialect = endpoint::Dialect::RowCapped(kRowCap);
    }

    const bool quiet = shape_rng.NextDouble() < shape.quiet_share;
    if (shape.daily_churn > 0 && !quiet) {
      source.mutation.daily_churn_fraction = shape.daily_churn;
      source.mutation.class_birth_probability = shape.class_birth_probability;
      source.mutation.class_retire_probability = shape.class_retire_probability;
      source.mutation.seed = Mix(seed, 2000 + i);
    }
    sources.push_back(std::move(source));
  }
  return sources;
}

Source BuildBigSource(size_t max_instances, uint64_t seed) {
  Source source;
  source.url = "http://e2e-big.example.org/sparql";
  source.name = "big LD";
  source.store = std::make_unique<rdf::TripleStore>();
  workload::SyntheticLdConfig config;
  config.namespace_iri = "http://e2e-big.example.org/";
  config.num_classes = 200;
  config.num_domains = 12;
  config.max_instances_per_class = max_instances;
  config.seed = Mix(seed, 3000);
  workload::GenerateSyntheticLd(config, source.store.get());
  return source;
}

size_t TotalTriples(const std::vector<Source>& sources) {
  size_t total = 0;
  for (const Source& s : sources) total += s.store->size();
  return total;
}

Endpoints::Endpoints(const std::vector<Source>& sources, const SimClock* clock,
                     QueryLog* log) {
  raw_.reserve(sources.size());
  for (const Source& s : sources) {
    raw_.push_back(std::make_unique<endpoint::SimulatedRemoteEndpoint>(
        s.url, s.name, s.store.get(), clock, s.dialect,
        endpoint::AvailabilityModel{}, endpoint::LatencyModel{}, s.mutation));
  }
  traced_.reserve(raw_.size());
  for (size_t i = 0; i < raw_.size(); ++i) {
    traced_.push_back(std::make_unique<TracingEndpoint>(raw_[i].get(), i, log));
  }
}

void TakePipelineLatencies(const Endpoints& endpoints,
                           const std::vector<PipelineReport>& reports,
                           std::vector<double>* latency_ms) {
  std::unordered_map<std::string, double> stage_ms;
  for (const PipelineReport& r : reports) {
    stage_ms[r.url] = r.summary_ms + r.cluster_ms + r.persist_ms;
  }
  for (size_t i = 0; i < endpoints.size(); ++i) {
    TracingEndpoint& ep = endpoints.traced(i);
    if (latency_ms != nullptr && ep.window_start_ns() != 0) {
      auto it = stage_ms.find(ep.url());
      latency_ms->push_back(
          static_cast<double>(ep.window_end_ns() - ep.window_start_ns()) / 1e6 +
          (it == stage_ms.end() ? 0 : it->second));
    }
    ep.ResetWindow();
  }
}

ServerOptions MakeServerOptions(const Deployment& d) {
  ServerOptions server;
  server.refresh_age_days = d.refresh_age_days;
  server.parallelism = d.parallelism;
  server.query_batch_width = d.query_batch_width;
  server.incremental.mode = d.mode;
  return server;
}

FleetOptions MakeFleetOptions(const Deployment& d) {
  FleetOptions fleet;
  fleet.num_shards = 2;
  fleet.server = MakeServerOptions(d);
  fleet.fleet_workers = d.workers;
  return fleet;
}

FleetRun::FleetRun(const std::vector<Source>& sources, const Deployment& d,
                   QueryLog* log)
    : endpoints(sources, loop.clock(), log), fleet(&loop, MakeFleetOptions(d)) {
  for (size_t i = 0; i < sources.size(); ++i) {
    endpoint::EndpointRecord record;
    record.url = sources[i].url;
    record.name = sources[i].name;
    fleet.RegisterEndpoint(record);
    fleet.AttachEndpoint(record.url, endpoints.at(i));
  }
}

endpoint::QueryEngineStats FleetRun::EngineStats() const {
  endpoint::QueryEngineStats total;
  for (size_t i = 0; i < endpoints.size(); ++i) {
    total += endpoints.at(i)->engine_stats();
  }
  return total;
}

uint64_t FleetRun::OkQueries() const {
  uint64_t total = 0;
  for (size_t i = 0; i < endpoints.size(); ++i) {
    total += endpoints.traced(i).ok_queries();
  }
  return total;
}

uint64_t FleetRun::Rows() const {
  uint64_t total = 0;
  for (size_t i = 0; i < endpoints.size(); ++i) {
    total += endpoints.traced(i).rows();
  }
  return total;
}

}  // namespace hbold::e2e
