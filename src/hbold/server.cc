#include "hbold/server.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cluster/cluster_schema.h"
#include "cluster/louvain.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "schema/schema_summary.h"

namespace hbold {

namespace {
extraction::IndexExtractor MakeExtractor(const ServerOptions& options) {
  if (options.paginated_page_size == 0) return extraction::IndexExtractor();
  std::vector<std::unique_ptr<extraction::ExtractionStrategy>> chain;
  chain.push_back(std::make_unique<extraction::DirectAggregationStrategy>());
  chain.push_back(std::make_unique<extraction::PerClassCountStrategy>());
  chain.push_back(std::make_unique<extraction::PaginatedScanStrategy>(
      options.paginated_page_size));
  return extraction::IndexExtractor(std::move(chain));
}
}  // namespace

Server::Server(store::Database* db, const sim::EventLoop* loop,
               const ServerOptions& options)
    : db_(db),
      loop_(loop),
      options_(options),
      scheduler_(options.refresh_age_days),
      extractor_(MakeExtractor(options)) {}

void Server::AttachEndpoint(const std::string& url,
                            endpoint::SparqlEndpoint* ep) {
  network_[url] = ep;
}

void Server::DetachEndpoint(const std::string& url) { network_.erase(url); }

bool Server::RegisterEndpoint(endpoint::EndpointRecord record) {
  return registry_.Add(std::move(record));
}

Result<PipelineReport> Server::ProcessEndpoint(const std::string& url,
                                               ThreadPool* pool,
                                               DueOutcome* charged) {
  PipelineReport report;
  report.url = url;
  const int64_t today = loop_->NowDay();

  // Bookkeeping writes go through the registry's serialized update path so
  // concurrent pipelines never race on a shared record.
  auto record_attempt = [&](bool success) {
    registry_.UpdateRecord(url, [&](endpoint::EndpointRecord& r) {
      extraction::RefreshScheduler::RecordAttempt(&r, today, success);
    });
  };
  auto charge = [&] {
    if (charged != nullptr) {
      charged->charged_latency_ms = report.extraction.total_latency_ms;
      charged->charged_intra_ms = report.extraction.intra_makespan_ms;
    }
  };
  auto fail = [&](Status status) -> Result<PipelineReport> {
    charge();
    record_attempt(false);
    return status;
  };

  auto net = network_.find(url);
  if (net == network_.end()) {
    return fail(Status::Unavailable("no route to endpoint " + url));
  }

  const IncrementalOptions& inc = options_.incremental;
  const bool delta_mode = inc.mode == IncrementalMode::kDelta ||
                          inc.mode == IncrementalMode::kBounded;
  Json url_filter = Json::MakeObject();
  url_filter.Set("endpoint_url", url);

  // Trust + staleness snapshot, read once at pipeline start so every
  // decision below sees one fixed record state.
  const std::optional<endpoint::EndpointRecord> rec0 = registry_.GetRecord(url);
  const endpoint::TrustState trust =
      rec0.has_value() ? rec0->trust_state : endpoint::TrustState::kTrusted;
  const int64_t last_full =
      rec0.has_value() ? rec0->last_full_refresh_day : -1;
  if (delta_mode) {
    report.staleness_days =
        (last_full >= 0 && today > last_full) ? today - last_full : 0;
  }
  report.quarantined = trust == endpoint::TrustState::kQuarantined;

  // A full refresh is forced — whatever the probe claims — while the
  // endpoint is quarantined, and under kBounded once the unverified drift
  // window exceeds the staleness budget.
  bool force_full = report.quarantined;
  if (inc.mode == IncrementalMode::kBounded && last_full >= 0 &&
      today - last_full >= inc.staleness_budget_days) {
    force_full = true;
  }

  // Divergence bookkeeping: a probe claim was contradicted by evidence.
  // The endpoint takes a strike (trusted -> suspect -> quarantined), its
  // persisted fingerprints are dropped (claims from a contradicted probe
  // are worthless), and this cycle runs a full refresh.
  auto strike = [&](const char* what) {
    report.probe_mismatch = true;
    report.forced_refresh = true;
    HBOLD_LOG(kDebug) << url << " probe divergence (" << what << ")";
    registry_.UpdateRecord(url, [&](endpoint::EndpointRecord& r) {
      r.clean_streak = 0;
      ++r.suspect_strikes;
      if (r.trust_state == endpoint::TrustState::kTrusted) {
        r.trust_state = endpoint::TrustState::kSuspect;
      }
      if (r.suspect_strikes >= inc.quarantine_strikes &&
          r.trust_state != endpoint::TrustState::kQuarantined) {
        r.trust_state = endpoint::TrustState::kQuarantined;
        report.quarantine_entered = true;
      }
      if (r.trust_state == endpoint::TrustState::kQuarantined) {
        r.quarantine_until_day = today + inc.quarantine_days;
      }
      r.class_fingerprints.clear();
      r.probed_generation.clear();
    });
  };

  // Incremental prelude: one batched change probe, diffed against the
  // fingerprints the registry kept from the last successful run. The
  // probe is charged like any other query, so the accounting ledgers see
  // its cost.
  endpoint::ChangeProbe probe;
  bool have_probe = false;
  bool generation_match = false;
  std::vector<std::string> dirty;
  std::vector<std::string> removed;
  if (inc.mode != IncrementalMode::kOff) {
    // Transient probe failures retried within one attempt before
    // degrading to a probe-less full extraction.
    constexpr int kMaxProbeRetries = 2;
    Status probe_status = Status::OK();
    for (int attempt = 0;; ++attempt) {
      auto probed = net->second->ProbeChanges();
      if (probed.ok()) {
        probe = std::move(*probed);
        have_probe = true;
        break;
      }
      probe_status = probed.status();
      // A transient mid-cycle failure (Timeout while the endpoint is up)
      // is retried deterministically — the endpoint's fault coins are
      // salted by the per-day attempt index, so the retry sequence
      // replays bit-identically on any deployment. A day-level outage
      // (Unavailable) is not retried: §3.1 says try again tomorrow.
      if (probe_status.IsTimeout() && attempt < kMaxProbeRetries) {
        ++report.probe_retries;
        continue;
      }
      break;
    }
    if (!have_probe) {
      if (probe_status.IsTimeout()) {
        // Retries exhausted: the endpoint is up but its probe channel is
        // flapping. Degrade to a probe-less full extraction instead of
        // failing the day — queries still work, only the shortcut is
        // gone. No strike: flakiness is not dishonesty.
        registry_.UpdateRecord(url, [](endpoint::EndpointRecord& r) {
          ++r.probe_failure_streak;
        });
      } else if (!probe_status.IsUnsupported()) {
        // A dark endpoint aborts the attempt like any other query would;
        // endpoints without probe support just take the full pipeline.
        return fail(probe_status);
      }
    } else {
      report.probed = true;
      report.extraction.queries_issued += 1;
      report.extraction.rows_transferred += probe.classes.size();
      report.extraction.total_latency_ms += probe.latency_ms;
      report.extraction.intra_makespan_ms += probe.latency_ms;
      std::set<std::string> current;
      for (const endpoint::ClassFingerprint& cf : probe.classes) {
        current.insert(cf.class_iri);
        uint64_t prev = 0;
        bool known = false;
        if (rec0.has_value()) {
          auto it = rec0->class_fingerprints.find(cf.class_iri);
          known = it != rec0->class_fingerprints.end() &&
                  ParseHexU64(it->second, &prev);
        }
        // Classes the fingerprints have never seen are dirty defensively.
        if (!known || prev != cf.version) dirty.push_back(cf.class_iri);
      }
      if (rec0.has_value()) {
        uint64_t prev_gen = 0;
        generation_match = !rec0->probed_generation.empty() &&
                           ParseHexU64(rec0->probed_generation, &prev_gen) &&
                           prev_gen == probe.store_generation;
        // A truncated probe proves nothing about the classes it omitted —
        // never infer removals from one.
        if (!probe.truncated) {
          for (const auto& [iri, version] : rec0->class_fingerprints) {
            if (current.count(iri) == 0) removed.push_back(iri);
          }
        }
      }
      report.dirty_classes = dirty.size();
      report.removed_classes = removed.size();
    }
  }

  // Fingerprints advance only on success, so a failed attempt leaves its
  // classes dirty for tomorrow's probe. A truncated probe's partial view
  // and a contradicted probe's claims are never persisted — the record
  // keeps (or, post-strike, loses) its previous fingerprints instead.
  auto store_fingerprints = [&] {
    if (!have_probe || probe.truncated || report.probe_mismatch) return;
    registry_.UpdateRecord(url, [&](endpoint::EndpointRecord& r) {
      r.probed_generation = HexU64(probe.store_generation);
      r.class_fingerprints.clear();
      for (const endpoint::ClassFingerprint& cf : probe.classes) {
        r.class_fingerprints[cf.class_iri] = HexU64(cf.version);
      }
    });
  };

  // Consecutive divergence-free successful cycles a suspect endpoint
  // needs before it is trusted (and probe-skip eligible) again.
  constexpr int64_t kParoleCleanCycles = 2;

  // Success-side trust bookkeeping: verified full refreshes reset the
  // staleness clock, divergence-free cycles build the clean streak that
  // paroles suspect endpoints, and a served-out quarantine ends once a
  // full refresh lands. Skipped entirely under kOff so pre-incremental
  // registries stay byte-identical.
  bool ran_full_extraction = false;
  auto record_defense = [&] {
    if (inc.mode == IncrementalMode::kOff) return;
    registry_.UpdateRecord(url, [&](endpoint::EndpointRecord& r) {
      if (ran_full_extraction) r.last_full_refresh_day = today;
      if (have_probe) r.probe_failure_streak = 0;
      if (report.probe_mismatch) return;  // strike() already booked this
      ++r.clean_streak;
      if (r.trust_state == endpoint::TrustState::kQuarantined) {
        if (today >= r.quarantine_until_day && ran_full_extraction) {
          r.trust_state = endpoint::TrustState::kSuspect;
          r.suspect_strikes = 0;
          r.clean_streak = 0;
          r.quarantine_until_day = -1;
          report.quarantine_exited = true;
        }
      } else if (r.trust_state == endpoint::TrustState::kSuspect &&
                 r.clean_streak >= kParoleCleanCycles) {
        r.trust_state = endpoint::TrustState::kTrusted;
        r.suspect_strikes = 0;
      }
    });
  };

  const store::Collection* summaries_ro =
      db_->FindCollection(kSummariesCollection);
  store::DocHandle stored_summary_doc;
  if (summaries_ro != nullptr) {
    stored_summary_doc = summaries_ro->FindOne(url_filter);
  }

  // Probe-skip: the digest is quiet AND the store generation has not
  // moved since the last probe — nothing downstream can have changed, so
  // the whole pipeline collapses to the one probe query. A moved
  // generation with a quiet digest means something wrote to the store
  // outside the fingerprinted model (the external-writes safety valve):
  // fall through to a full re-extraction instead of trusting the digest.
  //
  // The skip takes a probe's word for everything, so it demands the most:
  // a fully trusted endpoint, an untruncated probe with at least one
  // class (an empty store's generation can collide with a stale persisted
  // one while the content provenance differs — never a skip), and no
  // forced refresh pending.
  if (delta_mode && !force_full &&
      trust == endpoint::TrustState::kTrusted && have_probe &&
      !probe.truncated && !probe.classes.empty() && generation_match &&
      dirty.empty() && removed.empty() && stored_summary_doc != nullptr) {
    const Json* nodes = stored_summary_doc->Find("nodes");
    const Json* arcs = stored_summary_doc->Find("arcs");
    report.classes =
        nodes != nullptr && nodes->is_array() ? nodes->as_array().size() : 0;
    report.arcs =
        arcs != nullptr && arcs->is_array() ? arcs->as_array().size() : 0;
    report.probe_skipped = true;
    report.reused_cluster_schema = true;
    report.extraction_ms = report.extraction.total_latency_ms;
    charge();
    store_fingerprints();
    record_defense();
    record_attempt(true);
    return report;
  }

  // Stage 1: index extraction (pattern strategies with fallback). The
  // batch width comes from the server options; the pool is the daily
  // cycle's own, so intra-pipeline fan-out never spawns extra threads.
  extraction::ExtractionContext context;
  context.pool = pool;
  context.batch_width =
      static_cast<size_t>(std::max(1, options_.query_batch_width));

  // kDelta with a dirty digest below the threshold: re-extract ONLY the
  // dirty classes and merge into the stored prior summary. The merge is
  // value-identical to a full extraction by construction (differential
  // tested), so everything downstream is agnostic to which path ran.
  Result<extraction::IndexSummary> indexes =
      Status::Internal("extraction never ran");
  bool delta_ok = false;
  // Deltas need an untruncated probe (a partial class list cannot anchor
  // a merge) and an endpoint that is not quarantined — suspect endpoints
  // may still delta because every delta is validated below.
  if (delta_mode && !force_full &&
      trust != endpoint::TrustState::kQuarantined && have_probe &&
      !probe.truncated && (!dirty.empty() || !removed.empty())) {
    const double fraction =
        static_cast<double>(dirty.size() + removed.size()) /
        static_cast<double>(std::max<size_t>(1, probe.classes.size()));
    const store::Collection* indexes_ro =
        db_->FindCollection(kIndexesCollection);
    store::DocHandle prior_doc;
    if (fraction <= inc.full_refresh_fraction && indexes_ro != nullptr) {
      prior_doc = indexes_ro->FindOne(url_filter);
    }
    if (prior_doc != nullptr) {
      auto prior = extraction::IndexSummary::FromJson(*prior_doc);
      if (prior.ok()) {
        // Restricted strategies (paginated scan) price the dirty-class
        // path against a full scan using last cycle's magnitudes.
        context.prior_num_triples = prior->num_triples;
        context.prior_num_instances = prior->num_instances;
        context.prior_class_count = prior->classes.size();
        auto partial = extractor_.ExtractClasses(net->second, context, dirty,
                                                 &report.extraction);
        if (partial.ok()) {
          indexes = extraction::MergeDirtyClasses(*prior, *partial, dirty,
                                                  removed);
          delta_ok = true;
          report.delta_extracted = true;
        } else if (!partial.status().IsUnsupported() &&
                   !partial.status().IsTimeout()) {
          return fail(partial.status());
        }
        // Unsupported/Timeout: every restricted strategy fell through
        // (e.g. a paginated-scan-only dialect) — run the full chain.
      }
    }
  }

  // Delta validation: before trusting a merge built on a probe's claims,
  // echo the probe and cross-check. The echo must agree with the first
  // probe on generation and on every common fingerprint, and (when it is
  // untruncated) list exactly the same classes, with every merged class
  // among them. Any contradiction discards the merge: the endpoint lied
  // to one of the two probes, so only a full re-extraction is safe.
  if (delta_ok) {
    auto echo = net->second->ProbeChanges();
    if (echo.ok()) {
      report.extraction.queries_issued += 1;
      report.extraction.rows_transferred += echo->classes.size();
      report.extraction.total_latency_ms += echo->latency_ms;
      report.extraction.intra_makespan_ms += echo->latency_ms;
      const char* what = nullptr;
      if (echo->store_generation != probe.store_generation) {
        what = "generation echo mismatch";
      }
      const size_t common =
          std::min(echo->classes.size(), probe.classes.size());
      for (size_t i = 0; what == nullptr && i < common; ++i) {
        if (echo->classes[i].class_iri != probe.classes[i].class_iri ||
            echo->classes[i].version != probe.classes[i].version) {
          what = "fingerprint echo mismatch";
        }
      }
      if (what == nullptr && !echo->truncated) {
        if (echo->classes.size() != probe.classes.size()) {
          what = "class count mismatch";
        } else {
          // Every class the merge kept must exist on the endpoint.
          std::set<std::string> echoed;
          for (const endpoint::ClassFingerprint& cf : echo->classes) {
            echoed.insert(cf.class_iri);
          }
          for (const extraction::ClassInfo& cls : indexes->classes) {
            if (echoed.count(cls.iri) == 0) {
              what = "merged class unknown to endpoint";
              break;
            }
          }
        }
      } else if (what == nullptr && echo->truncated &&
                 echo->classes.size() > probe.classes.size()) {
        what = "class count mismatch";
      }
      if (what != nullptr) {
        strike(what);
        delta_ok = false;
        report.delta_extracted = false;
      }
    }
    // An echo that fails outright cannot validate anything; the merge
    // stands unvalidated and kBounded's staleness budget backstops it.
  }

  if (!delta_ok) {
    indexes = extractor_.Extract(net->second, context, &report.extraction);
    if (!indexes.ok()) return fail(indexes.status());
    ran_full_extraction = true;
    if (delta_mode && force_full) report.forced_refresh = true;
  }
  indexes->extracted_day = today;
  report.extraction_ms = report.extraction.total_latency_ms;
  charge();

  // Stage 2: Schema Summary — patched in place after a delta merge (quiet
  // class nodes are reused verbatim), rebuilt from scratch otherwise.
  // Both forms are value-identical to FromIndexes on the same summary.
  // The prior is decoded once here and reused by Stage 3's same-graph
  // check.
  Stopwatch sw;
  std::optional<schema::SchemaSummary> prior_summary;
  if (delta_ok && stored_summary_doc != nullptr) {
    auto decoded = schema::SchemaSummary::FromJson(*stored_summary_doc);
    if (decoded.ok()) prior_summary = std::move(*decoded);
  }
  schema::SchemaSummary summary =
      prior_summary.has_value()
          ? schema::SchemaSummary::PatchedFromIndexes(*prior_summary,
                                                      *indexes, dirty)
          : schema::SchemaSummary::FromIndexes(*indexes);
  report.summary_ms = sw.ElapsedMillis();
  report.classes = summary.NodeCount();
  report.arcs = summary.ArcCount();

  // §3.2 reuse: when the extracted Schema Summary is bit-identical to the
  // stored one, the Cluster Schema cannot have changed — skip clustering
  // and persist, just refresh the bookkeeping. The stored index summary
  // stays untouched too: an unchanged Schema Summary under the simulated
  // mutation model implies unchanged data, so the prior is still exact.
  Json summary_doc = summary.ToJson();
  // The hash is stored as a hex string: JSON numbers are doubles and would
  // truncate 64-bit fingerprints. The dump is written into a per-thread
  // buffer reused across pipelines, so hashing allocates no string.
  thread_local std::string summary_dump;
  summary_dump.clear();
  summary_doc.DumpTo(&summary_dump);
  std::string content_hash = HexU64(Fnv64(summary_dump));
  if (stored_summary_doc != nullptr &&
      stored_summary_doc->GetString("content_hash") == content_hash) {
    report.reused_cluster_schema = true;
    store_fingerprints();
    record_defense();
    record_attempt(true);
    return report;
  }

  // Lying-quiet detection: this full extraction produced *different*
  // content while the probe claimed nothing changed (matching generation,
  // clean untruncated digest). The probe lied — only a forced refresh
  // (staleness bound, quarantine) ever exposes this, which is exactly why
  // kBounded bounds the trust window.
  if (ran_full_extraction && have_probe && !probe.truncated &&
      generation_match && dirty.empty() && removed.empty() &&
      stored_summary_doc != nullptr) {
    strike("content changed behind a quiet probe");
  }

  // Stage 3: community detection + Cluster Schema (precomputed server-side
  // per §3.2, instead of on-the-fly in the presentation layer). After a
  // delta merge whose class-graph is unchanged (node sequence and arcs
  // identical — e.g. only attribute counts moved), the prior partition is
  // recovered from the stored cluster document instead of re-running
  // Louvain; Louvain is deterministic on the same graph, so the rebuilt
  // Cluster Schema is identical either way.
  sw.Reset();
  cluster::Partition partition;
  bool partition_reused = false;
  if (prior_summary.has_value() &&
      prior_summary->NodeCount() == summary.NodeCount() &&
      prior_summary->ArcCount() == summary.ArcCount()) {
    bool same_graph = true;
    for (size_t i = 0; same_graph && i < summary.NodeCount(); ++i) {
      same_graph = prior_summary->nodes()[i].iri == summary.nodes()[i].iri;
    }
    for (size_t i = 0; same_graph && i < summary.ArcCount(); ++i) {
      const schema::PropertyArc& a = prior_summary->arcs()[i];
      const schema::PropertyArc& b = summary.arcs()[i];
      same_graph = a.src == b.src && a.dst == b.dst && a.iri == b.iri &&
                   a.count == b.count;
    }
    if (same_graph) {
      const store::Collection* clusters_ro =
          db_->FindCollection(kClustersCollection);
      store::DocHandle prior_cluster_doc;
      if (clusters_ro != nullptr) {
        prior_cluster_doc = clusters_ro->FindOne(url_filter);
      }
      if (prior_cluster_doc != nullptr) {
        auto prior_clusters =
            cluster::ClusterSchema::FromJson(*prior_cluster_doc);
        if (prior_clusters.ok()) {
          partition.reserve(summary.NodeCount());
          partition_reused = true;
          for (size_t i = 0; i < summary.NodeCount(); ++i) {
            int c = prior_clusters->ClusterOf(i);
            if (c < 0) {
              partition.clear();
              partition_reused = false;
              break;
            }
            partition.push_back(static_cast<size_t>(c));
          }
        }
      }
    }
  }
  if (!partition_reused) {
    cluster::UGraph graph = cluster::BuildClassGraph(summary);
    partition = cluster::Louvain(graph);
  }
  cluster::ClusterSchema clusters =
      cluster::ClusterSchema::FromPartition(summary, partition);
  report.cluster_ms = sw.ElapsedMillis();
  report.clusters = clusters.ClusterCount();

  // Stage 4: persist the artifacts, replacing any previous version. Under
  // incremental modes the raw index summary is persisted too — it is the
  // `prior` the next dirty-class merge starts from.
  sw.Reset();
  store::Collection* summaries = db_->GetCollection(kSummariesCollection);
  store::Collection* cluster_docs = db_->GetCollection(kClustersCollection);
  // Retrieval during display is by endpoint URL; keep it indexed (§2.1:
  // the store "improv[es] data recovery performance").
  summaries->CreateIndex("endpoint_url");
  cluster_docs->CreateIndex("endpoint_url");
  // Each artifact is swapped in with an atomic Replace: presentation-layer
  // readers running concurrently with the cycle see either the previous
  // extraction or this one, never a window with the document missing.
  if (inc.mode != IncrementalMode::kOff) {
    store::Collection* index_docs = db_->GetCollection(kIndexesCollection);
    index_docs->CreateIndex("endpoint_url");
    Status persisted =
        index_docs->Replace(url_filter, indexes->ToJson()).status();
    if (!persisted.ok()) return fail(std::move(persisted));
  }
  {
    Json doc = std::move(summary_doc);
    doc.Set("extracted_day", today);
    doc.Set("content_hash", content_hash);
    Status persisted = summaries->Replace(url_filter, std::move(doc)).status();
    if (!persisted.ok()) return fail(std::move(persisted));
  }
  {
    Json doc = clusters.ToJson();
    doc.Set("extracted_day", today);
    Status persisted =
        cluster_docs->Replace(url_filter, std::move(doc)).status();
    if (!persisted.ok()) return fail(std::move(persisted));
  }
  report.persist_ms = sw.ElapsedMillis();

  store_fingerprints();
  record_defense();
  record_attempt(true);
  HBOLD_LOG(kDebug) << "processed " << url << " classes=" << report.classes
                    << " clusters=" << report.clusters << " strategy="
                    << report.extraction.strategy_used;
  return report;
}

void CycleCounters::Count(const Result<PipelineReport>& result,
                          bool staleness) {
  ++due;
  if (!result.ok()) {
    ++failed;
    return;
  }
  ++succeeded;
  if (result->reused_cluster_schema) ++reused;
  if (result->probed) ++probes;
  if (result->probe_skipped) ++probe_skips;
  if (result->delta_extracted) ++delta_extractions;
  if (result->probe_mismatch) ++probe_mismatches;
  if (result->forced_refresh) ++forced_refreshes;
  if (result->quarantine_entered) ++quarantines_entered;
  if (result->quarantine_exited) ++quarantines_exited;
  if (staleness) ++staleness_histogram[result->staleness_days];
}

void CycleCounters::Add(const CycleCounters& other) {
  due += other.due;
  succeeded += other.succeeded;
  failed += other.failed;
  reused += other.reused;
  probes += other.probes;
  probe_skips += other.probe_skips;
  delta_extractions += other.delta_extractions;
  probe_mismatches += other.probe_mismatches;
  forced_refreshes += other.forced_refreshes;
  quarantines_entered += other.quarantines_entered;
  quarantines_exited += other.quarantines_exited;
  for (const auto& [days_stale, n] : other.staleness_histogram) {
    staleness_histogram[days_stale] += n;
  }
  plan_cache_hits += other.plan_cache_hits;
  plan_cache_misses += other.plan_cache_misses;
}

DailyReport Server::RunDailyUpdate() {
  // One pool of `parallelism` workers serves pipelines and their query
  // batches alike, so total threads honor the ServerOptions contract. With
  // at most one pipeline due no pool is built: spawning workers for zero
  // overlap is pure overhead on quiet days, and the simulated figures
  // come from the batch width either way. The data days advance inline,
  // before the due list that sizes the pool exists.
  Cycle cycle = BeginCycle(options_.parallelism, nullptr);
  std::optional<ThreadPool> pool;
  if (cycle.report.parallelism > 1 && cycle.due.size() > 1) {
    pool.emplace(static_cast<size_t>(cycle.report.parallelism));
  }
  ThreadPool* pool_ptr = pool ? &*pool : nullptr;
  ThreadPool::ParallelFor(pool_ptr, cycle.due.size(),
                          [&](size_t i) { RunDue(&cycle, i, pool_ptr); });
  return FinishCycle(std::move(cycle));
}

DailyReport Server::RunDailyCycleOn(ThreadPool* pool, int parallelism) {
  Cycle cycle = BeginCycle(parallelism, parallelism > 1 ? pool : nullptr);
  ThreadPool::ParallelFor(cycle.report.parallelism > 1 ? pool : nullptr,
                          cycle.due.size(),
                          [&](size_t i) { RunDue(&cycle, i, pool); });
  return FinishCycle(std::move(cycle));
}

endpoint::QueryEngineStats Server::SumEngineStats() const {
  endpoint::QueryEngineStats total;
  for (const auto& [url, ep] : network_) {
    if (ep != nullptr) total += ep->engine_stats();
  }
  return total;
}

Server::Cycle Server::BeginCycle(int parallelism, ThreadPool* pool) {
  Cycle cycle;
  cycle.report.day = loop_->NowDay();
  cycle.report.parallelism = std::max(1, parallelism);

  // Data evolves first: every attached endpoint applies its seeded
  // mutation days up to today, all of them before the due snapshot, so the
  // whole cycle observes one fixed world state. A day's mutation depends
  // only on (seed, day, the endpoint's own store), so the endpoints
  // advance side by side on the pool. Endpoints without a mutation model
  // no-op.
  std::vector<endpoint::SparqlEndpoint*> attached;
  attached.reserve(network_.size());
  for (const auto& [ep_url, ep] : network_) {
    if (ep != nullptr) attached.push_back(ep);
  }
  ThreadPool::ParallelFor(pool, attached.size(), [&](size_t i) {
    attached[i]->AdvanceDataDay(cycle.report.day);
  });

  cycle.engine_before = SumEngineStats();

  // Fix the due list from an immutable snapshot before any worker starts
  // mutating bookkeeping; `due` is in registry (insertion) order.
  cycle.due = scheduler_.DueToday(registry_.Snapshot(), cycle.report.day);
  cycle.results.assign(cycle.due.size(),
                       Status::Internal("due entry never ran"));
  cycle.report.outcomes.resize(cycle.due.size());
  cycle.wall.Reset();
  return cycle;
}

void Server::RunDue(Cycle* cycle, size_t i, ThreadPool* pool) {
  DueOutcome& outcome = cycle->report.outcomes[i];
  Result<PipelineReport>& result = cycle->results[i];
  outcome.url = cycle->due[i];
  result = ProcessEndpoint(outcome.url,
                           cycle->report.parallelism > 1 ? pool : nullptr,
                           &outcome);
  outcome.succeeded = result.ok();
  if (result.ok()) {
    outcome.throttle_events = result->extraction.throttle_events;
  }
}

DailyReport Server::FinishCycle(Cycle cycle) {
  DailyReport daily = std::move(cycle.report);
  daily.wall_ms = cycle.wall.ElapsedMillis();

  // Merge in due-list order — the report is independent of worker
  // completion order. The latency ledger replays deterministic list
  // scheduling over the simulated extraction latencies — failed attempts
  // included: a timed-out extraction still spent its queries' latency —
  // giving the cycle's simulated duration (makespan) next to its cost
  // (sum). A second ledger replays the same schedule with each pipeline
  // shortened to its intra-pipeline makespan — the duration when batched
  // queries overlap inside pipelines too.
  const IncrementalMode mode = options_.incremental.mode;
  const bool staleness =
      mode == IncrementalMode::kDelta || mode == IncrementalMode::kBounded;
  WorkerLatencyLedger ledger(static_cast<size_t>(daily.parallelism));
  WorkerLatencyLedger batched_ledger(static_cast<size_t>(daily.parallelism));
  for (size_t i = 0; i < cycle.due.size(); ++i) {
    Result<PipelineReport>& result = cycle.results[i];
    ledger.Assign(daily.outcomes[i].charged_latency_ms);
    batched_ledger.Assign(daily.outcomes[i].charged_intra_ms);
    daily.Count(result, staleness);
    if (result.ok()) {
      daily.reports.push_back(std::move(*result));
    } else {
      HBOLD_LOG(kDebug) << "daily update failed for " << cycle.due[i] << ": "
                        << result.status().ToString();
    }
  }
  daily.sum_latency_ms = ledger.TotalMs();
  daily.makespan_ms = ledger.MakespanMs();
  daily.batched_makespan_ms = batched_ledger.MakespanMs();
  // Engine counters are cumulative per endpoint; the cycle's share is the
  // delta. No queries are in flight here (every due entry has run).
  const endpoint::QueryEngineStats engine_delta =
      SumEngineStats() - cycle.engine_before;
  daily.plan_cache_hits = engine_delta.plan_cache_hits;
  daily.plan_cache_misses = engine_delta.plan_cache_misses;
  return daily;
}

Status Server::PersistRegistry() {
  store::Collection* c = db_->GetCollection(kRegistryCollection);
  Json wrapper = Json::MakeObject();
  wrapper.Set("records", registry_.ToJson());
  return c->Replace(Json::MakeObject(), std::move(wrapper)).status();
}

Status Server::LoadRegistry() {
  const store::Collection* c = db_->FindCollection(kRegistryCollection);
  if (c == nullptr) return Status::NotFound("no registry collection");
  store::DocHandle doc = c->FindOne(Json::MakeObject());
  if (doc == nullptr) return Status::NotFound("registry document missing");
  const Json* records = doc->Find("records");
  if (records == nullptr) {
    return Status::InvalidArgument("registry document malformed");
  }
  return registry_.LoadJson(*records);
}

}  // namespace hbold
