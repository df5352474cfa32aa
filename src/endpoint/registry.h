#ifndef HBOLD_ENDPOINT_REGISTRY_H_
#define HBOLD_ENDPOINT_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace hbold::endpoint {

/// How an endpoint URL entered the registry (§3.3 / §3.4).
enum class EndpointSource {
  kSeedList,      // inherited from the old LODeX list
  kPortalCrawl,   // discovered by the open-data-portal crawler
  kManualInsert,  // user-submitted URL
};

const char* EndpointSourceName(EndpointSource source);

/// Incremental-trust state of one endpoint: how much the server believes
/// its change probes. Advances trust -> suspect -> quarantined on detected
/// probe lies / divergences and walks back after clean full refreshes.
/// Quarantined endpoints get unconditional full refreshes until parole.
enum class TrustState {
  kTrusted = 0,
  kSuspect = 1,
  kQuarantined = 2,
};

const char* TrustStateName(TrustState state);

/// Registry record for one SPARQL endpoint: discovery provenance plus the
/// §3.1 extraction bookkeeping (last attempt day, last success day,
/// indexed flag).
struct EndpointRecord {
  std::string url;
  std::string name;
  EndpointSource source = EndpointSource::kSeedList;
  int64_t added_day = 0;
  /// First day the refresh scheduler may pick this endpoint up; -1 means
  /// "immediately". Endpoints that enter the registry *mid-cycle* (portal
  /// crawl, metadata crawl, fleet churn) set this to `added_day + 1` so
  /// the snapshot and live due-list paths agree deterministically: the
  /// newcomer is extracted on the next simulated day, never racily within
  /// the day it appeared.
  int64_t first_eligible_day = -1;

  /// Day of the most recent extraction attempt; -1 = never attempted.
  int64_t last_attempt_day = -1;
  /// Day of the most recent successful extraction; -1 = never succeeded.
  int64_t last_success_day = -1;
  /// True when the last attempt failed (drives the daily-retry policy).
  bool last_attempt_failed = false;
  /// True once the endpoint has a stored Schema Summary ("indexed and
  /// exposed" in the paper's wording).
  bool indexed = false;

  /// Store generation observed by the last successful change probe, as
  /// 16-digit hex (JSON numbers are doubles; 64-bit counters do not fit).
  /// Empty = never probed / incremental extraction disabled.
  std::string probed_generation;
  /// Per-class version fingerprints from the last successful extraction:
  /// class IRI -> hex version. Diffed against the next probe to pick the
  /// dirty classes; empty when incremental extraction is disabled.
  std::map<std::string, std::string> class_fingerprints;

  /// Quarantine state machine (adversarial-endpoint hardening). All fields
  /// keep their zero defaults when incremental trust tracking never fired,
  /// so registries from honest runs stay byte-identical to earlier builds.
  TrustState trust_state = TrustState::kTrusted;
  /// Divergences detected while suspect/trusted; reaching the server's
  /// suspect threshold quarantines the endpoint.
  int64_t suspect_strikes = 0;
  /// First day the endpoint may leave quarantine; -1 = not quarantined.
  int64_t quarantine_until_day = -1;
  /// Consecutive successful cycles without a detected divergence (drives
  /// parole from suspect back to trusted).
  int64_t clean_streak = 0;
  /// Day of the last *full* (non-delta) successful extraction; -1 = never.
  /// kBounded forces a full refresh when today - last_full_refresh_day
  /// exceeds the staleness budget.
  int64_t last_full_refresh_day = -1;
  /// Consecutive transient probe failures (Timeout) — drives deterministic
  /// retry/backoff, reset on any successful probe.
  int64_t probe_failure_streak = 0;

  /// Forward compatibility: JSON keys this build does not know (e.g.
  /// fields added by a newer build) survive a load/save round-trip
  /// verbatim instead of being silently dropped.
  std::map<std::string, hbold::Json> unknown_fields;

  hbold::Json ToJson() const;
  static EndpointRecord FromJson(const hbold::Json& j);
};

/// The H-BOLD endpoint list. URLs are unique; re-adding an existing URL is
/// a no-op that reports the duplicate (the crawler counts those).
///
/// Thread safety: all methods lock an internal `std::shared_mutex`. The
/// parallel daily cycle reads via Snapshot() (immutable copies, safe to
/// iterate while workers mutate the registry) and writes via
/// UpdateRecord() (serialized per-record mutation). Find/All hand out
/// const pointers into the map — those stay valid (std::map nodes are
/// stable) but are only safe to dereference while no other thread is
/// writing the same record; concurrent pipelines must use
/// Snapshot/UpdateRecord instead.
class EndpointRegistry {
 public:
  EndpointRegistry() = default;

  /// Adds a record. Returns true if it was new, false if the URL already
  /// existed (record unchanged).
  bool Add(EndpointRecord record);

  bool Contains(const std::string& url) const;
  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return order_.size();
  }

  /// Number of endpoints with indexed == true.
  size_t IndexedCount() const;

  const EndpointRecord* Find(const std::string& url) const;

  /// Copy of the record for `url` taken under the shared lock — the safe
  /// read form for concurrent pipelines (Find's pointer is not).
  std::optional<EndpointRecord> GetRecord(const std::string& url) const;

  /// Records in insertion order.
  std::vector<const EndpointRecord*> All() const;

  /// Immutable point-in-time copy of every record, in insertion order.
  /// This is what the scheduler consumes: workers updating bookkeeping
  /// mid-cycle cannot perturb the due list it was computed from.
  std::vector<EndpointRecord> Snapshot() const;

  /// Applies `fn` to the record for `url` under the registry's exclusive
  /// lock — the single serialization point for bookkeeping writes from
  /// concurrent pipelines. Returns false when the URL is unknown.
  bool UpdateRecord(const std::string& url,
                    const std::function<void(EndpointRecord&)>& fn);

  hbold::Json ToJson() const;
  Status LoadJson(const hbold::Json& j);

 private:
  // Requires mu_ held (any mode). Shared implementation of Add/LoadJson.
  bool AddLocked(EndpointRecord record);

  mutable std::shared_mutex mu_;
  std::map<std::string, EndpointRecord> by_url_;
  std::vector<std::string> order_;
};

}  // namespace hbold::endpoint

#endif  // HBOLD_ENDPOINT_REGISTRY_H_
