#include "endpoint/registry.h"

#include <mutex>
#include <set>

#include "common/string_util.h"

namespace hbold::endpoint {

const char* EndpointSourceName(EndpointSource source) {
  switch (source) {
    case EndpointSource::kSeedList:
      return "seed";
    case EndpointSource::kPortalCrawl:
      return "portal";
    case EndpointSource::kManualInsert:
      return "manual";
  }
  return "?";
}

const char* TrustStateName(TrustState state) {
  switch (state) {
    case TrustState::kTrusted:
      return "trusted";
    case TrustState::kSuspect:
      return "suspect";
    case TrustState::kQuarantined:
      return "quarantined";
  }
  return "?";
}

namespace {
EndpointSource SourceFromName(const std::string& name) {
  if (name == "portal") return EndpointSource::kPortalCrawl;
  if (name == "manual") return EndpointSource::kManualInsert;
  return EndpointSource::kSeedList;
}

TrustState TrustStateFromName(const std::string& name) {
  if (name == "suspect") return TrustState::kSuspect;
  if (name == "quarantined") return TrustState::kQuarantined;
  return TrustState::kTrusted;
}
}  // namespace

Json EndpointRecord::ToJson() const {
  Json j = Json::MakeObject();
  // Unknown (newer-build) fields first; known fields overwrite on key
  // collision so this build's view always wins for keys it owns.
  for (const auto& [key, value] : unknown_fields) j.Set(key, value);
  j.Set("url", url);
  j.Set("name", name);
  j.Set("source", EndpointSourceName(source));
  j.Set("added_day", added_day);
  j.Set("first_eligible_day", first_eligible_day);
  j.Set("last_attempt_day", last_attempt_day);
  j.Set("last_success_day", last_success_day);
  j.Set("last_attempt_failed", last_attempt_failed);
  j.Set("indexed", indexed);
  // Incremental-extraction bookkeeping is emitted only once set, so
  // registries written with incremental mode off stay byte-identical to
  // earlier builds.
  if (!probed_generation.empty()) {
    j.Set("probed_generation", probed_generation);
  }
  if (!class_fingerprints.empty()) {
    Json fp = Json::MakeObject();
    for (const auto& [iri, version] : class_fingerprints) {
      fp.Set(iri, version);
    }
    j.Set("class_fingerprints", std::move(fp));
  }
  // Quarantine bookkeeping, likewise emitted only when it ever moved off
  // the defaults (honest fleets keep byte-identical registries).
  if (trust_state != TrustState::kTrusted) {
    j.Set("trust_state", TrustStateName(trust_state));
  }
  if (suspect_strikes != 0) j.Set("suspect_strikes", suspect_strikes);
  if (quarantine_until_day != -1) {
    j.Set("quarantine_until_day", quarantine_until_day);
  }
  if (clean_streak != 0) j.Set("clean_streak", clean_streak);
  if (last_full_refresh_day != -1) {
    j.Set("last_full_refresh_day", last_full_refresh_day);
  }
  if (probe_failure_streak != 0) {
    j.Set("probe_failure_streak", probe_failure_streak);
  }
  return j;
}

EndpointRecord EndpointRecord::FromJson(const Json& j) {
  EndpointRecord r;
  r.url = j.GetString("url");
  r.name = j.GetString("name");
  r.source = SourceFromName(j.GetString("source"));
  r.added_day = j.GetInt("added_day");
  // Absent in registries persisted before the field existed: -1 keeps the
  // old behavior (eligible immediately).
  r.first_eligible_day = j.GetInt("first_eligible_day", -1);
  r.last_attempt_day = j.GetInt("last_attempt_day", -1);
  r.last_success_day = j.GetInt("last_success_day", -1);
  r.last_attempt_failed = j.GetBool("last_attempt_failed");
  r.indexed = j.GetBool("indexed");
  r.probed_generation = j.GetString("probed_generation");
  // Defensive fingerprint parsing: a record whose incremental bookkeeping
  // is missing entries or garbled (non-string / non-hex versions, wrong
  // container type) cannot safely drive a delta. Degrade just this
  // endpoint to a full refresh (drop generation + fingerprints) instead of
  // failing the whole registry load.
  bool garbled = false;
  const Json* fp = j.Find("class_fingerprints");
  if (fp != nullptr) {
    if (!fp->is_object()) {
      garbled = true;
    } else {
      for (const auto& [iri, version] : fp->as_object()) {
        uint64_t parsed = 0;
        if (!version.is_string() ||
            !ParseHexU64(version.as_string(), &parsed)) {
          garbled = true;
          break;
        }
        r.class_fingerprints[iri] = version.as_string();
      }
    }
  }
  if (!r.probed_generation.empty()) {
    uint64_t parsed = 0;
    if (!ParseHexU64(r.probed_generation, &parsed)) garbled = true;
  }
  if (garbled) {
    r.class_fingerprints.clear();
    r.probed_generation.clear();
  }
  r.trust_state = TrustStateFromName(j.GetString("trust_state"));
  r.suspect_strikes = j.GetInt("suspect_strikes", 0);
  r.quarantine_until_day = j.GetInt("quarantine_until_day", -1);
  r.clean_streak = j.GetInt("clean_streak", 0);
  r.last_full_refresh_day = j.GetInt("last_full_refresh_day", -1);
  r.probe_failure_streak = j.GetInt("probe_failure_streak", 0);
  // Preserve keys from newer builds verbatim (forward compatibility).
  static const std::set<std::string> kKnownKeys = {
      "url",          "name",
      "source",       "added_day",
      "first_eligible_day", "last_attempt_day",
      "last_success_day",   "last_attempt_failed",
      "indexed",      "probed_generation",
      "class_fingerprints", "trust_state",
      "suspect_strikes",    "quarantine_until_day",
      "clean_streak",       "last_full_refresh_day",
      "probe_failure_streak"};
  if (j.is_object()) {
    for (const auto& [key, value] : j.as_object()) {
      if (kKnownKeys.count(key) == 0) r.unknown_fields[key] = value;
    }
  }
  return r;
}

bool EndpointRegistry::AddLocked(EndpointRecord record) {
  if (by_url_.count(record.url) > 0) return false;
  order_.push_back(record.url);
  by_url_.emplace(record.url, std::move(record));
  return true;
}

bool EndpointRegistry::Add(EndpointRecord record) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return AddLocked(std::move(record));
}

bool EndpointRegistry::Contains(const std::string& url) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return by_url_.count(url) > 0;
}

size_t EndpointRegistry::IndexedCount() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [url, r] : by_url_) {
    if (r.indexed) ++n;
  }
  return n;
}

const EndpointRecord* EndpointRegistry::Find(const std::string& url) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_url_.find(url);
  return it == by_url_.end() ? nullptr : &it->second;
}

std::optional<EndpointRecord> EndpointRegistry::GetRecord(
    const std::string& url) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_url_.find(url);
  if (it == by_url_.end()) return std::nullopt;
  return it->second;
}

std::vector<const EndpointRecord*> EndpointRegistry::All() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<const EndpointRecord*> out;
  out.reserve(order_.size());
  for (const std::string& url : order_) {
    out.push_back(&by_url_.at(url));
  }
  return out;
}

std::vector<EndpointRecord> EndpointRegistry::Snapshot() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<EndpointRecord> out;
  out.reserve(order_.size());
  for (const std::string& url : order_) {
    out.push_back(by_url_.at(url));
  }
  return out;
}

bool EndpointRegistry::UpdateRecord(
    const std::string& url, const std::function<void(EndpointRecord&)>& fn) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = by_url_.find(url);
  if (it == by_url_.end()) return false;
  fn(it->second);
  return true;
}

Json EndpointRegistry::ToJson() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  Json arr = Json::MakeArray();
  for (const std::string& url : order_) {
    arr.Append(by_url_.at(url).ToJson());
  }
  return arr;
}

Status EndpointRegistry::LoadJson(const Json& j) {
  if (!j.is_array()) {
    return Status::InvalidArgument("registry JSON must be an array");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  by_url_.clear();
  order_.clear();
  for (const Json& item : j.as_array()) {
    EndpointRecord r = EndpointRecord::FromJson(item);
    if (r.url.empty()) {
      return Status::InvalidArgument("registry record missing url");
    }
    AddLocked(std::move(r));
  }
  return Status::OK();
}

}  // namespace hbold::endpoint
