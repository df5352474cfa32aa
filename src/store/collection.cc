#include "store/collection.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/string_util.h"

namespace hbold::store {

namespace {

/// Three-way comparison over JSON scalars: numbers numerically, strings
/// lexically; mixed/other types compare unequal (returns nullopt).
std::optional<int> CompareScalars(const Json& a, const Json& b) {
  if (a.is_number() && b.is_number()) {
    if (a.as_number() < b.as_number()) return -1;
    if (a.as_number() > b.as_number()) return 1;
    return 0;
  }
  if (a.is_string() && b.is_string()) {
    if (a.as_string() < b.as_string()) return -1;
    if (a.as_string() > b.as_string()) return 1;
    return 0;
  }
  if (a.is_bool() && b.is_bool()) {
    return static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
  }
  return std::nullopt;
}

bool MatchesOperator(const Json* field, const Json& op_obj) {
  for (const auto& [op, operand] : op_obj.as_object()) {
    if (op == "$exists") {
      bool want = operand.is_bool() ? operand.as_bool() : true;
      if ((field != nullptr) != want) return false;
      continue;
    }
    if (field == nullptr) return false;
    if (op == "$in") {
      if (!operand.is_array()) return false;
      bool found = false;
      for (const Json& cand : operand.as_array()) {
        if (cand == *field) {
          found = true;
          break;
        }
      }
      if (!found) return false;
      continue;
    }
    std::optional<int> cmp = CompareScalars(*field, operand);
    if (op == "$ne") {
      if (*field == operand) return false;
      continue;
    }
    if (!cmp.has_value()) return false;
    if (op == "$gt" && !(*cmp > 0)) return false;
    if (op == "$gte" && !(*cmp >= 0)) return false;
    if (op == "$lt" && !(*cmp < 0)) return false;
    if (op == "$lte" && !(*cmp <= 0)) return false;
    if (op != "$gt" && op != "$gte" && op != "$lt" && op != "$lte" &&
        op != "$ne") {
      return false;  // unknown operator matches nothing
    }
  }
  return true;
}

/// True when `constraint` is an operator object ({"$gt": ...}) rather than
/// a value to compare for equality.
bool IsOperatorConstraint(const Json& constraint) {
  const Json::Object& obj = constraint.as_object();
  return !obj.empty() && obj.front().first.rfind('$', 0) == 0;
}

}  // namespace

const Json* Collection::Resolve(const Document& doc, std::string_view path) {
  const Json* cur = &doc;
  while (true) {
    const size_t dot = path.find('.');
    cur = cur->Find(path.substr(0, dot));
    if (cur == nullptr || dot == std::string_view::npos) return cur;
    path.remove_prefix(dot + 1);
  }
}

bool Collection::Matches(const Document& doc, const Document& filter) {
  if (!filter.is_object()) return false;
  for (const auto& [key, constraint] : filter.as_object()) {
    const Json* field = Resolve(doc, key);
    if (IsOperatorConstraint(constraint)) {
      if (!MatchesOperator(field, constraint)) return false;
    } else {
      if (field == nullptr || !(*field == constraint)) return false;
    }
  }
  return true;
}

Status Collection::CheckUnique(const Document& doc,
                               std::optional<DocId> skip_id) const {
  for (const std::string& path : unique_fields_) {
    const Json* value = Resolve(doc, path);
    if (value == nullptr) continue;
    for (const auto& [id, existing] : docs_) {
      if (skip_id.has_value() && id == *skip_id) continue;
      const Json* other = Resolve(*existing, path);
      if (other != nullptr && *other == *value) {
        return Status::AlreadyExists("unique index violation on '" + path +
                                     "' in collection '" + name_ + "'");
      }
    }
  }
  return Status::OK();
}

void Collection::IndexDoc(DocId id, const Document& doc) {
  for (auto& [path, buckets] : field_indexes_) {
    const Json* value = Resolve(doc, path);
    if (value != nullptr) buckets[value->Dump()].insert(id);
  }
}

void Collection::DeindexDoc(DocId id, const Document& doc) {
  for (auto& [path, buckets] : field_indexes_) {
    const Json* value = Resolve(doc, path);
    if (value == nullptr) continue;
    auto it = buckets.find(value->Dump());
    if (it == buckets.end()) continue;
    it->second.erase(id);
    if (it->second.empty()) buckets.erase(it);
  }
}

const std::set<DocId>* Collection::IndexCandidates(
    const Document& filter) const {
  if (!filter.is_object()) return nullptr;
  for (const auto& [key, constraint] : filter.as_object()) {
    auto index = field_indexes_.find(key);
    if (index == field_indexes_.end()) continue;
    // Only plain equality constraints are index-answerable.
    if (IsOperatorConstraint(constraint)) continue;
    static const std::set<DocId> kEmpty;
    auto bucket = index->second.find(constraint.Dump());
    return bucket == index->second.end() ? &kEmpty : &bucket->second;
  }
  return nullptr;
}

template <typename Fn>
void Collection::ScanMatches(const Document& filter, Fn&& fn) const {
  const std::set<DocId>* candidates = IndexCandidates(filter);
  if (candidates != nullptr) {
    for (DocId id : *candidates) {
      auto it = docs_.find(id);
      if (it != docs_.end() && Matches(*it->second, filter) &&
          !fn(id, it->second)) {
        return;
      }
    }
    return;
  }
  for (const auto& [id, doc] : docs_) {
    if (Matches(*doc, filter) && !fn(id, doc)) return;
  }
}

std::vector<DocId> Collection::MatchingIds(const Document& filter) const {
  std::vector<DocId> ids;
  ScanMatches(filter, [&](DocId id, const DocHandle&) {
    ids.push_back(id);
    return true;
  });
  return ids;
}

Result<DocId> Collection::Insert(Document doc) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!doc.is_object()) {
    return Status::InvalidArgument("documents must be JSON objects");
  }
  HBOLD_RETURN_NOT_OK(CheckUnique(doc, std::nullopt));
  DocId id = next_id_++;
  doc.Set(kIdField, Json(static_cast<int64_t>(id)));
  IndexDoc(id, doc);
  docs_.emplace(id, std::make_shared<const Document>(std::move(doc)));
  return id;
}

std::vector<DocHandle> Collection::Find(const Document& filter) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<DocHandle> out;
  ScanMatches(filter, [&](DocId, const DocHandle& doc) {
    out.push_back(doc);
    return true;
  });
  return out;
}

DocHandle Collection::FindOne(const Document& filter) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  DocHandle found;
  ScanMatches(filter, [&](DocId, const DocHandle& doc) {
    found = doc;
    return false;
  });
  return found;
}

DocHandle Collection::FindById(DocId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = docs_.find(id);
  return it == docs_.end() ? nullptr : it->second;
}

std::vector<DocHandle> Collection::Snapshot() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<DocHandle> out;
  out.reserve(docs_.size());
  for (const auto& [id, doc] : docs_) out.push_back(doc);
  return out;
}

size_t Collection::CountMatching(const Document& filter) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t n = 0;
  ScanMatches(filter, [&](DocId, const DocHandle&) {
    ++n;
    return true;
  });
  return n;
}

Result<size_t> Collection::Update(const Document& filter,
                                  const Document& update) {
  // Declared before the lock so the displaced versions are freed after it
  // is released.
  std::vector<DocHandle> displaced;
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!update.is_object()) {
    return Status::InvalidArgument("update must be a JSON object");
  }
  // Merge every target first and validate uniqueness, so a failed update
  // changes nothing; then swap the merged copies in.
  std::vector<std::pair<DocId, Document>> merged;
  for (DocId id : MatchingIds(filter)) {
    Document doc = *docs_[id];
    for (const auto& [k, v] : update.as_object()) {
      if (k == kIdField) continue;
      doc.Set(k, v);
    }
    HBOLD_RETURN_NOT_OK(CheckUnique(doc, id));
    merged.emplace_back(id, std::move(doc));
  }
  displaced.reserve(merged.size());
  for (auto& [id, doc] : merged) {
    DocHandle& slot = docs_[id];
    DeindexDoc(id, *slot);
    IndexDoc(id, doc);
    displaced.push_back(std::exchange(
        slot, std::make_shared<const Document>(std::move(doc))));
  }
  return merged.size();
}

Result<DocId> Collection::Replace(const Document& filter, Document doc) {
  std::vector<DocHandle> displaced;  // freed after the lock is released
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!doc.is_object()) {
    return Status::InvalidArgument("documents must be JSON objects");
  }
  // Pull the matches out first so the uniqueness check runs against the
  // survivors only; restore them if the new document is rejected.
  const std::vector<DocId> ids = MatchingIds(filter);
  displaced.reserve(ids.size());
  for (DocId id : ids) {
    auto it = docs_.find(id);
    DeindexDoc(id, *it->second);
    displaced.push_back(std::move(it->second));
    docs_.erase(it);
  }
  Status unique = CheckUnique(doc, std::nullopt);
  if (!unique.ok()) {
    for (size_t i = 0; i < ids.size(); ++i) {
      IndexDoc(ids[i], *displaced[i]);
      docs_.emplace(ids[i], std::move(displaced[i]));
    }
    return unique;
  }
  DocId id = next_id_++;
  doc.Set(kIdField, Json(static_cast<int64_t>(id)));
  IndexDoc(id, doc);
  docs_.emplace(id, std::make_shared<const Document>(std::move(doc)));
  return id;
}

size_t Collection::Remove(const Document& filter) {
  std::vector<DocHandle> displaced;  // freed after the lock is released
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (DocId id : MatchingIds(filter)) {
    auto it = docs_.find(id);
    DeindexDoc(id, *it->second);
    displaced.push_back(std::move(it->second));
    docs_.erase(it);
  }
  return displaced.size();
}

Status Collection::CreateUniqueIndex(const std::string& field_path) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Validate no existing duplicates.
  std::vector<const Json*> seen;
  for (const auto& [id, doc] : docs_) {
    const Json* value = Resolve(*doc, field_path);
    if (value == nullptr) continue;
    for (const Json* other : seen) {
      if (*other == *value) {
        return Status::InvalidArgument(
            "cannot create unique index on '" + field_path +
            "': duplicate values exist");
      }
    }
    seen.push_back(value);
  }
  unique_fields_.push_back(field_path);
  return Status::OK();
}

void Collection::CreateIndex(const std::string& field_path) {
  if (HasIndex(field_path)) return;
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (field_indexes_.count(field_path) > 0) return;  // lost the race
  auto& buckets = field_indexes_[field_path];
  for (const auto& [id, doc] : docs_) {
    const Json* value = Resolve(*doc, field_path);
    if (value != nullptr) buckets[value->Dump()].insert(id);
  }
}

bool Collection::HasIndex(const std::string& field_path) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return field_indexes_.count(field_path) > 0;
}

std::string Collection::DumpJsonl() const {
  std::string out;
  AppendJsonl(&out);
  return out;
}

void Collection::AppendJsonl(std::string* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& [id, doc] : docs_) {
    doc->DumpTo(out);
    out->push_back('\n');
  }
}

Status Collection::LoadJsonl(std::string_view text) {
  // Parsed without the lock; after the swap it holds the previous content,
  // which is freed once the lock (declared below it) is released.
  std::map<DocId, DocHandle> loaded;
  DocId max_id = 0;
  while (!text.empty()) {
    const size_t eol = std::min(text.find('\n'), text.size());
    const std::string_view line = text.substr(0, eol);
    text.remove_prefix(std::min(eol + 1, text.size()));
    if (Trim(line).empty()) continue;
    auto parsed = Json::Parse(line);
    if (!parsed.ok()) return parsed.status();
    DocId id = parsed->GetInt(kIdField, 0);
    if (id <= 0) {
      return Status::ParseError("document missing _id in collection '" +
                                name_ + "'");
    }
    max_id = std::max(max_id, id);
    loaded.emplace(id, std::make_shared<const Document>(std::move(*parsed)));
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  docs_.swap(loaded);
  next_id_ = max_id + 1;
  // Rebuild hash indexes over the replaced content.
  for (auto& [path, buckets] : field_indexes_) buckets.clear();
  for (const auto& [id, doc] : docs_) IndexDoc(id, *doc);
  return Status::OK();
}

}  // namespace hbold::store
