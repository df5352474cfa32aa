#ifndef HBOLD_STORE_COLLECTION_H_
#define HBOLD_STORE_COLLECTION_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "store/document.h"

namespace hbold::store {

/// A collection of JSON documents with MongoDB-flavoured filtering.
///
/// Filters are JSON objects. Each key constrains a field:
///   {"name": "x"}                 — equality
///   {"n": {"$gt": 3}}             — comparison ($gt $gte $lt $lte $ne)
///   {"k": {"$in": [1, 2]}}        — membership
///   {"k": {"$exists": true}}      — presence
/// Multiple keys are AND-ed. Dotted paths ("a.b") descend into nested
/// objects. An equality constraint on a field with a hash index narrows
/// every filtered operation (Find, FindOne, CountMatching, Update, Remove,
/// Replace) to that index bucket instead of a scan.
///
/// Stored documents are immutable and shared: the collection holds one
/// `DocHandle` (`shared_ptr<const Document>`) per document, and reads
/// (Find/FindOne/FindById/Snapshot) return those handles, not copies.
/// Update copies a document, edits the copy and swaps it in; Replace,
/// Remove and Update release the displaced versions only after the lock
/// is dropped, so freeing a large document never stalls other callers.
/// A reader's handle keeps its version alive and unchanged.
///
/// Thread safety: every public method locks a per-collection
/// `std::shared_mutex` — reads (Find/FindOne/Count/Snapshot/Dump) take it
/// shared, mutations take it exclusive. Concurrent pipelines writing to
/// the same collection serialize per document operation; pipelines on
/// different collections never contend. For read-heavy paths take a
/// Snapshot() once and iterate it lock-free.
class Collection {
 public:
  explicit Collection(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return docs_.size();
  }

  /// Inserts a document (object), assigning `_id`. Returns the id.
  /// Fails with AlreadyExists when a unique index would be violated.
  Result<DocId> Insert(Document doc);

  /// Returns all documents matching `filter`, in insertion (_id) order.
  std::vector<DocHandle> Find(const Document& filter) const;

  /// Returns the first match, or nullptr.
  DocHandle FindOne(const Document& filter) const;

  /// Finds a document by id; nullptr when absent.
  DocHandle FindById(DocId id) const;

  size_t CountMatching(const Document& filter) const;

  /// Every document's handle (in `_id` order), taken under one shared
  /// lock. Iterating the returned vector is lock-free: it is an immutable
  /// point-in-time view, unaffected by later writers.
  std::vector<DocHandle> Snapshot() const;

  /// Replaces the fields of every matching document with those in `update`
  /// (shallow merge; `_id` is preserved): each match is copied, merged and
  /// swapped in. Returns the number updated. Fails when the merge would
  /// violate a unique index.
  Result<size_t> Update(const Document& filter, const Document& update);

  /// Removes matching documents. Returns the number removed.
  size_t Remove(const Document& filter);

  /// Atomically removes every document matching `filter` and inserts
  /// `doc`, under one exclusive lock — concurrent readers see either the
  /// old document(s) or the new one, never the gap a separate
  /// Remove+Insert pair exposes. Returns the new document's id; fails
  /// (with nothing removed) when a unique index would be violated by
  /// `doc` against the surviving documents.
  Result<DocId> Replace(const Document& filter, Document doc);

  /// Declares a unique index on a (dotted) field path. Existing duplicates
  /// cause InvalidArgument.
  Status CreateUniqueIndex(const std::string& field_path);

  /// Declares a (non-unique) hash index on a (dotted) field path. Equality
  /// filters on that field are then answered by index lookup instead of a
  /// collection scan — the "easily memorized and retrieved on the MongoDB
  /// improving data recovery performance" property of §2.1. Declaring an
  /// existing index again only takes the shared lock.
  void CreateIndex(const std::string& field_path);

  /// True if `field_path` has a hash index (for tests).
  bool HasIndex(const std::string& field_path) const;

  /// True if `doc` satisfies `filter` (exposed for tests).
  static bool Matches(const Document& doc, const Document& filter);

  /// Resolves a dotted path inside a document; nullptr when missing.
  static const Json* Resolve(const Document& doc, std::string_view path);

  /// Serializes all documents as JSON-lines.
  std::string DumpJsonl() const;
  /// Appends the DumpJsonl bytes to `out`.
  void AppendJsonl(std::string* out) const;
  /// Loads documents from JSON-lines produced by DumpJsonl (replaces
  /// content; re-validates unique indexes).
  Status LoadJsonl(std::string_view text);

 private:
  // The private helpers below assume mu_ is already held by the public
  // caller; they never lock themselves.
  Status CheckUnique(const Document& doc, std::optional<DocId> skip_id) const;
  void IndexDoc(DocId id, const Document& doc);
  void DeindexDoc(DocId id, const Document& doc);
  /// Resolves an equality constraint in `filter` that a hash index covers;
  /// returns the candidate id set, or nullptr when no index applies.
  const std::set<DocId>* IndexCandidates(const Document& filter) const;
  /// Calls `fn(id, doc)` for each document matching `filter`, in `_id`
  /// order, narrowed through IndexCandidates when an index applies; stops
  /// early when `fn` returns false.
  template <typename Fn>
  void ScanMatches(const Document& filter, Fn&& fn) const;
  /// Ids of every document matching `filter`, in `_id` order.
  std::vector<DocId> MatchingIds(const Document& filter) const;

  mutable std::shared_mutex mu_;
  std::string name_;
  DocId next_id_ = 1;
  std::map<DocId, DocHandle> docs_;
  std::vector<std::string> unique_fields_;
  // field path -> serialized value -> ids holding that value.
  std::map<std::string, std::map<std::string, std::set<DocId>>>
      field_indexes_;
};

}  // namespace hbold::store

#endif  // HBOLD_STORE_COLLECTION_H_
