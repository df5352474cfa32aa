#ifndef HBOLD_STORE_DATABASE_H_
#define HBOLD_STORE_DATABASE_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "store/collection.h"

namespace hbold {
class ThreadPool;
}  // namespace hbold

namespace hbold::store {

/// A named set of collections with optional directory persistence — the
/// library's embedded stand-in for the MongoDB instance H-BOLD uses to
/// cache Schema Summaries and Cluster Schemas (§2.1, §3.2).
///
/// Thread safety: the collection map is guarded by a `std::shared_mutex`;
/// Collection pointers handed out remain valid and internally
/// thread-safe for the life of the database (or until DropCollection).
/// Concurrent GetCollection calls for the same name return the same
/// instance.
class Database {
 public:
  /// `pool` (optional, must outlive the database) is its owner's worker
  /// pool: SaveToDirectory encodes and writes on it. Without one, saves
  /// run inline on the caller's thread. The bytes written are the same
  /// either way.
  explicit Database(ThreadPool* pool = nullptr) : pool_(pool) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Returns the collection, creating it on first access.
  Collection* GetCollection(const std::string& name);

  /// Returns the collection or nullptr if it does not exist.
  const Collection* FindCollection(const std::string& name) const;

  std::vector<std::string> CollectionNames() const;

  /// Drops a collection. Returns true if it existed.
  bool DropCollection(const std::string& name);

  /// Writes every collection into `dir` (creating it) as a versioned
  /// binary snapshot (`<encoded-name>.hbsnap`, see store/snapshot.h):
  /// checksummed, and the collection name travels inside the file so it
  /// round-trips exactly. Each file is written durably: content to
  /// `<file>.tmp`, fsync, rename into place, fsync of the directory — a
  /// crash at any point leaves either the previous complete file or the
  /// new one under the final name, never a truncated file, and the rename
  /// survives power loss.
  ///
  /// Each collection is saved as of one point in time (its Snapshot()
  /// handles); writers may run during the save. With a pool, documents are
  /// encoded in contiguous `_id`-ordered chunks across the workers and the
  /// files are written side by side. When files fail, the first failure
  /// in collection-name order is returned; the other files are still
  /// written.
  Status SaveToDirectory(const std::string& dir) const;

  /// Loads every `*.hbsnap` snapshot in `dir` as a collection, plus any
  /// legacy `*.jsonl` file whose name no snapshot already covers. A
  /// corrupted or truncated snapshot fails the load with a descriptive
  /// Status. Stale `*.tmp` files left by an interrupted save are logged
  /// (warning) and removed — never loaded.
  Status LoadFromDirectory(const std::string& dir);

  /// Deterministic dump of the whole database — collections in sorted
  /// name order, each as "== <name>\n" + its JSONL dump. Byte-identity of
  /// two CanonicalDump() strings is the save/load round-trip oracle.
  std::string CanonicalDump() const;

 private:
  ThreadPool* pool_;
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<Collection>> collections_;
};

}  // namespace hbold::store

#endif  // HBOLD_STORE_DATABASE_H_
