#include "store/database.h"

#include <filesystem>
#include <mutex>
#include <set>
#include <utility>

#include "common/io_util.h"
#include "common/logging.h"
#include "store/snapshot.h"

namespace hbold::store {

namespace fs = std::filesystem;

Collection* Database::GetCollection(const std::string& name) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = collections_.find(name);
    if (it != collections_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = collections_.find(name);  // re-check: lost the creation race?
  if (it == collections_.end()) {
    it = collections_.emplace(name, std::make_unique<Collection>(name)).first;
  }
  return it->second.get();
}

const Collection* Database::FindCollection(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::CollectionNames() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(collections_.size());
  for (const auto& [name, c] : collections_) out.push_back(name);
  return out;
}

bool Database::DropCollection(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return collections_.erase(name) > 0;
}

Status Database::SaveToDirectory(const std::string& dir) const {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory '" + dir +
                           "': " + ec.message());
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::string file;  // one buffer, reused across collections
  for (const auto& [name, collection] : collections_) {
    const std::string filename = EncodeSnapshotFilename(name) + ".hbsnap";
    BeginSnapshot(name, &file);
    collection->AppendJsonl(&file);
    FinishSnapshot(&file);
    // Durable atomic publish: content reaches stable storage before the
    // rename, and the rename itself is fsynced via the parent directory —
    // a crash at any point leaves the previous complete file or the new
    // one, never a truncated file under the final name.
    HBOLD_RETURN_NOT_OK(
        io::WriteFileDurable((fs::path(dir) / filename).string(), file));
  }
  return Status::OK();
}

Status Database::LoadFromDirectory(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("directory '" + dir + "' does not exist");
  }
  std::vector<fs::path> snapshots;
  std::vector<fs::path> legacy;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const fs::path& path = entry.path();
    if (path.extension() == ".tmp") {
      // Leftover from a save interrupted between write and rename. The
      // content under the final name is the last complete version; the
      // .tmp must never be loaded (it may be truncated) — drop it.
      HBOLD_LOG(kWarn) << "removing stale temp file from interrupted save: "
                       << path.string();
      std::error_code rm_ec;
      fs::remove(path, rm_ec);
      continue;
    }
    if (path.extension() == ".hbsnap") {
      snapshots.push_back(path);
    } else if (path.extension() == ".jsonl") {
      legacy.push_back(path);
    }
  }
  if (ec) return Status::IOError("directory scan failed: " + ec.message());

  std::set<std::string> loaded_names;
  for (const fs::path& path : snapshots) {
    auto data = io::ReadFile(path.string());
    HBOLD_RETURN_NOT_OK(data.status());
    std::string_view name;
    std::string_view payload;
    Status st = DecodeSnapshot(*data, &name, &payload);
    if (!st.ok()) {
      return Status(st.code(),
                    "snapshot '" + path.string() + "': " + st.message());
    }
    HBOLD_RETURN_NOT_OK(GetCollection(std::string(name))->LoadJsonl(payload));
    loaded_names.emplace(name);
  }
  // Legacy JSONL files migrate transparently: loaded when no snapshot
  // already covers the same collection name (the next binary save then
  // supersedes them).
  for (const fs::path& path : legacy) {
    std::string name = path.stem().string();
    if (loaded_names.count(name) > 0) continue;
    auto data = io::ReadFile(path.string());
    HBOLD_RETURN_NOT_OK(data.status());
    HBOLD_RETURN_NOT_OK(GetCollection(name)->LoadJsonl(*data));
  }
  return Status::OK();
}

std::string Database::CanonicalDump() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::string out;
  for (const auto& [name, collection] : collections_) {
    out += "== " + name + "\n";
    collection->AppendJsonl(&out);
  }
  return out;
}

}  // namespace hbold::store
