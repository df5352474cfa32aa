#include "store/database.h"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <set>
#include <string_view>
#include <utility>

#include "common/io_util.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "store/snapshot.h"

namespace hbold::store {

namespace fs = std::filesystem;

namespace {

/// Chunks per pool worker in a pooled save.
constexpr size_t kChunksPerWorker = 4;

/// One collection's file in a save: the documents as of the save, their
/// encoded chunks, and the outcome of the durable write.
struct SnapshotFile {
  std::string name;
  std::vector<DocHandle> docs;
  std::vector<std::string> chunks;
  Status written;
};

}  // namespace

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
  // Each collection's handles are taken under its shared lock; the
  // documents are immutable, so everything below runs without locks.
  std::vector<SnapshotFile> files;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    files.reserve(collections_.size());
    for (const auto& [name, collection] : collections_) {
      files.push_back(SnapshotFile{name, collection->Snapshot(), {}, {}});
    }
  }
  // Contiguous `_id`-ordered chunks of at most `per_chunk` documents, so
  // uneven documents still spread over the workers. The boundaries depend
  // on the pool size; the bytes written do not.
  size_t total_docs = 0;
  for (const SnapshotFile& file : files) total_docs += file.docs.size();
  const size_t workers = pool_ != nullptr ? pool_->size() : 1;
  const size_t target_chunks = workers > 1 ? workers * kChunksPerWorker : 1;
  const size_t per_chunk =
      std::max<size_t>(1, (total_docs + target_chunks - 1) / target_chunks);
  std::vector<std::pair<size_t, size_t>> chunks;  // (file, chunk)
  for (size_t f = 0; f < files.size(); ++f) {
    files[f].chunks.resize((files[f].docs.size() + per_chunk - 1) /
                           per_chunk);
    for (size_t c = 0; c < files[f].chunks.size(); ++c) {
      chunks.emplace_back(f, c);
    }
  }
  ThreadPool::ParallelFor(pool_, chunks.size(), [&](size_t k) {
    const auto [f, c] = chunks[k];
    const std::vector<DocHandle>& docs = files[f].docs;
    std::string& out = files[f].chunks[c];
    const size_t end = std::min(docs.size(), (c + 1) * per_chunk);
    for (size_t i = c * per_chunk; i < end; ++i) {
      docs[i]->DumpTo(&out);
      out.push_back('\n');
    }
  });
  // Durable atomic publish, one file per iteration: content reaches stable
  // storage before the rename, and the rename itself is fsynced via the
  // parent directory — a crash at any point leaves the previous complete
  // file or the new one, never a truncated file under the final name.
  ThreadPool::ParallelFor(pool_, files.size(), [&](size_t f) {
    SnapshotFile& file = files[f];
    std::vector<std::string_view> pieces(file.chunks.begin(),
                                         file.chunks.end());
    const std::string head = SnapshotHead(file.name, pieces);
    pieces.insert(pieces.begin(), head);
    file.written = io::WriteFileDurable(
        (fs::path(dir) / (EncodeSnapshotFilename(file.name) + ".hbsnap"))
            .string(),
        pieces);
  });
  for (const SnapshotFile& file : files) {
    HBOLD_RETURN_NOT_OK(file.written);
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
