#ifndef HBOLD_RDF_RUN_FILE_H_
#define HBOLD_RDF_RUN_FILE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "rdf/graph.h"
#include "rdf/triple.h"

namespace hbold::rdf {

/// Sort order of an on-disk triple run — mirrors the three in-memory
/// indexes. The order permutes the triple into the (k1, k2, k3) tuple the
/// file is sorted by.
enum class RunOrder : uint32_t { kSpo = 0, kPos = 1, kOsp = 2 };

/// Comparator for `order` (lexicographic over the permuted tuple).
bool RunLess(RunOrder order, const Triple& a, const Triple& b);

/// A finalized sorted run: a 4 KiB header page followed by the triples as a
/// raw fixed-width array. The fixed width is what lets a memory-mapped run
/// back TripleSpan directly (zero-copy contiguous `const Triple*` ranges,
/// O(log n) binary search); the delta-varint compression lives in the chunk
/// tier (see WriteDeltaChunk) that feeds run merges.
class MappedTripleRun {
 public:
  MappedTripleRun() = default;
  ~MappedTripleRun();
  MappedTripleRun(const MappedTripleRun&) = delete;
  MappedTripleRun& operator=(const MappedTripleRun&) = delete;
  MappedTripleRun(MappedTripleRun&& other) noexcept;
  MappedTripleRun& operator=(MappedTripleRun&& other) noexcept;

  /// Maps `path` read-only. Validates magic, version, checksum, and that
  /// the file size matches the header's triple count exactly.
  Status Open(const std::string& path);

  /// Unmaps (does not delete the file).
  void Close();

  bool mapped() const { return data_ != nullptr || count_ == 0; }
  uint64_t count() const { return count_; }
  const std::string& path() const { return path_; }

  /// The whole run as a span (sorted by the run's order).
  TripleSpan view() const { return TripleSpan{data_, count_}; }

 private:
  void* map_ = nullptr;
  size_t map_len_ = 0;
  const Triple* data_ = nullptr;
  size_t count_ = 0;
  std::string path_;
};

/// Streams triples (already sorted by `order`) into a run file. Writes to
/// `<path>.tmp`, then Finish() fsyncs, renames into place, and fsyncs the
/// parent directory — a crashed build never leaves a readable half-run
/// under the final name.
class RunWriter {
 public:
  RunWriter() = default;
  ~RunWriter();
  RunWriter(const RunWriter&) = delete;
  RunWriter& operator=(const RunWriter&) = delete;

  Status Open(const std::string& path, RunOrder order);
  Status Append(const Triple& t);
  /// Finalizes the run; when `out` is non-null, opens the mapped result.
  Status Finish(MappedTripleRun* out = nullptr);
  /// Removes the temp file of an unfinished run (safe to call always).
  void Abort();

  uint64_t count() const { return count_; }

 private:
  Status FlushBuffer();

  int fd_ = -1;
  std::string path_;
  std::string tmp_;
  RunOrder order_ = RunOrder::kSpo;
  uint64_t count_ = 0;
  std::vector<Triple> buffer_;
};

/// Writes `data[0, n)` — sorted by `order`, duplicate-free — as a
/// delta-varint compressed chunk: the permuted (k1, k2, k3) tuples are
/// strictly increasing, so each triple stores only the components after the
/// first one that changed, as LEB128 deltas. Chunks are transient merge
/// inputs (staging spills, external-sort fragments), not durability
/// artifacts, so they are not fsynced.
Status WriteDeltaChunk(const std::string& path, RunOrder order,
                       const Triple* data, size_t n);

/// Streaming decoder for WriteDeltaChunk files.
class DeltaChunkReader {
 public:
  DeltaChunkReader() = default;
  ~DeltaChunkReader();
  DeltaChunkReader(const DeltaChunkReader&) = delete;
  DeltaChunkReader& operator=(const DeltaChunkReader&) = delete;

  Status Open(const std::string& path);
  /// Decodes the next triple; false at end-of-chunk or on error (check
  /// status()).
  bool Next(Triple* t);
  const Status& status() const { return status_; }
  uint64_t count() const { return count_; }
  RunOrder order() const { return order_; }

 private:
  bool ReadByte(uint8_t* b);
  bool ReadVarint(uint32_t* v);

  std::FILE* file_ = nullptr;
  Status status_;
  RunOrder order_ = RunOrder::kSpo;
  uint64_t count_ = 0;
  uint64_t produced_ = 0;
  uint32_t prev_[3] = {0, 0, 0};
  std::vector<uint8_t> buf_;
  size_t buf_pos_ = 0;
  size_t buf_len_ = 0;
};

/// Sorts `source` by `order` into the run file `out_path`, holding at most
/// ~`budget_bytes` of triples in memory at a time: budget-sized fragments
/// are sorted in RAM, spilled as delta chunks under `scratch_dir`, and
/// k-way merged into the run. `source` must be duplicate-free (the three
/// index orders permute the same triple set, so sorting preserves that).
Status ExternalSortToRun(TripleSpan source, RunOrder order,
                         size_t budget_bytes, const std::string& scratch_dir,
                         const std::string& out_path, MappedTripleRun* out);

}  // namespace hbold::rdf

#endif  // HBOLD_RDF_RUN_FILE_H_
