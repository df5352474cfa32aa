#ifndef HBOLD_RDF_GRAPH_H_
#define HBOLD_RDF_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rdf/dictionary.h"
#include "rdf/triple.h"

namespace hbold::rdf {

/// Cardinality statistics for one predicate, computed while the indexes are
/// (re)built. The executor's join planner uses these for selectivity
/// estimates (count / distinct_subjects is the average subject fan-out).
///
/// `exact` is false when the stats were produced by the sampled refresh (a
/// small incremental batch appended to a large index — see
/// SetStatsSamplingThreshold). Sampled stats are deterministic for a given
/// store content and good enough for join ordering, but CountDistinct must
/// not serve them as query answers and falls back to index walks instead.
struct PredicateStats {
  size_t triples = 0;
  size_t distinct_subjects = 0;
  size_t distinct_objects = 0;
  bool exact = true;
};

/// Position selector for CountDistinct.
enum class TriplePos { kS, kP, kO };

/// A contiguous slice of one internal sorted index — the store's only
/// triple-range read. Every triple in [begin, end) matches the pattern the
/// span was built for; there is no callback and no residual filter.
/// Iteration order is the owning index's sort order (see
/// TripleStore::Span). Invalidated by the next write + rebuild, like any
/// other read.
struct TripleSpan {
  const Triple* data = nullptr;
  size_t size = 0;

  const Triple* begin() const { return data; }
  const Triple* end() const { return data + size; }
  bool empty() const { return size == 0; }
};

/// Options for the out-of-core backend (see
/// TripleStore::EnableDiskBackend). `directory` holds the three run files
/// plus transient merge chunks; it is created if absent and treated as
/// scratch owned by this store (stale files from a previous incarnation are
/// overwritten). `memory_budget_bytes` bounds the triple buffers the
/// backend holds in RAM at any one time: the staging buffer spills to
/// sorted delta chunks past ~budget/4, and index rebuilds externally sort
/// in ~budget/2 fragments. The term dictionary always stays in RAM (it
/// scales with distinct terms, not triples).
struct DiskBackendOptions {
  std::string directory;
  size_t memory_budget_bytes = size_t{64} << 20;
};

/// An RDF graph: a term dictionary plus three sorted triple indexes
/// (SPO, POS, OSP). Every triple pattern, whatever its bound positions, is
/// answered by Span as one binary-searched contiguous slice of one index;
/// Count, Contains, CountDistinct and the Turtle/N-Triples writers all
/// read through it.
///
/// Writes append to a staging buffer; indexes are (re)built lazily on first
/// read after a write (sort + dedup), which makes bulk loading linearithmic
/// instead of per-insert logarithmic.
///
/// The three indexes live either in RAM (default) or, after
/// EnableDiskBackend(), as memory-mapped sorted run files on disk. Both
/// backends serve the same read primitives (Span/Count/CountDistinct/
/// GroupedCountByObject/...) over TripleSpan views, so callers cannot tell
/// them apart except by memory footprint.
///
/// Thread safety: writes (Add/AddIds) require external synchronization and
/// must not overlap reads. Concurrent *reads* are safe: the lazy rebuild is
/// guarded by double-checked locking (atomic dirty flag + mutex), so the
/// first reader after a write performs the rebuild while the others wait.
/// Endpoints that serve queries concurrently call FinalizeIndex() up front
/// so no query ever pays (or blocks on) the rebuild.
class TripleStore {
 public:
  TripleStore();
  ~TripleStore();

  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;
  TripleStore(TripleStore&& other) noexcept;
  TripleStore& operator=(TripleStore&& other) noexcept;

  /// Switches the index backend to dictionary-compressed sorted runs on
  /// disk, accessed via memory-mapped binary search. Existing content is
  /// converted in place (indexes written out as runs, the in-RAM vectors
  /// freed); later writes stage in RAM, spill to sorted delta chunks past
  /// the memory budget, and merge into fresh runs on the next rebuild.
  /// Call with the same write-side synchronization as Add. Fails if the
  /// backend is already enabled or the directory cannot be prepared; on
  /// failure the store stays fully in RAM and remains usable.
  Status EnableDiskBackend(const DiskBackendOptions& options);

  /// True when the indexes are disk-resident.
  bool on_disk() const { return disk_ != nullptr; }

  Dictionary& dict() { return dict_; }
  const Dictionary& dict() const { return dict_; }

  /// Adds a triple of terms (interning them). Duplicate triples are stored
  /// once.
  void Add(const Term& s, const Term& p, const Term& o);
  /// Adds a triple of already-interned ids.
  void AddIds(TermId s, TermId p, TermId o);

  /// Stages the retraction of a triple. Removing an absent triple is a
  /// no-op; terms stay interned (dictionary ids are stable for the life of
  /// the store). Within one staged batch a removal wins over an add of the
  /// same triple — the batch describes the *end state* of a day's churn,
  /// not an ordered log. Same write-side synchronization rules as Add.
  void Remove(const Term& s, const Term& p, const Term& o);
  /// Stages the retraction of a triple of already-interned ids.
  void RemoveIds(TermId s, TermId p, TermId o);

  /// Eagerly (re)builds the indexes if any writes are staged. Call once
  /// before serving concurrent readers so the mutable lazy rebuild cannot
  /// run inside a query.
  void FinalizeIndex() const { EnsureIndexed(); }

  /// Monotonic rebuild generation: incremented every time the indexes are
  /// (re)built from staged writes. Cached artifacts derived from the store
  /// (plan caches, statistics snapshots) key on this to invalidate after
  /// incremental loads. Triggers the rebuild itself if writes are staged,
  /// so the returned generation always describes the indexes a subsequent
  /// read would see.
  uint64_t generation() const {
    EnsureIndexed();
    return generation_.load(std::memory_order_acquire);
  }

  /// Number of distinct triples.
  size_t size() const;
  bool empty() const { return size() == 0; }

  /// True if the exact triple is present.
  bool Contains(const Term& s, const Term& p, const Term& o) const;

  /// The contiguous sorted index slice holding exactly the triples matching
  /// `pattern` (wildcard = kInvalidTermId), found in O(log n). Every
  /// bound-position combination maps to a prefix range of one index (the
  /// (s, o) shape routes through OSP, the fully bound shape through a
  /// binary search), so this never fails. Iteration order by bound
  /// combination:
  ///   (), (s), (s,p), (s,p,o)  -> SPO order
  ///   (p), (p,o)               -> POS order
  ///   (o), (s,o)               -> OSP order
  /// Every BGP step of the executor (a nested index loop) and the count
  /// pushdown iterate these spans directly.
  TripleSpan Span(const TriplePattern& pattern) const;

  /// Number of triples matching `pattern`: Span(pattern).size, O(log n).
  size_t Count(const TriplePattern& pattern) const;

  /// Number of distinct ids occupying `pos` among the triples matching
  /// `pattern`. Resolved with index arithmetic / boundary jumps where the
  /// chosen index sorts `pos` inside the matched range (the count-query
  /// family always lands there); falls back to a collect+sort over the
  /// range otherwise. Never materializes binding rows.
  size_t CountDistinct(const TriplePattern& pattern, TriplePos pos) const;

  /// Grouped-count primitive: for a fixed predicate, walks the POS
  /// sub-range boundaries and returns one (object, count) pair per distinct
  /// object, in ascending object-id order — per-class instance counts for
  /// `?s a ?c` in one pass, without materializing rows. Objects are found
  /// by binary-search boundary jumps, so the cost is O(groups * log n).
  std::vector<std::pair<TermId, size_t>> GroupedCountByObject(TermId p) const;

  /// Statistics for `p` (zeros when the predicate is absent). Valid after
  /// FinalizeIndex() or any read; refreshed on every index rebuild —
  /// incremental loads after FinalizeIndex() trigger a rebuild on the next
  /// read, so stats (and the join orders derived from them) never serve a
  /// stale snapshot. Large indexes absorbing a small batch refresh via
  /// deterministic sampling (PredicateStats::exact == false) instead of
  /// the full two-pass recompute.
  PredicateStats StatsForPredicate(TermId p) const;

  /// Minimum indexed size at which a small incremental batch (< 1/8 of the
  /// index) — or an initial bulk load at least this large — refreshes
  /// statistics by sampling instead of the exact two-pass recompute.
  /// Defaults to kDefaultStatsSamplingThreshold; tests lower it to exercise
  /// the sampled path on small stores. Call before serving readers (same
  /// write-side discipline as Add).
  void SetStatsSamplingThreshold(size_t min_indexed_size) {
    stats_sampling_threshold_ = min_indexed_size;
  }

  static constexpr size_t kDefaultStatsSamplingThreshold = size_t{1} << 18;

 private:
  enum class Order { kSpo, kPos, kOsp };
  struct DiskIndexes;  // defined in graph.cc (owns the mmapped runs)

  void EnsureIndexed() const;
  void RebuildLocked() const;
  /// Disk-backend rebuild: k-way merges the previous SPO run, spilled
  /// staging chunks, and the in-RAM staging tail (removals subtracted)
  /// into a fresh SPO run, then externally sorts it into POS/OSP runs.
  void RebuildDiskLocked() const;
  /// Spills the in-RAM staging buffer to a sorted delta chunk once it
  /// exceeds the backend's budget share (write side, like Add).
  void SpillStagedChunk();
  /// Exact per-predicate statistics: two linear passes (POS + SPO).
  void RefreshStatsExactLocked() const;
  /// Sampled refresh for incremental batches on large indexes: per
  /// predicate, exact triple counts from range arithmetic plus capped
  /// boundary-jump / stride-sample estimates for the distinct counts.
  /// Deterministic for a given store content.
  void RefreshStatsSampledLocked() const;
  /// The three indexes as views — in-RAM vectors or mmapped runs,
  /// depending on the backend. Callers must hold the indexed invariant
  /// (EnsureIndexed ran, or inside the rebuild after installation).
  TripleSpan SpoView() const;
  TripleSpan PosView() const;
  TripleSpan OspView() const;
  // Returns the [begin, end) range of `index` whose first `bound` key
  // components equal those of `key` under `order`.
  static std::pair<size_t, size_t> EqualRange(TripleSpan index, Order order,
                                              TermId k1, TermId k2);

  Dictionary dict_;
  mutable std::vector<Triple> spo_;
  mutable std::vector<Triple> pos_;
  mutable std::vector<Triple> osp_;
  mutable std::vector<Triple> staged_;
  mutable std::vector<Triple> staged_removals_;
  mutable std::unordered_map<TermId, PredicateStats> pred_stats_;
  mutable std::atomic<bool> dirty_{false};
  mutable std::atomic<uint64_t> generation_{0};
  size_t stats_sampling_threshold_ = kDefaultStatsSamplingThreshold;
  mutable std::mutex index_mu_;
  /// Non-null iff the disk backend is enabled. Mutated under the same
  /// rebuild discipline as the index vectors (write side or index_mu_).
  mutable std::unique_ptr<DiskIndexes> disk_;
};

}  // namespace hbold::rdf

#endif  // HBOLD_RDF_GRAPH_H_
