#include "rdf/graph.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <memory>
#include <queue>

#include "common/logging.h"
#include "rdf/run_file.h"

namespace hbold::rdf {

namespace {

namespace fs = std::filesystem;

// Key extractors per index order.
inline std::tuple<TermId, TermId, TermId> KeySpo(const Triple& t) {
  return {t.s, t.p, t.o};
}
inline std::tuple<TermId, TermId, TermId> KeyPos(const Triple& t) {
  return {t.p, t.o, t.s};
}
inline std::tuple<TermId, TermId, TermId> KeyOsp(const Triple& t) {
  return {t.o, t.s, t.p};
}

template <typename KeyFn>
void SortIndex(std::vector<Triple>* index, KeyFn key) {
  std::sort(index->begin(), index->end(),
            [&](const Triple& a, const Triple& b) { return key(a) < key(b); });
}

/// Counts the distinct values of `key` within index[b, e). Valid only when
/// `key` is non-decreasing over the range (it is the next sort component
/// after the bound prefix); finds each group's end with a binary-search
/// jump, so runs in O(groups * log(range)).
template <typename KeyFn>
size_t CountGroups(TripleSpan index, size_t b, size_t e, KeyFn key) {
  size_t groups = 0;
  size_t i = b;
  while (i < e) {
    ++groups;
    TermId k = key(index.data[i]);
    i = static_cast<size_t>(
        std::upper_bound(index.begin() + i, index.begin() + e, k,
                         [&](TermId v, const Triple& t) { return v < key(t); }) -
        index.begin());
  }
  return groups;
}

/// Ascending-SPO triple streams feeding the disk rebuild merge.
class SpoSource {
 public:
  virtual ~SpoSource() = default;
  virtual bool Next(Triple* t) = 0;
};

class SpanSource : public SpoSource {
 public:
  explicit SpanSource(TripleSpan span) : it_(span.begin()), end_(span.end()) {}
  bool Next(Triple* t) override {
    if (it_ == end_) return false;
    *t = *it_++;
    return true;
  }

 private:
  const Triple* it_;
  const Triple* end_;
};

class ChunkSource : public SpoSource {
 public:
  Status Open(const std::string& path) { return reader_.Open(path); }
  bool Next(Triple* t) override { return reader_.Next(t); }
  const Status& status() const { return reader_.status(); }

 private:
  DeltaChunkReader reader_;
};

/// How many staged triples the disk backend holds in RAM before spilling
/// them to a sorted delta chunk.
size_t StagingCapacity(const DiskBackendOptions& options) {
  return std::max<size_t>(4096,
                          options.memory_budget_bytes / sizeof(Triple) / 4);
}

}  // namespace

/// The disk-resident incarnation of the three indexes: one mmapped sorted
/// run per order plus the spilled staging chunks awaiting the next rebuild.
struct TripleStore::DiskIndexes {
  DiskBackendOptions options;
  uint64_t serial = 0;        // names each rebuild's run files
  uint64_t chunk_serial = 0;  // names staging spill chunks
  MappedTripleRun spo;
  MappedTripleRun pos;
  MappedTripleRun osp;
  std::vector<std::string> chunks;  // spilled staged adds (SPO delta chunks)
  size_t spilled = 0;               // triples across `chunks`

  std::string RunPath(const char* order) const {
    return options.directory + "/" + order + "-" + std::to_string(serial) +
           ".run";
  }
};

TripleStore::TripleStore() = default;
TripleStore::~TripleStore() = default;

TripleStore::TripleStore(TripleStore&& other) noexcept
    : dict_(std::move(other.dict_)),
      spo_(std::move(other.spo_)),
      pos_(std::move(other.pos_)),
      osp_(std::move(other.osp_)),
      staged_(std::move(other.staged_)),
      staged_removals_(std::move(other.staged_removals_)),
      pred_stats_(std::move(other.pred_stats_)),
      dirty_(other.dirty_.load(std::memory_order_relaxed)),
      generation_(other.generation_.load(std::memory_order_relaxed)),
      stats_sampling_threshold_(other.stats_sampling_threshold_),
      disk_(std::move(other.disk_)) {}

TripleStore& TripleStore::operator=(TripleStore&& other) noexcept {
  if (this != &other) {
    dict_ = std::move(other.dict_);
    spo_ = std::move(other.spo_);
    pos_ = std::move(other.pos_);
    osp_ = std::move(other.osp_);
    staged_ = std::move(other.staged_);
    staged_removals_ = std::move(other.staged_removals_);
    pred_stats_ = std::move(other.pred_stats_);
    dirty_.store(other.dirty_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    generation_.store(other.generation_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    stats_sampling_threshold_ = other.stats_sampling_threshold_;
    disk_ = std::move(other.disk_);
  }
  return *this;
}

TripleSpan TripleStore::SpoView() const {
  return disk_ != nullptr ? disk_->spo.view()
                          : TripleSpan{spo_.data(), spo_.size()};
}

TripleSpan TripleStore::PosView() const {
  return disk_ != nullptr ? disk_->pos.view()
                          : TripleSpan{pos_.data(), pos_.size()};
}

TripleSpan TripleStore::OspView() const {
  return disk_ != nullptr ? disk_->osp.view()
                          : TripleSpan{osp_.data(), osp_.size()};
}

void TripleStore::Add(const Term& s, const Term& p, const Term& o) {
  AddIds(dict_.Intern(s), dict_.Intern(p), dict_.Intern(o));
}

void TripleStore::AddIds(TermId s, TermId p, TermId o) {
  staged_.push_back(Triple{s, p, o});
  dirty_.store(true, std::memory_order_release);
  if (disk_ != nullptr && staged_.size() >= StagingCapacity(disk_->options)) {
    SpillStagedChunk();
  }
}

void TripleStore::Remove(const Term& s, const Term& p, const Term& o) {
  // Intern (not Lookup): removing a never-seen triple must still be a
  // deterministic no-op, and interning keeps id assignment a pure function
  // of the term-arrival sequence regardless of whether the triple existed.
  RemoveIds(dict_.Intern(s), dict_.Intern(p), dict_.Intern(o));
}

void TripleStore::RemoveIds(TermId s, TermId p, TermId o) {
  staged_removals_.push_back(Triple{s, p, o});
  dirty_.store(true, std::memory_order_release);
}

void TripleStore::SpillStagedChunk() {
  DiskIndexes& d = *disk_;
  SortIndex(&staged_, KeySpo);
  staged_.erase(std::unique(staged_.begin(), staged_.end()), staged_.end());
  std::string path = d.options.directory + "/chunk-" +
                     std::to_string(d.chunk_serial++) + ".spill";
  Status st =
      WriteDeltaChunk(path, RunOrder::kSpo, staged_.data(), staged_.size());
  if (!st.ok()) {
    // Degrade to keeping the batch in RAM; the rebuild still sees it.
    HBOLD_LOG(kError) << "staging spill failed, keeping batch in RAM: "
                      << st.message();
    return;
  }
  d.chunks.push_back(std::move(path));
  d.spilled += staged_.size();
  staged_.clear();
}

Status TripleStore::EnableDiskBackend(const DiskBackendOptions& options) {
  if (disk_ != nullptr) {
    return Status::InvalidArgument("disk backend already enabled");
  }
  if (options.directory.empty()) {
    return Status::InvalidArgument("disk backend needs a directory");
  }
  std::error_code ec;
  fs::create_directories(options.directory, ec);
  if (ec) {
    return Status::IOError("cannot create '" + options.directory +
                           "': " + ec.message());
  }
  // Convert whatever is already here: build the in-RAM indexes one last
  // time, write them out as runs, then drop the vectors.
  EnsureIndexed();
  auto d = std::make_unique<DiskIndexes>();
  d->options = options;
  d->serial = 1;
  struct OrderSpec {
    const char* name;
    RunOrder order;
    const std::vector<Triple>* source;
    MappedTripleRun* target;
  };
  const OrderSpec specs[] = {
      {"spo", RunOrder::kSpo, &spo_, &d->spo},
      {"pos", RunOrder::kPos, &pos_, &d->pos},
      {"osp", RunOrder::kOsp, &osp_, &d->osp},
  };
  for (const OrderSpec& spec : specs) {
    RunWriter writer;
    Status st = writer.Open(d->RunPath(spec.name), spec.order);
    for (const Triple& t : *spec.source) {
      if (!st.ok()) break;
      st = writer.Append(t);
    }
    if (st.ok()) st = writer.Finish(spec.target);
    if (!st.ok()) return st;  // store stays fully in RAM
  }
  disk_ = std::move(d);
  std::vector<Triple>().swap(spo_);
  std::vector<Triple>().swap(pos_);
  std::vector<Triple>().swap(osp_);
  // Span pointers moved from the vectors to the mappings: bump the
  // generation so anything keyed on it (plan caches, layout snapshots)
  // drops the dangling views.
  generation_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

void TripleStore::EnsureIndexed() const {
  // Double-checked locking: readers that observe !dirty_ (acquire) see the
  // fully built indexes (released by the builder); the first reader after a
  // write rebuilds under the mutex while concurrent readers wait.
  if (!dirty_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(index_mu_);
  if (!dirty_.load(std::memory_order_relaxed)) return;
  RebuildLocked();
  dirty_.store(false, std::memory_order_release);
}

void TripleStore::RebuildLocked() const {
  const size_t indexed_before =
      disk_ != nullptr ? disk_->spo.count() : spo_.size();
  const size_t batch = staged_.size() + staged_removals_.size() +
                       (disk_ != nullptr ? disk_->spilled : 0);
  if (disk_ != nullptr) {
    RebuildDiskLocked();
  } else {
    spo_.insert(spo_.end(), staged_.begin(), staged_.end());
    staged_.clear();
    SortIndex(&spo_, KeySpo);
    spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
    if (!staged_removals_.empty()) {
      // Removals win over same-batch adds: the batch describes the end state
      // of a churn step, so subtract the removal set after the merge.
      SortIndex(&staged_removals_, KeySpo);
      staged_removals_.erase(
          std::unique(staged_removals_.begin(), staged_removals_.end()),
          staged_removals_.end());
      std::vector<Triple> kept;
      kept.reserve(spo_.size());
      std::set_difference(spo_.begin(), spo_.end(), staged_removals_.begin(),
                          staged_removals_.end(), std::back_inserter(kept));
      spo_ = std::move(kept);
      staged_removals_.clear();
    }
    pos_ = spo_;
    SortIndex(&pos_, KeyPos);
    osp_ = spo_;
    SortIndex(&osp_, KeyOsp);
  }

  // Statistics refresh policy: a small incremental batch (adds + removals)
  // against an already-large index refreshes by deterministic sampling
  // (O(P * log n)) instead of the exact two-pass recompute (O(n)), and so
  // does an initial bulk load at least threshold-sized (the per-predicate
  // figures only steer join orders there, and the sampled refresh is a
  // pure function of the sorted content, so determinism holds). Small
  // stores recompute exactly. Either way the stats are *refreshed*:
  // incremental loads never leave a frozen snapshot driving join orders.
  const bool small_batch_on_large_index =
      indexed_before >= stats_sampling_threshold_ &&
      batch * 8 <= indexed_before;
  const bool bulk_load =
      indexed_before == 0 && batch >= stats_sampling_threshold_;
  const bool sampled = small_batch_on_large_index || bulk_load;
  if (sampled) {
    RefreshStatsSampledLocked();
  } else {
    RefreshStatsExactLocked();
  }
  generation_.fetch_add(1, std::memory_order_release);
}

void TripleStore::RebuildDiskLocked() const {
  DiskIndexes& d = *disk_;
  SortIndex(&staged_, KeySpo);
  staged_.erase(std::unique(staged_.begin(), staged_.end()), staged_.end());
  SortIndex(&staged_removals_, KeySpo);
  staged_removals_.erase(
      std::unique(staged_removals_.begin(), staged_removals_.end()),
      staged_removals_.end());

  const std::string old_spo = d.spo.path();
  const std::string old_pos = d.pos.path();
  const std::string old_osp = d.osp.path();
  ++d.serial;

  // Merge sources, all ascending SPO: the previous run, every spilled
  // chunk, and the staging tail. Dedup on emit; a triple in the removal
  // set is dropped (removals win over same-batch adds, as in RAM).
  std::vector<std::unique_ptr<SpoSource>> sources;
  sources.push_back(std::make_unique<SpanSource>(d.spo.view()));
  Status st = Status::OK();
  std::vector<ChunkSource*> chunk_sources;
  for (const std::string& path : d.chunks) {
    auto chunk = std::make_unique<ChunkSource>();
    st = chunk->Open(path);
    if (!st.ok()) break;
    chunk_sources.push_back(chunk.get());
    sources.push_back(std::move(chunk));
  }
  sources.push_back(
      std::make_unique<SpanSource>(TripleSpan{staged_.data(), staged_.size()}));

  MappedTripleRun new_spo;
  if (st.ok()) {
    RunWriter writer;
    st = writer.Open(d.RunPath("spo"), RunOrder::kSpo);
    if (st.ok()) {
      struct HeapItem {
        Triple t;
        size_t src;
      };
      auto heap_after = [](const HeapItem& a, const HeapItem& b) {
        if (a.t < b.t) return false;
        if (b.t < a.t) return true;
        return a.src > b.src;
      };
      std::priority_queue<HeapItem, std::vector<HeapItem>,
                          decltype(heap_after)>
          heap(heap_after);
      for (size_t i = 0; i < sources.size(); ++i) {
        Triple t;
        if (sources[i]->Next(&t)) heap.push(HeapItem{t, i});
      }
      bool have_last = false;
      Triple last;
      while (!heap.empty() && st.ok()) {
        HeapItem item = heap.top();
        heap.pop();
        const bool duplicate = have_last && item.t == last;
        have_last = true;
        last = item.t;
        if (!duplicate &&
            !std::binary_search(staged_removals_.begin(),
                                staged_removals_.end(), item.t)) {
          st = writer.Append(item.t);
        }
        Triple t;
        if (sources[item.src]->Next(&t)) heap.push(HeapItem{t, item.src});
      }
      for (ChunkSource* chunk : chunk_sources) {
        if (st.ok() && !chunk->status().ok()) st = chunk->status();
      }
      if (st.ok()) st = writer.Finish(&new_spo);
    }
  }
  sources.clear();

  MappedTripleRun new_pos;
  MappedTripleRun new_osp;
  if (st.ok()) {
    st = ExternalSortToRun(new_spo.view(), RunOrder::kPos,
                           d.options.memory_budget_bytes, d.options.directory,
                           d.RunPath("pos"), &new_pos);
  }
  if (st.ok()) {
    st = ExternalSortToRun(new_spo.view(), RunOrder::kOsp,
                           d.options.memory_budget_bytes, d.options.directory,
                           d.RunPath("osp"), &new_osp);
  }
  if (!st.ok()) {
    // Leave the previous generation of runs (and the staged batch) in
    // place: reads keep serving the last successfully built indexes.
    HBOLD_LOG(kError) << "disk index rebuild failed: " << st.message();
    --d.serial;
    std::error_code ec;
    fs::remove(d.RunPath("spo"), ec);
    return;
  }

  d.spo = std::move(new_spo);
  d.pos = std::move(new_pos);
  d.osp = std::move(new_osp);
  std::error_code ec;
  if (!old_spo.empty()) fs::remove(old_spo, ec);
  if (!old_pos.empty()) fs::remove(old_pos, ec);
  if (!old_osp.empty()) fs::remove(old_osp, ec);
  for (const std::string& path : d.chunks) fs::remove(path, ec);
  d.chunks.clear();
  d.spilled = 0;
  std::vector<Triple>().swap(staged_);
  std::vector<Triple>().swap(staged_removals_);
}

void TripleStore::RefreshStatsExactLocked() const {
  // Per-predicate cardinality statistics in two linear passes: POS yields
  // triple counts and (p, o) boundaries, SPO yields (s, p) boundaries.
  pred_stats_.clear();
  const TripleSpan pos = PosView();
  for (size_t i = 0; i < pos.size; ++i) {
    PredicateStats& st = pred_stats_[pos.data[i].p];
    ++st.triples;
    if (i == 0 || pos.data[i - 1].p != pos.data[i].p ||
        pos.data[i - 1].o != pos.data[i].o) {
      ++st.distinct_objects;
    }
  }
  const TripleSpan spo = SpoView();
  for (size_t i = 0; i < spo.size; ++i) {
    if (i == 0 || spo.data[i - 1].s != spo.data[i].s ||
        spo.data[i - 1].p != spo.data[i].p) {
      ++pred_stats_[spo.data[i].p].distinct_subjects;
    }
  }
}

void TripleStore::RefreshStatsSampledLocked() const {
  // Caps chosen so a refresh costs O(P * kCap * log n) regardless of index
  // size. Everything here is a pure function of the sorted index content,
  // so two stores with identical triples produce identical (sampled)
  // stats — the planner property the deterministic-accounting contracts
  // rely on.
  constexpr size_t kJumpCap = 64;    // max o-group boundary jumps
  constexpr size_t kSampleCap = 64;  // stride samples for subject counts
  pred_stats_.clear();
  const TripleSpan pos = PosView();
  size_t i = 0;
  while (i < pos.size) {
    const TermId p = pos.data[i].p;
    const size_t begin = i;
    i = static_cast<size_t>(
        std::upper_bound(pos.begin() + i, pos.end(), p,
                         [](TermId v, const Triple& t) { return v < t.p; }) -
        pos.begin());
    const size_t end = i;
    const size_t range = end - begin;
    PredicateStats st;
    st.triples = range;  // exact: the range itself
    bool objects_exact = true;
    bool subjects_exact = true;

    // distinct_objects: boundary jumps over the (p)-range's o groups,
    // capped; exact when the predicate has few object classes (the common
    // rdf:type case), extrapolated from covered prefix fraction otherwise.
    size_t groups = 0;
    size_t j = begin;
    while (j < end && groups < kJumpCap) {
      ++groups;
      const TermId o = pos.data[j].o;
      j = static_cast<size_t>(
          std::upper_bound(pos.begin() + j, pos.begin() + end, o,
                           [](TermId v, const Triple& t) { return v < t.o; }) -
          pos.begin());
    }
    if (j >= end) {
      st.distinct_objects = groups;  // walked every boundary: exact figure
    } else {
      const size_t covered = j - begin;
      st.distinct_objects = std::min(
          range, std::max<size_t>(groups, groups * range / covered));
      objects_exact = false;
    }

    // distinct_subjects: subjects are not sorted within a POS range, so
    // stride-sample positions and scale the deduped sample count by the
    // sampling fraction (clamped to [1, range]).
    if (range <= kSampleCap) {
      std::vector<TermId> subjects;
      subjects.reserve(range);
      for (size_t k = begin; k < end; ++k) subjects.push_back(pos.data[k].s);
      std::sort(subjects.begin(), subjects.end());
      subjects.erase(std::unique(subjects.begin(), subjects.end()),
                     subjects.end());
      st.distinct_subjects = subjects.size();
    } else {
      std::vector<TermId> sample;
      sample.reserve(kSampleCap);
      const size_t stride = range / kSampleCap;
      for (size_t k = 0; k < kSampleCap; ++k) {
        sample.push_back(pos.data[begin + k * stride].s);
      }
      std::sort(sample.begin(), sample.end());
      sample.erase(std::unique(sample.begin(), sample.end()), sample.end());
      st.distinct_subjects =
          std::min(range, std::max<size_t>(1, sample.size() * stride));
      subjects_exact = false;
    }
    st.exact = objects_exact && subjects_exact;
    pred_stats_[p] = st;
  }
}

size_t TripleStore::size() const {
  EnsureIndexed();
  return disk_ != nullptr ? disk_->spo.count() : spo_.size();
}

bool TripleStore::Contains(const Term& s, const Term& p, const Term& o) const {
  TriplePattern t{dict_.Lookup(s), dict_.Lookup(p), dict_.Lookup(o)};
  if (t.s == kInvalidTermId || t.p == kInvalidTermId || t.o == kInvalidTermId) {
    return false;
  }
  return !Span(t).empty();
}

std::pair<size_t, size_t> TripleStore::EqualRange(TripleSpan index,
                                                  Order order, TermId k1,
                                                  TermId k2) {
  // Comparators considering only the bound prefix of the key.
  auto key = [order](const Triple& t) -> std::pair<TermId, TermId> {
    switch (order) {
      case Order::kSpo:
        return {t.s, t.p};
      case Order::kPos:
        return {t.p, t.o};
      case Order::kOsp:
        return {t.o, t.s};
    }
    return {0, 0};
  };
  std::pair<TermId, TermId> lo{k1, k2 == kInvalidTermId ? 0 : k2};
  auto begin = std::lower_bound(
      index.begin(), index.end(), lo,
      [&](const Triple& t, const std::pair<TermId, TermId>& v) {
        auto k = key(t);
        if (k.first != v.first) return k.first < v.first;
        if (v.second == 0) return false;  // only first component bound
        return k.second < v.second;
      });
  // Upper bound: increment the most specific bound component.
  std::pair<TermId, TermId> hi = lo;
  if (k2 == kInvalidTermId) {
    hi.first += 1;
    hi.second = 0;
  } else {
    hi.second += 1;
  }
  auto end = std::lower_bound(
      begin, index.end(), hi,
      [&](const Triple& t, const std::pair<TermId, TermId>& v) {
        auto k = key(t);
        if (k.first != v.first) return k.first < v.first;
        if (v.second == 0) return false;
        return k.second < v.second;
      });
  return {static_cast<size_t>(begin - index.begin()),
          static_cast<size_t>(end - index.begin())};
}

TripleSpan TripleStore::Span(const TriplePattern& pattern) const {
  EnsureIndexed();
  const bool bs = pattern.s != kInvalidTermId;
  const bool bp = pattern.p != kInvalidTermId;
  const bool bo = pattern.o != kInvalidTermId;
  // Every bound combination routes to the index whose prefix range is
  // exactly the match set: (s, o) through OSP, (s, p, o) through a binary
  // search, so no shape needs a residual filter.
  if (bs && bp && bo) {
    Triple t{pattern.s, pattern.p, pattern.o};
    const TripleSpan spo = SpoView();
    auto it = std::lower_bound(spo.begin(), spo.end(), t);
    const bool hit = it != spo.end() && *it == t;
    return TripleSpan{it, hit ? 1u : 0u};
  }
  TripleSpan index = SpoView();
  Order order = Order::kSpo;
  TermId k1 = kInvalidTermId;
  TermId k2 = kInvalidTermId;
  if (bs && bp) {
    k1 = pattern.s;
    k2 = pattern.p;
  } else if (bs && bo) {
    index = OspView();
    order = Order::kOsp;
    k1 = pattern.o;
    k2 = pattern.s;
  } else if (bs) {
    k1 = pattern.s;
  } else if (bp) {
    index = PosView();
    order = Order::kPos;
    k1 = pattern.p;
    k2 = bo ? pattern.o : kInvalidTermId;
  } else if (bo) {
    index = OspView();
    order = Order::kOsp;
    k1 = pattern.o;
  } else {
    return index;
  }
  auto [b, e] = EqualRange(index, order, k1, k2);
  return TripleSpan{index.data + b, e - b};
}

size_t TripleStore::Count(const TriplePattern& pattern) const {
  return Span(pattern).size;
}

size_t TripleStore::CountDistinct(const TriplePattern& pattern,
                                  TriplePos pos) const {
  EnsureIndexed();
  const bool bs = pattern.s != kInvalidTermId;
  const bool bp = pattern.p != kInvalidTermId;
  const bool bo = pattern.o != kInvalidTermId;

  // A bound position has one value among the matches (if any).
  if ((pos == TriplePos::kS && bs) || (pos == TriplePos::kP && bp) ||
      (pos == TriplePos::kO && bo)) {
    return Count(pattern) > 0 ? 1 : 0;
  }

  switch (pos) {
    case TriplePos::kS:
      if (bp && bo) {
        // POS(p, o): s is the remaining sort key, distinct per triple.
        return Count(pattern);
      }
      if (bp && !bo) {
        auto it = pred_stats_.find(pattern.p);
        if (it == pred_stats_.end()) return 0;
        // The documented PredicateStats contract: sampled figures are
        // planner estimates, never query answers. Serve the cached count
        // only when the whole stats entry is exact; any inexact entry
        // (including one whose *other* figure was the sampled one) takes
        // the exact collect+sort fallback below.
        if (it->second.exact) return it->second.distinct_subjects;
        break;
      }
      if (!bp && bo) {
        // OSP(o): s is the next sort component.
        auto [b, e] =
            EqualRange(OspView(), Order::kOsp, pattern.o, kInvalidTermId);
        return CountGroups(OspView(), b, e,
                           [](const Triple& t) { return t.s; });
      }
      return CountGroups(SpoView(), 0, SpoView().size,
                         [](const Triple& t) { return t.s; });
    case TriplePos::kP:
      if (bs && bo) {
        // OSP(o, s): p is the remaining sort key, distinct per triple.
        return Count(pattern);
      }
      if (bs && !bo) {
        auto [b, e] =
            EqualRange(SpoView(), Order::kSpo, pattern.s, kInvalidTermId);
        return CountGroups(SpoView(), b, e,
                           [](const Triple& t) { return t.p; });
      }
      if (!bs && !bo) {
        return CountGroups(PosView(), 0, PosView().size,
                           [](const Triple& t) { return t.p; });
      }
      break;  // (o) bound only: p not sorted in OSP(o) — fall through
    case TriplePos::kO:
      if (bs && bp) {
        // SPO(s, p): o is the remaining sort key, distinct per triple.
        return Count(pattern);
      }
      if (!bs && bp) {
        auto it = pred_stats_.find(pattern.p);
        if (it == pred_stats_.end()) return 0;
        if (it->second.exact) return it->second.distinct_objects;
        // Inexact (sampled) stats must not be served: o is the next sort
        // component of the POS range, so the boundary-jump count stays
        // exact and cheap.
        auto [b, e] =
            EqualRange(PosView(), Order::kPos, pattern.p, kInvalidTermId);
        return CountGroups(PosView(), b, e,
                           [](const Triple& t) { return t.o; });
      }
      if (bs && !bp) {
        break;  // o not sorted within SPO(s) — fall through
      }
      return CountGroups(OspView(), 0, OspView().size,
                         [](const Triple& t) { return t.o; });
  }

  // Fallback: collect the position's ids over the matched range. Still no
  // binding-row materialization, just a flat id vector.
  std::vector<TermId> ids;
  for (const Triple& t : Span(pattern)) {
    ids.push_back(pos == TriplePos::kS ? t.s
                                       : (pos == TriplePos::kP ? t.p : t.o));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids.size();
}

std::vector<std::pair<TermId, size_t>> TripleStore::GroupedCountByObject(
    TermId p) const {
  EnsureIndexed();
  std::vector<std::pair<TermId, size_t>> out;
  const TripleSpan pos = PosView();
  auto [b, e] = EqualRange(pos, Order::kPos, p, kInvalidTermId);
  size_t i = b;
  while (i < e) {
    TermId o = pos.data[i].o;
    size_t next = static_cast<size_t>(
        std::upper_bound(pos.begin() + i, pos.begin() + e, o,
                         [](TermId v, const Triple& t) { return v < t.o; }) -
        pos.begin());
    out.emplace_back(o, next - i);
    i = next;
  }
  return out;
}

PredicateStats TripleStore::StatsForPredicate(TermId p) const {
  EnsureIndexed();
  auto it = pred_stats_.find(p);
  return it == pred_stats_.end() ? PredicateStats{} : it->second;
}

}  // namespace hbold::rdf
