#ifndef HBOLD_SPARQL_PLANNER_H_
#define HBOLD_SPARQL_PLANNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rdf/graph.h"
#include "sparql/ast.h"

namespace hbold::sparql {

/// How the cost-based planner may use the hash-join operator.
enum class HashJoinMode {
  kOff,   // always nested index-loop
  kCost,  // per-step cost model picks hash build vs index walk
  kForce, // hash-join every eligible step (sanitizer / differential runs)
};

/// Execution tuning knobs (exposed for the ablation benchmarks and the
/// differential test suite; defaults match production behaviour).
struct ExecOptions {
  /// Reorder triple patterns by estimated cardinality (per-predicate
  /// statistics + index range counts) before evaluation. Off = evaluate in
  /// the order the query wrote them.
  bool greedy_join_order = true;
  /// Answer COUNT / COUNT(DISTINCT) / grouped-count queries over a plain
  /// BGP by walking TripleStore spans in the planned order and counting,
  /// instead of materializing binding rows. Off = the materializing
  /// reference the differential suites compare against.
  bool aggregate_pushdown = true;
  /// Apply a FILTER as soon as every variable it mentions is bound inside
  /// the BGP join loop, instead of only after the whole group is joined.
  bool filter_pushdown = true;
  /// Stop the join loop once OFFSET+LIMIT rows exist, when no later
  /// modifier (ORDER BY / DISTINCT / aggregation) could change the slice.
  /// ASK queries stop at the first solution under the same flag.
  bool limit_pushdown = true;
  /// Physical join operator policy. The hash join builds on the pattern
  /// side (the constant span sorted by join key, then by the probe
  /// index's iteration order) and probes it with the binding rows by
  /// binary search, so its output is bit-identical — rows, order, and
  /// charged intermediate_bindings — to the nested index-loop it replaces. HBOLD_FORCE_HASH_JOIN=1 in the
  /// environment makes every Executor use kForce (other values: no
  /// effect).
  HashJoinMode hash_join = HashJoinMode::kCost;
  /// When a hash-join build side exceeds this many bytes of triples, the
  /// build is externally sorted into a temporary on-disk run (by the same
  /// (join key, probe order) comparator the in-memory build sorts by) and
  /// probed by the same binary search over the memory mapping instead of
  /// an in-RAM vector. Output stays bit-identical; only the memory
  /// footprint changes.
  /// 0 disables spilling. The HBOLD_HASH_SPILL_BUDGET environment
  /// variable (an unsigned decimal byte count; any other value is logged
  /// and ignored) replaces the *default* only — an explicitly configured
  /// budget wins over the env, so differential tests pinning spill
  /// behavior stay pinned under the CI-wide override.
  size_t hash_join_spill_budget_bytes = size_t{256} << 20;
};

/// Physical operator for one join step.
enum class JoinOp : uint8_t {
  kNestedIndexLoop = 0,
  kHashJoin = 1,
};

/// Constant slots of a pattern resolved to term ids. `missing` means some
/// constant is absent from the dictionary, so the pattern can never match.
struct PatternConsts {
  rdf::TermId s = rdf::kInvalidTermId;
  rdf::TermId p = rdf::kInvalidTermId;
  rdf::TermId o = rdf::kInvalidTermId;
  bool missing = false;
};

/// The physical plan of one basic graph pattern: the join order (indices
/// into the group's written triple list) plus the operator chosen for each
/// step. `ops` parallels `order`; step 0 is always a nested index scan
/// (there is nothing to probe with yet). `consts` holds each pattern's
/// constants resolved at planning time, by written position; they stay
/// valid as long as the plan does, because any store write bumps the
/// generation that cached plans are keyed on.
struct GroupPlan {
  std::vector<size_t> order;
  std::vector<JoinOp> ops;
  std::vector<PatternConsts> consts;
};

/// The physical plan of a whole query: one GroupPlan per group graph
/// pattern, in pre-order AST traversal (group, then each union's left and
/// right, then each optional — see ForEachGroup). Plans are purely
/// structural (indices + operator enums, no variable names); the executor
/// pairs each with the AST it was planned from.
struct QueryPlan {
  std::vector<GroupPlan> groups;
};

/// Plans one group in a single pass. Each pattern is resolved once: its
/// constants (kept in the plan), the index range count over its constant
/// slots, and its predicate's statistics when the predicate is a constant.
/// The join order is then picked greedily: connectivity first (joining
/// through a shared variable avoids cartesian products on triangle and
/// chain patterns; while no variable is bound yet, every pattern counts as
/// connected), then ascending cardinality estimate (the range count
/// narrowed by the average fan-out of every bound variable slot), ties
/// broken by written position.
/// `greedy_join_order = false` keeps the written order. Each chosen step is
/// priced as it is placed: nested index-loop (est_rows * log n probes)
/// against hash join (build-side range count + probe pass). A step is
/// hash-eligible only when it joins through at least one bound variable
/// and repeats no variable within the pattern. The plan depends only on
/// the pattern list — not on row values — so the count pushdown walks the
/// same plan and stays accounting-identical with the materializing path.
GroupPlan PlanGroup(const GroupGraphPattern& group, const ExecOptions& options,
                    const rdf::TripleStore* store);

/// Plans every group of `q` in ForEachGroup order.
QueryPlan PlanQuery(const SelectQuery& q, const ExecOptions& options,
                    const rdf::TripleStore* store);

/// Visits every group graph pattern of the WHERE tree in the canonical
/// pre-order: the group itself, then each union's left and right, then
/// each optional, recursively. Planning and execution both traverse in
/// this order so cached plans line up with the AST.
template <typename Fn>
void ForEachGroup(const GroupGraphPattern& g, Fn&& fn) {
  fn(g);
  for (const auto& u : g.unions) {
    ForEachGroup(*u.left, fn);
    ForEachGroup(*u.right, fn);
  }
  for (const auto& o : g.optionals) ForEachGroup(*o, fn);
}

/// Cumulative counters of one PlanCache (monotonic except `entries` and
/// `seen`).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;  // generation flushes
  size_t entries = 0;          // entries currently resident
  size_t seen = 0;             // text hashes currently remembered
};

/// A fully prepared query: the parsed AST plus its physical plan. The
/// PlanCache serves these so a repeated query skips parsing AND planning
/// (the classic prepared-statement fast path). Immutable after insertion;
/// execution reads the AST concurrently.
struct PreparedQuery {
  SelectQuery query;
  QueryPlan plan;
};

/// Cross-query plan cache: exact query text -> PreparedQuery (AST + plan),
/// scoped to one TripleStore rebuild generation. A lookup presenting a
/// newer store generation misses; the next insert flushes the stale epoch
/// (stats changed, plans are stale). When kCapacity entries are resident,
/// inserting a new text drops the whole epoch first (bulk eviction: cheap,
/// deterministic, and the steady-state corpus re-warms it).
///
/// Admission on the second sighting: a text is inserted only when its
/// 64-bit hash is already in the seen-set, i.e. the second time it is
/// executed. A cold extraction issues hundreds of thousands of texts that
/// never repeat, so building and freeing their entries would be pure
/// cost. The seen-set is keyed by text alone and survives generation
/// flushes (a text run yesterday is a repeat today); it holds at most
/// kSeenCapacity hashes and is dropped whole when full, like the epoch.
///
/// Hit/miss accounting: each executed query counts exactly once — a hit
/// when its text is served, a miss (RecordMiss) when it is planned — so
/// hits + misses always equals queries executed through the cache.
///
/// Thread safety: lookups take a shared lock (concurrent readers on the
/// endpoints' lock-free query path never serialize against each other);
/// inserts take the exclusive lock, sightings their own mutex. Entries are
/// shared_ptr<const>, so a plan stays valid for a reader even if the epoch
/// is flushed mid-query.
///
/// Sharing discipline: one cache must only be shared by executors with
/// identical ExecOptions against the same store (plans depend on both).
/// LocalEndpoint owns exactly one cache per endpoint, which satisfies this
/// by construction.
class PlanCache {
 public:
  /// Resident entries at which the next new text drops the epoch.
  static constexpr size_t kCapacity = 8192;
  /// Remembered text hashes at which the next new sighting drops the set.
  static constexpr size_t kSeenCapacity = 4 * kCapacity;

  PlanCache() = default;
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The prepared query for (text, generation), or null. Counts a hit when
  /// found; counts nothing on miss (the caller may still refuse the query,
  /// and records the miss when it plans it).
  std::shared_ptr<const PreparedQuery> LookupPrepared(
      const std::string& text, uint64_t generation) const;

  /// Records that `text` missed and was executed; true when it had been
  /// sighted before, which is when the caller inserts it.
  bool SeenBefore(const std::string& text);

  /// Inserts after a successful parse + plan. If the cache holds an older
  /// generation's epoch it is flushed first (counted as one invalidation);
  /// a full cache drops the epoch before inserting a new text.
  void InsertPrepared(const std::string& text, uint64_t generation,
                      std::shared_ptr<const PreparedQuery> prepared);

  /// Counts one query planned on a miss.
  void RecordMiss();

  PlanCacheStats stats() const;
  size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  uint64_t generation_ = 0;  // epoch of resident entries (guarded by mu_)
  std::unordered_map<std::string, std::shared_ptr<const PreparedQuery>>
      prepared_;
  mutable std::mutex seen_mu_;
  std::unordered_set<uint64_t> seen_;  // guarded by seen_mu_
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> invalidations_{0};
};

}  // namespace hbold::sparql

#endif  // HBOLD_SPARQL_PLANNER_H_
