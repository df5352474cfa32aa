#ifndef HBOLD_SPARQL_EXECUTOR_H_
#define HBOLD_SPARQL_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "rdf/graph.h"
#include "sparql/ast.h"
#include "sparql/planner.h"
#include "sparql/results.h"

namespace hbold::sparql {

/// Statistics about one query execution, used by the endpoint latency model
/// (cost proportional to scanned/produced bindings) and by the differential
/// fast-path tests.
///
/// `intermediate_bindings` is a *modeled* cost: the count pushdown charges
/// exactly the bindings the materializing path would have produced (the
/// sizes of the index spans it opens), and the hash join emits exactly
/// the rows the nested index-loop would have, so simulated endpoint
/// latencies and work-budget decisions are bit-identical whichever
/// physical plan ran.
///
/// The planner counters (`plan_cache_*`, `hash_join_builds`) are
/// deployment figures: they describe which machinery answered the query,
/// never how much simulated work it charged, and are excluded from every
/// canonical accounting contract.
struct ExecStats {
  size_t intermediate_bindings = 0;  // rows produced across all BGP steps
  size_t result_rows = 0;
  size_t fast_path_hits = 0;  // queries answered by the count pushdown
  size_t rows_avoided = 0;    // binding rows never materialized by pushdown
  size_t plan_cache_hits = 0;    // plan served from the cross-query cache
  size_t plan_cache_misses = 0;  // plan computed (and cached) this query
  size_t hash_join_builds = 0;   // hash tables built by join steps
  /// Probes served by an already-built hash table: OPTIONAL re-evaluations
  /// plus distinct steps sharing one (constants, key mask) build.
  size_t hash_join_build_reuses = 0;
  /// Hash-join builds that exceeded ExecOptions::hash_join_spill_budget_bytes
  /// and were externally sorted to a temporary on-disk run.
  size_t hash_join_spills = 0;
};

/// A query text resolved to its AST: the first of Executor's two query
/// steps. On a plan-cache hit it holds the cached PreparedQuery (AST and
/// plan); otherwise a fresh parse, not yet planned, sighted or cached.
/// Callers may inspect query() — the endpoints' dialect gate does — before
/// handing it to Executor::Execute(text, parsed) with the same text.
class ParsedQuery {
 public:
  const SelectQuery& query() const {
    return prepared_ != nullptr ? prepared_->query : fresh_;
  }

 private:
  friend class Executor;
  std::shared_ptr<const PreparedQuery> prepared_;  // plan-cache hit
  SelectQuery fresh_;        // miss: parsed, awaiting planning
  uint64_t generation_ = 0;  // store generation the cache was read at
};

/// Evaluates SELECT queries against a TripleStore.
///
/// Evaluation strategy: the cost-based planner (sparql/planner.h) fixes a
/// join order and a physical operator per step. A COUNT over a plain BGP
/// is answered by the count pushdown: one walk over TripleStore spans in
/// the planned order that counts solutions per group instead of
/// materializing them. Otherwise triple
/// patterns evaluate in planned order — nested index-loops or
/// order-preserving hash joins — extending a binding table; FILTERs run as
/// soon as their variables are bound; OPTIONALs are left joins; UNION
/// concatenates the two sides' solutions. All physical paths produce
/// bit-identical result tables and ExecStats::intermediate_bindings.
///
/// `plan_cache`, when non-null, memoizes prepared queries (AST + plan) by
/// exact text, scoped to the store's rebuild generation, admitting a text
/// the second time it executes (see PlanCache).
/// The cache must be dedicated to (store, options) — LocalEndpoint owns
/// one per endpoint. Cached and freshly planned executions are
/// bit-identical by construction (plans are deterministic functions of the
/// store content, and a rebuilt store changes its generation).
class Executor {
 public:
  explicit Executor(const rdf::TripleStore* store, ExecOptions options = {},
                    PlanCache* plan_cache = nullptr);

  /// Step 1, text -> AST: the cached PreparedQuery when `query_text`
  /// already ran against this store generation (no parse), else a fresh
  /// parse. A fresh parse is not planned, cached or counted, so a caller
  /// may still refuse the query by its AST; a cache hit (counted by the
  /// cache here) is a text the caller accepted before.
  Result<ParsedQuery> Parse(const std::string& query_text) const;

  /// Step 2, executes `parsed`, which Parse() built from `query_text`. A
  /// cache hit runs the cached plan. Otherwise the AST is planned (counted
  /// as one miss) and the text's sighting recorded; on its second sighting
  /// the AST and plan move into the cache, so later repeats skip both
  /// steps' work.
  Result<ResultTable> Execute(const std::string& query_text,
                              ParsedQuery parsed,
                              ExecStats* stats = nullptr) const;

  /// Parse() then Execute(text, parsed).
  Result<ResultTable> Execute(const std::string& query_text,
                              ExecStats* stats = nullptr) const;

  /// Executes an already-parsed query, planned as a cache miss is (counted
  /// as one miss when a cache is attached). Nothing enters the cache, which
  /// is keyed by query text.
  Result<ResultTable> Execute(const SelectQuery& query,
                              ExecStats* stats = nullptr) const;

  const ExecOptions& options() const { return options_; }

 private:
  /// Plans `q`; with a cache attached, counts the miss into it and `stats`.
  QueryPlan Plan(const SelectQuery& q, ExecStats* stats) const;
  /// Runs `q` under a fixed physical plan.
  Result<ResultTable> ExecutePlanned(const SelectQuery& q,
                                     const QueryPlan& plan,
                                     ExecStats* stats) const;

  const rdf::TripleStore* store_;
  ExecOptions options_;
  PlanCache* plan_cache_;
};

}  // namespace hbold::sparql

#endif  // HBOLD_SPARQL_EXECUTOR_H_
