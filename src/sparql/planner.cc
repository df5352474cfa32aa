#include "sparql/planner.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace hbold::sparql {

using rdf::kInvalidTermId;

namespace {

PatternConsts ResolveConsts(const TriplePatternNode& t,
                            const rdf::Dictionary& dict) {
  PatternConsts c;
  const TermOrVar* slots[3] = {&t.s, &t.p, &t.o};
  rdf::TermId* ids[3] = {&c.s, &c.p, &c.o};
  for (int j = 0; j < 3; ++j) {
    if (slots[j]->is_var) continue;
    *ids[j] = dict.Lookup(slots[j]->term);
    if (*ids[j] == kInvalidTermId) c.missing = true;
  }
  return c;
}

/// One pattern's planning inputs, resolved once per group.
struct PatternFacts {
  int vars[3] = {-1, -1, -1};  // s, p, o: group-local variable id or -1
  bool missing = false;        // a constant is absent: can never match
  bool repeated_var = false;   // e.g. `?x ?p ?x`: not hash-eligible
  double count = 0;            // range count over the constant slots
  bool has_stats = false;      // constant predicate: `stats` narrows
  rdf::PredicateStats stats;
};

/// Group-local id of `slot`'s variable (interned into `names`), or -1.
int InternVar(const TermOrVar& slot, std::vector<const std::string*>* names) {
  if (!slot.is_var) return -1;
  for (size_t i = 0; i < names->size(); ++i) {
    if (*(*names)[i] == slot.var) return static_cast<int>(i);
  }
  names->push_back(&slot.var);
  return static_cast<int>(names->size() - 1);
}

PatternFacts ResolveFacts(const TriplePatternNode& t, const PatternConsts& c,
                          const rdf::TripleStore* store,
                          std::vector<const std::string*>* names) {
  PatternFacts f;
  f.vars[0] = InternVar(t.s, names);
  f.vars[1] = InternVar(t.p, names);
  f.vars[2] = InternVar(t.o, names);
  f.repeated_var = (f.vars[0] >= 0 && f.vars[0] == f.vars[1]) ||
                   (f.vars[0] >= 0 && f.vars[0] == f.vars[2]) ||
                   (f.vars[1] >= 0 && f.vars[1] == f.vars[2]);
  f.missing = c.missing;
  if (f.missing) return f;
  f.count = static_cast<double>(store->Count({c.s, c.p, c.o}));
  if (!t.p.is_var) {
    f.has_stats = true;
    f.stats = store->StatsForPredicate(c.p);
  }
  return f;
}

/// Estimated rows one evaluation of the pattern produces per input row:
/// the range count, narrowed by the average fan-out for every bound
/// variable slot (whose concrete value is unknown at planning time).
double Estimate(const PatternFacts& f, const std::vector<char>& bound) {
  if (f.missing) return 0.0;  // cannot match — costs nothing to discover
  double est = f.count;
  if (f.has_stats) {
    if (f.vars[0] >= 0 && bound[f.vars[0]]) {
      est /= static_cast<double>(
          std::max<size_t>(1, f.stats.distinct_subjects));
    }
    if (f.vars[2] >= 0 && bound[f.vars[2]]) {
      est /= static_cast<double>(
          std::max<size_t>(1, f.stats.distinct_objects));
    }
  }
  return est;
}

bool JoinsBound(const PatternFacts& f, const std::vector<char>& bound) {
  for (int v : f.vars) {
    if (v >= 0 && bound[v]) return true;
  }
  return false;
}

}  // namespace

GroupPlan PlanGroup(const GroupGraphPattern& group, const ExecOptions& options,
                    const rdf::TripleStore* store) {
  const std::vector<TriplePatternNode>& triples = group.triples;
  const size_t n = triples.size();
  GroupPlan plan;
  plan.order.resize(n);
  std::iota(plan.order.begin(), plan.order.end(), 0);
  plan.ops.assign(n, JoinOp::kNestedIndexLoop);
  plan.consts.reserve(n);
  for (const auto& t : triples) {
    plan.consts.push_back(ResolveConsts(t, store->dict()));
  }
  const bool price = options.hash_join != HashJoinMode::kOff;
  if (n < 2 || (!options.greedy_join_order && !price)) return plan;

  std::vector<const std::string*> names;
  std::vector<PatternFacts> facts;
  facts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    facts.push_back(ResolveFacts(triples[i], plan.consts[i], store, &names));
  }

  // Each step places one pattern — the written next one, or the greedy
  // pick — and prices it against the running intermediate row estimate:
  //   nested index-loop ~ rows * (log2 n + 1) probe cost
  //   hash join         ~ build-side range size + one probe pass
  // (the 2x on the hash side covers the build sort + probe constants).
  // kForce skips the pricing — every eligible step hash-joins, which the
  // sanitizer CI leg uses to flush operator-lifetime bugs.
  const double log_n =
      std::log2(static_cast<double>(store->size()) + 2.0) + 1.0;
  constexpr double kMinProbeRows = 32.0;
  std::vector<char> bound(names.size(), 0);
  bool any_bound = false;
  std::vector<bool> used(n, false);
  double rows = 1.0;
  for (size_t k = 0; k < n; ++k) {
    size_t best = k;
    double best_est = 0;
    if (options.greedy_join_order) {
      best = n;
      bool best_connected = false;
      for (size_t i = 0; i < n; ++i) {
        if (used[i]) continue;
        const bool connected = !any_bound || JoinsBound(facts[i], bound);
        const double est = Estimate(facts[i], bound);
        const bool better = best == n || (connected && !best_connected) ||
                            (connected == best_connected && est < best_est);
        if (better) {
          best = i;
          best_connected = connected;
          best_est = est;
        }
      }
      used[best] = true;
      plan.order[k] = best;
    } else {
      best_est = Estimate(facts[k], bound);
    }
    const PatternFacts& f = facts[best];
    if (price && k > 0 && JoinsBound(f, bound) && !f.missing &&
        !f.repeated_var) {
      const double nested_cost = rows * log_n;
      const double hash_cost = (f.count + rows) * 2.0;
      if (options.hash_join == HashJoinMode::kForce ||
          (rows >= kMinProbeRows && hash_cost < nested_cost)) {
        plan.ops[k] = JoinOp::kHashJoin;
      }
    }
    rows = std::max(0.0, rows * best_est);
    for (int v : f.vars) {
      if (v >= 0) {
        bound[v] = 1;
        any_bound = true;
      }
    }
  }
  return plan;
}

QueryPlan PlanQuery(const SelectQuery& q, const ExecOptions& options,
                    const rdf::TripleStore* store) {
  QueryPlan plan;
  ForEachGroup(q.where, [&](const GroupGraphPattern& g) {
    plan.groups.push_back(PlanGroup(g, options, store));
  });
  return plan;
}

// -------------------------------------------------------------- plan cache

std::shared_ptr<const PreparedQuery> PlanCache::LookupPrepared(
    const std::string& text, uint64_t generation) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (generation_ != generation) return nullptr;
  auto it = prepared_.find(text);
  if (it == prepared_.end()) return nullptr;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void PlanCache::InsertPrepared(const std::string& text, uint64_t generation,
                               std::shared_ptr<const PreparedQuery> prepared) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (generation_ != generation) {
    // The store was rebuilt since this epoch was planned: every resident
    // plan (and prepared AST) was derived from stale statistics.
    if (!prepared_.empty()) {
      prepared_.clear();
      invalidations_.fetch_add(1, std::memory_order_relaxed);
    }
    generation_ = generation;
  }
  if (prepared_.size() >= kCapacity &&
      prepared_.find(text) == prepared_.end()) {
    prepared_.clear();  // epoch eviction; the steady-state corpus re-warms
  }
  prepared_[text] = std::move(prepared);
}

bool PlanCache::SeenBefore(const std::string& text) {
  const uint64_t hash = std::hash<std::string>{}(text);
  std::lock_guard<std::mutex> lock(seen_mu_);
  if (seen_.count(hash) > 0) return true;
  if (seen_.size() >= kSeenCapacity) seen_.clear();
  seen_.insert(hash);
  return false;
}

void PlanCache::RecordMiss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    s.entries = prepared_.size();
  }
  std::lock_guard<std::mutex> lock(seen_mu_);
  s.seen = seen_.size();
  return s;
}

size_t PlanCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return prepared_.size();
}

}  // namespace hbold::sparql
