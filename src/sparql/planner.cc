#include "sparql/planner.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace hbold::sparql {

using rdf::kInvalidTermId;
using rdf::TermId;

PatternConsts ResolveConsts(const TriplePatternNode& t,
                            const rdf::Dictionary& dict) {
  PatternConsts c;
  if (!t.s.is_var) {
    c.s = dict.Lookup(t.s.term);
    if (c.s == kInvalidTermId) c.missing = true;
  }
  if (!t.p.is_var) {
    c.p = dict.Lookup(t.p.term);
    if (c.p == kInvalidTermId) c.missing = true;
  }
  if (!t.o.is_var) {
    c.o = dict.Lookup(t.o.term);
    if (c.o == kInvalidTermId) c.missing = true;
  }
  return c;
}

double EstimateCardinality(const TriplePatternNode& t, const PatternConsts& c,
                           const std::set<std::string>& bound,
                           const rdf::TripleStore* store) {
  if (c.missing) return 0.0;  // cannot match — costs nothing to discover
  rdf::TriplePattern probe;
  probe.s = t.s.is_var ? kInvalidTermId : c.s;
  probe.p = t.p.is_var ? kInvalidTermId : c.p;
  probe.o = t.o.is_var ? kInvalidTermId : c.o;
  double est = static_cast<double>(store->Count(probe));
  if (!t.p.is_var) {
    rdf::PredicateStats stats = store->StatsForPredicate(c.p);
    if (t.s.is_var && bound.count(t.s.var) > 0) {
      est /= static_cast<double>(std::max<size_t>(1, stats.distinct_subjects));
    }
    if (t.o.is_var && bound.count(t.o.var) > 0) {
      est /= static_cast<double>(std::max<size_t>(1, stats.distinct_objects));
    }
  }
  return est;
}

std::vector<size_t> PlanOrder(const std::vector<TriplePatternNode>& triples,
                              const ExecOptions& options,
                              const rdf::TripleStore* store) {
  std::vector<size_t> order(triples.size());
  std::iota(order.begin(), order.end(), 0);
  if (!options.greedy_join_order || triples.size() < 2) return order;

  std::vector<PatternConsts> consts;
  consts.reserve(triples.size());
  for (const auto& t : triples) consts.push_back(ResolveConsts(t, store->dict()));

  std::set<std::string> bound;
  std::vector<bool> used(triples.size(), false);
  std::vector<size_t> out;
  out.reserve(triples.size());
  for (size_t step = 0; step < triples.size(); ++step) {
    size_t best = triples.size();
    bool best_connected = false;
    double best_est = 0;
    for (size_t i = 0; i < triples.size(); ++i) {
      if (used[i]) continue;
      const TriplePatternNode& t = triples[i];
      bool connected = bound.empty() ||
                       (t.s.is_var && bound.count(t.s.var) > 0) ||
                       (t.p.is_var && bound.count(t.p.var) > 0) ||
                       (t.o.is_var && bound.count(t.o.var) > 0);
      double est = EstimateCardinality(t, consts[i], bound, store);
      bool better = best == triples.size() ||
                    (connected && !best_connected) ||
                    (connected == best_connected && est < best_est);
      if (better) {
        best = i;
        best_connected = connected;
        best_est = est;
      }
    }
    used[best] = true;
    out.push_back(best);
    const TriplePatternNode& t = triples[best];
    if (t.s.is_var) bound.insert(t.s.var);
    if (t.p.is_var) bound.insert(t.p.var);
    if (t.o.is_var) bound.insert(t.o.var);
  }
  return out;
}

namespace {

/// True when a variable name occupies more than one slot of the pattern
/// (e.g. `?x ?p ?x`): consistency semantics the hash join does not model.
bool HasRepeatedVar(const TriplePatternNode& t) {
  if (t.s.is_var && t.p.is_var && t.s.var == t.p.var) return true;
  if (t.s.is_var && t.o.is_var && t.s.var == t.o.var) return true;
  if (t.p.is_var && t.o.is_var && t.p.var == t.o.var) return true;
  return false;
}

}  // namespace

GroupPlan PlanGroup(const GroupGraphPattern& group, const ExecOptions& options,
                    const rdf::TripleStore* store) {
  GroupPlan plan;
  plan.order = PlanOrder(group.triples, options, store);
  plan.ops.assign(plan.order.size(), JoinOp::kNestedIndexLoop);
  if (options.hash_join == HashJoinMode::kOff || plan.order.size() < 2) {
    return plan;
  }

  // Replay the planned order, tracking the bound-variable set and a
  // running estimate of the intermediate row count, and price each step:
  //   nested index-loop ~ rows * (log2 n + 1) probe cost
  //   hash join         ~ build-side range size + one probe pass
  // (the 2x on the hash side covers bucket sort + hashing constants).
  // kForce skips the pricing — every eligible step hash-joins, which the
  // sanitizer CI leg uses to flush operator-lifetime bugs.
  const double log_n =
      std::log2(static_cast<double>(store->size()) + 2.0) + 1.0;
  constexpr double kMinProbeRows = 32.0;
  std::set<std::string> bound;
  double rows = 1.0;
  for (size_t k = 0; k < plan.order.size(); ++k) {
    const TriplePatternNode& t = group.triples[plan.order[k]];
    PatternConsts c = ResolveConsts(t, store->dict());
    const bool joins_bound = (t.s.is_var && bound.count(t.s.var) > 0) ||
                             (t.p.is_var && bound.count(t.p.var) > 0) ||
                             (t.o.is_var && bound.count(t.o.var) > 0);
    if (k > 0 && joins_bound && !c.missing && !HasRepeatedVar(t)) {
      rdf::TriplePattern build;
      build.s = t.s.is_var ? kInvalidTermId : c.s;
      build.p = t.p.is_var ? kInvalidTermId : c.p;
      build.o = t.o.is_var ? kInvalidTermId : c.o;
      const double build_size = static_cast<double>(store->Count(build));
      const double nested_cost = rows * log_n;
      const double hash_cost = (build_size + rows) * 2.0;
      if (options.hash_join == HashJoinMode::kForce ||
          (rows >= kMinProbeRows && hash_cost < nested_cost)) {
        plan.ops[k] = JoinOp::kHashJoin;
      }
    }
    const double est = EstimateCardinality(t, c, bound, store);
    rows = std::max(0.0, rows * est);
    if (t.s.is_var) bound.insert(t.s.var);
    if (t.p.is_var) bound.insert(t.p.var);
    if (t.o.is_var) bound.insert(t.o.var);
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

// ------------------------------------------------------------ normalization

namespace {

/// Variable -> canonical index, assigned in first-encounter order during
/// the serialization walk.
class VarCanon {
 public:
  size_t Id(const std::string& name) {
    auto [it, fresh] = ids_.emplace(name, ids_.size());
    (void)fresh;
    return it->second;
  }

 private:
  std::unordered_map<std::string, size_t> ids_;
};

void AppendSlot(const TermOrVar& slot, VarCanon* vars, std::string* out) {
  if (slot.is_var) {
    *out += '?';
    *out += std::to_string(vars->Id(slot.var));
  } else {
    *out += slot.term.ToNTriples();
  }
  *out += '\x1f';
}

}  // namespace

std::string NormalizeGroupKey(const GroupGraphPattern& g) {
  // The alias class restarts at ?0 for every group, so the same OPTIONAL
  // body reached from two different enclosing queries collides onto one
  // entry. Only the triple list is serialized — PlanGroup never looks at
  // filters or nested groups.
  std::string key;
  key.reserve(64);
  VarCanon vars;
  for (const TriplePatternNode& t : g.triples) {
    key += 'T';
    AppendSlot(t.s, &vars, &key);
    AppendSlot(t.p, &vars, &key);
    AppendSlot(t.o, &vars, &key);
  }
  return key;
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
  FlushIfStaleLocked(generation);
  if (prepared_.size() >= max_entries_ &&
      prepared_.find(text) == prepared_.end() &&
      MakeRoomLocked(prepared_.size())) {
    prepared_.clear();  // epoch eviction; the steady-state corpus re-warms
  }
  prepared_[text] = std::move(prepared);
}

void PlanCache::RecordMiss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const GroupPlan> PlanCache::LookupGroup(
    const std::string& key, uint64_t generation) const {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (generation_ == generation) {
      auto it = group_entries_.find(key);
      if (it != group_entries_.end()) {
        group_hits_.fetch_add(1, std::memory_order_relaxed);
        it->second.reuses->fetch_add(1, std::memory_order_relaxed);
        return it->second.plan;
      }
    }
  }
  group_misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void PlanCache::InsertGroup(const std::string& key, uint64_t generation,
                            std::shared_ptr<const GroupPlan> plan) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  FlushIfStaleLocked(generation);
  if (group_entries_.size() >= max_entries_ &&
      group_entries_.find(key) == group_entries_.end() &&
      MakeRoomLocked(group_entries_.size())) {
    group_entries_.clear();  // epoch eviction, same as the text tier
  }
  GroupEntry& entry = group_entries_[key];
  entry.plan = std::move(plan);
  if (entry.reuses == nullptr) {
    entry.reuses = std::make_unique<std::atomic<uint64_t>>(0);
  }
}

std::vector<std::pair<std::string, uint64_t>> PlanCache::GroupReuseStats()
    const {
  std::vector<std::pair<std::string, uint64_t>> out;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    out.reserve(group_entries_.size());
    for (const auto& [key, entry] : group_entries_) {
      out.emplace_back(key, entry.reuses->load(std::memory_order_relaxed));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool PlanCache::MakeRoomLocked(size_t tier_size) {
  if (!adaptive_ || max_entries_ >= kMaxAdaptiveCapacity) return true;
  // Adaptive growth: the observed corpus outgrew the capacity guess —
  // double (bounded) rather than throw the warm tier away.
  while (max_entries_ <= tier_size && max_entries_ < kMaxAdaptiveCapacity) {
    max_entries_ <<= 1;
  }
  return false;
}

void PlanCache::FlushIfStaleLocked(uint64_t generation) {
  if (generation_ == generation) return;
  // The store was rebuilt since this epoch was planned: every resident
  // plan (and prepared AST) was derived from stale statistics.
  if (!prepared_.empty() || !group_entries_.empty()) {
    prepared_.clear();
    group_entries_.clear();
    invalidations_.fetch_add(1, std::memory_order_relaxed);
  }
  generation_ = generation;
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.group_hits = group_hits_.load(std::memory_order_relaxed);
  s.group_misses = group_misses_.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(mu_);
  s.entries = prepared_.size();
  s.capacity = max_entries_;
  s.group_entries = group_entries_.size();
  return s;
}

size_t PlanCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return prepared_.size();
}

size_t PlanCache::capacity() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return max_entries_;
}

}  // namespace hbold::sparql
