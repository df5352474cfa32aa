#include "sparql/executor.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "rdf/run_file.h"
#include "sparql/parser.h"
#include "sparql/planner.h"

namespace hbold::sparql {

namespace {

using rdf::kInvalidTermId;
using rdf::Term;
using rdf::TermId;
using rdf::TriplePos;

constexpr size_t kNoCap = std::numeric_limits<size_t>::max();

/// Maps variable names to dense row slots.
class VarRegistry {
 public:
  size_t Intern(const std::string& name) {
    auto it = index_.find(name);
    if (it != index_.end()) return it->second;
    size_t id = names_.size();
    names_.push_back(name);
    index_.emplace(name, id);
    return id;
  }
  int Lookup(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? -1 : static_cast<int>(it->second);
  }
  size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, size_t> index_;
};

using RowIds = std::vector<TermId>;  // slot -> bound term id (0 = unbound)

/// FNV-1a over a TermId vector; key type for the hash-based GROUP BY and
/// DISTINCT machinery (replaces the former ToNTriples-string keys).
struct IdVecHash {
  size_t operator()(const std::vector<TermId>& v) const {
    size_t h = 1469598103934665603ull;
    for (TermId id : v) {
      h ^= static_cast<size_t>(id);
      h *= 1099511628211ull;
    }
    return h;
  }
};

void CollectVars(const GroupGraphPattern& g, VarRegistry* vars);

void CollectExprVars(const Expr& e, VarRegistry* vars) {
  if (e.kind == Expr::Kind::kVar || e.kind == Expr::Kind::kBound) {
    vars->Intern(e.var);
  }
  for (const auto& a : e.args) CollectExprVars(*a, vars);
}

void CollectExprVarNames(const Expr& e, std::set<std::string>* names) {
  if (e.kind == Expr::Kind::kVar || e.kind == Expr::Kind::kBound) {
    names->insert(e.var);
  }
  for (const auto& a : e.args) CollectExprVarNames(*a, names);
}

void CollectVars(const GroupGraphPattern& g, VarRegistry* vars) {
  for (const auto& t : g.triples) {
    if (t.s.is_var) vars->Intern(t.s.var);
    if (t.p.is_var) vars->Intern(t.p.var);
    if (t.o.is_var) vars->Intern(t.o.var);
  }
  for (const auto& f : g.filters) CollectExprVars(*f, vars);
  for (const auto& o : g.optionals) CollectVars(*o, vars);
  for (const auto& u : g.unions) {
    CollectVars(*u.left, vars);
    CollectVars(*u.right, vars);
  }
}

/// Value produced by expression evaluation. Errors propagate and make the
/// enclosing FILTER false (SPARQL error semantics).
struct EvalValue {
  enum class Kind { kTerm, kBool, kError };
  Kind kind = Kind::kError;
  Term term;
  bool b = false;

  static EvalValue Error() { return EvalValue{}; }
  static EvalValue Bool(bool v) {
    EvalValue e;
    e.kind = Kind::kBool;
    e.b = v;
    return e;
  }
  static EvalValue OfTerm(Term t) {
    EvalValue e;
    e.kind = Kind::kTerm;
    e.term = std::move(t);
    return e;
  }
};

bool TryParseNumber(const Term& t, double* out) {
  if (!t.is_literal()) return false;
  const std::string& lex = t.lexical();
  if (lex.empty()) return false;
  // strtod also accepts "inf"/"nan", hex floats and leading whitespace;
  // none of those are numeric literals in SPARQL, and letting them through
  // silently reorders ORDER BY results. Accept only plain decimal forms:
  // [+-]? digits [. digits] [eE [+-] digits].
  size_t i = 0;
  if (lex[i] == '+' || lex[i] == '-') ++i;
  size_t digits = 0;
  auto is_digit = [&](size_t k) {
    return k < lex.size() &&
           std::isdigit(static_cast<unsigned char>(lex[k])) != 0;
  };
  while (is_digit(i)) {
    ++i;
    ++digits;
  }
  if (i < lex.size() && lex[i] == '.') {
    ++i;
    while (is_digit(i)) {
      ++i;
      ++digits;
    }
  }
  if (digits == 0) return false;
  if (i < lex.size() && (lex[i] == 'e' || lex[i] == 'E')) {
    ++i;
    if (i < lex.size() && (lex[i] == '+' || lex[i] == '-')) ++i;
    size_t exp_digits = 0;
    while (is_digit(i)) {
      ++i;
      ++exp_digits;
    }
    if (exp_digits == 0) return false;
  }
  if (i != lex.size()) return false;
  char* end = nullptr;
  double v = std::strtod(lex.c_str(), &end);
  if (end != lex.c_str() + lex.size()) return false;
  *out = v;
  return true;
}

/// Effective boolean value; returns kError-signalling nullopt on non-boolean
/// non-coercible values.
std::optional<bool> Ebv(const EvalValue& v) {
  switch (v.kind) {
    case EvalValue::Kind::kBool:
      return v.b;
    case EvalValue::Kind::kTerm: {
      const Term& t = v.term;
      if (t.is_literal()) {
        if (t.lexical() == "true") return true;
        if (t.lexical() == "false") return false;
        double d;
        if (TryParseNumber(t, &d)) return d != 0;
        return !t.lexical().empty();
      }
      return std::nullopt;
    }
    case EvalValue::Kind::kError:
      return std::nullopt;
  }
  return std::nullopt;
}

// ------------------------------------------------------------ slow path

/// Per-group execution artifacts: the group's slot in the QueryPlan
/// (ForEachGroup order) plus its filters' variable sets (execution-local:
/// plans carry no variable names). Built once per execution, so OPTIONAL
/// groups re-evaluated once per outer row reuse them.
struct ExecGroupPlan {
  const GroupPlan* plan = nullptr;
  std::vector<std::set<std::string>> filter_vars;
};
using GroupPlanMap =
    std::unordered_map<const GroupGraphPattern*, ExecGroupPlan>;

GroupPlanMap BuildGroupPlanMap(const SelectQuery& q, const QueryPlan& plan,
                               bool filter_pushdown) {
  GroupPlanMap map;
  size_t idx = 0;
  ForEachGroup(q.where, [&](const GroupGraphPattern& g) {
    ExecGroupPlan& entry = map[&g];
    entry.plan = &plan.groups[idx++];
    if (!filter_pushdown || g.triples.empty()) return;
    entry.filter_vars.resize(g.filters.size());
    for (size_t fi = 0; fi < g.filters.size(); ++fi) {
      CollectExprVarNames(*g.filters[fi], &entry.filter_vars[fi]);
    }
  });
  return map;
}

class GroupEvaluator {
 public:
  GroupEvaluator(const rdf::TripleStore* store, VarRegistry* vars,
                 ExecStats* stats, const ExecOptions& options,
                 const GroupPlanMap* plan_map)
      : store_(store),
        vars_(vars),
        stats_(stats),
        options_(options),
        plan_map_(plan_map) {}

  /// Joins `input` rows with the solutions of `group`. `row_cap` stops the
  /// BGP join loop early; the caller only passes a finite cap when no later
  /// stage (filters here, modifiers outside) could change the first
  /// `row_cap` rows.
  std::vector<RowIds> Eval(const GroupGraphPattern& group,
                           std::vector<RowIds> input, size_t row_cap = kNoCap) {
    std::vector<bool> filter_done(group.filters.size(), false);
    std::vector<RowIds> rows =
        EvalTriples(group, std::move(input), row_cap, &filter_done);
    for (const auto& u : group.unions) {
      std::vector<RowIds> left = Eval(*u.left, rows);
      std::vector<RowIds> right = Eval(*u.right, rows);
      rows = std::move(left);
      rows.insert(rows.end(), right.begin(), right.end());
    }
    for (const auto& opt : group.optionals) {
      std::vector<RowIds> joined;
      for (const RowIds& row : rows) {
        std::vector<RowIds> ext = Eval(*opt, {row});
        if (ext.empty()) {
          joined.push_back(row);
        } else {
          joined.insert(joined.end(), ext.begin(), ext.end());
        }
      }
      rows = std::move(joined);
    }
    for (size_t fi = 0; fi < group.filters.size(); ++fi) {
      if (filter_done[fi]) continue;
      rows = FilterRows(*group.filters[fi], std::move(rows));
    }
    return rows;
  }

  EvalValue EvalExpr(const Expr& e, const RowIds& row) const {
    switch (e.kind) {
      case Expr::Kind::kVar: {
        int slot = vars_->Lookup(e.var);
        if (slot < 0 || row[static_cast<size_t>(slot)] == kInvalidTermId) {
          return EvalValue::Error();
        }
        return EvalValue::OfTerm(
            store_->dict().Get(row[static_cast<size_t>(slot)]));
      }
      case Expr::Kind::kLiteral:
        return EvalValue::OfTerm(e.literal);
      case Expr::Kind::kBound: {
        int slot = vars_->Lookup(e.var);
        return EvalValue::Bool(slot >= 0 &&
                               row[static_cast<size_t>(slot)] !=
                                   kInvalidTermId);
      }
      case Expr::Kind::kNot: {
        std::optional<bool> v = Ebv(EvalExpr(*e.args[0], row));
        if (!v.has_value()) return EvalValue::Error();
        return EvalValue::Bool(!*v);
      }
      case Expr::Kind::kAnd: {
        std::optional<bool> a = Ebv(EvalExpr(*e.args[0], row));
        std::optional<bool> b = Ebv(EvalExpr(*e.args[1], row));
        // SPARQL three-valued logic: false && error == false.
        if (a.has_value() && !*a) return EvalValue::Bool(false);
        if (b.has_value() && !*b) return EvalValue::Bool(false);
        if (!a.has_value() || !b.has_value()) return EvalValue::Error();
        return EvalValue::Bool(true);
      }
      case Expr::Kind::kOr: {
        std::optional<bool> a = Ebv(EvalExpr(*e.args[0], row));
        std::optional<bool> b = Ebv(EvalExpr(*e.args[1], row));
        if (a.has_value() && *a) return EvalValue::Bool(true);
        if (b.has_value() && *b) return EvalValue::Bool(true);
        if (!a.has_value() || !b.has_value()) return EvalValue::Error();
        return EvalValue::Bool(false);
      }
      case Expr::Kind::kCompare: {
        EvalValue a = EvalExpr(*e.args[0], row);
        EvalValue b = EvalExpr(*e.args[1], row);
        if (a.kind != EvalValue::Kind::kTerm ||
            b.kind != EvalValue::Kind::kTerm) {
          return EvalValue::Error();
        }
        int cmp;
        double da, db;
        if (TryParseNumber(a.term, &da) && TryParseNumber(b.term, &db)) {
          cmp = da < db ? -1 : (da > db ? 1 : 0);
        } else {
          const std::string& sa = a.term.lexical();
          const std::string& sb = b.term.lexical();
          cmp = sa < sb ? -1 : (sa > sb ? 1 : 0);
        }
        switch (e.op) {
          case Expr::CmpOp::kEq:
            // Term equality also considers kind (IRI vs literal).
            if (cmp == 0 && a.term.kind() != b.term.kind()) {
              return EvalValue::Bool(false);
            }
            return EvalValue::Bool(cmp == 0);
          case Expr::CmpOp::kNe:
            if (cmp == 0 && a.term.kind() != b.term.kind()) {
              return EvalValue::Bool(true);
            }
            return EvalValue::Bool(cmp != 0);
          case Expr::CmpOp::kLt:
            return EvalValue::Bool(cmp < 0);
          case Expr::CmpOp::kGt:
            return EvalValue::Bool(cmp > 0);
          case Expr::CmpOp::kLe:
            return EvalValue::Bool(cmp <= 0);
          case Expr::CmpOp::kGe:
            return EvalValue::Bool(cmp >= 0);
        }
        return EvalValue::Error();
      }
      case Expr::Kind::kStr: {
        EvalValue a = EvalExpr(*e.args[0], row);
        if (a.kind != EvalValue::Kind::kTerm) return EvalValue::Error();
        return EvalValue::OfTerm(Term::Literal(a.term.lexical()));
      }
      case Expr::Kind::kLcase: {
        EvalValue a = EvalExpr(*e.args[0], row);
        if (a.kind != EvalValue::Kind::kTerm) return EvalValue::Error();
        return EvalValue::OfTerm(Term::Literal(ToLower(a.term.lexical())));
      }
      case Expr::Kind::kIsIri: {
        EvalValue a = EvalExpr(*e.args[0], row);
        if (a.kind != EvalValue::Kind::kTerm) return EvalValue::Error();
        return EvalValue::Bool(a.term.is_iri());
      }
      case Expr::Kind::kIsLiteral: {
        EvalValue a = EvalExpr(*e.args[0], row);
        if (a.kind != EvalValue::Kind::kTerm) return EvalValue::Error();
        return EvalValue::Bool(a.term.is_literal());
      }
      case Expr::Kind::kContains: {
        EvalValue a = EvalExpr(*e.args[0], row);
        EvalValue b = EvalExpr(*e.args[1], row);
        if (a.kind != EvalValue::Kind::kTerm ||
            b.kind != EvalValue::Kind::kTerm) {
          return EvalValue::Error();
        }
        return EvalValue::Bool(a.term.lexical().find(b.term.lexical()) !=
                               std::string::npos);
      }
      case Expr::Kind::kRegex: {
        // Lenient REGEX: the text argument is coerced with STR() semantics
        // so IRIs match too — the paper's Listing 1 applies
        // regex(?url, 'sparql') where ?url may be an IRI-valued accessURL.
        EvalValue text = EvalExpr(*e.args[0], row);
        EvalValue pattern = EvalExpr(*e.args[1], row);
        if (text.kind != EvalValue::Kind::kTerm ||
            pattern.kind != EvalValue::Kind::kTerm) {
          return EvalValue::Error();
        }
        // LitePatternMatch instead of std::regex: FILTER runs once per
        // candidate row, and compiling a std::regex NFA per evaluation
        // dominated query time. Patterns outside the supported subset
        // (groups, braces, ...) evaluate to an error — the row is
        // filtered out, as with a malformed regex before — rather than
        // silently matching metacharacters literally.
        if (!LitePatternSupported(pattern.term.lexical())) {
          return EvalValue::Error();
        }
        bool icase = false;
        if (e.args.size() > 2) {
          EvalValue f = EvalExpr(*e.args[2], row);
          icase = f.kind == EvalValue::Kind::kTerm &&
                  f.term.lexical().find('i') != std::string::npos;
        }
        return EvalValue::Bool(LitePatternMatch(
            text.term.lexical(), pattern.term.lexical(), icase));
      }
    }
    return EvalValue::Error();
  }

 private:
  /// Evaluates the BGP in the planned order. A FILTER is pushed into the
  /// loop as soon as every variable it mentions has been bound by an
  /// evaluated pattern (pushed filters are marked in `filter_done`); since
  /// later patterns, unions and optionals never rebind a bound slot, early
  /// evaluation is equivalent to the end-of-group evaluation and only
  /// prunes rows sooner.
  std::vector<RowIds> EvalTriples(const GroupGraphPattern& group,
                                  std::vector<RowIds> input, size_t row_cap,
                                  std::vector<bool>* filter_done) {
    const std::vector<TriplePatternNode>& triples = group.triples;
    if (triples.empty()) return input;
    const ExecGroupPlan& plan = plan_map_->at(&group);
    const std::vector<size_t>& order = plan.plan->order;
    const std::vector<std::set<std::string>>& filter_vars = plan.filter_vars;

    std::set<std::string> bound;  // variable names bound so far
    std::vector<RowIds> rows = std::move(input);
    for (size_t k = 0; k < order.size(); ++k) {
      const TriplePatternNode& pat = triples[order[k]];
      const PatternConsts& consts = plan.plan->consts[order[k]];
      const bool last = k + 1 == order.size();
      const size_t cap = last ? row_cap : kNoCap;
      if (plan.plan->ops[k] == JoinOp::kHashJoin) {
        rows = HashExtendRows(pat, consts, std::move(rows), cap);
      } else {
        rows = ExtendRows(pat, consts, std::move(rows), cap);
      }
      if (pat.s.is_var) bound.insert(pat.s.var);
      if (pat.p.is_var) bound.insert(pat.p.var);
      if (pat.o.is_var) bound.insert(pat.o.var);
      if (options_.filter_pushdown) {
        for (size_t fi = 0; fi < group.filters.size(); ++fi) {
          if ((*filter_done)[fi]) continue;
          if (!std::includes(bound.begin(), bound.end(),
                             filter_vars[fi].begin(), filter_vars[fi].end())) {
            continue;
          }
          rows = FilterRows(*group.filters[fi], std::move(rows));
          (*filter_done)[fi] = true;
        }
      }
      if (rows.empty()) break;
    }
    return rows;
  }

  std::vector<RowIds> FilterRows(const Expr& f, std::vector<RowIds> rows) {
    std::vector<RowIds> kept;
    kept.reserve(rows.size());
    for (const RowIds& row : rows) {
      std::optional<bool> v = Ebv(EvalExpr(f, row));
      if (v.has_value() && *v) kept.push_back(row);
    }
    return kept;
  }

  std::vector<RowIds> ExtendRows(const TriplePatternNode& pat,
                                 const PatternConsts& consts,
                                 std::vector<RowIds> rows, size_t cap) {
    // A constant not present in the dictionary can never match.
    if (consts.missing) return {};
    const int slot_s = pat.s.is_var ? vars_->Lookup(pat.s.var) : -1;
    const int slot_p = pat.p.is_var ? vars_->Lookup(pat.p.var) : -1;
    const int slot_o = pat.o.is_var ? vars_->Lookup(pat.o.var) : -1;
    return ProbeRows(
        rows, cap, consts, slot_s, slot_p, slot_o,
        [&](const rdf::TriplePattern& probe) { return store_->Span(probe); });
  }

  /// The probe-and-emit loop shared by both join operators. For each input
  /// row in order, the probe pattern holds the row's values in the
  /// variable slots (unbound = wildcard) and the constants elsewhere;
  /// `range(probe)` yields the triples joining the row. Each triple extends
  /// a copy of the row, binding the pattern's variable slots. A slot the
  /// row (or an earlier slot of the same triple, e.g. `?x ?p ?x`) already
  /// binds must agree with the triple, or the triple is skipped. Stops
  /// once `cap` rows are out.
  template <typename RangeFn>
  std::vector<RowIds> ProbeRows(const std::vector<RowIds>& rows, size_t cap,
                                const PatternConsts& consts, int slot_s,
                                int slot_p, int slot_o, RangeFn range) {
    std::vector<RowIds> out;
    auto value = [](const RowIds& row, int slot, TermId constant) {
      return slot >= 0 ? row[static_cast<size_t>(slot)] : constant;
    };
    auto bind = [](int slot, TermId value, RowIds* next) {
      if (slot < 0) return true;
      TermId& cell = (*next)[static_cast<size_t>(slot)];
      if (cell == kInvalidTermId) cell = value;
      return cell == value;
    };
    for (const RowIds& row : rows) {
      if (out.size() >= cap) break;
      const rdf::TriplePattern probe{value(row, slot_s, consts.s),
                                     value(row, slot_p, consts.p),
                                     value(row, slot_o, consts.o)};
      for (const rdf::Triple& t : range(probe)) {
        RowIds next = row;
        if (!bind(slot_s, t.s, &next) || !bind(slot_p, t.p, &next) ||
            !bind(slot_o, t.o, &next)) {
          continue;
        }
        if (stats_ != nullptr) ++stats_->intermediate_bindings;
        out.push_back(std::move(next));
        if (out.size() >= cap) break;
      }
    }
    return out;
  }

  /// Order-preserving hash join: builds the contiguous index slice matching
  /// the pattern's constants, sorted by (join key, the iteration order the
  /// nested index loop's Span would have used), then probes it with the
  /// input rows in order, finding each row's key range by binary search.
  /// Output rows, their order, and the charged intermediate_bindings are
  /// therefore bit-identical to ExtendRows — the operator choice is purely
  /// physical.
  ///
  /// Falls back to ExtendRows when the step is not actually hash-shaped at
  /// runtime: repeated variables in the pattern, no bound join variable,
  /// or rows with heterogeneous boundness (OPTIONAL/UNION residue).
  struct HashBuild;  // defined below (after the join methods)

  std::vector<RowIds> HashExtendRows(const TriplePatternNode& pat,
                                     const PatternConsts& consts,
                                     std::vector<RowIds> rows, size_t cap) {
    if (rows.empty()) return rows;
    const int slot_s = pat.s.is_var ? vars_->Lookup(pat.s.var) : -1;
    const int slot_p = pat.p.is_var ? vars_->Lookup(pat.p.var) : -1;
    const int slot_o = pat.o.is_var ? vars_->Lookup(pat.o.var) : -1;
    if ((slot_s >= 0 && (slot_s == slot_p || slot_s == slot_o)) ||
        (slot_p >= 0 && slot_p == slot_o)) {
      return ExtendRows(pat, consts, std::move(rows), cap);
    }
    auto bound_at = [](const RowIds& row, int slot) {
      return slot >= 0 && row[static_cast<size_t>(slot)] != kInvalidTermId;
    };
    const bool key_s = bound_at(rows[0], slot_s);
    const bool key_p = bound_at(rows[0], slot_p);
    const bool key_o = bound_at(rows[0], slot_o);
    if (!key_s && !key_p && !key_o) {
      return ExtendRows(pat, consts, std::move(rows), cap);
    }
    for (const RowIds& row : rows) {
      if (bound_at(row, slot_s) != key_s || bound_at(row, slot_p) != key_p ||
          bound_at(row, slot_o) != key_o) {
        return ExtendRows(pat, consts, std::move(rows), cap);
      }
    }

    if (consts.missing) return {};

    // The build depends only on the pattern's resolved constants and the
    // key-slot mask — not on row values and not on variable names (a
    // constant slot is exactly a slot with a valid term id, so the consts
    // triple pins the var/const shape too). Keying on those values rather
    // than pattern identity means two different steps probing the same
    // constant span with the same key shape — `?a p ?b . ?c p ?d`-style
    // repeated predicates, or the same pattern in both UNION branches —
    // share one build, on top of the original win (OPTIONAL groups
    // re-evaluate once per outer row without re-sorting the span).
    const int mask = (key_s ? 1 : 0) | (key_p ? 2 : 0) | (key_o ? 4 : 0);
    auto build_key = std::make_tuple(consts.s, consts.p, consts.o, mask);
    // Generic: keys both build triples and probe patterns.
    auto key_of = [&](const auto& t) {
      return std::make_tuple(key_s ? t.s : kInvalidTermId,
                             key_p ? t.p : kInvalidTermId,
                             key_o ? t.o : kInvalidTermId);
    };
    auto bit = hash_builds_.find(build_key);
    if (bit != hash_builds_.end()) {
      if (stats_ != nullptr) ++stats_->hash_join_build_reuses;
    } else {
      bit = hash_builds_
                .emplace(build_key, BuildSide(consts, key_s, key_p, key_of))
                .first;
    }

    const rdf::TripleSpan build = bit->second.view();
    auto key_less = [&](const auto& a, const auto& b) {
      return key_of(a) < key_of(b);
    };
    return ProbeRows(rows, cap, consts, slot_s, slot_p, slot_o,
                     [&](const rdf::TriplePattern& probe) {
                       auto [lo, hi] = std::equal_range(
                           build.begin(), build.end(), probe, key_less);
                       return rdf::TripleSpan{lo,
                                              static_cast<size_t>(hi - lo)};
                     });
  }

  /// Builds one hash-join build side: the slice matching the constants
  /// alone, sorted by (join key, probe iteration order). The comparator is
  /// shared by the in-RAM and spilled representations, which is what makes
  /// the spill bit-identical.
  template <typename KeyFn>
  HashBuild BuildSide(const PatternConsts& consts, bool key_s, bool key_p,
                      KeyFn key_of) {
    // Probe-side boundness (constants + key variables) decides which index
    // the nested loop's Span would have walked; each key range must
    // replicate its iteration order.
    const bool bs = consts.s != kInvalidTermId || key_s;
    const bool bp = consts.p != kInvalidTermId || key_p;
    auto probe_tuple = [&](const rdf::Triple& t) {
      if (bs) return std::tuple<TermId, TermId, TermId>(t.s, t.p, t.o);
      if (bp) return std::tuple<TermId, TermId, TermId>(t.p, t.o, t.s);
      return std::tuple<TermId, TermId, TermId>(t.o, t.s, t.p);
    };
    auto build_less = [&](const rdf::Triple& a, const rdf::Triple& b) {
      auto ka = key_of(a);
      auto kb = key_of(b);
      if (ka != kb) return ka < kb;
      return probe_tuple(a) < probe_tuple(b);
    };
    const rdf::TripleSpan span = store_->Span({consts.s, consts.p, consts.o});
    HashBuild fresh;
    if (stats_ != nullptr) ++stats_->hash_join_builds;
    const size_t budget = options_.hash_join_spill_budget_bytes;
    if (budget > 0 && span.size * sizeof(rdf::Triple) > budget) {
      Status st = SpillBuildToRun(span, build_less, budget, &fresh);
      if (st.ok()) {
        if (stats_ != nullptr) ++stats_->hash_join_spills;
        return fresh;
      }
      HBOLD_LOG(kWarn) << "hash-join spill failed, building in RAM: "
                       << st.message();
    }
    fresh.triples.assign(span.begin(), span.end());
    std::sort(fresh.triples.begin(), fresh.triples.end(), build_less);
    return fresh;
  }

  /// Externally sorts a too-large build span into a temporary run file
  /// under the system temp directory and maps it into `out->spilled`. The
  /// scratch directory (and the run file itself) are unlinked immediately —
  /// the mapping keeps the data alive for the lifetime of the build, and
  /// nothing leaks if the process dies.
  Status SpillBuildToRun(
      rdf::TripleSpan span,
      const std::function<bool(const rdf::Triple&, const rdf::Triple&)>& less,
      size_t budget, HashBuild* out) {
    namespace fs = std::filesystem;
    static std::atomic<uint64_t> counter{0};
    std::error_code ec;
    const fs::path dir =
        fs::temp_directory_path(ec) /
        ("hbold-spill-" + std::to_string(static_cast<long>(::getpid())) + "-" +
         std::to_string(counter.fetch_add(1)));
    if (ec) return Status::IOError("no temp directory: " + ec.message());
    fs::create_directories(dir, ec);
    if (ec) {
      return Status::IOError("cannot create '" + dir.string() +
                             "': " + ec.message());
    }
    Status st = rdf::ExternalSortToRunBy(span, less, budget, dir.string(),
                                         (dir / "build.run").string(),
                                         &out->spilled);
    fs::remove_all(dir, ec);  // mapping survives the unlink
    return st;
  }

  /// One hash-join build: the constant-matched span sorted by (join key,
  /// probe order). In RAM it is a triple vector; past the spill budget the
  /// same sorted sequence is a memory-mapped temporary run. Either way it
  /// is probed by binary search for each row's key range.
  struct HashBuild {
    std::vector<rdf::Triple> triples;
    rdf::MappedTripleRun spilled;  // unmapped (empty view) unless spilled

    rdf::TripleSpan view() const {
      return triples.empty() ? spilled.view()
                             : rdf::TripleSpan{triples.data(), triples.size()};
    }
  };

  const rdf::TripleStore* store_;
  VarRegistry* vars_;
  ExecStats* stats_;
  ExecOptions options_;
  const GroupPlanMap* plan_map_;
  /// Hash-join builds cached per (resolved constants, key mask) for this
  /// execution — OPTIONAL re-evaluations and distinct steps probing the
  /// same constant span with the same key shape reuse one build.
  std::map<std::tuple<TermId, TermId, TermId, int>, HashBuild> hash_builds_;
};

// ------------------------------------------------------- result modifiers

/// The empty result table of a SELECT with an explicit projection: the
/// projected variables' term columns, then one integer column per
/// aggregate.
ResultTable ProjectionTable(const SelectQuery& q) {
  std::vector<std::string> columns = q.vars;
  std::vector<ResultTable::ColumnType> types(q.vars.size(),
                                             ResultTable::ColumnType::kTerm);
  for (const Aggregate& a : q.aggregates) {
    columns.push_back(a.as);
    types.push_back(ResultTable::ColumnType::kInt);
  }
  return ResultTable(std::move(columns), types);
}

/// ORDER BY, then OFFSET/LIMIT. Without ORDER BY the slice is an erase.
/// Otherwise decorate-sort-undecorate over a row permutation (numeric keys
/// are parsed once per row instead of on every comparison), cut the
/// permutation to the slice, and gather only the surviving rows. Ordering
/// semantics: unbound cells first, numeric comparison when both keys parse
/// as numbers and differ, lexical comparison otherwise. An integer cell is
/// the number it holds; its lexical form (for ties between distinct
/// integers with one double value) is its decimal text, the lexical form of
/// the xsd:integer literal it serializes as.
void ApplyOrderAndSlice(const SelectQuery& q, ResultTable* table) {
  const size_t offset = q.offset.value_or(0);
  const size_t limit = q.limit.value_or(kNoCap);
  if (q.order_by.empty()) {
    table->Slice(offset, limit);
    return;
  }
  struct SortKey {
    bool present = false;
    bool numeric = false;
    double num = 0;
    const std::string* lex = nullptr;  // null for an integer cell
    int64_t integer = 0;
  };
  std::vector<std::pair<int, bool>> cols;
  for (const auto& [var, asc] : q.order_by) {
    const int col = table->ColumnIndex(var);
    if (col >= 0) cols.emplace_back(col, asc);
  }
  const size_t n = table->num_rows();
  std::vector<SortKey> keys(n * cols.size());
  for (size_t k = 0; k < cols.size(); ++k) {
    const size_t col = static_cast<size_t>(cols[k].first);
    const bool ints =
        table->column_type(col) == ResultTable::ColumnType::kInt;
    for (size_t r = 0; r < n; ++r) {
      SortKey& key = keys[r * cols.size() + k];
      if (ints) {
        key.present = key.numeric = true;
        key.integer = table->IntAt(r, col);
        key.num = static_cast<double>(key.integer);
      } else if (const Term* cell = table->TermAt(r, col)) {
        key.present = true;
        key.lex = &cell->lexical();
        key.numeric = TryParseNumber(*cell, &key.num);
      }
    }
  }
  // Strict weak ordering over mixed columns: unbound first, then numeric
  // keys (by value, lexical tiebreak), then non-numeric keys lexically. A
  // same-tier-only numeric comparison would form cycles like
  // "2" < "10" < "1z" < "2" — undefined behavior under std::stable_sort.
  auto key_less = [](const SortKey& a, const SortKey& b) {
    if (!a.present || !b.present) return b.present;
    if (a.numeric != b.numeric) return a.numeric;
    if (a.numeric && a.num != b.num) return a.num < b.num;
    if (a.lex == nullptr) {  // a column holds one cell type
      return a.integer != b.integer &&
             std::to_string(a.integer) < std::to_string(b.integer);
    }
    return *a.lex < *b.lex;
  };
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](size_t i, size_t j) {
    for (size_t k = 0; k < cols.size(); ++k) {
      const SortKey& a = keys[i * cols.size() + k];
      const SortKey& b = keys[j * cols.size() + k];
      if (key_less(a, b)) return cols[k].second;
      if (key_less(b, a)) return !cols[k].second;
    }
    return false;
  });
  const size_t begin = std::min(offset, n);
  idx.resize(begin + std::min(limit, n - begin));
  idx.erase(idx.begin(), idx.begin() + static_cast<ptrdiff_t>(begin));
  table->Gather(idx);
}

/// DISTINCT over rows that may contain computed cells (aggregate output)
/// not backed by the dictionary, so keyed by serialized cells.
void ApplyTermDistinct(ResultTable* table) {
  std::set<std::string> seen;
  std::vector<size_t> kept;
  for (size_t r = 0; r < table->num_rows(); ++r) {
    std::string key;
    for (size_t c = 0; c < table->num_columns(); ++c) {
      if (table->column_type(c) == ResultTable::ColumnType::kInt) {
        key += std::to_string(table->IntAt(r, c));
      } else if (const Term* cell = table->TermAt(r, c)) {
        key += cell->ToNTriples();
      } else {
        key += '~';
      }
      key += '\x1f';
    }
    if (seen.insert(std::move(key)).second) kept.push_back(r);
  }
  table->Gather(kept);
}

// --------------------------------------------------- count pushdown

/// How one COUNT aggregate is computed from a group's solutions.
enum class AggMode {
  kCount,  // the group's solution count: COUNT(*), COUNT of a pattern var
           // (always bound), or COUNT(DISTINCT) of the only non-key var
  kOne,    // COUNT(DISTINCT ?v) where ?v is a group key
  kSet,    // COUNT(DISTINCT ?v): a per-group id set filled by the walk
};

/// Per-group accumulator.
struct GroupAcc {
  size_t count = 0;
  std::vector<std::unordered_set<TermId>> sets;  // one per kSet aggregate
};

/// One step of the walk: a pattern's constants and, per position (s, p, o),
/// the variable slot it reads or binds (-1 for a constant).
struct WalkStep {
  PatternConsts consts;
  int slot[3] = {-1, -1, -1};
  bool binds[3] = {false, false, false};  // slot first bound at this step
};

void Charge(ExecStats* stats, size_t bindings) {
  if (stats == nullptr) return;
  stats->intermediate_bindings += bindings;
  stats->rows_avoided += bindings;
}

/// Answers a COUNT query over a plain BGP without materializing binding
/// rows: walks TripleStore::Span cursors in the planned join order, one
/// cursor per step, binding the variables no earlier step bound, and counts
/// solutions per GROUP BY key. Each opened span charges its size to
/// intermediate_bindings — exactly the rows the materializing path's step
/// produces — so result tables and charged bindings are bit-identical with
/// that path. When the last step binds no group key and no DISTINCT
/// variable, its span size is added instead of iterated.
///
/// Returns nullopt (the caller materializes) unless: SELECT with COUNT
/// aggregates, no FILTER / OPTIONAL / UNION, no variable repeated inside
/// one pattern, every GROUP BY and aggregate variable a pattern variable,
/// and every projected variable a group key.
std::optional<ResultTable> TryCountPushdown(const SelectQuery& q,
                                            const rdf::TripleStore* store,
                                            const GroupPlan& plan,
                                            ExecStats* stats) {
  const GroupGraphPattern& where = q.where;
  if (q.form != QueryForm::kSelect || q.select_all) return std::nullopt;
  if (q.aggregates.empty() || where.triples.empty()) return std::nullopt;
  if (!where.filters.empty() || !where.optionals.empty() ||
      !where.unions.empty()) {
    return std::nullopt;
  }

  const rdf::Dictionary& dict = store->dict();
  const std::vector<size_t>& order = plan.order;
  VarRegistry vars;
  std::vector<WalkStep> steps(order.size());
  for (size_t k = 0; k < order.size(); ++k) {
    const TriplePatternNode& t = where.triples[order[k]];
    const TermOrVar* slots[3] = {&t.s, &t.p, &t.o};
    WalkStep& step = steps[k];
    step.consts = plan.consts[order[k]];
    for (int j = 0; j < 3; ++j) {
      if (!slots[j]->is_var) continue;
      for (int i = 0; i < j; ++i) {
        // `?x ?p ?x` has consistency semantics the walk does not model.
        if (slots[i]->is_var && slots[i]->var == slots[j]->var) {
          return std::nullopt;
        }
      }
      const size_t before = vars.size();
      step.slot[j] = static_cast<int>(vars.Intern(slots[j]->var));
      step.binds[j] = vars.size() > before;
    }
  }

  // Group keys and projection: the materializing path projects a group's
  // first row, which for a key variable is the key itself.
  std::vector<size_t> key_slots;
  std::vector<bool> is_key(vars.size(), false);
  for (const std::string& g : q.group_by) {
    const int slot = vars.Lookup(g);
    if (slot < 0) return std::nullopt;
    key_slots.push_back(static_cast<size_t>(slot));
    is_key[static_cast<size_t>(slot)] = true;
  }
  for (const std::string& v : q.vars) {
    if (std::find(q.group_by.begin(), q.group_by.end(), v) ==
        q.group_by.end()) {
      return std::nullopt;
    }
  }

  // Solutions are distinct binding tuples (constants are fixed and triples
  // unique), so DISTINCT changes nothing for COUNT(*) or for the sole
  // variable outside the key.
  const size_t nonkey = static_cast<size_t>(
      std::count(is_key.begin(), is_key.end(), false));
  std::vector<AggMode> modes;
  std::vector<size_t> set_slots;   // kSet aggregates' variable slots
  std::vector<size_t> set_of_agg;  // aggregate -> index into set_slots
  std::vector<bool> is_set(vars.size(), false);
  for (const Aggregate& a : q.aggregates) {
    set_of_agg.push_back(set_slots.size());
    if (!a.var.has_value()) {
      modes.push_back(AggMode::kCount);
      continue;
    }
    const int slot = vars.Lookup(*a.var);
    if (slot < 0) return std::nullopt;
    if (!a.distinct || (!is_key[static_cast<size_t>(slot)] && nonkey == 1)) {
      modes.push_back(AggMode::kCount);
    } else if (is_key[static_cast<size_t>(slot)]) {
      modes.push_back(AggMode::kOne);
    } else {
      modes.push_back(AggMode::kSet);
      set_slots.push_back(static_cast<size_t>(slot));
      is_set[static_cast<size_t>(slot)] = true;
    }
  }

  ResultTable table = ProjectionTable(q);
  if (stats != nullptr) ++stats->fast_path_hits;
  std::vector<size_t> key_of_var;  // projected variable -> group key index
  for (const std::string& v : q.vars) {
    key_of_var.push_back(static_cast<size_t>(
        std::find(q.group_by.begin(), q.group_by.end(), v) -
        q.group_by.begin()));
  }

  auto emit_row = [&](const std::vector<TermId>& key, size_t count,
                      const std::vector<size_t>& distinct) {
    const size_t r = table.AppendRow();
    for (size_t c = 0; c < key_of_var.size(); ++c) {
      table.SetTerm(r, c, dict.Get(key[key_of_var[c]]));
    }
    for (size_t ai = 0; ai < q.aggregates.size(); ++ai) {
      size_t n = count;
      if (modes[ai] == AggMode::kOne) n = 1;  // emitted groups are non-empty
      if (modes[ai] == AggMode::kSet) n = distinct[set_of_agg[ai]];
      table.SetInt(r, key_of_var.size() + ai, static_cast<int64_t>(n));
    }
  };

  // Shortcut: a single-pattern global count is index arithmetic alone.
  const WalkStep& first = steps.front();
  if (steps.size() == 1 && key_slots.empty()) {
    constexpr TriplePos kPos[3] = {TriplePos::kS, TriplePos::kP,
                                   TriplePos::kO};
    const rdf::TriplePattern probe{first.consts.s, first.consts.p,
                                   first.consts.o};
    const size_t total = first.consts.missing ? 0 : store->Count(probe);
    Charge(stats, total);
    std::vector<size_t> distinct;
    for (size_t slot : set_slots) {
      const int j = static_cast<int>(
          std::find(first.slot, first.slot + 3, static_cast<int>(slot)) -
          first.slot);
      distinct.push_back(total == 0 ? 0 : store->CountDistinct(probe, kPos[j]));
    }
    emit_row({}, total, distinct);
    return table;
  }

  // Shortcut: `?s <p> ?o GROUP BY ?o` walks the POS sub-range boundaries,
  // one (object, count) pair per group, already in ascending key order.
  if (steps.size() == 1 && first.slot[0] >= 0 && first.slot[1] < 0 &&
      first.slot[2] >= 0 && key_slots.size() == 1 &&
      key_slots[0] == static_cast<size_t>(first.slot[2]) &&
      set_slots.empty()) {
    if (first.consts.missing) return table;
    for (const auto& [o, n] : store->GroupedCountByObject(first.consts.p)) {
      Charge(stats, n);
      emit_row({o}, n, {});
    }
    return table;
  }

  // The walk. Cursors live in `spans`/`pos`, one per step, so the stack
  // depth does not grow with the number of patterns.
  const size_t n = steps.size();
  bool iterate_last = false;
  for (int j = 0; j < 3; ++j) {
    const int slot = steps.back().slot[j];
    if (steps.back().binds[j] && (is_key[static_cast<size_t>(slot)] ||
                                  is_set[static_cast<size_t>(slot)])) {
      iterate_last = true;
    }
  }
  std::vector<TermId> vals(vars.size(), kInvalidTermId);
  using GroupMap = std::unordered_map<std::vector<TermId>, GroupAcc, IdVecHash>;
  GroupMap groups;
  GroupAcc global;
  global.sets.resize(set_slots.size());
  std::vector<TermId> key(key_slots.size());
  auto add = [&](size_t count) {
    GroupAcc* acc = &global;
    if (!key_slots.empty()) {
      for (size_t ki = 0; ki < key_slots.size(); ++ki) {
        key[ki] = vals[key_slots[ki]];
      }
      acc = &groups[key];
      acc->sets.resize(set_slots.size());
    }
    acc->count += count;
    for (size_t si = 0; si < set_slots.size(); ++si) {
      acc->sets[si].insert(vals[set_slots[si]]);
    }
  };

  size_t charged = 0;
  std::vector<rdf::TripleSpan> spans(n);
  std::vector<size_t> pos(n, 0);
  auto open = [&](size_t k) {
    const WalkStep& st = steps[k];
    spans[k] = {};
    pos[k] = 0;
    if (!st.consts.missing) {
      TermId ids[3] = {st.consts.s, st.consts.p, st.consts.o};
      for (int j = 0; j < 3; ++j) {
        if (st.slot[j] >= 0) {
          ids[j] = st.binds[j] ? kInvalidTermId
                               : vals[static_cast<size_t>(st.slot[j])];
        }
      }
      spans[k] = store->Span(rdf::TriplePattern{ids[0], ids[1], ids[2]});
      charged += spans[k].size;
    }
    if (k + 1 == n && !iterate_last) {
      if (spans[k].size > 0) add(spans[k].size);
      pos[k] = spans[k].size;
    }
  };
  open(0);
  size_t k = 0;
  for (;;) {
    if (pos[k] == spans[k].size) {
      if (k == 0) break;
      ++pos[--k];
      continue;
    }
    const rdf::Triple& t = spans[k].data[pos[k]];
    const TermId ids[3] = {t.s, t.p, t.o};
    for (int j = 0; j < 3; ++j) {
      if (steps[k].binds[j]) {
        vals[static_cast<size_t>(steps[k].slot[j])] = ids[j];
      }
    }
    if (k + 1 == n) {
      add(1);
      ++pos[k];
    } else {
      open(++k);
    }
  }
  Charge(stats, charged);

  if (key_slots.empty()) {
    std::vector<size_t> distinct;
    for (const auto& s : global.sets) distinct.push_back(s.size());
    emit_row({}, global.count, distinct);
    return table;
  }
  // Ascending key order, as the materializing path's sorted group emission.
  std::vector<const GroupMap::value_type*> sorted;
  sorted.reserve(groups.size());
  for (const auto& entry : groups) sorted.push_back(&entry);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* entry : sorted) {
    std::vector<size_t> distinct;
    for (const auto& s : entry->second.sets) distinct.push_back(s.size());
    emit_row(entry->first, entry->second.count, distinct);
  }
  return table;
}

/// CI sanitizer runs export HBOLD_FORCE_HASH_JOIN=1 to drive every
/// eligible join step through the hash operator across the whole test
/// suite — results are bit-identical by construction, so only operator
/// lifetime/memory bugs can surface. Any other value leaves the cost
/// model in charge.
bool ForceHashJoinFromEnv() {
  const char* env = std::getenv("HBOLD_FORCE_HASH_JOIN");
  return env != nullptr && std::string_view(env) == "1";
}

/// HBOLD_HASH_SPILL_BUDGET=<bytes> overrides the hash-join spill threshold
/// — sanitizer runs set a tiny budget to drive every build through the
/// spill path (results are bit-identical by construction). Only a full
/// unsigned decimal is accepted; anything else is reported and ignored.
bool HashSpillBudgetFromEnv(size_t* budget) {
  const char* env = std::getenv("HBOLD_HASH_SPILL_BUDGET");
  if (env == nullptr) return false;
  const std::string_view text(env);
  const char* end = text.data() + text.size();
  size_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    HBOLD_LOG(kWarn) << "ignoring HBOLD_HASH_SPILL_BUDGET=\"" << text
                     << "\": expected an unsigned decimal byte count";
    return false;
  }
  *budget = value;
  return true;
}

}  // namespace

Executor::Executor(const rdf::TripleStore* store, ExecOptions options,
                   PlanCache* plan_cache)
    : store_(store), options_(options), plan_cache_(plan_cache) {
  if (ForceHashJoinFromEnv()) options_.hash_join = HashJoinMode::kForce;
  size_t budget = 0;
  if (HashSpillBudgetFromEnv(&budget) &&
      options_.hash_join_spill_budget_bytes ==
          ExecOptions{}.hash_join_spill_budget_bytes) {
    // The env override stands in for the default only: a caller that set
    // an explicit budget (differential tests pinning spill behavior)
    // keeps it even under the CI-wide override.
    options_.hash_join_spill_budget_bytes = budget;
  }
}

Result<ParsedQuery> Executor::Parse(const std::string& query_text) const {
  ParsedQuery parsed;
  if (plan_cache_ != nullptr) {
    // Prepared-statement tier: a repeated text skips parse AND planning.
    parsed.generation_ = store_->generation();
    parsed.prepared_ =
        plan_cache_->LookupPrepared(query_text, parsed.generation_);
    if (parsed.prepared_ != nullptr) return parsed;
  }
  HBOLD_ASSIGN_OR_RETURN(parsed.fresh_, ParseQuery(query_text));
  return parsed;
}

Result<ResultTable> Executor::Execute(const std::string& query_text,
                                      ParsedQuery parsed,
                                      ExecStats* stats) const {
  if (parsed.prepared_ != nullptr) {
    if (stats != nullptr) ++stats->plan_cache_hits;
    return ExecutePlanned(parsed.prepared_->query, parsed.prepared_->plan,
                          stats);
  }
  QueryPlan plan = Plan(parsed.fresh_, stats);
  if (plan_cache_ == nullptr || !plan_cache_->SeenBefore(query_text)) {
    return ExecutePlanned(parsed.fresh_, plan, stats);
  }
  auto insert = std::make_shared<PreparedQuery>(
      PreparedQuery{std::move(parsed.fresh_), std::move(plan)});
  plan_cache_->InsertPrepared(query_text, parsed.generation_, insert);
  return ExecutePlanned(insert->query, insert->plan, stats);
}

Result<ResultTable> Executor::Execute(const std::string& query_text,
                                      ExecStats* stats) const {
  HBOLD_ASSIGN_OR_RETURN(ParsedQuery parsed, Parse(query_text));
  return Execute(query_text, std::move(parsed), stats);
}

QueryPlan Executor::Plan(const SelectQuery& q, ExecStats* stats) const {
  // Planning is a deterministic function of (query, store content), and a
  // rebuilt store changes its generation, so a cached plan equals a fresh
  // one: caching never changes results or charged accounting.
  if (plan_cache_ != nullptr) {
    plan_cache_->RecordMiss();
    if (stats != nullptr) ++stats->plan_cache_misses;
  }
  return PlanQuery(q, options_, store_);
}

Result<ResultTable> Executor::Execute(const SelectQuery& q,
                                      ExecStats* stats) const {
  return ExecutePlanned(q, Plan(q, stats), stats);
}

Result<ResultTable> Executor::ExecutePlanned(const SelectQuery& q,
                                             const QueryPlan& plan,
                                             ExecStats* stats) const {
  // Count pushdown: a COUNT over a plain BGP is answered by a span walk in
  // the planned order; ordinary solution modifiers run on top. Everything
  // else falls through to the materializing path.
  if (options_.aggregate_pushdown) {
    std::optional<ResultTable> fast =
        TryCountPushdown(q, store_, plan.groups.front(), stats);
    if (fast.has_value()) {
      if (q.distinct) ApplyTermDistinct(&*fast);
      ApplyOrderAndSlice(q, &*fast);
      if (stats != nullptr) stats->result_rows = fast->num_rows();
      return *std::move(fast);
    }
  }

  VarRegistry vars;
  CollectVars(q.where, &vars);
  for (const std::string& v : q.vars) vars.Intern(v);
  for (const std::string& v : q.group_by) vars.Intern(v);
  for (const Aggregate& a : q.aggregates) {
    if (a.var.has_value()) vars.Intern(*a.var);
  }

  const bool grouping = !q.group_by.empty() || !q.aggregates.empty();

  // OFFSET+LIMIT (saturating): no slice keeps a row past it.
  size_t slice_end = kNoCap;
  if (q.limit.has_value() && q.offset.value_or(0) + *q.limit >= *q.limit) {
    slice_end = q.offset.value_or(0) + *q.limit;
  }
  // LIMIT pushdown: when nothing downstream (grouping, DISTINCT, ORDER BY,
  // filters, optionals, unions) can change which rows survive, the join
  // loop may stop at OFFSET+LIMIT rows. ASK stops at the first solution.
  size_t row_cap = kNoCap;
  if (options_.limit_pushdown && !grouping && !q.distinct &&
      q.order_by.empty() && q.where.filters.empty() &&
      q.where.optionals.empty() && q.where.unions.empty()) {
    row_cap = q.form == QueryForm::kAsk ? 1 : slice_end;
  }

  GroupPlanMap plan_map =
      BuildGroupPlanMap(q, plan, options_.filter_pushdown);
  GroupEvaluator evaluator(store_, &vars, stats, options_, &plan_map);
  std::vector<RowIds> rows = evaluator.Eval(
      q.where, {RowIds(vars.size(), kInvalidTermId)}, row_cap);

  // ASK: one row, one boolean cell named "ask" (mirrors the SPARQL JSON
  // results `boolean` member; ResultTable::AskResult decodes it).
  if (q.form == QueryForm::kAsk) {
    ResultTable ask_table({"ask"});
    ask_table.SetTerm(ask_table.AppendRow(), 0,
                      Term::BoolLiteral(!rows.empty()));
    if (stats != nullptr) stats->result_rows = 1;
    return ask_table;
  }

  // Projection: the selected variables, then one integer column per
  // aggregate.
  ResultTable table = q.select_all ? ResultTable(vars.names())
                                   : ProjectionTable(q);
  const size_t num_vars = q.select_all ? table.num_columns() : q.vars.size();
  std::vector<int> slots;
  for (size_t c = 0; c < num_vars; ++c) {
    slots.push_back(vars.Lookup(table.columns()[c]));
  }
  const rdf::Dictionary& dict = store_->dict();
  auto emit_vars = [&](const RowIds& row) {
    const size_t r = table.AppendRow();
    for (size_t c = 0; c < slots.size(); ++c) {
      const TermId id =
          slots[c] < 0 ? kInvalidTermId : row[static_cast<size_t>(slots[c])];
      if (id != kInvalidTermId) table.SetTerm(r, c, dict.Get(id));
    }
    return r;
  };

  if (grouping) {
    // Group rows by the GROUP BY key (empty key = single global group).
    // Hash-accumulate on TermId vectors, then emit in sorted key order —
    // identical output to the former ordered-map walk without per-row
    // O(log groups) key-vector comparisons.
    std::vector<int> key_slots;
    for (const std::string& g : q.group_by) key_slots.push_back(vars.Lookup(g));
    std::unordered_map<std::vector<TermId>, std::vector<const RowIds*>,
                       IdVecHash>
        groups;
    for (const RowIds& row : rows) {
      std::vector<TermId> key;
      key.reserve(key_slots.size());
      for (int s : key_slots) {
        key.push_back(s < 0 ? kInvalidTermId : row[static_cast<size_t>(s)]);
      }
      groups[std::move(key)].push_back(&row);
    }
    // An empty input still yields one (empty) group for a global aggregate.
    if (groups.empty() && q.group_by.empty()) {
      groups[{}] = {};
    }
    std::vector<
        const std::pair<const std::vector<TermId>, std::vector<const RowIds*>>*>
        ordered;
    ordered.reserve(groups.size());
    for (const auto& entry : groups) ordered.push_back(&entry);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    const RowIds unbound(vars.size(), kInvalidTermId);
    table.Reserve(ordered.size());
    for (const auto* entry : ordered) {
      const std::vector<const RowIds*>& members = entry->second;
      const size_t r = emit_vars(members.empty() ? unbound : *members.front());
      for (size_t ai = 0; ai < q.aggregates.size(); ++ai) {
        const Aggregate& a = q.aggregates[ai];
        // COUNT(*) counts every row, COUNT(?v) the rows binding ?v.
        const int slot = a.var.has_value() ? vars.Lookup(*a.var) : -1;
        auto value = [&](const RowIds* m) {
          return slot < 0 ? kInvalidTermId : (*m)[static_cast<size_t>(slot)];
        };
        size_t count = 0;
        if (!a.var.has_value() && a.distinct) {
          std::unordered_set<RowIds, IdVecHash> distinct_rows;
          for (const RowIds* m : members) distinct_rows.insert(*m);
          count = distinct_rows.size();
        } else if (!a.var.has_value()) {
          count = members.size();
        } else if (a.distinct) {
          std::unordered_set<TermId> seen;
          for (const RowIds* m : members) seen.insert(value(m));
          count = seen.size() - seen.count(kInvalidTermId);
        } else {
          for (const RowIds* m : members) count += value(m) != kInvalidTermId;
        }
        table.SetInt(r, num_vars + ai, static_cast<int64_t>(count));
      }
    }
    // Aggregate rows contain computed cells, so DISTINCT keys on the
    // table's cells.
    if (q.distinct) ApplyTermDistinct(&table);
  } else {
    // Non-aggregate DISTINCT dedups on the projected id tuple — equal ids
    // iff equal terms, since the dictionary interns. Without ORDER BY the
    // slice keeps the first rows emitted, so emission stops at its end.
    const size_t emit_cap = q.order_by.empty() ? slice_end : kNoCap;
    std::unordered_set<std::vector<TermId>, IdVecHash> seen;
    if (!q.distinct) table.Reserve(std::min(rows.size(), emit_cap));
    for (const RowIds& row : rows) {
      if (table.num_rows() >= emit_cap) break;
      if (q.distinct) {
        std::vector<TermId> key;
        key.reserve(slots.size());
        for (int s : slots) {
          key.push_back(s < 0 ? kInvalidTermId : row[static_cast<size_t>(s)]);
        }
        if (!seen.insert(std::move(key)).second) continue;
      }
      emit_vars(row);
    }
  }

  ApplyOrderAndSlice(q, &table);

  if (stats != nullptr) stats->result_rows = table.num_rows();
  return table;
}

}  // namespace hbold::sparql
