#include "extraction/strategies.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/thread_pool.h"
#include "endpoint/query_batch.h"
#include "rdf/vocab.h"

namespace hbold::extraction {

namespace {

using endpoint::QueryBatch;
using endpoint::QueryBatchOptions;
using endpoint::QueryOutcome;
using endpoint::SparqlEndpoint;
using sparql::ResultTable;
constexpr ResultTable::ColumnType kTerm = ResultTable::ColumnType::kTerm;
constexpr ResultTable::ColumnType kInt = ResultTable::ColumnType::kInt;

/// Issues one query sequentially, accumulating report cost. A sequential
/// query contributes its full latency to the intra-pipeline makespan —
/// nothing overlaps it.
Result<QueryOutcome> Run(SparqlEndpoint* ep, const std::string& q,
                         ExtractionReport* report) {
  auto outcome = ep->Query(q);
  if (report != nullptr) {
    ++report->queries_issued;
    if (outcome.ok()) {
      report->total_latency_ms += outcome->latency_ms;
      report->intra_makespan_ms += outcome->latency_ms;
      report->rows_transferred += outcome->table.num_rows();
    }
  }
  return outcome;
}

/// Extracts the single COUNT cell of an aggregate query result.
Result<int64_t> RunCount(SparqlEndpoint* ep, const std::string& q,
                         ExtractionReport* report) {
  HBOLD_ASSIGN_OR_RETURN(QueryOutcome outcome, Run(ep, q, report));
  std::optional<int64_t> n = outcome.table.ScalarInt("n");
  if (!n.has_value()) {
    return Status::Internal("count query returned no scalar: " + q);
  }
  return *n;
}

/// The COUNT cell of an already-fetched batch outcome.
Result<int64_t> ScalarOf(const QueryOutcome& outcome) {
  std::optional<int64_t> n = outcome.table.ScalarInt("n");
  if (!n.has_value()) {
    return Status::Internal("count query returned no scalar");
  }
  return *n;
}

/// Runs `queries` against `ep` as one fan-out batch (with a null pool —
/// i.e. strictly on this thread — when the context disables batching)
/// and charges `report` per the deterministic-accounting contract in
/// strategies.h: outcomes are charged in submission order up to and
/// including the first failure OR first truncated outcome (both abort
/// the batch — every RunBatch caller treats truncation as Unsupported,
/// so later queries would be wasted endpoint work). Returned outcomes
/// are in submission order; callers must treat the first non-ok or
/// truncated entry as the abort point and ignore everything after it.
/// The batch contributes its width-scheduled makespan (not its latency
/// sum) to intra_makespan_ms.
std::vector<Result<QueryOutcome>> RunBatch(SparqlEndpoint* ep,
                                           const std::vector<std::string>& qs,
                                           const ExtractionContext& ctx,
                                           ExtractionReport* report) {
  std::vector<Result<QueryOutcome>> outcomes;
  if (qs.empty()) return outcomes;
  // One implementation for both modes: QueryBatch with a null pool is
  // exactly the sequential walk (caller-only claim loop), so the abort
  // rule cannot drift between batching on and off.
  const bool batched = ctx.batching_enabled() && qs.size() > 1;
  QueryBatchOptions options;
  options.pool = batched ? ctx.pool : nullptr;
  options.per_endpoint_limit = batched ? ctx.batch_width : 1;
  options.abort_on_truncation = true;
  outcomes = QueryBatch::RunOnOne(ep, qs, options);
  if (report != nullptr) {
    if (batched) ++report->batches_issued;
    // With batching off, intra makespan accrues query by query — the
    // exact addition sequence total_latency_ms sees — so the two stay
    // bit-identical, not merely close.
    WorkerLatencyLedger ledger(ctx.batch_width);
    for (const Result<QueryOutcome>& outcome : outcomes) {
      ++report->queries_issued;
      if (!outcome.ok()) break;  // failure charged as issued, no latency
      report->total_latency_ms += outcome->latency_ms;
      report->rows_transferred += outcome->table.num_rows();
      if (batched) {
        ledger.Assign(outcome->latency_ms);
      } else {
        report->intra_makespan_ms += outcome->latency_ms;
      }
      if (outcome->truncated) break;  // abort point: charged, then stop
    }
    if (batched) report->intra_makespan_ms += ledger.MakespanMs();
  }
  return outcomes;
}

std::string IriRef(const std::string& iri) { return "<" + iri + ">"; }

/// Canonical ordering shared by every strategy and the delta merge.
void Canonicalize(IndexSummary* s) { CanonicalizeIndexSummary(s); }

/// Parses one class's (props, ranges) outcome pair from the direct-
/// aggregation per-class batch into `cls` — shared by the full and the
/// dirty-class-restricted paths so their per-class figures cannot drift.
Status ParseClassPropsRanges(ClassInfo* cls,
                             Result<QueryOutcome>& props_result,
                             Result<QueryOutcome>& ranges_result) {
  if (!props_result.ok()) return props_result.status();
  QueryOutcome& props = *props_result;
  if (props.truncated) {
    return Status::Unsupported("property list truncated");
  }
  const ResultTable& pt = props.table;
  const int p_col = pt.ColumnIndex("p", kTerm);
  const int n_col = pt.ColumnIndex("n", kInt);
  for (size_t i = 0; p_col >= 0 && n_col >= 0 && i < pt.num_rows(); ++i) {
    const rdf::Term* p = pt.TermAt(i, p_col);
    if (p == nullptr || p->lexical() == rdf::vocab::kRdfType) continue;
    PropertyInfo info;
    info.iri = p->lexical();
    info.count = static_cast<size_t>(pt.IntAt(i, n_col));
    cls->properties.push_back(std::move(info));
  }
  if (!ranges_result.ok()) return ranges_result.status();
  QueryOutcome& ranges = *ranges_result;
  if (ranges.truncated) {
    return Status::Unsupported("range list truncated");
  }
  const ResultTable& rt = ranges.table;
  const int rp_col = rt.ColumnIndex("p", kTerm);
  const int rc_col = rt.ColumnIndex("rc", kTerm);
  const int rn_col = rt.ColumnIndex("n", kInt);
  const bool resolved = rp_col >= 0 && rc_col >= 0 && rn_col >= 0;
  for (size_t i = 0; resolved && i < rt.num_rows(); ++i) {
    const rdf::Term* p = rt.TermAt(i, rp_col);
    const rdf::Term* rc = rt.TermAt(i, rc_col);
    if (p == nullptr || rc == nullptr) continue;
    if (p->lexical() == rdf::vocab::kRdfType) continue;
    for (PropertyInfo& info : cls->properties) {
      if (info.iri == p->lexical()) {
        info.is_object_property = true;
        info.range_classes[rc->lexical()] =
            static_cast<size_t>(rt.IntAt(i, rn_col));
        break;
      }
    }
  }
  return Status::OK();
}

/// The two direct-aggregation per-class query texts (props, ranges).
std::string DirectPropsQuery(const std::string& cls_iri) {
  return "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s a " + IriRef(cls_iri) +
         " . ?s ?p ?o . } GROUP BY ?p";
}
std::string DirectRangesQuery(const std::string& cls_iri) {
  return "SELECT ?p ?rc (COUNT(?o) AS ?n) WHERE { ?s a " + IriRef(cls_iri) +
         " . ?s ?p ?o . ?o a ?rc . } GROUP BY ?p ?rc";
}

/// The global counts every strategy (full or restricted) re-queries.
Status RunGlobalCounts(SparqlEndpoint* ep, ExtractionReport* report,
                       IndexSummary* s) {
  HBOLD_ASSIGN_OR_RETURN(
      int64_t triples,
      RunCount(ep, "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }", report));
  s->num_triples = static_cast<size_t>(triples);
  HBOLD_ASSIGN_OR_RETURN(
      int64_t instances,
      RunCount(ep, "SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s a ?c . }",
               report));
  s->num_instances = static_cast<size_t>(instances);
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------------------
// Strategy 1: direct aggregation.
// ------------------------------------------------------------------------

Result<IndexSummary> DirectAggregationStrategy::Extract(
    SparqlEndpoint* ep, const ExtractionContext& context,
    ExtractionReport* report) const {
  IndexSummary s;
  s.endpoint_url = ep->url();
  HBOLD_RETURN_NOT_OK(RunGlobalCounts(ep, report, &s));

  // Class list with per-class instance counts in one grouped query.
  HBOLD_ASSIGN_OR_RETURN(
      QueryOutcome classes,
      Run(ep,
          "SELECT ?c (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s a ?c . } "
          "GROUP BY ?c",
          report));
  if (classes.truncated) {
    return Status::Unsupported("class list truncated by endpoint row cap");
  }
  const ResultTable& ct = classes.table;
  const int c_col = ct.ColumnIndex("c", kTerm);
  const int n_col = ct.ColumnIndex("n", kInt);
  for (size_t i = 0; c_col >= 0 && n_col >= 0 && i < ct.num_rows(); ++i) {
    const rdf::Term* c = ct.TermAt(i, c_col);
    if (c == nullptr) continue;
    ClassInfo info;
    info.iri = c->lexical();
    info.instance_count = static_cast<size_t>(ct.IntAt(i, n_col));
    s.classes.push_back(std::move(info));
  }

  // Per class: property usage counts and object-property ranges. The 2C
  // queries are independent given the class list, so they fan out as one
  // batch; outcomes are processed in submission order (props_i, ranges_i
  // per class) so truncation and failures surface deterministically.
  std::vector<std::string> class_queries;
  class_queries.reserve(s.classes.size() * 2);
  for (const ClassInfo& cls : s.classes) {
    class_queries.push_back(DirectPropsQuery(cls.iri));
    class_queries.push_back(DirectRangesQuery(cls.iri));
  }
  std::vector<Result<QueryOutcome>> outcomes =
      RunBatch(ep, class_queries, context, report);

  for (size_t ci = 0; ci < s.classes.size(); ++ci) {
    HBOLD_RETURN_NOT_OK(ParseClassPropsRanges(
        &s.classes[ci], outcomes[ci * 2], outcomes[ci * 2 + 1]));
  }

  Canonicalize(&s);
  if (report != nullptr) report->strategy_used = name();
  return s;
}

Result<IndexSummary> DirectAggregationStrategy::ExtractClasses(
    SparqlEndpoint* ep, const ExtractionContext& context,
    const std::vector<std::string>& class_iris,
    ExtractionReport* report) const {
  IndexSummary s;
  s.endpoint_url = ep->url();
  HBOLD_RETURN_NOT_OK(RunGlobalCounts(ep, report, &s));

  // 3 queries per dirty class — fresh instance count (the grouped class
  // enumeration the full path pays for is exactly what this mode skips),
  // then the same props/ranges shapes as the full path.
  std::vector<std::string> queries;
  queries.reserve(class_iris.size() * 3);
  for (const std::string& iri : class_iris) {
    queries.push_back("SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s a " +
                      IriRef(iri) + " . }");
    queries.push_back(DirectPropsQuery(iri));
    queries.push_back(DirectRangesQuery(iri));
  }
  std::vector<Result<QueryOutcome>> outcomes =
      RunBatch(ep, queries, context, report);

  for (size_t ci = 0; ci < class_iris.size(); ++ci) {
    Result<QueryOutcome>& count_result = outcomes[ci * 3];
    if (!count_result.ok()) return count_result.status();
    HBOLD_ASSIGN_OR_RETURN(int64_t count, ScalarOf(*count_result));
    ClassInfo cls;
    cls.iri = class_iris[ci];
    cls.instance_count = static_cast<size_t>(count);
    HBOLD_RETURN_NOT_OK(ParseClassPropsRanges(&cls, outcomes[ci * 3 + 1],
                                              outcomes[ci * 3 + 2]));
    // A dirty class re-extracted to zero instances no longer exists on the
    // endpoint; the merge drops it from the prior summary.
    if (cls.instance_count > 0) s.classes.push_back(std::move(cls));
  }

  Canonicalize(&s);
  if (report != nullptr) report->strategy_used = name();
  return s;
}

// ------------------------------------------------------------------------
// Strategy 2: per-class COUNT, no GROUP BY.
// ------------------------------------------------------------------------

namespace {

/// The three per-class query waves of the per-class-count strategy, run
/// over whatever class list `s` already holds (the full path enumerates
/// all classes first; the dirty-class path seeds only the dirty ones).
/// Fills instance counts, property lists, usage counts, and ranges.
Status RunPerClassWaves(SparqlEndpoint* ep, const ExtractionContext& context,
                        IndexSummary* sp, ExtractionReport* report) {
  IndexSummary& s = *sp;
  // Wave 1 — per class: instance count + property enumeration. Both
  // depend only on the class list, so the 2C queries are one batch.
  std::vector<std::string> wave1;
  wave1.reserve(s.classes.size() * 2);
  for (const ClassInfo& cls : s.classes) {
    wave1.push_back("SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s a " +
                    IriRef(cls.iri) + " . }");
    wave1.push_back("SELECT DISTINCT ?p WHERE { ?s a " + IriRef(cls.iri) +
                    " . ?s ?p ?o . }");
  }
  std::vector<Result<QueryOutcome>> wave1_out =
      RunBatch(ep, wave1, context, report);
  for (size_t ci = 0; ci < s.classes.size(); ++ci) {
    ClassInfo& cls = s.classes[ci];
    Result<QueryOutcome>& count_result = wave1_out[ci * 2];
    if (!count_result.ok()) return count_result.status();
    HBOLD_ASSIGN_OR_RETURN(int64_t count, ScalarOf(*count_result));
    cls.instance_count = static_cast<size_t>(count);

    Result<QueryOutcome>& props_result = wave1_out[ci * 2 + 1];
    if (!props_result.ok()) return props_result.status();
    if (props_result->truncated) {
      return Status::Unsupported("property enumeration truncated");
    }
    const ResultTable& pt = props_result->table;
    const int p_col = pt.ColumnIndex("p", kTerm);
    for (size_t pi = 0; p_col >= 0 && pi < pt.num_rows(); ++pi) {
      const rdf::Term* p = pt.TermAt(pi, p_col);
      if (p == nullptr || p->lexical() == rdf::vocab::kRdfType) continue;
      PropertyInfo info;
      info.iri = p->lexical();
      cls.properties.push_back(std::move(info));
    }
  }

  // Wave 2 — per (class, property): usage count + object-range
  // enumeration.
  std::vector<std::string> wave2;
  std::vector<std::pair<size_t, size_t>> wave2_at;  // (class, property)
  for (size_t ci = 0; ci < s.classes.size(); ++ci) {
    const ClassInfo& cls = s.classes[ci];
    for (size_t pi = 0; pi < cls.properties.size(); ++pi) {
      const std::string& prop = cls.properties[pi].iri;
      wave2.push_back("SELECT (COUNT(?o) AS ?n) WHERE { ?s a " +
                      IriRef(cls.iri) + " . ?s " + IriRef(prop) + " ?o . }");
      wave2.push_back("SELECT DISTINCT ?rc WHERE { ?s a " + IriRef(cls.iri) +
                      " . ?s " + IriRef(prop) + " ?o . ?o a ?rc . }");
      wave2_at.emplace_back(ci, pi);
    }
  }
  std::vector<Result<QueryOutcome>> wave2_out =
      RunBatch(ep, wave2, context, report);

  // Wave 3 — per (class, property, range class): range usage count.
  std::vector<std::string> wave3;
  std::vector<std::pair<std::pair<size_t, size_t>, std::string>> wave3_at;
  for (size_t wi = 0; wi < wave2_at.size(); ++wi) {
    auto [ci, pi] = wave2_at[wi];
    PropertyInfo& info = s.classes[ci].properties[pi];

    Result<QueryOutcome>& usage_result = wave2_out[wi * 2];
    if (!usage_result.ok()) return usage_result.status();
    HBOLD_ASSIGN_OR_RETURN(int64_t usage, ScalarOf(*usage_result));
    info.count = static_cast<size_t>(usage);

    Result<QueryOutcome>& ranges_result = wave2_out[wi * 2 + 1];
    if (!ranges_result.ok()) return ranges_result.status();
    if (ranges_result->truncated) {
      return Status::Unsupported("range enumeration truncated");
    }
    const ResultTable& rt = ranges_result->table;
    const int rc_col = rt.ColumnIndex("rc", kTerm);
    for (size_t ri = 0; rc_col >= 0 && ri < rt.num_rows(); ++ri) {
      const rdf::Term* rc = rt.TermAt(ri, rc_col);
      if (rc == nullptr) continue;
      wave3.push_back("SELECT (COUNT(?o) AS ?n) WHERE { ?s a " +
                      IriRef(s.classes[ci].iri) + " . ?s " +
                      IriRef(info.iri) + " ?o . ?o a " +
                      IriRef(rc->lexical()) + " . }");
      wave3_at.emplace_back(std::make_pair(ci, pi), rc->lexical());
    }
  }
  std::vector<Result<QueryOutcome>> wave3_out =
      RunBatch(ep, wave3, context, report);
  for (size_t wi = 0; wi < wave3_at.size(); ++wi) {
    auto& [at, range_class] = wave3_at[wi];
    Result<QueryOutcome>& rn_result = wave3_out[wi];
    if (!rn_result.ok()) return rn_result.status();
    HBOLD_ASSIGN_OR_RETURN(int64_t rn, ScalarOf(*rn_result));
    PropertyInfo& info = s.classes[at.first].properties[at.second];
    info.is_object_property = true;
    info.range_classes[range_class] = static_cast<size_t>(rn);
  }
  return Status::OK();
}

}  // namespace

Result<IndexSummary> PerClassCountStrategy::Extract(
    SparqlEndpoint* ep, const ExtractionContext& context,
    ExtractionReport* report) const {
  IndexSummary s;
  s.endpoint_url = ep->url();
  HBOLD_RETURN_NOT_OK(RunGlobalCounts(ep, report, &s));

  HBOLD_ASSIGN_OR_RETURN(
      QueryOutcome classes,
      Run(ep, "SELECT DISTINCT ?c WHERE { ?s a ?c . }", report));
  if (classes.truncated) {
    return Status::Unsupported("class enumeration truncated");
  }
  const ResultTable& ct = classes.table;
  const int c_col = ct.ColumnIndex("c", kTerm);
  for (size_t i = 0; c_col >= 0 && i < ct.num_rows(); ++i) {
    const rdf::Term* c = ct.TermAt(i, c_col);
    if (c == nullptr) continue;
    ClassInfo cls;
    cls.iri = c->lexical();
    s.classes.push_back(std::move(cls));
  }

  HBOLD_RETURN_NOT_OK(RunPerClassWaves(ep, context, &s, report));

  Canonicalize(&s);
  if (report != nullptr) report->strategy_used = name();
  return s;
}

Result<IndexSummary> PerClassCountStrategy::ExtractClasses(
    SparqlEndpoint* ep, const ExtractionContext& context,
    const std::vector<std::string>& class_iris,
    ExtractionReport* report) const {
  IndexSummary s;
  s.endpoint_url = ep->url();
  HBOLD_RETURN_NOT_OK(RunGlobalCounts(ep, report, &s));

  // Seed the class list with the dirty classes (skipping the class
  // enumeration query) and run the same three waves the full path runs.
  for (const std::string& iri : class_iris) {
    ClassInfo cls;
    cls.iri = iri;
    s.classes.push_back(std::move(cls));
  }
  HBOLD_RETURN_NOT_OK(RunPerClassWaves(ep, context, &s, report));

  // Dirty classes re-extracted to zero instances no longer exist; the
  // merge drops them from the prior summary.
  s.classes.erase(std::remove_if(s.classes.begin(), s.classes.end(),
                                 [](const ClassInfo& c) {
                                   return c.instance_count == 0;
                                 }),
                  s.classes.end());

  Canonicalize(&s);
  if (report != nullptr) report->strategy_used = name();
  return s;
}

// ------------------------------------------------------------------------
// Strategy 3: paginated scan, all counting client-side.
// ------------------------------------------------------------------------

namespace {

/// Pages through `base_query LIMIT page_size OFFSET <o>`, handing every
/// page's table to `page_fn`. With batching on, up to batch_width page
/// requests fly speculatively; the logical page stream (and everything
/// charged to `report`) is identical to the sequential walk — speculative
/// pages past the terminal page are discarded uncharged, and a truncated
/// page (row-capped endpoint, offsets no longer predictable) drops the
/// scan back to sequential paging for good.
template <typename PageFn>
Status ScanPages(SparqlEndpoint* ep, const std::string& base_query,
                 size_t page_size, const ExtractionContext& ctx,
                 ExtractionReport* report, PageFn page_fn) {
  auto page_query = [&](size_t offset) {
    return base_query + " LIMIT " + std::to_string(page_size) + " OFFSET " +
           std::to_string(offset);
  };

  size_t offset = 0;
  bool sequential = !ctx.batching_enabled();
  while (true) {
    if (sequential) {
      HBOLD_ASSIGN_OR_RETURN(QueryOutcome page,
                             Run(ep, page_query(offset), report));
      page_fn(page.table);
      // A row-capped endpoint may return fewer rows than LIMIT asked
      // for; advance by what actually arrived and keep paging.
      if (page.truncated) {
        offset += page.table.num_rows();
        continue;
      }
      if (page.table.num_rows() < page_size) return Status::OK();
      offset += page_size;
      continue;
    }

    // Speculative wave: batch_width pages at the offsets the sequential
    // walk would visit if every page comes back full.
    std::vector<std::string> wave;
    wave.reserve(ctx.batch_width);
    for (size_t k = 0; k < ctx.batch_width; ++k) {
      wave.push_back(page_query(offset + k * page_size));
    }
    QueryBatchOptions options;
    options.pool = ctx.pool;
    options.per_endpoint_limit = ctx.batch_width;
    // A truncated page ends the wave's usefulness (offsets past it are
    // wrong); stop launching speculative pages once one comes back so.
    options.abort_on_truncation = true;
    std::vector<Result<QueryOutcome>> pages =
        QueryBatch::RunOnOne(ep, wave, options);
    if (report != nullptr) ++report->batches_issued;

    // Consume in order; charge only the pages the sequential walk would
    // have issued. The wave overlapped, so it adds the max (not the sum)
    // of the used pages' latencies to the intra-pipeline makespan.
    double wave_makespan_ms = 0;
    auto charge = [&](const QueryOutcome& page) {
      if (report == nullptr) return;
      ++report->queries_issued;
      report->total_latency_ms += page.latency_ms;
      report->rows_transferred += page.table.num_rows();
      wave_makespan_ms = std::max(wave_makespan_ms, page.latency_ms);
    };
    auto wave_done = [&] {
      if (report != nullptr) report->intra_makespan_ms += wave_makespan_ms;
    };
    for (size_t k = 0; k < pages.size(); ++k) {
      Result<QueryOutcome>& page_result = pages[k];
      if (!page_result.ok()) {
        // The sequential walk reached (and was charged for) this page.
        if (report != nullptr) ++report->queries_issued;
        wave_done();
        return page_result.status();
      }
      QueryOutcome& page = *page_result;
      charge(page);
      page_fn(page.table);
      if (page.truncated) {
        offset += k * page_size + page.table.num_rows();
        sequential = true;  // offsets no longer predictable
        break;
      }
      if (page.table.num_rows() < page_size) {
        wave_done();
        return Status::OK();  // terminal page; rest of wave discarded
      }
    }
    wave_done();
    if (!sequential) offset += ctx.batch_width * page_size;
  }
}

/// Pass 1 of the paginated scan: each page's (subject, class) rows into
/// the subject -> classes map.
void CollectTypes(const ResultTable& table,
                  std::map<std::string, std::set<std::string>>* types_of) {
  const int s_col = table.ColumnIndex("s", kTerm);
  const int c_col = table.ColumnIndex("c", kTerm);
  for (size_t i = 0; s_col >= 0 && c_col >= 0 && i < table.num_rows(); ++i) {
    const rdf::Term* subj = table.TermAt(i, s_col);
    const rdf::Term* cls = table.TermAt(i, c_col);
    if (subj != nullptr && cls != nullptr) {
      (*types_of)[subj->ToNTriples()].insert(cls->lexical());
    }
  }
}

}  // namespace

Result<IndexSummary> PaginatedScanStrategy::Extract(
    SparqlEndpoint* ep, const ExtractionContext& context,
    ExtractionReport* report) const {
  IndexSummary s;
  s.endpoint_url = ep->url();

  // Pass 1: page through typed subjects to build the instance->classes map.
  std::map<std::string, std::set<std::string>> types_of;  // subject -> classes
  HBOLD_RETURN_NOT_OK(ScanPages(
      ep, "SELECT ?s ?c WHERE { ?s a ?c . }", page_size_, context, report,
      [&](const ResultTable& table) { CollectTypes(table, &types_of); }));

  s.num_instances = types_of.size();
  std::map<std::string, ClassInfo> classes;
  for (const auto& [subj, cls_set] : types_of) {
    for (const std::string& c : cls_set) {
      ClassInfo& info = classes[c];
      info.iri = c;
      ++info.instance_count;
    }
  }

  // Pass 2: page through all triples; attribute properties to the classes
  // of their subject, detect object properties via the type map.
  std::map<std::string, std::map<std::string, PropertyInfo>> props_by_class;
  size_t total_triples = 0;
  HBOLD_RETURN_NOT_OK(ScanPages(
      ep, "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }", page_size_, context, report,
      [&](const ResultTable& table) {
        total_triples += table.num_rows();
        const int s_col = table.ColumnIndex("s", kTerm);
        const int p_col = table.ColumnIndex("p", kTerm);
        const int o_col = table.ColumnIndex("o", kTerm);
        const bool resolved = s_col >= 0 && p_col >= 0 && o_col >= 0;
        for (size_t i = 0; resolved && i < table.num_rows(); ++i) {
          const rdf::Term* subj = table.TermAt(i, s_col);
          const rdf::Term* pred = table.TermAt(i, p_col);
          const rdf::Term* obj = table.TermAt(i, o_col);
          if (subj == nullptr || pred == nullptr || obj == nullptr) continue;
          if (pred->lexical() == rdf::vocab::kRdfType) continue;
          auto it = types_of.find(subj->ToNTriples());
          if (it == types_of.end()) continue;  // untyped subject
          auto obj_types = types_of.find(obj->ToNTriples());
          for (const std::string& cls : it->second) {
            PropertyInfo& info = props_by_class[cls][pred->lexical()];
            info.iri = pred->lexical();
            ++info.count;
            if (obj_types != types_of.end()) {
              info.is_object_property = true;
              for (const std::string& range : obj_types->second) {
                ++info.range_classes[range];
              }
            }
          }
        }
      }));

  s.num_triples = total_triples;
  for (auto& [iri, info] : classes) {
    auto props = props_by_class.find(iri);
    if (props != props_by_class.end()) {
      for (auto& [piri, pinfo] : props->second) {
        info.properties.push_back(pinfo);
      }
    }
    s.classes.push_back(std::move(info));
  }

  Canonicalize(&s);
  if (report != nullptr) report->strategy_used = name();
  return s;
}

Result<IndexSummary> PaginatedScanStrategy::ExtractClasses(
    SparqlEndpoint* ep, const ExtractionContext& context,
    const std::vector<std::string>& class_iris,
    ExtractionReport* report) const {
  // Price the restricted path against the full scan before issuing a
  // single query, using last cycle's magnitudes. Both pay the type scan;
  // the full scan then pages through ALL triples, while the restricted
  // path pays ~2*log2(T) one-row offset probes for the exact global
  // triple count plus one paged scan per dirty class. On small stores
  // (or without hints) the full scan wins and this mode declines, so
  // dialects that always ran the full chain keep doing exactly that.
  const size_t page = std::max<size_t>(1, page_size_);
  if (context.prior_num_triples == 0 || context.prior_class_count == 0) {
    return Status::Unsupported(
        "paginated dirty-class scan needs prior-summary magnitudes for " +
        ep->url());
  }
  auto pages_of = [&](size_t rows) { return rows / page + 1; };
  size_t probe_queries = 4;  // bracket overhead beyond the log2 walks
  for (size_t t = context.prior_num_triples; t > 0; t >>= 1) {
    probe_queries += 2;
  }
  const size_t avg_class_rows =
      context.prior_num_triples / context.prior_class_count;
  const size_t restricted_pages =
      probe_queries + class_iris.size() * pages_of(avg_class_rows);
  if (restricted_pages >= pages_of(context.prior_num_triples)) {
    return Status::Unsupported(
        "paginated dirty-class scan would cost more than the full scan on " +
        ep->url());
  }

  IndexSummary s;
  s.endpoint_url = ep->url();

  // Pass 1: the same full type scan the unrestricted path runs — it is
  // what prices instance counts and object-property ranges, and the
  // restricted path cannot do without either.
  std::map<std::string, std::set<std::string>> types_of;  // subject -> classes
  HBOLD_RETURN_NOT_OK(ScanPages(
      ep, "SELECT ?s ?c WHERE { ?s a ?c . }", page_size_, context, report,
      [&](const ResultTable& table) { CollectTypes(table, &types_of); }));
  s.num_instances = types_of.size();
  std::map<std::string, size_t> instance_counts;
  for (const auto& [subj, cls_set] : types_of) {
    for (const std::string& c : cls_set) ++instance_counts[c];
  }

  // Exact global triple count WITHOUT scanning every triple: LIMIT 1
  // OFFSET probes answer "are there more than m rows?", so galloping out
  // from the prior count and binary-searching the bracket finds the exact
  // total in ~2*log2(|T - prior|) one-row queries. Exactness matters: the
  // merge takes its globals from this partial summary.
  auto probe_beyond = [&](size_t m) -> Result<bool> {
    HBOLD_ASSIGN_OR_RETURN(
        QueryOutcome o,
        Run(ep,
            "SELECT ?s ?p ?o WHERE { ?s ?p ?o . } LIMIT 1 OFFSET " +
                std::to_string(m),
            report));
    return o.table.num_rows() > 0;  // true iff total > m
  };
  size_t total_triples = 0;
  {
    size_t lo = 0;  // once bracketed: total > lo
    size_t hi = 0;  // once bracketed: total <= hi
    bool bracketed = false;
    const size_t hint = context.prior_num_triples;
    HBOLD_ASSIGN_OR_RETURN(bool above_hint, probe_beyond(hint));
    if (above_hint) {
      lo = hint;
      size_t step = 1;
      size_t next = hint + 1;
      while (true) {
        HBOLD_ASSIGN_OR_RETURN(bool above, probe_beyond(next));
        if (!above) {
          hi = next;
          bracketed = true;
          break;
        }
        lo = next;
        next += step;
        step *= 2;
      }
    } else if (hint > 0) {
      hi = hint;
      size_t step = 1;
      while (true) {
        const size_t next = hi > step ? hi - step : 0;
        HBOLD_ASSIGN_OR_RETURN(bool above, probe_beyond(next));
        if (above) {
          lo = next;
          bracketed = true;
          break;
        }
        hi = next;
        if (next == 0) break;  // empty store
        step *= 2;
      }
    }
    if (bracketed) {
      while (hi - lo > 1) {
        const size_t mid = lo + (hi - lo) / 2;
        HBOLD_ASSIGN_OR_RETURN(bool above, probe_beyond(mid));
        if (above) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      total_triples = hi;
    }
  }
  s.num_triples = total_triples;

  // One paged scan per dirty class, restricted server-side to that class's
  // subjects. Each non-type triple of a member arrives exactly once, so
  // the client-side counting below is value-identical to what the full
  // scan's pass 2 attributes to this class. Classes the type scan saw no
  // instances of are skipped outright (and dropped from the summary —
  // they no longer exist on the endpoint).
  for (const std::string& cls_iri : class_iris) {
    if (instance_counts.find(cls_iri) == instance_counts.end()) continue;
    std::map<std::string, PropertyInfo> props;
    HBOLD_RETURN_NOT_OK(ScanPages(
        ep,
        "SELECT ?s ?p ?o WHERE { ?s a " + IriRef(cls_iri) +
            " . ?s ?p ?o . }",
        page_size_, context, report, [&](const ResultTable& table) {
          const int p_col = table.ColumnIndex("p", kTerm);
          const int o_col = table.ColumnIndex("o", kTerm);
          for (size_t i = 0; p_col >= 0 && o_col >= 0 && i < table.num_rows();
               ++i) {
            const rdf::Term* pred = table.TermAt(i, p_col);
            const rdf::Term* obj = table.TermAt(i, o_col);
            if (pred == nullptr || obj == nullptr) continue;
            if (pred->lexical() == rdf::vocab::kRdfType) continue;
            PropertyInfo& info = props[pred->lexical()];
            info.iri = pred->lexical();
            ++info.count;
            auto obj_types = types_of.find(obj->ToNTriples());
            if (obj_types != types_of.end()) {
              info.is_object_property = true;
              for (const std::string& range : obj_types->second) {
                ++info.range_classes[range];
              }
            }
          }
        }));
    ClassInfo cls;
    cls.iri = cls_iri;
    cls.instance_count = instance_counts[cls_iri];
    for (auto& [piri, pinfo] : props) cls.properties.push_back(pinfo);
    s.classes.push_back(std::move(cls));
  }

  Canonicalize(&s);
  if (report != nullptr) report->strategy_used = name();
  return s;
}

}  // namespace hbold::extraction
