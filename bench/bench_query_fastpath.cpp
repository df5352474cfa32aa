// Query fast-path bench + gate: the aggregate-pushdown planner vs the
// materializing executor on the count-query family at ~100k triples, and
// real wall-clock concurrency of a width-4 QueryBatch against a single
// LocalEndpoint (no big lock on the read path).
//
// Emits machine-readable BENCH_query_fastpath.json and exits nonzero when a
// gate fails:
//   - count-family speedup >= 5x (fast vs materializing, same corpus)
//   - every fast-path result table bit-identical to the materializing one,
//     including charged intermediate_bindings
//   - width-4 batched wall-clock >= 2x sequential (only gated when the
//     machine has >= 4 hardware threads; reported otherwise)
//
//   ./build/bench_query_fastpath [num_triples]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "endpoint/local_endpoint.h"
#include "endpoint/query_batch.h"
#include "rdf/graph.h"
#include "sparql/executor.h"

namespace {

using hbold::Json;
using hbold::Stopwatch;
using hbold::rdf::Term;
using hbold::rdf::TripleStore;
using hbold::sparql::ExecOptions;
using hbold::sparql::ExecStats;
using hbold::sparql::Executor;
using hbold::sparql::ResultTable;

constexpr size_t kClasses = 40;
constexpr size_t kPredicates = 24;

/// Synthetic LD-shaped store: every subject is typed, subjects carry a few
/// property links to other subjects. Roughly 5 triples per subject.
TripleStore MakeStore(size_t target_triples, uint64_t seed) {
  TripleStore store;
  hbold::Rng rng(seed);
  const size_t subjects = std::max<size_t>(1, target_triples / 5);
  auto subject = [](size_t i) {
    return Term::Iri("http://bench/s" + std::to_string(i));
  };
  for (size_t i = 0; i < subjects; ++i) {
    store.Add(subject(i), Term::Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
              Term::Iri("http://bench/class/C" +
                        std::to_string(rng.Zipf(kClasses, 1.0))));
    size_t links = 3 + rng.Uniform(3);
    for (size_t k = 0; k < links; ++k) {
      store.Add(subject(i),
                Term::Iri("http://bench/p" +
                          std::to_string(rng.Uniform(kPredicates))),
                subject(rng.Uniform(subjects)));
    }
  }
  store.FinalizeIndex();
  return store;
}

std::vector<std::string> CountCorpus() {
  const std::string c0 = "<http://bench/class/C0>";
  const std::string p1 = "<http://bench/p1>";
  return {
      "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }",
      "SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s a ?c . }",
      "SELECT ?c (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s a ?c . } GROUP BY ?c",
      "SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s a " + c0 + " . }",
      "SELECT (COUNT(DISTINCT ?p) AS ?n) WHERE { ?s ?p ?o . }",
      "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s a " + c0 +
          " . ?s ?p ?o . } GROUP BY ?p",
      "SELECT (COUNT(?o) AS ?n) WHERE { ?s a " + c0 + " . ?s " + p1 +
          " ?o . }",
  };
}

}  // namespace

int main(int argc, char** argv) {
  size_t target = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 100000;
  TripleStore store = MakeStore(target, 7);
  std::printf("=== query fast-path bench: %zu triples ===\n", store.size());

  Json report = Json::MakeObject();
  report.Set("triples", static_cast<int64_t>(store.size()));
  bool identical_ok = true;

  // ---------------------------------------------- fast vs materializing
  ExecOptions off;
  off.aggregate_pushdown = false;
  off.filter_pushdown = false;
  off.limit_pushdown = false;
  Executor fast(&store);
  Executor slow(&store, off);

  const int kReps = 5;
  double fast_total_ms = 0;
  double slow_total_ms = 0;
  Json per_query = Json::MakeArray();
  std::printf("%-78s %10s %10s %8s\n", "query", "slow ms", "fast ms", "x");
  for (const std::string& q : CountCorpus()) {
    ExecStats fs, ss;
    auto rf = fast.Execute(q, &fs);
    auto rs = slow.Execute(q, &ss);
    if (!rf.ok() || !rs.ok()) {
      std::fprintf(stderr, "query failed: %s\n", q.c_str());
      return 1;
    }
    bool same = *rf == *rs &&
                fs.intermediate_bindings == ss.intermediate_bindings &&
                fs.fast_path_hits > 0;
    identical_ok = identical_ok && same;

    Stopwatch sw_fast;
    for (int i = 0; i < kReps; ++i) {
      ExecStats st;
      auto r = fast.Execute(q, &st);
      (void)r;
    }
    double fast_ms = sw_fast.ElapsedMillis();
    Stopwatch sw_slow;
    for (int i = 0; i < kReps; ++i) {
      ExecStats st;
      auto r = slow.Execute(q, &st);
      (void)r;
    }
    double slow_ms = sw_slow.ElapsedMillis();
    fast_total_ms += fast_ms;
    slow_total_ms += slow_ms;
    double x = fast_ms > 0 ? slow_ms / fast_ms : 0;
    std::printf("%-78.78s %10.3f %10.3f %7.1fx%s\n", q.c_str(),
                slow_ms / kReps, fast_ms / kReps, x, same ? "" : "  MISMATCH");

    Json entry = Json::MakeObject();
    entry.Set("query", q);
    entry.Set("slow_ms", slow_ms / kReps);
    entry.Set("fast_ms", fast_ms / kReps);
    entry.Set("speedup", x);
    entry.Set("identical", same);
    entry.Set("rows_avoided", static_cast<int64_t>(fs.rows_avoided));
    per_query.Append(std::move(entry));
  }
  double corpus_speedup =
      fast_total_ms > 0 ? slow_total_ms / fast_total_ms : 0;
  std::printf("count-family corpus: %.1f ms slow vs %.1f ms fast => %.1fx\n",
              slow_total_ms, fast_total_ms, corpus_speedup);
  report.Set("count_family", std::move(per_query));
  report.Set("corpus_speedup", corpus_speedup);
  report.Set("bit_identical", identical_ok);

  // ------------------------------------- width-4 batch, one local store
  const size_t kWidth = 4;
  const size_t kBatchQueries = 8;
  // Deliberately outside the pushdown family: a two-pattern join with a
  // variable class object materializes ~2x the store in bindings, so the
  // batch measures real CPU overlap, not fast-path arithmetic.
  std::vector<std::string> batch(
      kBatchQueries,
      "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o . ?s a ?c . } "
      "GROUP BY ?p");
  hbold::endpoint::LocalEndpoint ep("http://bench/sparql", "bench", &store);

  // Best-of-3 on both sides: shared CI runners have noisy neighbors, and a
  // hard wall-clock gate on a single run would flake.
  const int kWallReps = 3;
  double seq_wall_ms = 0;
  for (int rep = 0; rep < kWallReps; ++rep) {
    Stopwatch sw_seq;
    for (const std::string& q : batch) {
      auto r = ep.Query(q);
      if (!r.ok()) {
        std::fprintf(stderr, "batch query failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
    double ms = sw_seq.ElapsedMillis();
    if (rep == 0 || ms < seq_wall_ms) seq_wall_ms = ms;
  }

  hbold::ThreadPool pool(kWidth);
  hbold::endpoint::QueryBatchOptions options;
  options.pool = &pool;
  options.per_endpoint_limit = kWidth;
  double batch_wall_ms = 0;
  for (int rep = 0; rep < kWallReps; ++rep) {
    Stopwatch sw_batch;
    auto outcomes = hbold::endpoint::QueryBatch::RunOnOne(&ep, batch, options);
    double ms = sw_batch.ElapsedMillis();
    for (const auto& o : outcomes) {
      if (!o.ok()) {
        std::fprintf(stderr, "batched query failed\n");
        return 1;
      }
    }
    if (rep == 0 || ms < batch_wall_ms) batch_wall_ms = ms;
  }
  double wall_speedup = batch_wall_ms > 0 ? seq_wall_ms / batch_wall_ms : 0;
  unsigned cores = std::thread::hardware_concurrency();
  bool gate_wallclock = cores >= 4;
  std::printf(
      "width-%zu batch on one LocalEndpoint: %.1f ms sequential vs %.1f ms "
      "batched => %.2fx real wall-clock (%u cores%s)\n",
      kWidth, seq_wall_ms, batch_wall_ms, wall_speedup, cores,
      gate_wallclock ? "" : "; <4 cores, 2x gate reported but not enforced");

  Json batched = Json::MakeObject();
  batched.Set("width", static_cast<int64_t>(kWidth));
  batched.Set("queries", static_cast<int64_t>(kBatchQueries));
  batched.Set("sequential_wall_ms", seq_wall_ms);
  batched.Set("batched_wall_ms", batch_wall_ms);
  batched.Set("speedup", wall_speedup);
  batched.Set("cores", static_cast<int64_t>(cores));
  batched.Set("gate_enforced", gate_wallclock);
  report.Set("batched_local", std::move(batched));

  // ---------------------------------------------------------------- gates
  bool pass_speedup = corpus_speedup >= 5.0;
  bool pass_wall = !gate_wallclock || wall_speedup >= 2.0;
  Json gates = Json::MakeObject();
  gates.Set("count_speedup_5x", pass_speedup);
  gates.Set("bit_identity", identical_ok);
  gates.Set("batched_wallclock_2x", pass_wall);
  report.Set("gates", std::move(gates));

  std::ofstream out("BENCH_query_fastpath.json");
  out << report.Dump(2) << "\n";
  out.close();
  std::printf("wrote BENCH_query_fastpath.json\n");

  if (!identical_ok) {
    std::fprintf(stderr, "GATE FAILED: fast path not bit-identical\n");
    return 1;
  }
  if (!pass_speedup) {
    std::fprintf(stderr, "GATE FAILED: count-family speedup %.1fx < 5x\n",
                 corpus_speedup);
    return 1;
  }
  if (!pass_wall) {
    std::fprintf(stderr, "GATE FAILED: batched wall-clock %.2fx < 2x\n",
                 wall_speedup);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
