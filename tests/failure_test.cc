// Failure-injection tests: corrupt persisted data, unreachable/flapping
// endpoints mid-pipeline, degenerate layout inputs, and recovery behavior.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "hbold/hbold.h"
#include "viz/circle_pack.h"
#include "viz/sunburst.h"
#include "viz/treemap.h"
#include "workload/ld_generator.h"

namespace hbold {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- store

TEST(StoreFailureTest, CorruptJsonlFileFailsLoad) {
  fs::path dir = fs::temp_directory_path() / "hbold_failure_corrupt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream out(dir / "broken.jsonl");
    out << "{\"_id\":1,\"ok\":true}\n";
    out << "{{{{ not json\n";
  }
  store::Database db;
  auto st = db.LoadFromDirectory(dir.string());
  EXPECT_FALSE(st.ok());
  fs::remove_all(dir);
}

TEST(StoreFailureTest, SaveToUnwritablePathFails) {
  store::Database db;
  db.GetCollection("x");
  EXPECT_FALSE(db.SaveToDirectory("/proc/definitely/not/writable").ok());
}

TEST(StoreFailureTest, LoadedCollectionKeepsWorkingAfterFailedLoad) {
  store::Collection c("x");
  ASSERT_TRUE(c.Insert(*Json::Parse(R"({"k":1})")).ok());
  // Failed reload leaves the collection in a defined (replaced or
  // unchanged) state; inserts must still work.
  (void)c.LoadJsonl("garbage\n");
  EXPECT_TRUE(c.Insert(*Json::Parse(R"({"k":2})")).ok());
}

// ---------------------------------------------------------------- presentation

TEST(PresentationFailureTest, MalformedStoredDocumentFailsDecode) {
  store::Database db;
  store::Collection* summaries = db.GetCollection(kSummariesCollection);
  Json bad = Json::MakeObject();
  bad.Set("endpoint_url", "http://broken/sparql");
  // Arc references a node that does not exist.
  Json nodes = Json::MakeArray();
  bad.Set("nodes", std::move(nodes));
  Json arcs = Json::MakeArray();
  Json arc = Json::MakeObject();
  arc.Set("src", 3);
  arc.Set("dst", 1);
  arc.Set("iri", "http://x/p");
  arc.Set("count", 1);
  arcs.Append(std::move(arc));
  bad.Set("arcs", std::move(arcs));
  ASSERT_TRUE(summaries->Insert(std::move(bad)).ok());

  Presentation pres(&db);
  auto summary = pres.LoadSchemaSummary("http://broken/sparql");
  EXPECT_FALSE(summary.ok());
}

// ---------------------------------------------------------------- pipeline

class PipelineFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::SyntheticLdConfig config;
    config.num_classes = 6;
    config.max_instances_per_class = 20;
    workload::GenerateSyntheticLd(config, &data_);
    server_ = std::make_unique<Server>(&db_, &loop_, ServerOptions{});
  }
  rdf::TripleStore data_;
  sim::EventLoop loop_;
  store::Database db_;
  std::unique_ptr<Server> server_;
};

TEST_F(PipelineFailureTest, EndpointDownOnProcessingDayRecoversNextDay) {
  endpoint::AvailabilityModel avail;
  avail.forced_outage_days = {0};
  auto ep = std::make_unique<endpoint::SimulatedRemoteEndpoint>(
      "http://x/sparql", "x", &data_, loop_.clock(), endpoint::Dialect::Full(),
      avail);
  server_->AttachEndpoint(ep->url(), ep.get());
  endpoint::EndpointRecord record;
  record.url = ep->url();
  server_->RegisterEndpoint(record);

  auto day0 = server_->ProcessEndpoint(ep->url());
  EXPECT_FALSE(day0.ok());
  EXPECT_TRUE(day0.status().IsUnavailable());
  // Nothing was persisted for the failed endpoint.
  EXPECT_EQ(db_.GetCollection(kSummariesCollection)->size(), 0u);

  loop_.RunUntil(loop_.NowMs() + SimClock::kMillisPerDay);
  auto day1 = server_->ProcessEndpoint(ep->url());
  ASSERT_TRUE(day1.ok()) << day1.status();
  EXPECT_EQ(db_.GetCollection(kSummariesCollection)->size(), 1u);
}

TEST_F(PipelineFailureTest, FailureDoesNotClobberPreviousGoodArtifacts) {
  endpoint::AvailabilityModel avail;
  avail.forced_outage_days = {7};
  auto ep = std::make_unique<endpoint::SimulatedRemoteEndpoint>(
      "http://x/sparql", "x", &data_, loop_.clock(), endpoint::Dialect::Full(),
      avail);
  server_->AttachEndpoint(ep->url(), ep.get());
  endpoint::EndpointRecord record;
  record.url = ep->url();
  server_->RegisterEndpoint(record);

  ASSERT_TRUE(server_->ProcessEndpoint(ep->url()).ok());
  loop_.RunUntil(loop_.NowMs() + 7 * SimClock::kMillisPerDay);
  EXPECT_FALSE(server_->ProcessEndpoint(ep->url()).ok());
  // The day-0 artifacts are still served.
  Presentation pres(&db_);
  EXPECT_TRUE(pres.LoadSchemaSummary(ep->url()).ok());
  EXPECT_TRUE(pres.LoadClusterSchema(ep->url()).ok());
  // And the registry reflects both the old success and the new failure.
  const endpoint::EndpointRecord* rec = server_->registry().Find(ep->url());
  EXPECT_EQ(rec->last_success_day, 0);
  EXPECT_EQ(rec->last_attempt_day, 7);
  EXPECT_TRUE(rec->last_attempt_failed);
}

TEST_F(PipelineFailureTest, DailyUpdateIsolatesPerEndpointFailures) {
  // One good endpoint, one with no route: the good one must still index.
  auto good = std::make_unique<endpoint::SimulatedRemoteEndpoint>(
      "http://good/sparql", "good", &data_, loop_.clock());
  server_->AttachEndpoint(good->url(), good.get());
  endpoint::EndpointRecord g;
  g.url = good->url();
  server_->RegisterEndpoint(g);
  endpoint::EndpointRecord dead;
  dead.url = "http://dead/sparql";
  server_->RegisterEndpoint(dead);

  DailyReport report = server_->RunDailyUpdate();
  EXPECT_EQ(report.due, 2u);
  EXPECT_EQ(report.succeeded, 1u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(server_->registry().IndexedCount(), 1u);
}

// ---------------------------------------------------------------- layouts

TEST(LayoutDegenerateTest, TreemapZeroAreaBounds) {
  viz::Hierarchy h{"r", 0, {{"a", 5, {}}, {"b", 3, {}}}};
  auto cells = viz::TreemapLayout(h, viz::Rect{0, 0, 0, 0}, {});
  // Root cell emitted; no crash, no NaN rects.
  ASSERT_FALSE(cells.empty());
  for (const auto& c : cells) {
    EXPECT_EQ(c.rect.w, c.rect.w);  // not NaN
    EXPECT_EQ(c.rect.h, c.rect.h);
  }
}

TEST(LayoutDegenerateTest, TreemapPaddingLargerThanRect) {
  viz::Hierarchy h{"r", 0, {{"a", 5, {}}}};
  viz::TreemapOptions opt;
  opt.padding = 500;
  auto cells = viz::TreemapLayout(h, viz::Rect{0, 0, 100, 100}, opt);
  ASSERT_FALSE(cells.empty());
}

TEST(LayoutDegenerateTest, SunburstSingleLevel) {
  viz::Hierarchy h{"r", 0, {{"a", 5, {}}, {"b", 5, {}}}};
  auto slices = viz::SunburstLayout(h, {});
  EXPECT_EQ(slices.size(), 2u);
}

TEST(LayoutDegenerateTest, CirclePackSingleLeaf) {
  viz::Hierarchy h{"solo", 9, {}};
  viz::CirclePackOptions opt;
  opt.radius = 100;
  auto circles = viz::CirclePackLayout(h, opt);
  ASSERT_EQ(circles.size(), 1u);
  EXPECT_NEAR(circles[0].circle.r, 100, 1e-6);
}

TEST(LayoutDegenerateTest, PackSiblingsHandlesEqualRadii) {
  std::vector<double> radii(20, 5.0);
  auto pos = viz::PackSiblings(radii);
  ASSERT_EQ(pos.size(), 20u);
  for (size_t i = 0; i < pos.size(); ++i) {
    for (size_t j = i + 1; j < pos.size(); ++j) {
      EXPECT_GE(viz::Distance(pos[i], pos[j]), 10.0 - 1e-6);
    }
  }
}

// ---------------------------------------------------------------- registry

TEST(RegistryFailureTest, LoadJsonResetsPreviousContent) {
  endpoint::EndpointRegistry reg;
  endpoint::EndpointRecord r;
  r.url = "http://old";
  reg.Add(r);
  Json fresh = Json::MakeArray();
  Json rec = Json::MakeObject();
  rec.Set("url", "http://new");
  fresh.Append(std::move(rec));
  ASSERT_TRUE(reg.LoadJson(fresh).ok());
  EXPECT_FALSE(reg.Contains("http://old"));
  EXPECT_TRUE(reg.Contains("http://new"));
}

TEST(RegistryFailureTest, GarbledIncrementalFieldsDegradeInsteadOfFailing) {
  // A hand-edited (or bit-rotted) registry file with unparseable probe
  // state must still load: the endpoint degrades to full refresh, and
  // fields this build does not know about survive a round trip.
  const char* kCorrupt = R"([{
    "url": "http://corrupt.example.org/sparql",
    "name": "corrupt",
    "indexed": true,
    "probed_generation": "0xNOPE",
    "class_fingerprints": {
      "http://corrupt.example.org/C0": "zz-not-hex",
      "http://corrupt.example.org/C1": 7
    },
    "trust_state": "weird-state",
    "future_field": {"keep": ["me"]}
  }])";
  auto parsed = Json::Parse(kCorrupt);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  endpoint::EndpointRegistry reg;
  ASSERT_TRUE(reg.LoadJson(*parsed).ok());
  auto rec = reg.GetRecord("http://corrupt.example.org/sparql");
  ASSERT_TRUE(rec.has_value());
  // Garbled probe state is dropped wholesale, never half-trusted.
  EXPECT_TRUE(rec->probed_generation.empty());
  EXPECT_TRUE(rec->class_fingerprints.empty());
  EXPECT_EQ(rec->trust_state, endpoint::TrustState::kTrusted);
  EXPECT_EQ(rec->unknown_fields.count("future_field"), 1u);
  EXPECT_NE(reg.ToJson().Dump().find("future_field"), std::string::npos);
}

TEST(RegistryFailureTest, HandCorruptedRecordFallsBackToFullRefresh) {
  const std::string url = "http://corrupt.example.org/sparql";
  sim::EventLoop loop;
  store::Database db;
  ServerOptions options;
  options.refresh_age_days = 1;
  options.incremental.mode = IncrementalMode::kDelta;
  Server server(&db, &loop, options);

  rdf::TripleStore data;
  workload::SyntheticLdConfig config;
  config.namespace_iri = "http://corrupt.example.org/";
  config.num_classes = 6;
  config.max_instances_per_class = 20;
  workload::GenerateSyntheticLd(config, &data);
  endpoint::SimulatedRemoteEndpoint ep(url, "corrupt", &data, loop.clock());
  server.AttachEndpoint(url, &ep);
  endpoint::EndpointRecord record;
  record.url = url;
  server.RegisterEndpoint(record);

  ASSERT_TRUE(server.ProcessEndpoint(url).ok());
  loop.RunUntil(loop.NowMs() + SimClock::kMillisPerDay);
  auto day1 = server.ProcessEndpoint(url);
  ASSERT_TRUE(day1.ok()) << day1.status();
  ASSERT_TRUE(day1->probe_skipped);  // quiet store: probe-skip works

  // An operator hand-edits the persisted registry and garbles the probe
  // state for this endpoint.
  auto corrupted = Json::Parse(R"([{
    "url": "http://corrupt.example.org/sparql",
    "name": "corrupt",
    "indexed": true,
    "probed_generation": "not-hex-at-all",
    "class_fingerprints": {"http://corrupt.example.org/C0": false}
  }])");
  ASSERT_TRUE(corrupted.ok());
  ASSERT_TRUE(server.registry().LoadJson(*corrupted).ok());

  // Next cycle: the degraded record forces a clean full refresh rather
  // than trusting (or crashing on) the corrupt fingerprints.
  loop.RunUntil(loop.NowMs() + SimClock::kMillisPerDay);
  auto day2 = server.ProcessEndpoint(url);
  ASSERT_TRUE(day2.ok()) << day2.status();
  EXPECT_FALSE(day2->probe_skipped);
  EXPECT_FALSE(day2->delta_extracted);
  // The rebuilt probe state is trusted again afterwards.
  auto rec = server.registry().GetRecord(url);
  ASSERT_TRUE(rec.has_value());
  EXPECT_FALSE(rec->class_fingerprints.empty());
}

// ------------------------------------------------------- adversarial probes

TEST(ProbeRetryTest, TransientProbeFlapRetriesThenDegradesToFull) {
  const std::string url = "http://flap.example.org/sparql";
  sim::EventLoop loop;
  store::Database db;
  ServerOptions options;
  options.refresh_age_days = 1;
  options.incremental.mode = IncrementalMode::kDelta;
  Server server(&db, &loop, options);

  rdf::TripleStore data;
  workload::SyntheticLdConfig config;
  config.namespace_iri = "http://flap.example.org/";
  config.num_classes = 6;
  config.max_instances_per_class = 20;
  workload::GenerateSyntheticLd(config, &data);
  endpoint::ProbeFaultModel faults;
  faults.transient_failure_probability = 1.0;  // every attempt times out
  faults.seed = 5;
  endpoint::SimulatedRemoteEndpoint ep(url, "flap", &data, loop.clock(),
                                       endpoint::Dialect::Full(), {}, {}, {},
                                       faults);
  server.AttachEndpoint(url, &ep);
  endpoint::EndpointRecord record;
  record.url = url;
  server.RegisterEndpoint(record);

  for (int64_t day = 0; day < 2; ++day) {
    if (day > 0) loop.RunUntil(loop.NowMs() + SimClock::kMillisPerDay);
    auto r = server.ProcessEndpoint(url);
    ASSERT_TRUE(r.ok()) << "day " << day << ": " << r.status();
    // The probe was retried up to the cap, then the day degraded to a
    // probe-less full extraction instead of failing outright.
    EXPECT_FALSE(r->probed);
    EXPECT_EQ(r->probe_retries, 2u);  // the server's fixed retry cap
    EXPECT_FALSE(r->probe_skipped);
    EXPECT_FALSE(r->delta_extracted);
  }
  auto rec = server.registry().GetRecord(url);
  ASSERT_TRUE(rec.has_value());
  // Flaky probes are tracked but are not treated as lying: no strikes.
  EXPECT_EQ(rec->probe_failure_streak, 2);
  EXPECT_EQ(rec->trust_state, endpoint::TrustState::kTrusted);
}

/// Forwards everything to a real simulated endpoint but can replay its last
/// honest probe verbatim — the fully deterministic "quiet liar" the trust
/// state machine is exercised against below.
class ScriptedLiarEndpoint : public endpoint::SparqlEndpoint {
 public:
  explicit ScriptedLiarEndpoint(endpoint::SimulatedRemoteEndpoint* inner)
      : inner_(inner) {}
  void set_lying(bool lying) { lying_ = lying; }

  Result<endpoint::QueryOutcome> Query(const std::string& query) override {
    return inner_->Query(query);
  }
  const std::string& url() const override { return inner_->url(); }
  const std::string& name() const override { return inner_->name(); }
  size_t queries_served() const override { return inner_->queries_served(); }
  endpoint::QueryEngineStats engine_stats() const override {
    return inner_->engine_stats();
  }
  void AdvanceDataDay(int64_t day) override { inner_->AdvanceDataDay(day); }
  Result<endpoint::ChangeProbe> ProbeChanges() override {
    auto probe = inner_->ProbeChanges();  // keeps accounting + catch-up
    if (!probe.ok()) return probe;
    if (lying_) return last_honest_;  // "nothing changed since last time"
    last_honest_ = *probe;
    return probe;
  }

 private:
  endpoint::SimulatedRemoteEndpoint* inner_;
  bool lying_ = false;
  endpoint::ChangeProbe last_honest_;
};

TEST(QuarantineLifecycleTest, LyingQuietEndpointIsStruckQuarantinedParoled) {
  const std::string url = "http://liar.example.org/sparql";
  sim::EventLoop loop;
  store::Database db;
  ServerOptions options;
  options.refresh_age_days = 1;
  options.incremental.mode = IncrementalMode::kBounded;
  options.incremental.staleness_budget_days = 2;
  options.incremental.quarantine_strikes = 2;
  options.incremental.quarantine_days = 2;
  Server server(&db, &loop, options);

  rdf::TripleStore data;
  workload::SyntheticLdConfig config;
  config.namespace_iri = "http://liar.example.org/";
  config.num_classes = 6;
  config.max_instances_per_class = 20;
  config.seed = 1234;
  workload::GenerateSyntheticLd(config, &data);
  endpoint::MutationModel mutation;
  mutation.daily_churn_fraction = 0.5;  // heavy churn: every day differs
  mutation.hot_class_fraction = 1.0;
  mutation.seed = 887;
  endpoint::SimulatedRemoteEndpoint inner(url, "liar", &data, loop.clock(),
                                          endpoint::Dialect::Full(), {}, {},
                                          mutation);
  ScriptedLiarEndpoint ep(&inner);
  server.AttachEndpoint(url, &ep);
  endpoint::EndpointRecord record;
  record.url = url;
  server.RegisterEndpoint(record);

  auto process = [&](int64_t day) {
    if (day > 0) loop.RunUntil(loop.NowMs() + SimClock::kMillisPerDay);
    inner.AdvanceDataDay(day);
    auto r = server.ProcessEndpoint(url);
    EXPECT_TRUE(r.ok()) << "day " << day << ": " << r.status();
    return r.ok() ? *r : PipelineReport{};
  };
  auto trust = [&] { return server.registry().GetRecord(url)->trust_state; };

  // Day 0: honest first contact — full extraction, fingerprints stored.
  PipelineReport d0 = process(0);
  EXPECT_FALSE(d0.probe_skipped);
  EXPECT_EQ(trust(), endpoint::TrustState::kTrusted);
  EXPECT_EQ(server.registry().GetRecord(url)->last_full_refresh_day, 0);

  ep.set_lying(true);
  // Day 1: the probe replays day 0. Inside the staleness budget the lie
  // buys a (wrong) probe-skip — exactly the drift window kBounded bounds.
  PipelineReport d1 = process(1);
  EXPECT_TRUE(d1.probe_skipped);
  EXPECT_EQ(d1.staleness_days, 1);

  // Day 2: budget exhausted -> forced refresh finds the content changed
  // behind the quiet probe -> strike one, trusted -> suspect.
  PipelineReport d2 = process(2);
  EXPECT_TRUE(d2.forced_refresh);
  EXPECT_TRUE(d2.probe_mismatch);
  EXPECT_EQ(d2.staleness_days, 2);
  EXPECT_EQ(trust(), endpoint::TrustState::kSuspect);
  EXPECT_EQ(server.registry().GetRecord(url)->suspect_strikes, 1);
  // The strike voids the (lying) probe state.
  EXPECT_TRUE(server.registry().GetRecord(url)->class_fingerprints.empty());

  // Day 3: no stored fingerprints, so everything is dirty -> plain full
  // refresh; the lie is indistinguishable from churn, no new strike.
  PipelineReport d3 = process(3);
  EXPECT_FALSE(d3.probe_mismatch);
  EXPECT_EQ(trust(), endpoint::TrustState::kSuspect);

  // Day 4: the replayed probe matches the fingerprints it planted on day
  // 3; a suspect endpoint never probe-skips, so the full extraction
  // catches the quiet lie again -> strike two -> quarantined.
  PipelineReport d4 = process(4);
  EXPECT_FALSE(d4.probe_skipped);
  EXPECT_TRUE(d4.probe_mismatch);
  EXPECT_TRUE(d4.quarantine_entered);
  EXPECT_EQ(trust(), endpoint::TrustState::kQuarantined);
  EXPECT_EQ(server.registry().GetRecord(url)->quarantine_until_day, 6);

  ep.set_lying(false);  // the endpoint comes clean
  // Day 5: still quarantined -> unconditional forced full refresh.
  PipelineReport d5 = process(5);
  EXPECT_TRUE(d5.quarantined);
  EXPECT_TRUE(d5.forced_refresh);
  EXPECT_EQ(trust(), endpoint::TrustState::kQuarantined);

  // Day 6: quarantine served and a clean full refresh landed -> paroled
  // back to suspect.
  PipelineReport d6 = process(6);
  EXPECT_TRUE(d6.quarantine_exited);
  EXPECT_EQ(trust(), endpoint::TrustState::kSuspect);

  // Days 7-8: two divergence-free cycles walk suspect back to trusted.
  process(7);
  EXPECT_EQ(trust(), endpoint::TrustState::kSuspect);
  process(8);
  EXPECT_EQ(trust(), endpoint::TrustState::kTrusted);
  EXPECT_EQ(server.registry().GetRecord(url)->suspect_strikes, 0);
}

TEST(RegistryFailureTest, LegacyLifetimeStrikesKeyRoundTripsVerbatim) {
  // Registries written by older builds carry a "lifetime_strikes" count.
  // No current field reads it, so it must ride through unknown_fields and
  // re-serialize byte-identically.
  const std::string legacy =
      R"({"added_day":0,"first_eligible_day":-1,"indexed":false,)"
      R"("last_attempt_day":-1,"last_attempt_failed":false,)"
      R"("last_success_day":-1,"lifetime_strikes":3,"name":"",)"
      R"("source":"manual","suspect_strikes":1,"trust_state":"suspect",)"
      R"("url":"http://strikes.example.org/sparql"})";
  auto parsed = Json::Parse(legacy);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  endpoint::EndpointRecord r = endpoint::EndpointRecord::FromJson(*parsed);
  EXPECT_EQ(r.unknown_fields.count("lifetime_strikes"), 1u);
  EXPECT_EQ(r.ToJson().Dump(), legacy);
}

}  // namespace
}  // namespace hbold
