// Tests for the §3.2 recompute-avoidance path (unchanged Schema Summary =>
// skip clustering/persist), the instance drill-down queries, and CSV
// result export.

#include <gtest/gtest.h>

#include <memory>

#include "common/hash.h"
#include "hbold/hbold.h"
#include "rdf/vocab.h"
#include "workload/scholarly.h"

namespace hbold {
namespace {

TEST(HashTest, Fnv64IsStableAndSensitive) {
  EXPECT_EQ(Fnv64("abc"), Fnv64("abc"));
  EXPECT_NE(Fnv64("abc"), Fnv64("abd"));
  EXPECT_NE(Fnv64(""), Fnv64("a"));
  // The running form: hashing pieces in order hashes their concatenation.
  EXPECT_EQ(Fnv64("def", Fnv64("abc")), Fnv64("abcdef"));
  EXPECT_EQ(Fnv64("", Fnv64("abc")), Fnv64("abc"));
}

class ReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::ScholarlyConfig config;
    config.conferences = 1;
    config.people = 40;
    workload::GenerateScholarly(config, &store_);
    ep_ = std::make_unique<endpoint::SimulatedRemoteEndpoint>(
        "http://s/sparql", "s", &store_, loop_.clock());
    server_ = std::make_unique<Server>(&db_, &loop_, ServerOptions{});
    server_->AttachEndpoint(ep_->url(), ep_.get());
    endpoint::EndpointRecord record;
    record.url = ep_->url();
    server_->RegisterEndpoint(record);
  }
  rdf::TripleStore store_;
  sim::EventLoop loop_;
  store::Database db_;
  std::unique_ptr<endpoint::SimulatedRemoteEndpoint> ep_;
  std::unique_ptr<Server> server_;
};

TEST_F(ReuseTest, UnchangedSummarySkipsClustering) {
  auto first = server_->ProcessEndpoint(ep_->url());
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->reused_cluster_schema);
  EXPECT_GT(first->clusters, 0u);

  loop_.RunUntil(loop_.NowMs() + 7 * SimClock::kMillisPerDay);
  auto second = server_->ProcessEndpoint(ep_->url());
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->reused_cluster_schema);
  EXPECT_EQ(second->clusters, 0u);  // stage skipped
  // Bookkeeping still updated.
  EXPECT_EQ(server_->registry().Find(ep_->url())->last_success_day, 7);
  // Stored artifacts still present and loadable.
  Presentation pres(&db_);
  EXPECT_TRUE(pres.LoadClusterSchema(ep_->url()).ok());
}

TEST_F(ReuseTest, ChangedDataRecomputes) {
  ASSERT_TRUE(server_->ProcessEndpoint(ep_->url()).ok());
  // The source grows a new class: summary hash must change.
  store_.Add(rdf::Term::Iri("http://s/new-instance"),
             rdf::Term::Iri(rdf::vocab::kRdfType),
             rdf::Term::Iri("http://s/BrandNewClass"));
  loop_.RunUntil(loop_.NowMs() + 7 * SimClock::kMillisPerDay);
  auto second = server_->ProcessEndpoint(ep_->url());
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(second->reused_cluster_schema);
  Presentation pres(&db_);
  auto summary = pres.LoadSchemaSummary(ep_->url());
  ASSERT_TRUE(summary.ok());
  EXPECT_GE(summary->FindNode("http://s/BrandNewClass"), 0);
}

TEST_F(ReuseTest, DailyReportCountsReuse) {
  server_->RunDailyUpdate();
  loop_.RunUntil(loop_.NowMs() + 7 * SimClock::kMillisPerDay);
  DailyReport report = server_->RunDailyUpdate();
  EXPECT_EQ(report.succeeded, 1u);
  EXPECT_EQ(report.reused, 1u);
}

// ---------------------------------------------------------------- drilldown

TEST_F(ReuseTest, SampleInstancesReturnsLabeledInstances) {
  std::string person = std::string(workload::kScholarlyNs) + "Person";
  auto table = drilldown::SampleInstances(ep_.get(), person, 5);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->num_rows(), 5u);
  EXPECT_GE(table->ColumnIndex("instance"), 0);
  EXPECT_GE(table->ColumnIndex("label"), 0);
  // Scholarly people carry labels.
  EXPECT_TRUE(table->Cell(0, "label").has_value());
}

TEST_F(ReuseTest, SampleInstancesOfUnknownClassIsEmpty) {
  auto table = drilldown::SampleInstances(ep_.get(), "http://nope/C", 5);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 0u);
}

TEST_F(ReuseTest, DescribeResourceListsAllProperties) {
  auto sample = drilldown::SampleInstances(
      ep_.get(), std::string(workload::kScholarlyNs) + "Person", 1);
  ASSERT_TRUE(sample.ok());
  ASSERT_EQ(sample->num_rows(), 1u);
  std::string iri = sample->Cell(0, "instance")->lexical();

  auto described = drilldown::DescribeResource(ep_.get(), iri);
  ASSERT_TRUE(described.ok()) << described.status();
  EXPECT_GE(described->num_rows(), 2u);  // rdf:type + label at least
  bool has_type = false;
  for (size_t i = 0; i < described->num_rows(); ++i) {
    if (described->Cell(i, "p")->lexical() == rdf::vocab::kRdfType) {
      has_type = true;
    }
  }
  EXPECT_TRUE(has_type);
}

// ---------------------------------------------------------------- CSV

TEST(CsvTest, HeaderAndRows) {
  sparql::ResultTable t({"a", "b"});
  auto add = [&t](std::optional<rdf::Term> a, rdf::Term b) {
    const size_t r = t.AppendRow();
    if (a.has_value()) t.SetTerm(r, 0, *std::move(a));
    t.SetTerm(r, 1, std::move(b));
  };
  add(rdf::Term::Iri("http://x/1"), rdf::Term::Literal("plain"));
  add(rdf::Term::Literal("has,comma"), rdf::Term::Literal("has \"quote\""));
  add(std::nullopt, rdf::Term::Literal("line\nbreak"));
  std::string csv = t.ToCsv();
  EXPECT_EQ(csv.substr(0, 5), "a,b\r\n");
  EXPECT_NE(csv.find("http://x/1,plain\r\n"), std::string::npos);
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has \"\"quote\"\"\""), std::string::npos);
  EXPECT_NE(csv.find(",\"line\nbreak\""), std::string::npos);
}

TEST(CsvTest, EmptyTable) {
  sparql::ResultTable t({"only"});
  EXPECT_EQ(t.ToCsv(), "only\r\n");
}

}  // namespace
}  // namespace hbold
