// Unit + property tests for src/cluster: graph, modularity, Louvain, label
// propagation, and the Cluster Schema builder.

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "cluster/cluster_schema.h"
#include "cluster/label_propagation.h"
#include "cluster/louvain.h"
#include "cluster/modularity.h"
#include "cluster/ugraph.h"
#include "common/random.h"
#include "extraction/indexes.h"
#include "schema/schema_summary.h"

namespace hbold::cluster {
namespace {

/// Two K4 cliques joined by a single bridge edge — the canonical
/// two-community graph.
UGraph TwoCliques() {
  UGraph g(8);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = i + 1; j < 4; ++j) {
      g.AddEdge(i, j);
      g.AddEdge(i + 4, j + 4);
    }
  }
  g.AddEdge(3, 4);  // bridge
  return g;
}

/// A ring of `k` cliques of size `size`, classic Louvain test graph.
UGraph CliqueRing(size_t k, size_t size) {
  UGraph g(k * size);
  for (size_t c = 0; c < k; ++c) {
    size_t base = c * size;
    for (size_t i = 0; i < size; ++i) {
      for (size_t j = i + 1; j < size; ++j) {
        g.AddEdge(base + i, base + j);
      }
    }
    g.AddEdge(base, ((c + 1) % k) * size);  // bridge to next clique
  }
  return g;
}

// ---------------------------------------------------------------- UGraph

TEST(UGraphTest, AddEdgeMergesParallels) {
  UGraph g(3);
  g.AddEdge(0, 1, 2.0);
  g.AddEdge(0, 1, 3.0);
  ASSERT_EQ(g.NeighborsOf(0).size(), 1u);
  EXPECT_DOUBLE_EQ(g.NeighborsOf(0)[0].weight, 5.0);
  EXPECT_DOUBLE_EQ(g.NeighborsOf(1)[0].weight, 5.0);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 5.0);
}

TEST(UGraphTest, SelfLoopDegreeCountsTwice) {
  UGraph g(2);
  g.AddEdge(0, 0, 1.5);
  g.AddEdge(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(g.SelfLoop(0), 1.5);
  EXPECT_DOUBLE_EQ(g.SelfLoop(1), 0.0);
  EXPECT_DOUBLE_EQ(g.Degree(0), 1.5 * 2 + 1.0);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 2.5);
}

TEST(UGraphTest, PartitionHelpers) {
  Partition p{5, 5, 9, 2, 9};
  EXPECT_EQ(CommunityCount(p), 3u);
  size_t k = NormalizePartition(&p);
  EXPECT_EQ(k, 3u);
  EXPECT_EQ(p, (Partition{0, 0, 1, 2, 1}));
}

// ---------------------------------------------------------------- Modularity

TEST(ModularityTest, SingletonPartitionOfCliquePairIsLow) {
  UGraph g = TwoCliques();
  Partition singletons(8);
  std::iota(singletons.begin(), singletons.end(), 0);
  Partition ideal{0, 0, 0, 0, 1, 1, 1, 1};
  EXPECT_GT(Modularity(g, ideal), Modularity(g, singletons));
  EXPECT_NEAR(Modularity(g, ideal), 0.5 - 2 * (6.5 / 13) * (6.5 / 13) + 0.5 -
                                        1.0 / 13,
              0.2);
}

TEST(ModularityTest, AllInOnePartitionIsZero) {
  UGraph g = TwoCliques();
  Partition one(8, 0);
  EXPECT_NEAR(Modularity(g, one), 0.0, 1e-12);
}

TEST(ModularityTest, EmptyGraphIsZero) {
  UGraph g(0);
  EXPECT_DOUBLE_EQ(Modularity(g, {}), 0.0);
  UGraph g2(3);  // nodes but no edges
  EXPECT_DOUBLE_EQ(Modularity(g2, {0, 1, 2}), 0.0);
}

TEST(ModularityTest, KnownValueOnBridgeGraph) {
  // Two triangles joined by one edge; ideal split Q = 2*(3/7 - (7/14)^2)
  UGraph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(3, 5);
  g.AddEdge(2, 3);
  Partition ideal{0, 0, 0, 1, 1, 1};
  double expected = 2 * (3.0 / 7 - (7.0 / 14) * (7.0 / 14));
  EXPECT_NEAR(Modularity(g, ideal), expected, 1e-12);
}

// ---------------------------------------------------------------- Louvain

TEST(LouvainTest, RecoversTwoCliques) {
  UGraph g = TwoCliques();
  Partition p = Louvain(g);
  EXPECT_EQ(CommunityCount(p), 2u);
  // All of clique 1 together, all of clique 2 together.
  for (size_t i = 1; i < 4; ++i) EXPECT_EQ(p[i], p[0]);
  for (size_t i = 5; i < 8; ++i) EXPECT_EQ(p[i], p[4]);
  EXPECT_NE(p[0], p[4]);
}

TEST(LouvainTest, RecoversCliqueRing) {
  UGraph g = CliqueRing(8, 5);
  Partition p = Louvain(g);
  EXPECT_EQ(CommunityCount(p), 8u);
  for (size_t c = 0; c < 8; ++c) {
    for (size_t i = 1; i < 5; ++i) EXPECT_EQ(p[c * 5 + i], p[c * 5]);
  }
}

TEST(LouvainTest, EmptyAndSingletonGraphs) {
  UGraph empty(0);
  EXPECT_TRUE(Louvain(empty).empty());
  UGraph one(1);
  EXPECT_EQ(Louvain(one).size(), 1u);
  UGraph isolated(4);  // no edges: everyone stays alone
  Partition p = Louvain(isolated);
  EXPECT_EQ(CommunityCount(p), 4u);
}

TEST(LouvainTest, DeterministicForFixedSeed) {
  UGraph g = CliqueRing(6, 4);
  LouvainOptions opt;
  opt.seed = 7;
  EXPECT_EQ(Louvain(g, opt), Louvain(g, opt));
}

TEST(LouvainTest, BeatsOrMatchesSingletonModularity) {
  Rng rng(17);
  UGraph g(40);
  for (int e = 0; e < 120; ++e) {
    size_t u = rng.Uniform(40);
    size_t v = rng.Uniform(40);
    if (u != v) g.AddEdge(u, v);
  }
  Partition p = Louvain(g);
  Partition singletons(40);
  std::iota(singletons.begin(), singletons.end(), 0);
  EXPECT_GE(Modularity(g, p), Modularity(g, singletons));
}

// ---------------------------------------------------------------- Baselines

TEST(LabelPropagationTest, RecoversTwoCliques) {
  UGraph g = TwoCliques();
  Partition p = LabelPropagation(g);
  // LPA can merge across a single bridge occasionally, but on K4-K4 it
  // should keep two groups with the default seed.
  EXPECT_LE(CommunityCount(p), 2u);
  for (size_t i = 1; i < 4; ++i) EXPECT_EQ(p[i], p[0]);
  for (size_t i = 5; i < 8; ++i) EXPECT_EQ(p[i], p[4]);
}

TEST(LabelPropagationTest, IsolatedNodesKeepOwnLabels) {
  UGraph g(3);
  Partition p = LabelPropagation(g);
  EXPECT_EQ(CommunityCount(p), 3u);
}

// Property sweep: on random graphs every algorithm returns a valid
// partition (size n, every node assigned) and Louvain's modularity is at
// least as good as LPA's and the singleton baseline's.
class AlgorithmPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlgorithmPropertyTest, ValidPartitionsAndLouvainDominance) {
  Rng rng(GetParam());
  size_t n = 20 + rng.Uniform(60);
  UGraph g(n);
  size_t edges = n * 3;
  for (size_t e = 0; e < edges; ++e) {
    size_t u = rng.Uniform(n);
    size_t v = rng.Uniform(n);
    g.AddEdge(u, v, 1.0 + static_cast<double>(rng.Uniform(5)));
  }
  for (auto algo : {Louvain(g, {}), LabelPropagation(g, {})}) {
    ASSERT_EQ(algo.size(), n);
    size_t k = CommunityCount(algo);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, n);
  }
  Partition louvain = Louvain(g);
  Partition lpa = LabelPropagation(g);
  Partition singles(n);
  std::iota(singles.begin(), singles.end(), 0);
  EXPECT_GE(Modularity(g, louvain) + 1e-9, Modularity(g, lpa));
  EXPECT_GE(Modularity(g, louvain), Modularity(g, singles));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgorithmPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------- ClusterSchema

schema::SchemaSummary MakeSummary() {
  extraction::IndexSummary idx;
  idx.endpoint_url = "http://test/sparql";
  // Two groups of classes: {A,B,C} densely linked, {D,E} linked, one weak
  // cross arc.
  auto cls = [](const std::string& iri, size_t n) {
    extraction::ClassInfo c;
    c.iri = iri;
    c.instance_count = n;
    return c;
  };
  auto obj = [](const std::string& p, const std::string& range, size_t n) {
    extraction::PropertyInfo info;
    info.iri = p;
    info.count = n;
    info.is_object_property = true;
    info.range_classes[range] = n;
    return info;
  };
  extraction::ClassInfo a = cls("http://x/A", 50);
  a.properties.push_back(obj("http://x/ab", "http://x/B", 30));
  a.properties.push_back(obj("http://x/ac", "http://x/C", 20));
  extraction::ClassInfo b = cls("http://x/B", 40);
  b.properties.push_back(obj("http://x/bc", "http://x/C", 25));
  extraction::ClassInfo c = cls("http://x/C", 30);
  extraction::ClassInfo d = cls("http://x/D", 20);
  d.properties.push_back(obj("http://x/de", "http://x/E", 15));
  d.properties.push_back(obj("http://x/da", "http://x/A", 1));  // weak bridge
  extraction::ClassInfo e = cls("http://x/E", 10);
  idx.classes = {a, b, c, d, e};
  idx.num_classes = 5;
  idx.num_instances = 150;
  return schema::SchemaSummary::FromIndexes(idx);
}

TEST(ClusterSchemaTest, BuildClassGraphDropsSelfLoops) {
  extraction::IndexSummary idx;
  idx.endpoint_url = "u";
  extraction::ClassInfo a;
  a.iri = "http://x/A";
  a.instance_count = 5;
  extraction::PropertyInfo self;
  self.iri = "http://x/self";
  self.count = 3;
  self.is_object_property = true;
  self.range_classes["http://x/A"] = 3;
  a.properties.push_back(self);
  idx.classes = {a};
  schema::SchemaSummary s = schema::SchemaSummary::FromIndexes(idx);
  ASSERT_EQ(s.ArcCount(), 1u);
  UGraph g = BuildClassGraph(s);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 0.0);
}

TEST(ClusterSchemaTest, LouvainPartitionGroupsDenseClasses) {
  schema::SchemaSummary s = MakeSummary();
  UGraph g = BuildClassGraph(s);
  Partition p = Louvain(g);
  ClusterSchema cs = ClusterSchema::FromPartition(s, p);
  EXPECT_EQ(cs.ClusterCount(), 2u);
  // {A,B,C} together; {D,E} together.
  int a = s.FindNode("http://x/A");
  int b = s.FindNode("http://x/B");
  int d = s.FindNode("http://x/D");
  int e = s.FindNode("http://x/E");
  EXPECT_EQ(cs.ClusterOf(static_cast<size_t>(a)),
            cs.ClusterOf(static_cast<size_t>(b)));
  EXPECT_EQ(cs.ClusterOf(static_cast<size_t>(d)),
            cs.ClusterOf(static_cast<size_t>(e)));
  EXPECT_NE(cs.ClusterOf(static_cast<size_t>(a)),
            cs.ClusterOf(static_cast<size_t>(d)));
}

TEST(ClusterSchemaTest, EveryClassInExactlyOneCluster) {
  schema::SchemaSummary s = MakeSummary();
  ClusterSchema cs =
      ClusterSchema::FromPartition(s, Louvain(BuildClassGraph(s)));
  std::set<size_t> seen;
  for (const Cluster& c : cs.clusters()) {
    for (size_t node : c.class_nodes) {
      EXPECT_TRUE(seen.insert(node).second) << "node in two clusters";
    }
  }
  EXPECT_EQ(seen.size(), s.NodeCount());
}

TEST(ClusterSchemaTest, LabelIsHighestDegreeMember) {
  schema::SchemaSummary s = MakeSummary();
  ClusterSchema cs =
      ClusterSchema::FromPartition(s, Louvain(BuildClassGraph(s)));
  size_t a = static_cast<size_t>(s.FindNode("http://x/A"));
  int cluster_a = cs.ClusterOf(a);
  ASSERT_GE(cluster_a, 0);
  // A has degree 3 (ab, ac, da) — the highest in {A,B,C}.
  EXPECT_EQ(cs.clusters()[static_cast<size_t>(cluster_a)].label, "A");
}

TEST(ClusterSchemaTest, ClusterInstanceTotals) {
  schema::SchemaSummary s = MakeSummary();
  ClusterSchema cs =
      ClusterSchema::FromPartition(s, Louvain(BuildClassGraph(s)));
  size_t total = 0;
  for (const Cluster& c : cs.clusters()) total += c.total_instances;
  EXPECT_EQ(total, s.total_instances());
}

TEST(ClusterSchemaTest, ArcsAggregateAcrossCut) {
  schema::SchemaSummary s = MakeSummary();
  ClusterSchema cs =
      ClusterSchema::FromPartition(s, Louvain(BuildClassGraph(s)));
  // Single bridge arc D->A with weight 1.
  ASSERT_EQ(cs.arcs().size(), 1u);
  EXPECT_EQ(cs.arcs()[0].weight, 1u);
  EXPECT_EQ(cs.arcs()[0].property_count, 1u);
}

TEST(ClusterSchemaTest, SingletonPartitionKeepsAllArcs) {
  schema::SchemaSummary s = MakeSummary();
  Partition singles(s.NodeCount());
  std::iota(singles.begin(), singles.end(), 0);
  ClusterSchema cs = ClusterSchema::FromPartition(s, singles);
  EXPECT_EQ(cs.ClusterCount(), s.NodeCount());
  EXPECT_EQ(cs.arcs().size(), s.ArcCount());
}

TEST(ClusterSchemaTest, JsonRoundTrip) {
  schema::SchemaSummary s = MakeSummary();
  ClusterSchema cs =
      ClusterSchema::FromPartition(s, Louvain(BuildClassGraph(s)));
  auto round = ClusterSchema::FromJson(cs.ToJson());
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(round->ToJson().Dump(), cs.ToJson().Dump());
  EXPECT_EQ(round->ClusterCount(), cs.ClusterCount());
  // ClusterOf survives the round trip.
  for (size_t node = 0; node < s.NodeCount(); ++node) {
    EXPECT_EQ(round->ClusterOf(node), cs.ClusterOf(node));
  }
}

TEST(ClusterSchemaTest, FromJsonRejectsBadArc) {
  Json j = Json::MakeObject();
  j.Set("endpoint_url", "u");
  j.Set("clusters", Json::MakeArray());
  Json arcs = Json::MakeArray();
  Json arc = Json::MakeObject();
  arc.Set("src", 3);
  arc.Set("dst", 0);
  arcs.Append(std::move(arc));
  j.Set("arcs", std::move(arcs));
  EXPECT_FALSE(ClusterSchema::FromJson(j).ok());
}

}  // namespace
}  // namespace hbold::cluster
