// Unit + property tests for src/viz: hierarchy, treemap, sunburst, circle
// packing, edge bundling, force layout, SVG output.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>

#include "cluster/cluster_schema.h"
#include "cluster/louvain.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/random.h"
#include "endpoint/simulated_endpoint.h"
#include "extraction/extractor.h"
#include "rdf/graph.h"
#include "viz/circle_pack.h"
#include "viz/color.h"
#include "viz/edge_bundling.h"
#include "viz/force_layout.h"
#include "viz/hierarchy.h"
#include "viz/layout_cache.h"
#include "viz/render.h"
#include "viz/sunburst.h"
#include "viz/svg.h"
#include "viz/treemap.h"
#include "workload/ld_generator.h"

namespace hbold::viz {
namespace {

/// Fixed two-cluster hierarchy used by several layout tests:
///   root -> C1 {A:60, B:30}, C2 {C:10}
Hierarchy FixedHierarchy() {
  Hierarchy a{"A", 60, {}};
  Hierarchy b{"B", 30, {}};
  Hierarchy c{"C", 10, {}};
  Hierarchy c1{"C1", 0, {a, b}};
  Hierarchy c2{"C2", 0, {c}};
  return Hierarchy{"root", 0, {c1, c2}};
}

/// Random hierarchy for property sweeps: `clusters` clusters with 1..6
/// leaves of value 1..100 (some zero-valued to exercise the equal-share
/// rule).
Hierarchy RandomHierarchy(uint64_t seed, size_t clusters) {
  Rng rng(seed);
  Hierarchy root{"root", 0, {}};
  for (size_t c = 0; c < clusters; ++c) {
    Hierarchy cluster{"cl" + std::to_string(c), 0, {}};
    size_t leaves = 1 + rng.Uniform(6);
    for (size_t l = 0; l < leaves; ++l) {
      double value =
          rng.Chance(0.15) ? 0 : static_cast<double>(1 + rng.Uniform(100));
      cluster.children.push_back(
          Hierarchy{"leaf" + std::to_string(c) + "_" + std::to_string(l),
                    value,
                    {}});
    }
    root.children.push_back(std::move(cluster));
  }
  return root;
}

// ---------------------------------------------------------------- Hierarchy

TEST(HierarchyTest, EffectiveValueSumsLeaves) {
  Hierarchy h = FixedHierarchy();
  EXPECT_DOUBLE_EQ(h.EffectiveValue(), 100.0);
  EXPECT_DOUBLE_EQ(h.children[0].EffectiveValue(), 90.0);
}

TEST(HierarchyTest, ZeroLeafGetsEqualShare) {
  Hierarchy z{"z", 0, {}};
  Hierarchy a{"a", 40, {}};
  Hierarchy b{"b", 20, {}};
  Hierarchy parent{"p", 0, {a, z, b}};
  std::vector<double> values = parent.ChildValues();
  // Zero leaf gets the mean of non-zero siblings: (40+20)/2 = 30.
  EXPECT_DOUBLE_EQ(values[1], 30.0);
  EXPECT_DOUBLE_EQ(values[0], 40.0);
}

TEST(HierarchyTest, AllZeroLeavesShareEqually) {
  Hierarchy parent{"p", 0, {{"a", 0, {}}, {"b", 0, {}}}};
  std::vector<double> values = parent.ChildValues();
  EXPECT_DOUBLE_EQ(values[0], 1.0);
  EXPECT_DOUBLE_EQ(values[1], 1.0);
}

TEST(HierarchyTest, TreeSizeAndDepth) {
  Hierarchy h = FixedHierarchy();
  EXPECT_EQ(h.TreeSize(), 6u);
  EXPECT_EQ(h.MaxDepth(), 2u);
  EXPECT_EQ(Hierarchy{}.MaxDepth(), 0u);
}

// ---------------------------------------------------------------- Treemap

TEST(TreemapTest, FixedLayoutShape) {
  TreemapOptions opt;
  opt.padding = 0;
  opt.header = 0;
  auto cells = TreemapLayout(FixedHierarchy(), Rect{0, 0, 400, 300}, opt);
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].depth, 0u);
  // Depth-1 areas proportional to 90 / 10 of the canvas.
  double cluster_area = 0;
  for (const TreemapCell& c : cells) {
    if (c.depth == 1) cluster_area += c.rect.Area();
    if (c.name == "C1") {
      EXPECT_NEAR(c.rect.Area(), 400 * 300 * 0.9, 1.0);
    }
  }
  EXPECT_NEAR(cluster_area, 400 * 300, 1.0);
}

class TreemapPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TreemapPropertyTest, CellsNestDontOverlapAndAreasAreProportional) {
  Hierarchy root = RandomHierarchy(GetParam(), 2 + GetParam() % 5);
  TreemapOptions opt;
  opt.padding = 0;
  opt.header = 0;
  Rect bounds{0, 0, 640, 480};
  auto cells = TreemapLayout(root, bounds, opt);

  std::vector<const TreemapCell*> clusters;
  std::vector<const TreemapCell*> leaves;
  for (const TreemapCell& c : cells) {
    if (c.depth == 1) clusters.push_back(&c);
    if (c.depth == 2) leaves.push_back(&c);
  }
  // Nesting: every cluster inside bounds; every leaf inside some cluster.
  for (const TreemapCell* c : clusters) {
    EXPECT_TRUE(bounds.ContainsRect(c->rect, 1e-6)) << c->name;
  }
  for (const TreemapCell* l : leaves) {
    bool inside = false;
    for (const TreemapCell* c : clusters) {
      if (c->rect.ContainsRect(l->rect, 1e-6)) inside = true;
    }
    EXPECT_TRUE(inside) << l->name;
  }
  // Sibling clusters don't overlap.
  for (size_t i = 0; i < clusters.size(); ++i) {
    for (size_t j = i + 1; j < clusters.size(); ++j) {
      EXPECT_FALSE(clusters[i]->rect.Overlaps(clusters[j]->rect, 1e-6))
          << clusters[i]->name << " vs " << clusters[j]->name;
    }
  }
  // Leaves of the same cluster don't overlap.
  for (size_t i = 0; i < leaves.size(); ++i) {
    for (size_t j = i + 1; j < leaves.size(); ++j) {
      if (leaves[i]->group != leaves[j]->group) continue;
      EXPECT_FALSE(leaves[i]->rect.Overlaps(leaves[j]->rect, 1e-6));
    }
  }
  // Areas proportional to effective values (cluster level).
  std::vector<double> values = root.ChildValues();
  double total_value = std::accumulate(values.begin(), values.end(), 0.0);
  for (size_t i = 0; i < clusters.size(); ++i) {
    // Cells are emitted in child order at depth 1.
    double expected = values[i] / total_value * bounds.Area();
    EXPECT_NEAR(clusters[i]->rect.Area(), expected, bounds.Area() * 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreemapPropertyTest,
                         ::testing::Range<uint64_t>(0, 10));

TEST(TreemapTest, PaddingAndHeaderInset) {
  TreemapOptions opt;
  opt.padding = 4;
  opt.header = 12;
  auto cells = TreemapLayout(FixedHierarchy(), Rect{0, 0, 400, 300}, opt);
  // Leaves sit strictly inside their cluster (below the header strip).
  for (const TreemapCell& leaf : cells) {
    if (leaf.depth != 2) continue;
    for (const TreemapCell& cluster : cells) {
      if (cluster.depth != 1) continue;
      if (cluster.rect.ContainsRect(leaf.rect, 1e-6)) {
        EXPECT_GE(leaf.rect.y, cluster.rect.y + opt.header - 1e-6);
      }
    }
  }
}

TEST(TreemapTest, SingleLeafFillsBounds) {
  Hierarchy solo{"only", 5, {}};
  auto cells = TreemapLayout(solo, Rect{0, 0, 100, 50}, {});
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_DOUBLE_EQ(cells[0].rect.Area(), 5000.0);
}

// ---------------------------------------------------------------- Sunburst

TEST(SunburstTest, AnglesPartitionTheCircle) {
  auto slices = SunburstLayout(FixedHierarchy(), {});
  double depth1_span = 0;
  for (const SunburstSlice& s : slices) {
    if (s.depth == 1) depth1_span += s.a1 - s.a0;
    EXPECT_LE(s.a0, s.a1 + 1e-12);
  }
  EXPECT_NEAR(depth1_span, 2 * kPi, 1e-9);
}

TEST(SunburstTest, AngleProportionalToValue) {
  auto slices = SunburstLayout(FixedHierarchy(), {});
  const SunburstSlice* a = nullptr;
  const SunburstSlice* b = nullptr;
  for (const SunburstSlice& s : slices) {
    if (s.name == "A") a = &s;
    if (s.name == "B") b = &s;
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NEAR((a->a1 - a->a0) / (b->a1 - b->a0), 2.0, 1e-9);
}

TEST(SunburstTest, ChildrenNestWithinParentAngles) {
  auto slices = SunburstLayout(FixedHierarchy(), {});
  const SunburstSlice* c1 = nullptr;
  for (const SunburstSlice& s : slices) {
    if (s.name == "C1") c1 = &s;
  }
  ASSERT_NE(c1, nullptr);
  for (const SunburstSlice& s : slices) {
    if (s.depth == 2 && (s.name == "A" || s.name == "B")) {
      EXPECT_GE(s.a0, c1->a0 - 1e-9);
      EXPECT_LE(s.a1, c1->a1 + 1e-9);
      // Outer ring sits outside the inner ring.
      EXPECT_GE(s.r0, c1->r1 - 1e-9);
    }
  }
}

TEST(SunburstTest, RingRadiiOrdered) {
  SunburstOptions opt;
  opt.radius = 200;
  auto slices = SunburstLayout(FixedHierarchy(), opt);
  for (const SunburstSlice& s : slices) {
    EXPECT_LT(s.r0, s.r1);
    EXPECT_LE(s.r1, opt.radius + 1e-9);
    EXPECT_GE(s.r0, opt.radius * opt.inner_hole - 1e-9);
  }
}

TEST(SunburstTest, EmptyHierarchy) {
  EXPECT_TRUE(SunburstLayout(Hierarchy{"x", 1, {}}, {}).empty());
}

// ---------------------------------------------------------------- CirclePack

TEST(PackSiblingsTest, TwoCirclesTangent) {
  auto pos = PackSiblings({10, 5});
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_NEAR(Distance(pos[0], pos[1]), 15.0, 1e-9);
}

class PackSiblingsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PackSiblingsPropertyTest, NoOverlapsAndCompact) {
  Rng rng(GetParam());
  size_t n = 2 + rng.Uniform(40);
  std::vector<double> radii;
  double sum_r = 0;
  for (size_t i = 0; i < n; ++i) {
    radii.push_back(1.0 + static_cast<double>(rng.Uniform(20)));
    sum_r += radii.back();
  }
  auto pos = PackSiblings(radii);
  ASSERT_EQ(pos.size(), n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double d = Distance(pos[i], pos[j]);
      EXPECT_GE(d, radii[i] + radii[j] - 1e-5)
          << "overlap between " << i << " and " << j << " seed " << GetParam();
    }
  }
  // Compactness sanity: everything fits inside a circle of radius
  // sum of radii (a line arrangement would already achieve this).
  Circle enclosing = EncloseCircles([&] {
    std::vector<Circle> cs;
    for (size_t i = 0; i < n; ++i) {
      cs.push_back(Circle{pos[i].x, pos[i].y, radii[i]});
    }
    return cs;
  }());
  EXPECT_LE(enclosing.r, sum_r + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackSiblingsPropertyTest,
                         ::testing::Range<uint64_t>(0, 12));

TEST(EncloseCirclesTest, ContainsAllInputs) {
  std::vector<Circle> cs{{0, 0, 5}, {20, 0, 3}, {10, 15, 4}};
  Circle e = EncloseCircles(cs);
  for (const Circle& c : cs) {
    EXPECT_TRUE(e.ContainsCircle(c, 1e-5));
  }
  EXPECT_TRUE(EncloseCircles({}).r == 0);
}

class CirclePackPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CirclePackPropertyTest, ContainmentAndDisjointness) {
  Hierarchy root = RandomHierarchy(GetParam() + 100, 2 + GetParam() % 4);
  CirclePackOptions opt;
  opt.radius = 250;
  auto circles = CirclePackLayout(root, opt);
  ASSERT_EQ(circles.size(), root.TreeSize());
  const PackedCircle* outer = &circles[0];
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_NEAR(outer->circle.r, 250, 1e-6);

  // Every cluster inside the dataset circle; clusters pairwise disjoint.
  std::vector<const PackedCircle*> clusters;
  std::vector<const PackedCircle*> leaves;
  for (const PackedCircle& c : circles) {
    if (c.depth == 1) clusters.push_back(&c);
    if (c.depth == 2) leaves.push_back(&c);
  }
  for (const PackedCircle* c : clusters) {
    EXPECT_TRUE(outer->circle.ContainsCircle(c->circle, 1e-4)) << c->name;
  }
  for (size_t i = 0; i < clusters.size(); ++i) {
    for (size_t j = i + 1; j < clusters.size(); ++j) {
      EXPECT_FALSE(clusters[i]->circle.Overlaps(clusters[j]->circle, 1e-4));
    }
  }
  // Leaves inside their cluster; same-cluster leaves disjoint.
  for (const PackedCircle* l : leaves) {
    bool inside = false;
    for (const PackedCircle* c : clusters) {
      if (c->group == l->group && c->circle.ContainsCircle(l->circle, 1e-4)) {
        inside = true;
      }
    }
    EXPECT_TRUE(inside) << l->name;
  }
  for (size_t i = 0; i < leaves.size(); ++i) {
    for (size_t j = i + 1; j < leaves.size(); ++j) {
      if (leaves[i]->group != leaves[j]->group) continue;
      EXPECT_FALSE(leaves[i]->circle.Overlaps(leaves[j]->circle, 1e-4));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CirclePackPropertyTest,
                         ::testing::Range<uint64_t>(0, 10));

TEST(CirclePackTest, LeafAreasProportionalWithinCluster) {
  auto circles = CirclePackLayout(FixedHierarchy(), {});
  const PackedCircle* a = nullptr;
  const PackedCircle* b = nullptr;
  for (const PackedCircle& c : circles) {
    if (c.name == "A") a = &c;
    if (c.name == "B") b = &c;
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NEAR(a->circle.r * a->circle.r / (b->circle.r * b->circle.r), 2.0,
              1e-6);
}

/// Bit pattern of a double, so equality checks tell -0.0 from 0.0.
uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// EncloseCircles as first written: every pass scores every circle with
/// std::hypot. The library version must agree with it bit for bit.
Circle ReferenceEncloseCircles(const std::vector<Circle>& circles) {
  if (circles.empty()) return Circle{0, 0, 0};
  double cx = 0, cy = 0;
  for (const Circle& c : circles) {
    cx += c.x;
    cy += c.y;
  }
  cx /= static_cast<double>(circles.size());
  cy /= static_cast<double>(circles.size());
  double step = 0.5;
  for (int iter = 0; iter < 200; ++iter) {
    const Circle* far = nullptr;
    double far_dist = -1;
    for (const Circle& c : circles) {
      double d = std::hypot(c.x - cx, c.y - cy) + c.r;
      if (d > far_dist) {
        far_dist = d;
        far = &c;
      }
    }
    double dx = far->x - cx, dy = far->y - cy;
    cx += dx * step * 0.2;
    cy += dy * step * 0.2;
    step *= 0.98;
  }
  double radius = 0;
  for (const Circle& c : circles) {
    radius = std::max(radius, std::hypot(c.x - cx, c.y - cy) + c.r);
  }
  return Circle{cx, cy, radius * (1 + 1e-9) + 1e-9};
}

TEST(CirclePackTest, EncloseCirclesMatchesReference) {
  std::vector<std::vector<Circle>> inputs;
  Rng rng(41);
  for (size_t n = 1; n <= 300; n += 1 + n / 8) {
    // Random circles at mixed scales.
    const double scale = std::pow(10.0, -2 + 6 * rng.NextDouble());
    std::vector<Circle> cs;
    for (size_t i = 0; i < n; ++i) {
      cs.push_back(Circle{scale * (rng.NextDouble() - 0.5),
                          scale * (rng.NextDouble() - 0.5),
                          scale * 0.1 * rng.NextDouble()});
    }
    inputs.push_back(cs);
    // The same circles with duplicates mixed in.
    for (size_t i = 0; i < n; i += 3) cs.push_back(cs[i]);
    inputs.push_back(cs);
    // The packed layout of random radii, as CirclePackLayout encloses them.
    std::vector<double> radii;
    for (size_t i = 0; i < n; ++i) radii.push_back(0.5 + rng.NextDouble() * 30);
    std::vector<Point> centers = PackSiblings(radii);
    std::vector<Circle> packed;
    for (size_t i = 0; i < n; ++i) {
      packed.push_back(Circle{centers[i].x, centers[i].y, radii[i]});
    }
    inputs.push_back(packed);
  }
  // Symmetric rings: equal circles placed so that several tie for
  // farthest from a centroid that is exactly the origin.
  for (double a : {1.0, 3.5, 1e-3, 1e6}) {
    inputs.push_back({{a, 0, 1}, {-a, 0, 1}, {0, a, 1}, {0, -a, 1}});
    inputs.push_back({{a, a, 2}, {-a, a, 2}, {a, -a, 2}, {-a, -a, 2},
                      {2 * a, a, 1}, {-2 * a, a, 1}, {2 * a, -a, 1},
                      {-2 * a, -a, 1}});
    std::vector<Circle> ring;
    for (int i = 0; i < 12; ++i) {
      const double t = 2 * kPi * i / 12;
      ring.push_back(Circle{a * std::cos(t), a * std::sin(t), 0.5});
    }
    inputs.push_back(ring);
  }
  // Pairs whose distances from the origin differ by one ulp, with
  // std::hypot and sqrt(dx*dx + dy*dy) ordering them oppositely. Each
  // comes with its mirror image, so the first centroid is exactly 0.
  const std::vector<std::pair<Point, Point>> close_pairs{
      {{0x1.edf12a0a4fec5p+0, 0x1.00d8b6f71da74p+0},
       {0x1.be872e0181069p-1, 0x1.fe0084e9c51c8p+0}},
      {{0x1.56ba6b0fce59ep-1, 0x1.8512e0ed6042cp+0},
       {0x1.567d732560149p+0, 0x1.f7c3a65289478p-1}},
      {{0x1.3f4d44018d34bp+0, 0x1.4b63e3493ab08p+0},
       {0x1.b8ee65f2407cbp+0, 0x1.0775ab6d9b114p-1}},
  };
  for (const auto& [p, q] : close_pairs) {
    inputs.push_back({{p.x, p.y, 0}, {-p.x, -p.y, 0}, {q.x, q.y, 0},
                      {-q.x, -q.y, 0}});
    inputs.push_back({{q.x, q.y, 0}, {-q.x, -q.y, 0}, {p.x, p.y, 0},
                      {-p.x, -p.y, 0}});
  }
  inputs.push_back({{5, 5, 0}});
  inputs.push_back(std::vector<Circle>(7, Circle{1, 2, 3}));
  for (const std::vector<Circle>& cs : inputs) {
    const Circle want = ReferenceEncloseCircles(cs);
    const Circle got = EncloseCircles(cs);
    EXPECT_EQ(Bits(got.x), Bits(want.x)) << cs.size() << " circles";
    EXPECT_EQ(Bits(got.y), Bits(want.y)) << cs.size() << " circles";
    EXPECT_EQ(Bits(got.r), Bits(want.r)) << cs.size() << " circles";
  }
}

// ---------------------------------------------------------------- Bundling

TEST(BSplineTest, EndpointsInterpolated) {
  std::vector<Point> control{{0, 0}, {50, 100}, {100, 0}};
  auto curve = SampleBSpline(control, 8);
  ASSERT_GE(curve.size(), 2u);
  EXPECT_NEAR(curve.front().x, 0, 1e-9);
  EXPECT_NEAR(curve.front().y, 0, 1e-9);
  EXPECT_NEAR(curve.back().x, 100, 1e-9);
  EXPECT_NEAR(curve.back().y, 0, 1e-9);
}

TEST(BSplineTest, CurvePullsTowardControlPoints) {
  std::vector<Point> control{{0, 0}, {50, 100}, {100, 0}};
  auto curve = SampleBSpline(control, 16);
  double max_y = 0;
  for (const Point& p : curve) max_y = std::max(max_y, p.y);
  EXPECT_GT(max_y, 20.0);
  EXPECT_LT(max_y, 100.0);  // B-splines do not interpolate interior points
}

/// Schema + clusters for bundling tests: two clusters of two classes each.
struct BundleFixture {
  schema::SchemaSummary summary;
  cluster::ClusterSchema clusters;
};

BundleFixture MakeBundleFixture() {
  extraction::IndexSummary idx;
  idx.endpoint_url = "u";
  auto add_class = [&](const std::string& iri, size_t n) {
    extraction::ClassInfo c;
    c.iri = iri;
    c.instance_count = n;
    idx.classes.push_back(c);
  };
  add_class("http://x/A", 10);
  add_class("http://x/B", 10);
  add_class("http://x/C", 10);
  add_class("http://x/D", 10);
  auto link = [&](size_t from, const std::string& p, const std::string& to,
                  size_t n) {
    extraction::PropertyInfo info;
    info.iri = p;
    info.count = n;
    info.is_object_property = true;
    info.range_classes[to] = n;
    idx.classes[from].properties.push_back(info);
  };
  link(0, "http://x/ab", "http://x/B", 5);   // within cluster 0
  link(0, "http://x/ac", "http://x/C", 3);   // cross-cluster
  link(2, "http://x/cd", "http://x/D", 4);   // within cluster 1
  BundleFixture f;
  f.summary = schema::SchemaSummary::FromIndexes(idx);
  cluster::Partition part{0, 0, 1, 1};
  f.clusters = cluster::ClusterSchema::FromPartition(f.summary, part);
  return f;
}

TEST(EdgeBundlingTest, LeavesOnCircleGroupedByCluster) {
  BundleFixture f = MakeBundleFixture();
  EdgeBundlingOptions opt;
  opt.radius = 100;
  auto layout = BundleSchemaSummary(f.summary, f.clusters, opt);
  ASSERT_EQ(layout.leaves.size(), 4u);
  for (const BundleLeaf& leaf : layout.leaves) {
    EXPECT_NEAR(std::hypot(leaf.position.x, leaf.position.y), 100, 1e-9);
  }
  // Cluster-mates are angularly adjacent.
  EXPECT_EQ(layout.leaves[0].cluster, layout.leaves[1].cluster);
  EXPECT_EQ(layout.leaves[2].cluster, layout.leaves[3].cluster);
}

TEST(EdgeBundlingTest, EdgesAnchoredAtLeaves) {
  BundleFixture f = MakeBundleFixture();
  auto layout = BundleSchemaSummary(f.summary, f.clusters, {});
  ASSERT_EQ(layout.edges.size(), 3u);
  for (const BundledEdge& e : layout.edges) {
    const Point& src = layout.leaves[e.src_leaf].position;
    const Point& dst = layout.leaves[e.dst_leaf].position;
    EXPECT_NEAR(e.polyline.front().x, src.x, 1e-9);
    EXPECT_NEAR(e.polyline.front().y, src.y, 1e-9);
    EXPECT_NEAR(e.polyline.back().x, dst.x, 1e-9);
    EXPECT_NEAR(e.polyline.back().y, dst.y, 1e-9);
  }
}

TEST(EdgeBundlingTest, BetaZeroIsNearStraight) {
  BundleFixture f = MakeBundleFixture();
  EdgeBundlingOptions opt;
  opt.beta = 0.0;
  auto layout = BundleSchemaSummary(f.summary, f.clusters, opt);
  // With beta=0 all control points lie on the chord: ink == straight ink.
  EXPECT_NEAR(layout.TotalInk(), layout.StraightInk(),
              layout.StraightInk() * 0.01);
}

TEST(EdgeBundlingTest, BundlingCurvesCrossClusterEdges) {
  BundleFixture f = MakeBundleFixture();
  EdgeBundlingOptions strong;
  strong.beta = 1.0;
  auto bundled = BundleSchemaSummary(f.summary, f.clusters, strong);
  // Bundled ink exceeds chord ink per edge (detours through the
  // hierarchy), which is the Holten trade: longer paths, less clutter.
  EXPECT_GT(bundled.TotalInk(), bundled.StraightInk() * 0.99);
  // And beta interpolates monotonically toward straight.
  EdgeBundlingOptions mid;
  mid.beta = 0.5;
  auto half = BundleSchemaSummary(f.summary, f.clusters, mid);
  EXPECT_LT(half.TotalInk(), bundled.TotalInk() + 1e-9);
}

/// SampleBSpline as first written: pads the control points by tripling the
/// endpoints and evaluates the basis afresh for every sample.
std::vector<Point> ReferenceSampleBSpline(const std::vector<Point>& control,
                                          size_t samples_per_segment) {
  if (control.size() < 2) return control;
  std::vector<Point> pts;
  pts.push_back(control.front());
  pts.push_back(control.front());
  pts.insert(pts.end(), control.begin(), control.end());
  pts.push_back(control.back());
  pts.push_back(control.back());
  std::vector<Point> out;
  const size_t segments = pts.size() - 3;
  for (size_t seg = 0; seg < segments; ++seg) {
    const Point& p0 = pts[seg];
    const Point& p1 = pts[seg + 1];
    const Point& p2 = pts[seg + 2];
    const Point& p3 = pts[seg + 3];
    for (size_t s = 0; s < samples_per_segment; ++s) {
      double t =
          static_cast<double>(s) / static_cast<double>(samples_per_segment);
      double t2 = t * t, t3 = t2 * t;
      double b0 = (1 - 3 * t + 3 * t2 - t3) / 6;
      double b1 = (4 - 6 * t2 + 3 * t3) / 6;
      double b2 = (1 + 3 * t + 3 * t2 - 3 * t3) / 6;
      double b3 = t3 / 6;
      out.push_back(Point{b0 * p0.x + b1 * p1.x + b2 * p2.x + b3 * p3.x,
                          b0 * p0.y + b1 * p1.y + b2 * p2.y + b3 * p3.y});
    }
  }
  out.push_back(control.back());
  return out;
}

TEST(EdgeBundlingTest, SampleBSplineMatchesReference) {
  Rng rng(43);
  for (size_t points = 0; points <= 6; ++points) {
    for (size_t samples = 0; samples <= 64; ++samples) {
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<Point> control;
        for (size_t i = 0; i < points; ++i) {
          control.push_back(Point{600 * rng.NextDouble() - 300,
                                  600 * rng.NextDouble() - 300});
        }
        const std::vector<Point> want = ReferenceSampleBSpline(control, samples);
        const std::vector<Point> got = SampleBSpline(control, samples);
        ASSERT_EQ(got.size(), want.size()) << points << " x " << samples;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(Bits(got[i].x), Bits(want[i].x))
              << points << " x " << samples << " at " << i;
          EXPECT_EQ(Bits(got[i].y), Bits(want[i].y))
              << points << " x " << samples << " at " << i;
        }
      }
    }
  }
}

TEST(EdgeBundlingTest, EmptySummary) {
  schema::SchemaSummary empty;
  cluster::ClusterSchema cs;
  auto layout = BundleSchemaSummary(empty, cs, {});
  EXPECT_TRUE(layout.leaves.empty());
  EXPECT_TRUE(layout.edges.empty());
}

// ---------------------------------------------------------------- Force

TEST(ForceLayoutTest, PositionsInsideFrame) {
  std::vector<ForceEdge> edges{{0, 1}, {1, 2}, {2, 0}, {2, 3}};
  ForceLayoutOptions opt;
  opt.width = 300;
  opt.height = 200;
  opt.iterations = 80;
  auto pos = ForceLayout(5, edges, opt);
  ASSERT_EQ(pos.size(), 5u);
  for (const Point& p : pos) {
    EXPECT_GE(p.x, 0);
    EXPECT_LE(p.x, 300);
    EXPECT_GE(p.y, 0);
    EXPECT_LE(p.y, 200);
  }
}

TEST(ForceLayoutTest, DeterministicForSeed) {
  std::vector<ForceEdge> edges{{0, 1}, {1, 2}};
  ForceLayoutOptions opt;
  opt.seed = 9;
  auto a = ForceLayout(4, edges, opt);
  auto b = ForceLayout(4, edges, opt);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].x, b[i].x);
    EXPECT_DOUBLE_EQ(a[i].y, b[i].y);
  }
}

TEST(ForceLayoutTest, ConnectedNodesCloserThanDisconnected) {
  // Path 0-1 plus isolated far node 2; attraction should pull 0,1 together.
  std::vector<ForceEdge> edges{{0, 1, 3.0}};
  ForceLayoutOptions opt;
  opt.iterations = 400;
  auto pos = ForceLayout(3, edges, opt);
  double d01 = Distance(pos[0], pos[1]);
  double d02 = Distance(pos[0], pos[2]);
  double d12 = Distance(pos[1], pos[2]);
  EXPECT_LT(d01, std::max(d02, d12));
}

TEST(ForceLayoutTest, EdgeCases) {
  EXPECT_TRUE(ForceLayout(0, {}, {}).empty());
  auto one = ForceLayout(1, {}, {});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0].x, 400);  // centered in default 800x600
}

// ---------------------------------------------------------------- Color/SVG

TEST(ColorTest, HexFormat) {
  EXPECT_EQ((Color{255, 0, 16}).ToHex(), "#ff0010");
}

TEST(ColorTest, HslRoundValues) {
  EXPECT_EQ(FromHsl(0, 1, 0.5).ToHex(), "#ff0000");
  EXPECT_EQ(FromHsl(120, 1, 0.5).ToHex(), "#00ff00");
  EXPECT_EQ(FromHsl(240, 1, 0.5).ToHex(), "#0000ff");
  EXPECT_EQ(FromHsl(0, 0, 1).ToHex(), "#ffffff");
}

TEST(ColorTest, CategoricalDistinctForSmallIndexes) {
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = i + 1; j < 10; ++j) {
      EXPECT_NE(CategoricalColor(i).ToHex(), CategoricalColor(j).ToHex());
    }
  }
}

TEST(ColorTest, LightenMovesTowardWhite) {
  Color c{100, 50, 200};
  Color l = Lighten(c, 0.5);
  EXPECT_GT(l.r, c.r);
  EXPECT_GT(l.g, c.g);
  EXPECT_GT(l.b, c.b);
  EXPECT_EQ(Lighten(c, 1.0).ToHex(), "#ffffff");
}

TEST(SvgTest, DocumentStructure) {
  SvgDocument doc(200, 100);
  doc.AddRect(Rect{10, 10, 50, 20}, Style::Fill(Color{255, 0, 0}));
  doc.AddCircle(Circle{50, 50, 10}, Style::Stroke(Color{0, 0, 255}, 2));
  doc.AddLine(Point{0, 0}, Point{10, 10}, Style::Stroke(Color{0, 0, 0}));
  doc.AddPolyline({{0, 0}, {5, 5}, {10, 0}}, Style::Stroke(Color{0, 128, 0}));
  doc.AddText(Point{5, 5}, "hi <&> there", 10);
  doc.AddAnnularSector(Point{100, 50}, 10, 20, 0, 1.0,
                       Style::Fill(Color{1, 2, 3}));
  EXPECT_EQ(doc.ElementCount(), 6u);
  std::string svg = doc.ToString();
  EXPECT_NE(svg.find("<svg xmlns"), std::string::npos);
  EXPECT_NE(svg.find("viewBox=\"0 0 200.00 100.00\""), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  EXPECT_NE(svg.find("<path"), std::string::npos);
  EXPECT_NE(svg.find("hi &lt;&amp;&gt; there"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(SvgTest, PolylineNeedsTwoPoints) {
  SvgDocument doc(10, 10);
  doc.AddPolyline({{1, 1}}, Style::Stroke(Color{0, 0, 0}));
  EXPECT_EQ(doc.ElementCount(), 0u);
}

TEST(SvgTest, WriteFile) {
  SvgDocument doc(10, 10);
  doc.AddCircle(Circle{5, 5, 2}, Style::Fill(Color{0, 0, 0}));
  std::string path = ::testing::TempDir() + "/hbold_svg_test.svg";
  ASSERT_TRUE(doc.WriteFile(path).ok());
  EXPECT_FALSE(doc.WriteFile("/nonexistent-dir/x.svg").ok());

  // Writing over an existing, longer file replaces it whole.
  {
    std::ofstream old(path);
    old << std::string(4 * doc.ToString().size(), 'x');
  }
  ASSERT_TRUE(doc.WriteFile(path).ok());
  std::ifstream in(path);
  std::stringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), doc.ToString());
}

/// `%.2f` as glibc prints it, into a buffer wide enough for any double.
std::string PrintfFixed2(double v) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Checks that every value in `values` prints through AddCircle exactly as
/// `%.2f` does. Values go into one document per batch, and a batch that
/// differs is rechecked value by value to name the culprits.
void ExpectCirclesPrintLikePrintf(const std::vector<double>& values) {
  const std::string footer = "</svg>\n";
  const std::string header = [&] {
    std::string empty = SvgDocument(10, 10).ToString();
    return empty.substr(0, empty.size() - footer.size());
  }();
  auto append_line = [](std::string* out, double v) {
    char num[512];
    *out += "<circle cx=\"";
    out->append(num, static_cast<size_t>(
                         std::snprintf(num, sizeof(num), "%.2f", v)));
    *out += "\" cy=\"0.00\" r=\"1.00\" fill=\"none\"/>\n";
  };
  constexpr size_t kBatch = 4096;
  size_t mismatches = 0;
  std::string expected;
  for (size_t start = 0; start < values.size(); start += kBatch) {
    const size_t end = std::min(values.size(), start + kBatch);
    SvgDocument doc(10, 10);
    expected = header;
    for (size_t i = start; i < end; ++i) {
      doc.AddCircle(Circle{values[i], 0, 1}, Style{});
      append_line(&expected, values[i]);
    }
    expected += footer;
    if (std::move(doc).ToString() == expected) continue;
    for (size_t i = start; i < end && mismatches < 20; ++i) {
      SvgDocument one(10, 10);
      one.AddCircle(Circle{values[i], 0, 1}, Style{});
      std::string want = header;
      append_line(&want, values[i]);
      if (std::move(one).ToString() != want + footer) {
        ++mismatches;
        ADD_FAILURE() << "value " << std::hexfloat << values[i]
                      << " should print as " << PrintfFixed2(values[i]);
      }
    }
  }
}

TEST(SvgTest, NumbersMatchPrintfFixed2InFull) {
  const double inf = std::numeric_limits<double>::infinity();
  const double dmax = std::numeric_limits<double>::max();
  std::vector<double> values{0.0,   -0.0,  -0.004, 0.005,        0.125,
                             2.675, 1e15,  1e300,  -1e300,       inf,
                             -inf,  std::nan(""),  -std::nan(""), dmax,
                             -dmax, 1e9,   -1e9,   1e11,         4.5e15,
                             9007199254740992.0, 9007199254740993.0};
  // Subnormals and the smallest normals.
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double dmin = std::numeric_limits<double>::min();
  for (double v : {denorm, 2 * denorm, dmin / 2, dmin, dmin * 3}) {
    values.push_back(v);
    values.push_back(-v);
  }
  Rng rng(17);
  for (int i = 0; i < 4000; ++i) {
    // Magnitudes 1e-3 .. 1e20, both signs.
    double v = std::pow(10.0, -3 + 23 * rng.NextDouble());
    values.push_back(rng.Chance(0.5) ? -v : v);
    // Exact binary ties at the third decimal (.125, .375, .625, .875).
    values.push_back(static_cast<double>(rng.Uniform(1 << 20)) +
                     0.125 * static_cast<double>(1 + 2 * rng.Uniform(4)));
  }
  // A million seeded values over 1e-3 .. 1e15, both signs.
  Rng wide(29);
  for (int i = 0; i < 1000000; ++i) {
    double v = std::pow(10.0, -3 + 18 * wide.NextDouble());
    values.push_back(wide.Chance(0.5) ? -v : v);
  }
  // Every cent up to 10^4 with its neighbours 1..4 ulps away on both sides.
  auto push_neighbours = [&](double center) {
    double up = center, down = center;
    for (int u = 1; u <= 4; ++u) {
      up = std::nextafter(up, inf);
      down = std::nextafter(down, -inf);
      values.push_back(up);
      values.push_back(-down);
    }
  };
  for (int k = 0; k <= 1000000; ++k) push_neighbours(k / 100.0);
  // Half-cents are where "%.2f" turns from rounding down to rounding up:
  // every one up to 10^3, then seeded ones up to 2·10^10, each with its
  // neighbours.
  for (int k = 0; k <= 100000; ++k) {
    values.push_back((k + 0.5) / 100.0);
    push_neighbours((k + 0.5) / 100.0);
  }
  for (int i = 0; i < 100000; ++i) {
    const double k = static_cast<double>(
        wide.Uniform(uint64_t{1} << (17 + wide.Uniform(24))));
    values.push_back((k + 0.5) / 100.0);
    push_neighbours((k + 0.5) / 100.0);
  }
  // Exact binary ties: the fraction .125/.375/.625/.875 makes v·100 a
  // half-integer exactly. Small integer parts, then ones up to 2^45.
  for (int k = 0; k < 20000; ++k) {
    for (double f : {0.125, 0.375, 0.625, 0.875}) {
      values.push_back(k + f);
      values.push_back(-(k + f));
    }
  }
  for (int i = 0; i < 20000; ++i) {
    double k = static_cast<double>(wide.Uniform(uint64_t{1} << 45));
    values.push_back(k + 0.125 * static_cast<double>(1 + 2 * wide.Uniform(4)));
  }
  // Both sides of every power-of-ten magnitude from 1e6 to 1e16 (the
  // fast path's cutoff among them), walking a few ulps each way.
  for (double p = 1e6; p <= 1e16; p *= 10) {
    double up = p, down = p;
    for (int u = 0; u < 64; ++u) {
      values.push_back(up);
      values.push_back(-down);
      up = std::nextafter(up, inf);
      down = std::nextafter(down, 0.0);
    }
    for (int i = 0; i < 2000; ++i) {
      values.push_back(p * (0.5 + wide.NextDouble()));
    }
  }
  ExpectCirclesPrintLikePrintf(values);
}

// ---------------------------------------------------------------- Renderers

TEST(RenderTest, AllRenderersProduceElements) {
  Hierarchy h = FixedHierarchy();
  auto treemap = RenderTreemap(TreemapLayout(h, Rect{0, 0, 400, 300}, {}),
                               400, 300);
  EXPECT_GT(treemap.ElementCount(), 3u);

  auto sunburst = RenderSunburst(SunburstLayout(h, {}), 300);
  EXPECT_GT(sunburst.ElementCount(), 2u);

  auto pack = RenderCirclePack(CirclePackLayout(h, {}), 300);
  EXPECT_GT(pack.ElementCount(), 3u);

  BundleFixture f = MakeBundleFixture();
  auto bundling = RenderEdgeBundling(
      BundleSchemaSummary(f.summary, f.clusters, {}), 300, /*focus_leaf=*/0);
  EXPECT_GT(bundling.ElementCount(), 6u);

  std::vector<GraphNode> nodes{{"A", 8, 0}, {"B", 8, 1}};
  std::vector<ForceEdge> edges{{0, 1}};
  auto graph =
      RenderGraph(nodes, edges, ForceLayout(2, edges, {}), 800, 600);
  EXPECT_GT(graph.ElementCount(), 3u);
}

TEST(RenderTest, SvgBytesArePinned) {
  Hierarchy h = FixedHierarchy();
  BundleFixture f = MakeBundleFixture();
  EdgeBundlingLayout bundling = BundleSchemaSummary(f.summary, f.clusters, {});
  std::vector<GraphNode> nodes{{"A", 8, 0}, {"B", 8, 1}, {"C <&>", 6, 2}};
  std::vector<ForceEdge> edges{{0, 1}, {1, 2}};
  struct Case {
    const char* name;
    std::string svg;
    uint64_t fnv;
  };
  // FNV-64 of every renderer's output, recorded from the snprintf-based
  // writer; any changed byte fails.
  std::vector<Case> cases{
      {"treemap",
       RenderTreemap(TreemapLayout(h, Rect{0, 0, 400, 300}, {}), 400, 300)
           .ToString(),
       0xee714844377e8f19ULL},
      {"sunburst", RenderSunburst(SunburstLayout(h, {}), 300).ToString(),
       0xbb723045aa0e6765ULL},
      {"circle_pack", RenderCirclePack(CirclePackLayout(h, {}), 300).ToString(),
       0x288cadfef46926b6ULL},
      {"edge_bundling", RenderEdgeBundling(bundling, 300).ToString(),
       0xbc1d819b5dcbf343ULL},
      {"edge_bundling_focus",
       RenderEdgeBundling(bundling, 300, /*focus_leaf=*/0).ToString(),
       0x453a8a551b368c04ULL},
      {"graph",
       RenderGraph(nodes, edges, ForceLayout(3, edges, {}), 800, 600)
           .ToString(),
       0xbf78c93c56446e92ULL},
  };
  for (const Case& c : cases) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(Fnv64(c.svg)));
    EXPECT_EQ(Fnv64(c.svg), c.fnv) << c.name << " hashes to 0x" << hex;
  }
}

/// A Cluster Schema the size of an average explore_open dataset: a seeded
/// 100-class synthetic source, extracted, summarized and Louvain-clustered.
struct RealisticSchema {
  schema::SchemaSummary summary;
  cluster::ClusterSchema clusters;
};

RealisticSchema MakeRealisticSchema() {
  rdf::TripleStore store;
  workload::SyntheticLdConfig config;
  config.namespace_iri = "http://pinned-ld.example.org/";
  config.num_classes = 100;
  config.num_domains = 2 + config.num_classes / 12;
  config.max_instances_per_class = 30;
  config.seed = 2020;
  workload::GenerateSyntheticLd(config, &store);
  store.FinalizeIndex();
  SimClock clock;
  endpoint::SimulatedRemoteEndpoint ep("http://pinned-ld.example.org/sparql",
                                       "pinned", &store, &clock);
  auto indexes = extraction::IndexExtractor().Extract(&ep, nullptr);
  EXPECT_TRUE(indexes.ok());
  RealisticSchema out;
  out.summary = schema::SchemaSummary::FromIndexes(*indexes);
  out.clusters = cluster::ClusterSchema::FromPartition(
      out.summary, cluster::Louvain(cluster::BuildClassGraph(out.summary)));
  return out;
}

TEST(LayoutSetTest, GeometryIsPinned) {
  RealisticSchema r = MakeRealisticSchema();
  EXPECT_EQ(r.summary.NodeCount(), 100u);
  EXPECT_EQ(r.summary.arcs().size(), 177u);
  EXPECT_EQ(r.clusters.ClusterCount(), 9u);
  LayoutSet set = ComputeLayoutSet(r.summary, r.clusters, "pinned", {});
  struct Case {
    const char* name;
    const std::string& svg;
    size_t size;
    uint64_t fnv;
  };
  // Sizes and FNV-64 of the four documents, recorded from the writer that
  // printed every number with std::to_chars; any changed byte fails.
  const std::vector<Case> cases{
      {"treemap", set.treemap_svg, 18695, 0x3620eb581e120b99ULL},
      {"sunburst", set.sunburst_svg, 20529, 0xa0608f9979e94f39ULL},
      {"circle_pack", set.circle_pack_svg, 9956, 0xb3d8ea45d7307c49ULL},
      {"edge_bundling", set.bundling_svg, 119620, 0x2a0c00344a765a8dULL},
  };
  for (const Case& c : cases) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(Fnv64(c.svg)));
    EXPECT_EQ(c.svg.size(), c.size) << c.name;
    EXPECT_EQ(Fnv64(c.svg), c.fnv) << c.name << " hashes to 0x" << hex;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(set.geometry_fingerprint));
  EXPECT_EQ(set.geometry_fingerprint, 0xf7c1820c8c3f284fULL) << "0x" << hex;
}

// ------------------------------------------ degenerate-input properties

/// Hierarchies that historically broke layout math: NaN and infinite
/// weights, all-zero clusters, a single leaf, a childless cluster.
std::vector<Hierarchy> DegenerateHierarchies() {
  double nan = std::nan("");
  double inf = std::numeric_limits<double>::infinity();
  std::vector<Hierarchy> cases;
  cases.push_back(Hierarchy{
      "nan_leaves", 0, {Hierarchy{"c", 0, {{"a", nan, {}}, {"b", 5, {}}}}}});
  cases.push_back(Hierarchy{
      "inf_leaf", 0, {Hierarchy{"c", 0, {{"a", inf, {}}, {"b", 2, {}}}}}});
  cases.push_back(Hierarchy{
      "negative", 0, {Hierarchy{"c", 0, {{"a", -3, {}}, {"b", 1, {}}}}}});
  cases.push_back(Hierarchy{
      "all_nan", 0, {Hierarchy{"c", 0, {{"a", nan, {}}, {"b", nan, {}}}}}});
  cases.push_back(Hierarchy{"single", 7, {}});
  cases.push_back(Hierarchy{
      "zero_cluster", 0, {Hierarchy{"c1", 0, {{"a", 0, {}}, {"b", 0, {}}}},
                          Hierarchy{"c2", 0, {{"d", 9, {}}}}}});
  return cases;
}

TEST(DegenerateInputTest, TreemapStaysFiniteInBoundsNonOverlapping) {
  const Rect bounds{0, 0, 400, 300};
  for (const Hierarchy& h : DegenerateHierarchies()) {
    TreemapOptions opt;
    opt.padding = 0;
    opt.header = 0;
    auto cells = TreemapLayout(h, bounds, opt);
    ASSERT_FALSE(cells.empty()) << h.name;
    size_t max_depth = 0;
    for (const TreemapCell& c : cells) {
      EXPECT_TRUE(std::isfinite(c.rect.x) && std::isfinite(c.rect.y) &&
                  std::isfinite(c.rect.w) && std::isfinite(c.rect.h))
          << h.name << "/" << c.name;
      EXPECT_GE(c.rect.w, 0.0) << h.name << "/" << c.name;
      EXPECT_GE(c.rect.h, 0.0) << h.name << "/" << c.name;
      EXPECT_GE(c.rect.x, bounds.x - 1e-6) << h.name << "/" << c.name;
      EXPECT_GE(c.rect.y, bounds.y - 1e-6) << h.name << "/" << c.name;
      EXPECT_LE(c.rect.x + c.rect.w, bounds.x + bounds.w + 1e-6)
          << h.name << "/" << c.name;
      EXPECT_LE(c.rect.y + c.rect.h, bounds.y + bounds.h + 1e-6)
          << h.name << "/" << c.name;
      max_depth = std::max(max_depth, c.depth);
    }
    // Leaves never overlap (intersection area ~ 0).
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].depth != max_depth) continue;
      for (size_t j = i + 1; j < cells.size(); ++j) {
        if (cells[j].depth != max_depth) continue;
        const Rect& a = cells[i].rect;
        const Rect& b = cells[j].rect;
        double ox = std::min(a.x + a.w, b.x + b.w) - std::max(a.x, b.x);
        double oy = std::min(a.y + a.h, b.y + b.h) - std::max(a.y, b.y);
        double overlap = std::max(0.0, ox) * std::max(0.0, oy);
        EXPECT_LT(overlap, 1e-6)
            << h.name << ": " << cells[i].name << " vs " << cells[j].name;
      }
    }
  }
}

TEST(DegenerateInputTest, SunburstRingsStayFiniteAndOrdered) {
  for (const Hierarchy& h : DegenerateHierarchies()) {
    SunburstOptions opt;
    auto slices = SunburstLayout(h, opt);
    for (const SunburstSlice& s : slices) {
      EXPECT_TRUE(std::isfinite(s.a0) && std::isfinite(s.a1) &&
                  std::isfinite(s.r0) && std::isfinite(s.r1))
          << h.name << "/" << s.name;
      EXPECT_LE(s.a0, s.a1 + 1e-9) << h.name << "/" << s.name;
      EXPECT_LE(s.r0, s.r1 + 1e-9) << h.name << "/" << s.name;
      EXPECT_LE(s.r1, opt.radius + 1e-6) << h.name << "/" << s.name;
    }
    // Same-depth slices partition the angle range: no angular overlap.
    for (size_t i = 0; i < slices.size(); ++i) {
      for (size_t j = i + 1; j < slices.size(); ++j) {
        if (slices[i].depth != slices[j].depth) continue;
        double lo = std::max(slices[i].a0, slices[j].a0);
        double hi = std::min(slices[i].a1, slices[j].a1);
        EXPECT_LT(hi - lo, 1e-6)
            << h.name << ": " << slices[i].name << " vs " << slices[j].name;
      }
    }
  }
}

TEST(DegenerateInputTest, SunburstThinRingClampsInsteadOfInverting) {
  // A ring gap wider than the rings themselves used to produce r1 < r0
  // (negative annulus thickness). Now the outer radius clamps to r0.
  Hierarchy deep{"root", 0, {}};
  Hierarchy* cursor = &deep;
  for (int d = 0; d < 12; ++d) {
    cursor->children.push_back(Hierarchy{"d" + std::to_string(d), 1, {}});
    cursor = &cursor->children[0];
  }
  SunburstOptions opt;
  opt.radius = 40;
  opt.ring_gap = 10;  // gap * depth >> radius
  for (const SunburstSlice& s : SunburstLayout(deep, opt)) {
    EXPECT_TRUE(std::isfinite(s.r0) && std::isfinite(s.r1)) << s.name;
    EXPECT_GE(s.r1, s.r0) << s.name;
  }
}

TEST(DegenerateInputTest, CirclePackStaysFiniteAndSiblingsDisjoint) {
  for (const Hierarchy& h : DegenerateHierarchies()) {
    CirclePackOptions opt;
    auto circles = CirclePackLayout(h, opt);
    ASSERT_FALSE(circles.empty()) << h.name;
    for (const PackedCircle& c : circles) {
      EXPECT_TRUE(std::isfinite(c.circle.x) && std::isfinite(c.circle.y) &&
                  std::isfinite(c.circle.r))
          << h.name << "/" << c.name;
      EXPECT_GT(c.circle.r, 0.0) << h.name << "/" << c.name;
      EXPECT_LE(c.circle.r, opt.radius * (1 + 1e-6)) << h.name << "/" << c.name;
    }
    // Leaves of the same cluster (same depth + group) must not overlap.
    size_t max_depth = 0;
    for (const PackedCircle& c : circles)
      max_depth = std::max(max_depth, c.depth);
    for (size_t i = 0; i < circles.size(); ++i) {
      if (circles[i].depth != max_depth) continue;
      for (size_t j = i + 1; j < circles.size(); ++j) {
        if (circles[j].depth != max_depth ||
            circles[j].group != circles[i].group) {
          continue;
        }
        const Circle& a = circles[i].circle;
        const Circle& b = circles[j].circle;
        double dist = std::hypot(a.x - b.x, a.y - b.y);
        EXPECT_GE(dist + 1e-6, a.r + b.r)
            << h.name << ": " << circles[i].name << " vs " << circles[j].name;
      }
    }
  }
}

TEST(DegenerateInputTest, DegenerateHierarchiesRenderToSvg) {
  for (const Hierarchy& h : DegenerateHierarchies()) {
    auto treemap = RenderTreemap(TreemapLayout(h, Rect{0, 0, 400, 300}, {}),
                                 400, 300);
    auto sunburst = RenderSunburst(SunburstLayout(h, {}), 300);
    auto pack = RenderCirclePack(CirclePackLayout(h, {}), 300);
    if (!h.children.empty()) {
      // A root-only hierarchy legitimately renders nothing (the renderers
      // skip depth 0); everything else must produce visible elements.
      EXPECT_GT(treemap.ElementCount(), 0u) << h.name;
      EXPECT_GT(sunburst.ElementCount(), 0u) << h.name;
      EXPECT_GT(pack.ElementCount(), 0u) << h.name;
    }
    // The SVG bytes are the geometry fingerprint input: NaN would print
    // as "nan" — assert it never reaches the document.
    EXPECT_EQ(treemap.ToString().find("nan"), std::string::npos) << h.name;
    EXPECT_EQ(sunburst.ToString().find("nan"), std::string::npos) << h.name;
    EXPECT_EQ(pack.ToString().find("nan"), std::string::npos) << h.name;
  }
}

}  // namespace
}  // namespace hbold::viz
