#include "viz/circle_pack.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace hbold::viz {

namespace {

struct Node {
  double x = 0, y = 0, r = 0;
  int next = -1;
  int prev = -1;
};

bool Intersects(const Node& a, const Node& b) {
  double dr = a.r + b.r - 1e-6;
  double dx = b.x - a.x, dy = b.y - a.y;
  return dr > 0 && dr * dr > dx * dx + dy * dy;
}

/// Positions c tangent to both a and b (d3's place()).
void Place(const Node& b, const Node& a, Node* c) {
  double dx = b.x - a.x, dy = b.y - a.y;
  double d2 = dx * dx + dy * dy;
  if (d2 > 1e-12) {
    double a2 = a.r + c->r;
    a2 *= a2;
    double b2 = b.r + c->r;
    b2 *= b2;
    if (a2 > b2) {
      double x = (d2 + b2 - a2) / (2 * d2);
      double y = std::sqrt(std::max(0.0, b2 / d2 - x * x));
      c->x = b.x - x * dx - y * dy;
      c->y = b.y - x * dy + y * dx;
    } else {
      double x = (d2 + a2 - b2) / (2 * d2);
      double y = std::sqrt(std::max(0.0, a2 / d2 - x * x));
      c->x = a.x + x * dx - y * dy;
      c->y = a.y + x * dy + y * dx;
    }
  } else {
    c->x = a.x + c->r;
    c->y = a.y;
  }
}

/// Weighted midpoint score of the front pair (node, node.next); the pair
/// closest to the origin is the best place to grow the pack.
double PairScore(const std::vector<Node>& nodes, int i) {
  const Node& a = nodes[static_cast<size_t>(i)];
  const Node& b = nodes[static_cast<size_t>(a.next)];
  double ab = a.r + b.r;
  if (ab <= 0) return 0;
  double dx = (a.x * b.r + b.x * a.r) / ab;
  double dy = (a.y * b.r + b.y * a.r) / ab;
  return dx * dx + dy * dy;
}

}  // namespace

std::vector<Point> PackSiblings(const std::vector<double>& radii) {
  // Faithful port of d3-hierarchy's packEnclose front chain (Wang et al.).
  const size_t n = radii.size();
  std::vector<Node> nodes(n);
  for (size_t i = 0; i < n; ++i) nodes[i].r = std::max(radii[i], 1e-9);
  if (n == 0) return {};
  if (n == 1) {
    return {Point{0, 0}};
  }
  // First two circles tangent, straddling the origin.
  nodes[0].x = -nodes[1].r;
  nodes[1].x = nodes[0].r;
  nodes[1].y = 0;
  if (n == 2) {
    return {Point{nodes[0].x, 0}, Point{nodes[1].x, 0}};
  }
  // Third circle tangent to the first two: place(b, a, c).
  Place(nodes[1], nodes[0], &nodes[2]);

  auto next = [&](int i) -> int& { return nodes[static_cast<size_t>(i)].next; };
  auto prev = [&](int i) -> int& { return nodes[static_cast<size_t>(i)].prev; };

  // Circular front chain a(0) -> b(1) -> c(2) -> a, exactly as d3 links it.
  int a = 0, b = 1;
  next(0) = 1;
  prev(1) = 0;
  next(1) = 2;
  prev(2) = 1;
  next(2) = 0;
  prev(0) = 2;

  for (size_t i = 3; i < n; ++i) {
    Node& c = nodes[i];
    // d3: place(a._, b._, c) — note the (a, b) order in the main loop.
    Place(nodes[static_cast<size_t>(a)], nodes[static_cast<size_t>(b)], &c);

    // Walk the front in both directions looking for an intersection; on
    // conflict, shrink the front to the offending circle and retry.
    int j = next(b);
    int k = prev(a);
    double sj = nodes[static_cast<size_t>(b)].r;
    double sk = nodes[static_cast<size_t>(a)].r;
    bool retry = false;
    do {
      if (sj <= sk) {
        if (Intersects(nodes[static_cast<size_t>(j)], c)) {
          b = j;
          next(a) = b;
          prev(b) = a;
          retry = true;
          break;
        }
        sj += nodes[static_cast<size_t>(j)].r;
        j = next(j);
      } else {
        if (Intersects(nodes[static_cast<size_t>(k)], c)) {
          a = k;
          next(a) = b;
          prev(b) = a;
          retry = true;
          break;
        }
        sk += nodes[static_cast<size_t>(k)].r;
        k = prev(k);
      }
    } while (j != next(k));
    if (retry) {
      --i;
      continue;
    }

    // Insert c between a and b on the front.
    int ci = static_cast<int>(i);
    c.prev = a;
    c.next = b;
    next(a) = ci;
    prev(b) = ci;
    b = ci;

    // Move (a, b) to the front pair closest to the origin.
    double best = PairScore(nodes, a);
    int cur = next(b);
    while (cur != b) {
      double score = PairScore(nodes, cur);
      if (score < best) {
        best = score;
        a = cur;
      }
      cur = next(cur);
    }
    b = next(a);
  }

  std::vector<Point> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = Point{nodes[i].x, nodes[i].y};
  return out;
}

Circle EncloseCircles(const std::vector<Circle>& circles) {
  if (circles.empty()) return Circle{0, 0, 0};
  // Iterative shrinking heuristic: move the center toward the farthest
  // circle; the step shrinks geometrically so the center converges.
  double cx = 0, cy = 0;
  for (const Circle& c : circles) {
    cx += c.x;
    cy += c.y;
  }
  cx /= static_cast<double>(circles.size());
  cy /= static_cast<double>(circles.size());

  // Each pass picks the first circle whose far edge, std::hypot(dx, dy) + r,
  // is largest. sqrt(dx*dx + dy*dy) is within a few ulps of std::hypot
  // unless the squares underflow (at most ~1e-154 absolute) or overflow
  // (not finite), so every circle within the slack of the cheap maximum is
  // rescored with std::hypot in input order, and the others cannot reach
  // it: the same circle wins as when every circle is scored exactly.
  constexpr double kRelSlack = 1e-12;
  constexpr double kAbsSlack = 1e-150;
  std::vector<double> reach(circles.size());
  double step = 0.5;
  for (int iter = 0; iter < 200; ++iter) {
    double reach_max = -std::numeric_limits<double>::infinity();
    double scale = 0;
    bool finite = true;
    for (size_t i = 0; i < circles.size(); ++i) {
      const Circle& c = circles[i];
      double dx = c.x - cx, dy = c.y - cy;
      double s = std::sqrt(dx * dx + dy * dy);
      reach[i] = s + c.r;
      finite &= std::isfinite(reach[i]);
      reach_max = std::max(reach_max, reach[i]);
      scale = std::max(scale, s + std::fabs(c.r));
    }
    // A non-finite cheap score says nothing: then rescore every circle.
    const double cutoff =
        finite ? reach_max - (scale * kRelSlack + kAbsSlack)
               : -std::numeric_limits<double>::infinity();
    const Circle* far = nullptr;
    double far_dist = -1;
    for (size_t i = 0; i < circles.size(); ++i) {
      if (reach[i] < cutoff) continue;
      const Circle& c = circles[i];
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
  // Tiny slack guarantees ContainsCircle holds despite floating error.
  return Circle{cx, cy, radius * (1 + 1e-9) + 1e-9};
}

namespace {

/// Recursive result: circles of the subtree in coordinates local to the
/// subtree's own enclosing circle center; radius of that enclosing circle.
struct SubPack {
  double radius = 0;
  std::vector<PackedCircle> circles;  // subtree root is circles[0]
};

SubPack PackNode(const Hierarchy& node, size_t depth, size_t group,
                 double padding_fraction) {
  SubPack result;
  if (node.IsLeaf()) {
    // Mirror Hierarchy's fill rule: non-finite or non-positive leaf
    // values get unit weight instead of a NaN/zero-radius circle.
    double v = std::isfinite(node.value) && node.value > 0 ? node.value : 1.0;
    result.radius = std::sqrt(v / kPi);
    result.circles.push_back(PackedCircle{
        node.name, depth, group, v, Circle{0, 0, result.radius}});
    return result;
  }

  std::vector<double> values = node.ChildValues();
  std::vector<SubPack> subs;
  subs.reserve(node.children.size());
  for (size_t i = 0; i < node.children.size(); ++i) {
    size_t child_group = depth == 0 ? i : group;
    SubPack sub =
        PackNode(node.children[i], depth + 1, child_group, padding_fraction);
    // Leaf areas must be proportional to values *within this parent*:
    // rescale the subtree so its enclosing radius matches sqrt(value/pi).
    double target = std::sqrt(values[i] / kPi);
    double scale = sub.radius > 0 ? target / sub.radius : 1.0;
    for (PackedCircle& pc : sub.circles) {
      pc.circle.x *= scale;
      pc.circle.y *= scale;
      pc.circle.r *= scale;
    }
    sub.radius = target;
    subs.push_back(std::move(sub));
  }

  // Pack the children as sibling circles with padding.
  double max_r = 0;
  for (const SubPack& s : subs) max_r = std::max(max_r, s.radius);
  double pad = max_r * padding_fraction * 2;
  std::vector<double> radii;
  radii.reserve(subs.size());
  for (const SubPack& s : subs) radii.push_back(s.radius + pad);
  std::vector<Point> centers = PackSiblings(radii);

  std::vector<Circle> outlines;
  outlines.reserve(subs.size());
  for (size_t i = 0; i < subs.size(); ++i) {
    outlines.push_back(Circle{centers[i].x, centers[i].y, subs[i].radius});
  }
  Circle enclosing = EncloseCircles(outlines);
  result.radius = enclosing.r + pad;

  result.circles.push_back(PackedCircle{
      node.name, depth, group,
      node.EffectiveValue(), Circle{0, 0, result.radius}});
  for (size_t i = 0; i < subs.size(); ++i) {
    double ox = centers[i].x - enclosing.x;
    double oy = centers[i].y - enclosing.y;
    for (PackedCircle& pc : subs[i].circles) {
      pc.circle.x += ox;
      pc.circle.y += oy;
      result.circles.push_back(std::move(pc));
    }
  }
  return result;
}

}  // namespace

std::vector<PackedCircle> CirclePackLayout(const Hierarchy& root,
                                           const CirclePackOptions& options) {
  SubPack packed = PackNode(root, 0, 0, options.padding_fraction);
  double scale = packed.radius > 0 ? options.radius / packed.radius : 1.0;
  for (PackedCircle& pc : packed.circles) {
    pc.circle.x *= scale;
    pc.circle.y *= scale;
    pc.circle.r *= scale;
  }
  return std::move(packed.circles);
}

}  // namespace hbold::viz
