#include "viz/treemap.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace hbold::viz {

namespace {

/// Worst aspect ratio of a row of areas laid along a side of length `side`.
double WorstRatio(const std::vector<double>& row, double side) {
  double sum = std::accumulate(row.begin(), row.end(), 0.0);
  if (sum <= 0 || side <= 0) return 1e18;
  double thickness = sum / side;
  double worst = 1;
  for (double area : row) {
    double len = area / thickness;
    double ratio = std::max(len / thickness, thickness / len);
    worst = std::max(worst, ratio);
  }
  return worst;
}

/// Lays `areas` (already scaled to fill `bounds`) into `bounds` with the
/// squarified algorithm; writes one rect per area into `out` (same order).
void Squarify(const std::vector<double>& areas, Rect bounds,
              std::vector<Rect>* out) {
  out->assign(areas.size(), Rect{});
  // Process areas in decreasing order for squarified quality, but remember
  // original slots.
  std::vector<size_t> order(areas.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return areas[a] > areas[b]; });

  size_t i = 0;
  while (i < order.size()) {
    double side = std::min(bounds.w, bounds.h);
    // Grow the row while the worst aspect ratio improves.
    std::vector<double> row;
    size_t row_start = i;
    row.push_back(std::max(areas[order[i]], 1e-12));
    ++i;
    while (i < order.size()) {
      std::vector<double> candidate = row;
      candidate.push_back(std::max(areas[order[i]], 1e-12));
      if (WorstRatio(candidate, side) <= WorstRatio(row, side)) {
        row = std::move(candidate);
        ++i;
      } else {
        break;
      }
    }
    double row_sum = std::accumulate(row.begin(), row.end(), 0.0);
    bool horizontal = bounds.w >= bounds.h;  // row laid along the short side
    double thickness =
        row_sum / (horizontal ? std::max(bounds.h, 1e-12)
                              : std::max(bounds.w, 1e-12));
    double along = 0;
    for (size_t k = 0; k < row.size(); ++k) {
      double len = row[k] / std::max(thickness, 1e-12);
      Rect cell;
      if (horizontal) {
        cell = Rect{bounds.x, bounds.y + along, thickness, len};
      } else {
        cell = Rect{bounds.x + along, bounds.y, len, thickness};
      }
      (*out)[order[row_start + k]] = cell;
      along += len;
    }
    if (horizontal) {
      bounds.x += thickness;
      bounds.w -= thickness;
    } else {
      bounds.y += thickness;
      bounds.h -= thickness;
    }
    if (bounds.w < 0) bounds.w = 0;
    if (bounds.h < 0) bounds.h = 0;
  }
}

void LayoutNode(const Hierarchy& node, const Rect& rect, size_t depth,
                size_t group, const TreemapOptions& opt,
                std::vector<TreemapCell>* out) {
  out->push_back(TreemapCell{node.name, depth, group,
                             node.IsLeaf() ? node.value
                                           : node.EffectiveValue(),
                             rect});
  if (node.IsLeaf()) return;

  Rect inner = rect.Inset(opt.padding);
  if (depth >= 1) {
    // Cluster cells reserve a strip for the label.
    inner.y += opt.header;
    inner.h = std::max(0.0, inner.h - opt.header);
  }
  if (inner.Area() <= 0) return;

  std::vector<double> values = node.ChildValues();
  double total = std::accumulate(values.begin(), values.end(), 0.0);
  // ChildValues() fills degenerate weights, so total > 0 whenever there
  // are children — the guard is belt-and-braces against non-finite input.
  if (!(total > 0) || !std::isfinite(total)) return;
  std::vector<double> areas(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    areas[i] = values[i] / total * inner.Area();
  }
  std::vector<Rect> rects;
  Squarify(areas, inner, &rects);
  for (size_t i = 0; i < node.children.size(); ++i) {
    Rect child_rect = rects[i].Inset(depth == 0 ? 0 : opt.padding / 2);
    size_t child_group = depth == 0 ? i : group;
    LayoutNode(node.children[i], child_rect, depth + 1, child_group, opt, out);
  }
}

}  // namespace

std::vector<TreemapCell> TreemapLayout(const Hierarchy& root,
                                       const Rect& bounds,
                                       const TreemapOptions& options) {
  std::vector<TreemapCell> out;
  LayoutNode(root, bounds, 0, 0, options, &out);
  return out;
}

}  // namespace hbold::viz
