#ifndef HBOLD_VIZ_TREEMAP_H_
#define HBOLD_VIZ_TREEMAP_H_

#include <string>
#include <vector>

#include "viz/geometry.h"
#include "viz/hierarchy.h"

namespace hbold::viz {

/// One rectangle of the treemap. `depth` 0 is the root, 1 the clusters,
/// 2 the classes (Fig. 4). `group` is the index of the depth-1 ancestor
/// (cluster), used for coloring.
struct TreemapCell {
  std::string name;
  size_t depth = 0;
  size_t group = 0;
  double value = 0;  // effective value the area is proportional to
  Rect rect;
};

struct TreemapOptions {
  /// Padding between a parent cell and its children, and between siblings.
  double padding = 2.0;
  /// Extra top inset inside cluster cells for the label strip.
  double header = 14.0;
};

/// Squarified treemap (Bruls, Huizing, van Wijk 2000): recursively lays out
/// each node's children inside its rectangle, choosing row/column splits
/// that keep cell aspect ratios near 1. Areas are proportional to
/// Hierarchy::ChildValues() within every parent.
std::vector<TreemapCell> TreemapLayout(const Hierarchy& root,
                                       const Rect& bounds,
                                       const TreemapOptions& options = {});

}  // namespace hbold::viz

#endif  // HBOLD_VIZ_TREEMAP_H_
