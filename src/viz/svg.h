#ifndef HBOLD_VIZ_SVG_H_
#define HBOLD_VIZ_SVG_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "viz/color.h"
#include "viz/geometry.h"

namespace hbold::viz {

/// Stroke/fill styling for one SVG element.
struct Style {
  std::string fill = "none";
  std::string stroke = "none";
  double stroke_width = 1.0;
  double opacity = 1.0;

  static Style Fill(const Color& c, double opacity = 1.0) {
    Style s;
    s.fill = c.ToHex();
    s.opacity = opacity;
    return s;
  }
  static Style Stroke(const Color& c, double width = 1.0,
                      double opacity = 1.0) {
    Style s;
    s.stroke = c.ToHex();
    s.stroke_width = width;
    s.opacity = opacity;
    return s;
  }
};

/// Minimal SVG document builder. Coordinates are in user units; the
/// document carries width/height and an equal viewBox. The constructor
/// writes the header and every `Add*` call appends its element straight
/// into one buffer, with numbers printed as "%.2f" would print them.
class SvgDocument {
 public:
  SvgDocument(double width, double height);

  double width() const { return width_; }
  double height() const { return height_; }

  void AddRect(const Rect& r, const Style& style, double corner_radius = 0);
  void AddCircle(const Circle& c, const Style& style);
  void AddLine(const Point& a, const Point& b, const Style& style);
  /// Each point is drawn at `points[i] + offset`.
  void AddPolyline(const std::vector<Point>& points, const Style& style,
                   Point offset = {0, 0});
  /// Annular sector between radii r0..r1 and angles a0..a1 (radians),
  /// centered at `center` — the sunburst building block.
  void AddAnnularSector(const Point& center, double r0, double r1, double a0,
                        double a1, const Style& style);
  /// Text anchored at `p`. `anchor` is "start", "middle" or "end".
  void AddText(const Point& p, std::string_view text, double font_size,
               std::string_view fill = "#222",
               std::string_view anchor = "start", double rotate_deg = 0);

  /// Number of elements added so far.
  size_t ElementCount() const { return element_count_; }

  /// Serializes the document. The rvalue form hands over the buffer
  /// without copying it.
  std::string ToString() const&;
  std::string ToString() &&;

  /// Durably replaces `path` with the document (see io::WriteFileDurable).
  Status WriteFile(const std::string& path) const;

 private:
  /// Appends `style`'s attributes and closes the element.
  void EndElement(const Style& style);

  double width_;
  double height_;
  std::string text_;  // the header, then every element so far, one per line
  size_t element_count_ = 0;
};

}  // namespace hbold::viz

#endif  // HBOLD_VIZ_SVG_H_
