#include "viz/svg.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/io_util.h"
#include "common/string_util.h"

namespace hbold::viz {

namespace {

// Widest "%.2f" of a double: a sign, the 309 integer digits of DBL_MAX,
// the point and two decimals.
constexpr int kMaxNumChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + 2;

constexpr std::string_view kFooter = "</svg>\n";

// Below this magnitude v·100 stays under 2^37, so every integer and
// half-integer near it is an exact double.
constexpr double kFastLimit = 1e9;

// Appends `v` exactly as "%.2f" prints it: the exact v·100 rounded to an
// integer, half-to-even. x = |v|·100 is the double nearest the exact
// product, so no double lies strictly between them; a half-integer is a
// double, so unless x is one, x and the exact product round to the same
// integer, which is written directly. When x is a half-integer (the exact
// product may sit on either side of it, or on it), and for huge values,
// inf and nan, std::to_chars prints the exact binary value; it rounds
// half-to-even like glibc and writes inf/nan the same way.
void Put(std::string* out, double v) {
  char buf[kMaxNumChars];
  const double a = std::fabs(v);
  if (a < kFastLimit) {  // false for nan and inf
    const double x = a * 100;
    uint64_t n = static_cast<uint64_t>(x);
    const double frac = x - static_cast<double>(n);  // exact
    if (frac != 0.5) {
      n += frac > 0.5;
      char* p = buf;
      if (std::signbit(v)) *p++ = '-';
      p = std::to_chars(p, buf + sizeof(buf), n / 100).ptr;
      const unsigned cents = static_cast<unsigned>(n % 100);
      p[0] = '.';
      p[1] = static_cast<char>('0' + cents / 10);
      p[2] = static_cast<char>('0' + cents % 10);
      out->append(buf, p + 3);
      return;
    }
  }
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::fixed, 2)
                       .ptr);
}
void Put(std::string* out, std::string_view s) { out->append(s); }
void Put(std::string* out, char c) { out->push_back(c); }

// Appends each part in turn: doubles as numbers, strings and chars as is.
template <typename... Parts>
void Append(std::string* out, const Parts&... parts) {
  (Put(out, parts), ...);
}

}  // namespace

SvgDocument::SvgDocument(double width, double height)
    : width_(width), height_(height) {
  Append(&text_,
         "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
         "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"",
         width_, "\" height=\"", height_, "\" viewBox=\"0 0 ", width_, ' ',
         height_,
         "\">\n"
         "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n");
}

void SvgDocument::EndElement(const Style& style) {
  Append(&text_, " fill=\"", style.fill, '"');
  if (style.stroke != "none") {
    Append(&text_, " stroke=\"", style.stroke, "\" stroke-width=\"",
           style.stroke_width, '"');
  }
  if (style.opacity < 1.0) Append(&text_, " opacity=\"", style.opacity, '"');
  text_ += "/>\n";
  ++element_count_;
}

void SvgDocument::AddRect(const Rect& r, const Style& style,
                          double corner_radius) {
  Append(&text_, "<rect x=\"", r.x, "\" y=\"", r.y, "\" width=\"", r.w,
         "\" height=\"", r.h, '"');
  if (corner_radius > 0) Append(&text_, " rx=\"", corner_radius, '"');
  EndElement(style);
}

void SvgDocument::AddCircle(const Circle& c, const Style& style) {
  Append(&text_, "<circle cx=\"", c.x, "\" cy=\"", c.y, "\" r=\"", c.r, '"');
  EndElement(style);
}

void SvgDocument::AddLine(const Point& a, const Point& b, const Style& style) {
  Append(&text_, "<line x1=\"", a.x, "\" y1=\"", a.y, "\" x2=\"", b.x,
         "\" y2=\"", b.y, '"');
  EndElement(style);
}

void SvgDocument::AddPolyline(const std::vector<Point>& points,
                              const Style& style, Point offset) {
  if (points.size() < 2) return;
  text_ += "<polyline points=\"";
  for (size_t i = 0; i < points.size(); ++i) {
    if (i > 0) text_ += ' ';
    Append(&text_, points[i].x + offset.x, ',', points[i].y + offset.y);
  }
  text_ += '"';
  EndElement(style);
}

void SvgDocument::AddAnnularSector(const Point& center, double r0, double r1,
                                   double a0, double a1, const Style& style) {
  // Full-circle sectors need two arcs; detect and split.
  if (a1 - a0 >= 2 * kPi - 1e-9) {
    double mid = a0 + (a1 - a0) / 2;
    AddAnnularSector(center, r0, r1, a0, mid, style);
    AddAnnularSector(center, r0, r1, mid, a1, style);
    return;
  }
  auto at = [&](double r, double a) {
    return Point{center.x + r * std::cos(a), center.y + r * std::sin(a)};
  };
  Point p0 = at(r1, a0), p1 = at(r1, a1), p2 = at(r0, a1), p3 = at(r0, a0);
  bool large = (a1 - a0) > kPi;
  Append(&text_, "<path d=\"M ", p0.x, ' ', p0.y, " A ", r1, ' ', r1,
         large ? " 0 1 1 " : " 0 0 1 ", p1.x, ' ', p1.y, " L ", p2.x, ' ',
         p2.y, " A ", r0, ' ', r0, large ? " 0 1 0 " : " 0 0 0 ", p3.x, ' ',
         p3.y, " Z\"");
  EndElement(style);
}

void SvgDocument::AddText(const Point& p, std::string_view text,
                          double font_size, std::string_view fill,
                          std::string_view anchor, double rotate_deg) {
  Append(&text_, "<text x=\"", p.x, "\" y=\"", p.y, "\" font-size=\"",
         font_size, "\" font-family=\"sans-serif\" fill=\"", fill,
         "\" text-anchor=\"", anchor, '"');
  if (rotate_deg != 0) {
    Append(&text_, " transform=\"rotate(", rotate_deg, ' ', p.x, ' ', p.y,
           ")\"");
  }
  Append(&text_, '>', XmlEscape(text), "</text>\n");
  ++element_count_;
}

std::string SvgDocument::ToString() const& {
  std::string out;
  out.reserve(text_.size() + kFooter.size());
  Append(&out, text_, kFooter);
  return out;
}

std::string SvgDocument::ToString() && {
  text_ += kFooter;
  return std::move(text_);
}

Status SvgDocument::WriteFile(const std::string& path) const {
  return io::WriteFileDurable(path, {text_, kFooter});
}

}  // namespace hbold::viz
