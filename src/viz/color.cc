#include "viz/color.h"

#include <cmath>

namespace hbold::viz {

std::string Color::ToHex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex(7, '#');
  const uint8_t channels[3] = {r, g, b};
  for (int i = 0; i < 3; ++i) {
    hex[1 + 2 * i] = kDigits[channels[i] >> 4];
    hex[2 + 2 * i] = kDigits[channels[i] & 0xf];
  }
  return hex;
}

Color FromHsl(double h, double s, double l) {
  h = std::fmod(std::fmod(h, 360.0) + 360.0, 360.0);
  double c = (1 - std::fabs(2 * l - 1)) * s;
  double hp = h / 60.0;
  double x = c * (1 - std::fabs(std::fmod(hp, 2.0) - 1));
  double r1 = 0, g1 = 0, b1 = 0;
  if (hp < 1) {
    r1 = c;
    g1 = x;
  } else if (hp < 2) {
    r1 = x;
    g1 = c;
  } else if (hp < 3) {
    g1 = c;
    b1 = x;
  } else if (hp < 4) {
    g1 = x;
    b1 = c;
  } else if (hp < 5) {
    r1 = x;
    b1 = c;
  } else {
    r1 = c;
    b1 = x;
  }
  double m = l - c / 2;
  auto to8 = [](double v) {
    int i = static_cast<int>(std::lround(v * 255));
    if (i < 0) i = 0;
    if (i > 255) i = 255;
    return static_cast<uint8_t>(i);
  };
  return Color{to8(r1 + m), to8(g1 + m), to8(b1 + m)};
}

Color CategoricalColor(size_t index) {
  // Golden-angle hue walk gives well-separated hues for any count.
  double hue = std::fmod(static_cast<double>(index) * 137.508, 360.0);
  double light = 0.55 + 0.08 * static_cast<double>((index / 7) % 3);
  return FromHsl(hue, 0.62, light);
}

Color Lighten(const Color& c, double amount) {
  auto mix = [&](uint8_t v) {
    double out = v + (255 - v) * amount;
    if (out > 255) out = 255;
    return static_cast<uint8_t>(out);
  };
  return Color{mix(c.r), mix(c.g), mix(c.b)};
}

}  // namespace hbold::viz
