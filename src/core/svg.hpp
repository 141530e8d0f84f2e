// Minimal SVG document builder — the headless rendering backend for all
// views (see DESIGN.md: the paper's interactive GUI is replaced by SVG
// output plus a programmatic interaction API).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/color.hpp"

namespace dv::core {

/// 2-D point in SVG user units.
struct Pt {
  double x = 0.0, y = 0.0;
};

/// Stroke/fill styling for a shape.
struct Style {
  Rgb fill{0, 0, 0, 0};        ///< alpha 0 = no fill
  Rgb stroke{0, 0, 0, 0};      ///< alpha 0 = no stroke
  double stroke_width = 1.0;
  double opacity = 1.0;

  static Style filled(const Rgb& c) { return {c, {0, 0, 0, 0}, 1.0, 1.0}; }
  static Style stroked(const Rgb& c, double w = 1.0) {
    return {{0, 0, 0, 0}, c, w, 1.0};
  }
};

/// Accumulates SVG elements; geometry helpers cover everything the radial
/// views need (ring sectors, chord ribbons, polylines). Every element is
/// appended straight into one buffer that already holds the <svg> header;
/// numbers are written with three decimals, trailing zeros dropped.
class SvgDocument {
 public:
  SvgDocument(double width, double height);

  double width() const { return width_; }
  double height() const { return height_; }

  void rect(double x, double y, double w, double h, const Style& s);
  void circle(double cx, double cy, double r, const Style& s);
  void line(Pt a, Pt b, const Style& s);
  void polyline(const std::vector<Pt>& pts, const Style& s);
  void text(double x, double y, const std::string& content, double size,
            const Rgb& color, const std::string& anchor = "start");

  /// Annular sector between radii [r0, r1] and angles [a0, a1] (radians,
  /// 0 = +x axis, growing counter-clockwise) centred on (cx, cy).
  void ring_sector(double cx, double cy, double r0, double r1, double a0,
                   double a1, const Style& s);

  /// Chord ribbon connecting angular spans [a0,a1] and [b0,b1] on a circle
  /// of radius r, with quadratic curves through the centre (the bundled
  /// link encoding of Fig. 3).
  void ribbon(double cx, double cy, double r, double a0, double a1,
              double b0, double b1, const Style& s);

  /// Start/end a <g> group (for structure and post-hoc inspection).
  void begin_group(const std::string& id);
  void end_group();

  /// The finished document. `std::move(doc).str()` hands the buffer over
  /// instead of copying it.
  std::string str() const&;
  std::string str() &&;
  void save(const std::string& path) const;

  /// Number of emitted elements (used by tests).
  std::size_t element_count() const { return elements_; }

 private:
  /// Appends each part: text as is, a double as a number, a Pt as "x y".
  template <class... Parts>
  void put(const Parts&... parts) {
    (put_part(parts), ...);
  }
  /// Bytes already in the document, [at, at + len), appended again as a
  /// part: a number repeated within one element is formatted once.
  struct Span {
    std::size_t at, len;
  };
  void put_part(std::string_view text) { out_ += text; }
  void put_part(double v);
  void put_part(Pt p);
  void put_part(Span s) { out_.append(out_, s.at, s.len); }
  /// Appends `p` and returns the span of its bytes.
  Span put_span(Pt p);
  void style_attrs(const Style& s);
  void end_shape(const Style& s);  // style, "/>", one element
  void require_closed() const;

  double width_, height_;
  std::string out_;  ///< header and body; str() adds the closing tag
  std::size_t elements_ = 0;
  int open_groups_ = 0;
};

}  // namespace dv::core
