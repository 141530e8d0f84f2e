#include "core/svg.hpp"

#include <array>
#include <cmath>
#include <fstream>

#include "util/common.hpp"
#include "util/str.hpp"

namespace dv::core {

namespace {
constexpr std::string_view kClose = "</svg>\n";

/// An alpha byte as an opacity in [0, 1], formatted once per value.
std::string_view opacity_text(std::uint8_t alpha) {
  static const auto table = [] {
    std::array<std::string, 256> t;
    for (std::size_t a = 0; a < t.size(); ++a) {
      append_fixed(t[a], static_cast<double>(a) / 255.0, 3);
    }
    return t;
  }();
  return table[alpha];
}

Pt polar(double cx, double cy, double r, double a) {
  // SVG y grows downward; negate to keep mathematical orientation.
  return {cx + r * std::cos(a), cy - r * std::sin(a)};
}
}  // namespace

SvgDocument::SvgDocument(double width, double height)
    : width_(width), height_(height) {
  DV_REQUIRE(width > 0 && height > 0, "svg size must be positive");
  put("<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"", width_,
      "\" height=\"", height_, "\" viewBox=\"0 0 ", Pt{width_, height_},
      "\">\n");
}

void SvgDocument::put_part(double v) { append_fixed(out_, v, 3); }

void SvgDocument::put_part(Pt p) { put(p.x, " ", p.y); }

SvgDocument::Span SvgDocument::put_span(Pt p) {
  const std::size_t at = out_.size();
  put(p);
  return {at, out_.size() - at};
}

void SvgDocument::style_attrs(const Style& s) {
  out_ += " fill=\"";
  if (s.fill.a) {
    s.fill.append_hex(out_);
  } else {
    out_ += "none";
  }
  out_ += '"';
  if (s.fill.a && s.fill.a != 255) {
    put(" fill-opacity=\"", opacity_text(s.fill.a), "\"");
  }
  if (s.stroke.a) {
    out_ += " stroke=\"";
    s.stroke.append_hex(out_);
    put("\" stroke-width=\"", s.stroke_width, "\"");
    if (s.stroke.a != 255) {
      put(" stroke-opacity=\"", opacity_text(s.stroke.a), "\"");
    }
  }
  if (s.opacity != 1.0) put(" opacity=\"", s.opacity, "\"");
}

void SvgDocument::end_shape(const Style& s) {
  style_attrs(s);
  out_ += "/>\n";
  ++elements_;
}

void SvgDocument::rect(double x, double y, double w, double h,
                       const Style& s) {
  put("<rect x=\"", x, "\" y=\"", y, "\" width=\"", w, "\" height=\"", h,
      "\"");
  end_shape(s);
}

void SvgDocument::circle(double cx, double cy, double r, const Style& s) {
  put("<circle cx=\"", cx, "\" cy=\"", cy, "\" r=\"", r, "\"");
  end_shape(s);
}

void SvgDocument::line(Pt a, Pt b, const Style& s) {
  put("<line x1=\"", a.x, "\" y1=\"", a.y, "\" x2=\"", b.x, "\" y2=\"", b.y,
      "\"");
  end_shape(s);
}

void SvgDocument::polyline(const std::vector<Pt>& pts, const Style& s) {
  out_ += "<polyline points=\"";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    put(i ? " " : "", pts[i].x, ",", pts[i].y);
  }
  out_ += '"';
  end_shape(s);
}

void SvgDocument::text(double x, double y, const std::string& content,
                       double size, const Rgb& color,
                       const std::string& anchor) {
  put("<text x=\"", x, "\" y=\"", y, "\" font-size=\"", size,
      "\" font-family=\"sans-serif\" fill=\"");
  color.append_hex(out_);
  put("\" text-anchor=\"", anchor, "\">");
  for (char c : content) {
    switch (c) {
      case '<': out_ += "&lt;"; break;
      case '>': out_ += "&gt;"; break;
      case '&': out_ += "&amp;"; break;
      default: out_ += c;
    }
  }
  out_ += "</text>\n";
  ++elements_;
}

void SvgDocument::ring_sector(double cx, double cy, double r0, double r1,
                              double a0, double a1, const Style& s) {
  DV_REQUIRE(r1 >= r0 && r0 >= 0, "bad ring radii");
  const Pt p00 = polar(cx, cy, r0, a0), p01 = polar(cx, cy, r0, a1);
  const Pt p10 = polar(cx, cy, r1, a0), p11 = polar(cx, cy, r1, a1);
  const char* large = (a1 - a0) > 3.14159265358979323846 ? " 0 1 " : " 0 0 ";
  // Outer arc a0->a1 (sweep 0 because of the flipped y axis), inner back.
  put("<path d=\"M", p10, " A", Pt{r1, r1}, large, "0 ", p11, " L", p01,
      " A", Pt{r0, r0}, large, "1 ", p00, " Z\"");
  end_shape(s);
}

void SvgDocument::ribbon(double cx, double cy, double r, double a0,
                         double a1, double b0, double b1, const Style& s) {
  const Pt pa0 = polar(cx, cy, r, a0), pa1 = polar(cx, cy, r, a1);
  const Pt pb0 = polar(cx, cy, r, b0), pb1 = polar(cx, cy, r, b1);
  const Pt c{cx, cy}, radii{r, r};
  // Arc across span A, curve through centre to span B, arc, curve back.
  // The start point, the radii and the centre each appear twice; the
  // second time their bytes are copied rather than formatted again.
  put("<path d=\"M");
  const Span start = put_span(pa0);
  put(" A");
  const Span rr = put_span(radii);
  put(" 0 0 0 ", pa1, " Q");
  const Span centre = put_span(c);
  put(" ", pb0, " A", rr, " 0 0 0 ", pb1, " Q", centre, " ", start, " Z\"");
  end_shape(s);
}

void SvgDocument::begin_group(const std::string& id) {
  put("<g id=\"", id, "\">\n");
  ++open_groups_;
}

void SvgDocument::end_group() {
  DV_REQUIRE(open_groups_ > 0, "end_group without begin_group");
  out_ += "</g>\n";
  --open_groups_;
}

void SvgDocument::require_closed() const {
  DV_REQUIRE(open_groups_ == 0, "unclosed svg group");
}

std::string SvgDocument::str() const& {
  require_closed();
  std::string out;
  out.reserve(out_.size() + kClose.size());
  out += out_;
  out += kClose;
  return out;
}

std::string SvgDocument::str() && {
  require_closed();
  out_ += kClose;
  return std::move(out_);
}

void SvgDocument::save(const std::string& path) const {
  require_closed();
  std::ofstream os(path, std::ios::binary);
  DV_REQUIRE(os.good(), "cannot open svg for writing: " + path);
  os << out_ << kClose;
  DV_REQUIRE(os.good(), "svg write failed: " + path);
}

}  // namespace dv::core
