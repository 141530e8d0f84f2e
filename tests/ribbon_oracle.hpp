// Ribbon-bundling oracle: the projection view's ribbon layer computed the
// straightforward way, with a std::map of bundles keyed by the (lower,
// upper) key pair, a std::set of keys and a key -> arc map. The library
// bundles through index arrays and a counting sort instead
// (ProjectionView::build_ribbons); Projection.* compares the two field for
// field. Header-only and free of gtest, like slice_oracle.hpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/projection.hpp"
#include "util/common.hpp"

namespace dv::testing {

struct RibbonLayer {
  std::vector<core::RibbonArc> arcs;
  std::vector<core::RibbonBundle> ribbons;  ///< unscaled: no *_t, no color
};

/// Arcs and bundles of `rs` over `table` (the ribbon entity's table, as
/// windowed for the view).
inline RibbonLayer bundle_ribbons_oracle(const core::DataTable& table,
                                         const core::RibbonSpec& rs) {
  constexpr double kTau = 6.283185307179586;
  std::string src_name, dst_name;
  if (rs.key == "router_rank") {
    src_name = "router_rank", dst_name = "dst_rank";
  } else if (rs.key == "group_id") {
    src_name = "group_id", dst_name = "dst_group";
  } else {
    DV_REQUIRE(rs.key == "job", "unknown ribbon key " + rs.key);
    src_name = "src_job", dst_name = "dst_job";
  }
  const auto& src_col = table.column(src_name);
  const auto& dst_col = table.column(dst_name);
  const auto& size_col = table.column(rs.size_attr);
  const auto& color_col = table.column(rs.color_attr);

  struct Acc {
    double size = 0.0;
    double color = 0.0;
    std::vector<std::uint32_t> rows;
  };
  std::map<std::pair<double, double>, Acc> bundles;
  std::set<double> keys;
  for (std::uint32_t r = 0; r < table.rows(); ++r) {
    const double ka = src_col[r];
    const double kb = dst_col[r];
    keys.insert(ka);
    keys.insert(kb);
    if (size_col[r] == 0.0 && color_col[r] == 0.0) continue;  // unused link
    auto& acc = bundles[{std::min(ka, kb), std::max(ka, kb)}];
    acc.size += size_col[r];
    acc.color = std::max(acc.color, color_col[r]);
    acc.rows.push_back(r);
  }

  RibbonLayer out;
  std::vector<double> key_list(keys.begin(), keys.end());
  std::map<double, std::size_t> arc_of;
  const bool categorical = rs.key == "job";
  for (std::size_t i = 0; i < key_list.size(); ++i) {
    arc_of[key_list[i]] = i;
    core::RibbonArc arc;
    arc.key = key_list[i];
    arc.color = categorical ? core::categorical_color(static_cast<std::int64_t>(
                                  std::llround(key_list[i])))
                            : core::categorical_color(
                                  static_cast<std::int64_t>(i));
    out.arcs.push_back(arc);
  }
  for (const auto& [pair, acc] : bundles) {
    out.arcs[arc_of[pair.first]].weight += acc.size;
    out.arcs[arc_of[pair.second]].weight += acc.size;
  }

  double total_weight = 0.0;
  for (const auto& arc : out.arcs) total_weight += arc.weight;
  const std::size_t n_arcs = out.arcs.size();
  if (n_arcs == 0) return out;
  const double gap = kTau * 0.08 / static_cast<double>(n_arcs);
  const double usable = kTau - gap * static_cast<double>(n_arcs);
  const double min_span = usable * 0.01;

  std::vector<double> spans(n_arcs);
  double span_sum = 0.0;
  for (std::size_t i = 0; i < n_arcs; ++i) {
    spans[i] = total_weight > 0 ? std::max(min_span, usable *
                                                         out.arcs[i].weight /
                                                         total_weight)
                                : usable / static_cast<double>(n_arcs);
    span_sum += spans[i];
  }
  double angle = 0.0;
  for (std::size_t i = 0; i < n_arcs; ++i) {
    const double span = spans[i] * usable / span_sum;
    out.arcs[i].a0 = angle;
    out.arcs[i].a1 = angle + span;
    angle += span + gap;
  }

  struct End {
    std::size_t bundle;
    bool first_end;
    double partner_key;
    double size;
  };
  std::vector<std::vector<End>> ends(n_arcs);
  for (const auto& [pair, acc] : bundles) {
    core::RibbonBundle rb;
    rb.arc_a = arc_of[pair.first];
    rb.arc_b = arc_of[pair.second];
    rb.size_value = acc.size;
    rb.color_value = acc.color;
    rb.source_rows = acc.rows;
    const std::size_t idx = out.ribbons.size();
    ends[rb.arc_a].push_back(End{idx, true, pair.second, acc.size});
    ends[rb.arc_b].push_back(End{idx, false, pair.first, acc.size});
    out.ribbons.push_back(std::move(rb));
  }
  for (std::size_t i = 0; i < n_arcs; ++i) {
    auto& list = ends[i];
    std::sort(list.begin(), list.end(), [](const End& a, const End& b) {
      if (a.partner_key != b.partner_key) return a.partner_key < b.partner_key;
      return a.first_end && !b.first_end;
    });
    double wsum = 0.0;
    for (const auto& e : list) wsum += e.size;
    double cursor = out.arcs[i].a0;
    const double arc_span = out.arcs[i].a1 - out.arcs[i].a0;
    for (const auto& e : list) {
      const double w = wsum > 0 ? arc_span * e.size / wsum
                                : arc_span / static_cast<double>(list.size());
      core::RibbonBundle& rb = out.ribbons[e.bundle];
      if (e.first_end) {
        rb.a0 = cursor;
        rb.a1 = cursor + w;
      } else {
        rb.b0 = cursor;
        rb.b1 = cursor + w;
      }
      cursor += w;
    }
  }
  return out;
}

}  // namespace dv::testing
