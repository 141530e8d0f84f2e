#include "core/projection.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <unordered_set>

#include "obs/obs.hpp"
#include "util/str.hpp"

namespace dv::core {

namespace {
constexpr double kTau = 6.283185307179586;

bool is_categorical_attr(const std::string& attr) {
  return attr == "workload" || attr == "job" || attr == "src_job" ||
         attr == "dst_job";
}

/// (src key column, dst key column) for a ribbon bundling key.
std::pair<std::string, std::string> ribbon_key_columns(
    const std::string& key) {
  if (key == "router_rank") return {"router_rank", "dst_rank"};
  if (key == "group_id") return {"group_id", "dst_group"};
  if (key == "job") return {"src_job", "dst_job"};
  throw Error("cannot bundle ribbons by '" + key +
              "' (no src/dst column pair)");
}
}  // namespace

Rgb categorical_color(std::int64_t index) {
  if (index < 0) return Rgb{170, 170, 170};  // idle terminals / proxy routers
  static const Rgb palette[] = {
      {46, 139, 34},    // green
      {255, 140, 0},    // orange
      {139, 69, 19},    // brown
      {70, 130, 180},   // steelblue
      {128, 0, 128},    // purple
      {0, 128, 128},    // teal
      {220, 20, 60},    // crimson
      {128, 128, 0},    // olive
      {0, 0, 128},      // navy
      {199, 21, 133},   // magenta
  };
  return palette[static_cast<std::size_t>(index) % (sizeof(palette) / sizeof(palette[0]))];
}

std::string ProjectionView::scale_key(std::size_t level, const char* channel) {
  // Appended in place: gcc 12 at -O3 warns (-Wrestrict) on
  // `"literal" + std::string` temporaries.
  std::string key = "L";
  key += std::to_string(level);
  key += '/';
  key += channel;
  return key;
}

ProjectionView::ProjectionView(const DataSet& data, ProjectionSpec spec,
                               const ScaleSet* shared, QueryEngine* engine)
    : spec_(std::move(spec)) {
  DV_REQUIRE(!spec_.levels.empty(), "projection spec has no levels");
  build(data, shared, engine);
}

ScaleSet ProjectionView::compute_scales(const DataSet& data,
                                        const ProjectionSpec& spec) {
  return ProjectionView(data, spec).scales();
}

void ProjectionView::build(const DataSet& data, const ScaleSet* shared,
                           QueryEngine* engine) {
  DV_OBS_PHASE("projection");
  QueryEngine local(data);
  QueryEngine& eng = engine ? *engine : local;

  // Every ring and the ribbon layer are independent pipelines: build each
  // into its own ring/scale slot on the VA pool, then merge the scale
  // domains in ring order so the result is deterministic.
  const std::size_t n_levels = spec_.levels.size();
  std::vector<Ring> rings(n_levels);
  std::vector<ScaleSet> ring_scales(n_levels);
  ScaleSet ribbon_scales;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n_levels + 1);
  for (std::size_t i = 0; i < n_levels; ++i) {
    tasks.push_back([this, &eng, &rings, &ring_scales, i] {
      build_ring(eng, spec_.levels[i], i, rings[i], ring_scales[i]);
    });
  }
  if (spec_.ribbons.enabled) {
    tasks.push_back(
        [this, &eng, &ribbon_scales] { build_ribbons(eng, ribbon_scales); });
  }
  run_parallel(std::move(tasks));

  rings_ = std::move(rings);
  for (const auto& s : ring_scales) scales_.merge(s);
  scales_.merge(ribbon_scales);
  if (shared) scales_.merge(*shared);
  apply_scales();
}

void ProjectionView::build_ring(QueryEngine& eng, const LevelSpec& lvl,
                                std::size_t level_idx, Ring& out,
                                ScaleSet& scales) {
  AggregationSpec aspec = lvl.aggregation_spec();
  aspec.window = spec_.window;
  const auto agg = eng.aggregate(lvl.entity, aspec);
  const DataTable& table = agg->table();

  Ring& ring = out;
  ring.spec = lvl;
  ring.type = lvl.plot_type();

  const std::size_t n = agg->size();
  ring.items.resize(n);

  auto fill_channel = [&](const std::string& attr, const char* channel,
                          auto setter) {
    if (attr.empty()) return;
    const auto vals = eng.reduce(lvl.entity, aspec, attr);
    auto& scale = scales.get_or_add(scale_key(level_idx, channel));
    for (std::size_t j = 0; j < n; ++j) {
      setter(ring.items[j], (*vals)[j]);
      scale.include((*vals)[j]);
    }
  };
  fill_channel(lvl.vmap.color, "color",
               [](RingItem& it, double v) { it.color_value = v; });
  fill_channel(lvl.vmap.size, "size",
               [](RingItem& it, double v) { it.size_value = v; });
  fill_channel(lvl.vmap.x, "x",
               [](RingItem& it, double v) { it.x_value = v; });
  fill_channel(lvl.vmap.y, "y",
               [](RingItem& it, double v) { it.y_value = v; });

  const std::vector<double>* first_key_col =
      lvl.aggregate.empty() ? nullptr : &table.column(lvl.aggregate[0]);
  for (std::size_t j = 0; j < n; ++j) {
    RingItem& it = ring.items[j];
    it.keys = agg->groups()[j].keys;
    it.source_rows = agg->groups()[j].rows;
    if (first_key_col && !it.source_rows.empty()) {
      it.key_lo = it.key_hi = (*first_key_col)[it.source_rows[0]];
      for (std::uint32_t r : it.source_rows) {
        it.key_lo = std::min(it.key_lo, (*first_key_col)[r]);
        it.key_hi = std::max(it.key_hi, (*first_key_col)[r]);
      }
    }
    it.a0 = kTau * static_cast<double>(j) / static_cast<double>(std::max<std::size_t>(1, n));
    it.a1 = kTau * static_cast<double>(j + 1) / static_cast<double>(std::max<std::size_t>(1, n));
  }
  DV_OBS_COUNT("core.proj.rings", 1);
  DV_OBS_COUNT("core.proj.items", n);
}

void ProjectionView::build_ribbons(QueryEngine& eng, ScaleSet& scales) {
  const RibbonSpec& rs = spec_.ribbons;
  const auto table_ptr = eng.table(rs.entity, spec_.window);
  const DataTable& table = *table_ptr;
  const auto [src_col_name, dst_col_name] = ribbon_key_columns(rs.key);
  const auto& src_col = table.column(src_col_name);
  const auto& dst_col = table.column(dst_col_name);
  const auto& size_col = table.column(rs.size_attr);
  const auto& color_col = table.column(rs.color_attr);

  const std::uint32_t n_rows = static_cast<std::uint32_t>(table.rows());

  // Arcs: one per distinct key over every link, used or not, in key order.
  // Keys are few (ranks, groups, jobs), so a sorted insert, skipped when a
  // row repeats the previous row's key, beats sorting both key columns.
  std::vector<double> keys;
  for (const auto* col : {&src_col, &dst_col}) {
    for (std::uint32_t r = 0; r < n_rows; ++r) {
      const double key = (*col)[r];
      if (r > 0 && key == (*col)[r - 1]) continue;
      const auto it = std::lower_bound(keys.begin(), keys.end(), key);
      if (it == keys.end() || *it != key) keys.insert(it, key);
    }
  }
  const std::size_t n_arcs = keys.size();
  if (n_arcs == 0) return;
  // Every ribbon key column holds integer ids (rank, group, job), so a
  // row's arc is a table lookup at key - keys[0].
  const double key_span = keys.back() - keys.front();
  DV_CHECK(key_span < 0x1p20 &&
               std::all_of(keys.begin(), keys.end(),
                           [](double k) { return k == std::floor(k); }),
           "ribbon keys must be integer ids");
  std::vector<std::uint32_t> arc_at(static_cast<std::size_t>(key_span) + 1);
  for (std::size_t i = 0; i < n_arcs; ++i) {
    arc_at[static_cast<std::size_t>(keys[i] - keys.front())] =
        static_cast<std::uint32_t>(i);
  }
  auto arc_of = [&](double key) {
    return arc_at[static_cast<std::size_t>(key - keys.front())];
  };

  // Bundle directed links by unordered key pair. Each used row's bundle
  // is its (lower, upper) arc pair; a stable counting sort by the upper
  // and then the lower arc groups the rows of each bundle, bundles in
  // (lower, upper) order and rows in row order, so every sum below adds
  // in the order a per-bundle row walk would.
  std::vector<std::uint32_t> lo(n_rows), hi(n_rows), used;
  used.reserve(n_rows);
  for (std::uint32_t r = 0; r < n_rows; ++r) {
    if (size_col[r] == 0.0 && color_col[r] == 0.0) continue;  // unused link
    const std::uint32_t a = arc_of(src_col[r]), b = arc_of(dst_col[r]);
    lo[r] = std::min(a, b);
    hi[r] = std::max(a, b);
    used.push_back(r);
  }
  std::vector<std::uint32_t> start(n_arcs + 1), sorted(used.size());
  auto counting_sort = [&](const std::vector<std::uint32_t>& arc,
                           const std::vector<std::uint32_t>& in,
                           std::vector<std::uint32_t>& out) {
    std::fill(start.begin(), start.end(), 0u);
    for (const std::uint32_t r : in) ++start[arc[r] + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const std::uint32_t r : in) out[start[arc[r]]++] = r;
  };
  counting_sort(hi, used, sorted);
  counting_sort(lo, sorted, used);

  // Arc weights: span proportional to the bundled traffic touching each
  // key ("the size of the arcs shows the ratios of the total traffic" —
  // Sec. V-D); keys with no traffic get a minimal span.
  arcs_.resize(n_arcs);
  for (std::size_t i = 0; i < n_arcs; ++i) {
    arcs_[i].key = keys[i];
    arcs_[i].color = is_categorical_attr(rs.key)
                         ? categorical_color(static_cast<std::int64_t>(
                               std::llround(keys[i])))
                         : categorical_color(static_cast<std::int64_t>(i));
  }
  auto& sscale = scales.get_or_add("R/size");
  auto& cscale = scales.get_or_add("R/color");
  ribbons_.reserve(std::min(used.size(), n_arcs * (n_arcs + 1) / 2));
  for (std::size_t i = 0; i < used.size();) {
    const std::uint32_t a = lo[used[i]], b = hi[used[i]];
    std::size_t j = i;
    RibbonBundle& rb = ribbons_.emplace_back();
    rb.arc_a = a;
    rb.arc_b = b;
    for (; j < used.size() && lo[used[j]] == a && hi[used[j]] == b; ++j) {
      rb.size_value += size_col[used[j]];
      rb.color_value = std::max(rb.color_value, color_col[used[j]]);
    }
    rb.source_rows.assign(used.begin() + i, used.begin() + j);
    sscale.include(rb.size_value);
    cscale.include(rb.color_value);
    arcs_[a].weight += rb.size_value;
    arcs_[b].weight += rb.size_value;
    i = j;
  }

  double total_weight = 0.0;
  for (const auto& arc : arcs_) total_weight += arc.weight;
  const double gap = kTau * 0.08 / static_cast<double>(n_arcs);
  const double usable = kTau - gap * static_cast<double>(n_arcs);
  const double min_span = usable * 0.01;

  // First pass: raw spans; then normalize to fill the circle.
  std::vector<double> spans(n_arcs);
  double span_sum = 0.0;
  for (std::size_t i = 0; i < n_arcs; ++i) {
    spans[i] = total_weight > 0
                   ? std::max(min_span, usable * arcs_[i].weight / total_weight)
                   : usable / static_cast<double>(n_arcs);
    span_sum += spans[i];
  }
  double angle = 0.0;
  for (std::size_t i = 0; i < n_arcs; ++i) {
    const double span = spans[i] * usable / span_sum;
    arcs_[i].a0 = angle;
    arcs_[i].a1 = angle + span;
    angle += span + gap;
  }

  // Sub-span allocation (chord layout): walk each arc, giving every bundle
  // an end width proportional to its size; self-bundles take two slots.
  // Listing ends in bundle order orders each arc's ends by partner key,
  // the (a, a) self-bundle's first end before its second. An end is
  // 2 × bundle, plus 1 for the bundle's second end.
  std::vector<std::vector<std::uint32_t>> ends(n_arcs);
  for (std::uint32_t k = 0; k < ribbons_.size(); ++k) {
    ends[ribbons_[k].arc_a].push_back(2 * k);
    ends[ribbons_[k].arc_b].push_back(2 * k + 1);
  }
  for (std::size_t i = 0; i < n_arcs; ++i) {
    const auto& list = ends[i];
    double wsum = 0.0;
    for (const std::uint32_t e : list) wsum += ribbons_[e / 2].size_value;
    double cursor = arcs_[i].a0;
    const double arc_span = arcs_[i].a1 - arcs_[i].a0;
    for (const std::uint32_t e : list) {
      RibbonBundle& rb = ribbons_[e / 2];
      const double w = wsum > 0
                           ? arc_span * rb.size_value / wsum
                           : arc_span / static_cast<double>(list.size());
      if (e % 2 == 0) {
        rb.a0 = cursor;
        rb.a1 = cursor + w;
      } else {
        rb.b0 = cursor;
        rb.b1 = cursor + w;
      }
      cursor += w;
    }
  }
  DV_OBS_COUNT("core.proj.ribbons", ribbons_.size());
  DV_OBS_COUNT("core.proj.ribbon_arcs", n_arcs);
}

void ProjectionView::apply_scales() {
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    Ring& ring = rings_[i];
    const VisualMapping& vm = ring.spec.vmap;
    const ColorRamp ramp = ring.spec.colors.empty()
                               ? ColorRamp::from_names({"white", "steelblue"})
                               : ColorRamp::from_names(ring.spec.colors);
    const bool categorical = is_categorical_attr(vm.color);
    for (RingItem& it : ring.items) {
      if (!vm.color.empty()) {
        it.color_t = scales_.at(scale_key(i, "color")).norm(it.color_value);
        it.color = categorical
                       ? categorical_color(static_cast<std::int64_t>(
                             std::llround(it.color_value)))
                       : ramp.at(it.color_t);
      } else {
        it.color = Rgb{190, 190, 200};
      }
      if (!vm.size.empty()) {
        it.size_t_ = scales_.at(scale_key(i, "size")).norm(it.size_value);
      }
      if (!vm.x.empty()) {
        it.x_t = scales_.at(scale_key(i, "x")).norm(it.x_value);
      }
      if (!vm.y.empty()) {
        it.y_t = scales_.at(scale_key(i, "y")).norm(it.y_value);
      }
    }
  }
  if (!ribbons_.empty()) {
    const ColorRamp ramp = ColorRamp::from_names(spec_.ribbons.colors);
    const LinearScale& size_scale = scales_.at("R/size");
    const LinearScale& color_scale = scales_.at("R/color");
    for (RibbonBundle& rb : ribbons_) {
      rb.size_t_ = size_scale.norm(rb.size_value);
      rb.color_t = color_scale.norm(rb.color_value);
      rb.color = ramp.at(rb.color_t);
    }
  }
}

const std::vector<std::uint32_t>& ProjectionView::select(
    std::size_t ring, std::size_t item) const {
  DV_REQUIRE(ring < rings_.size(), "ring index out of range");
  DV_REQUIRE(item < rings_[ring].items.size(), "item index out of range");
  return rings_[ring].items[item].source_rows;
}

ProjectionSpec ProjectionView::drill_down(std::size_t ring,
                                          std::size_t item) const {
  DV_REQUIRE(ring < rings_.size(), "ring index out of range");
  DV_REQUIRE(item < rings_[ring].items.size(), "item index out of range");
  const LevelSpec& lvl = rings_[ring].spec;
  DV_REQUIRE(!lvl.aggregate.empty(),
             "drill-down needs an aggregated ring (individual entities "
             "have nothing to expand)");
  const std::string& attr = lvl.aggregate[0];
  const RingItem& it = rings_[ring].items[item];

  ProjectionSpec focused = spec_;
  for (auto& level : focused.levels) {
    level.filters.push_back(AttrFilter{attr, it.key_lo, it.key_hi});
    // Inside the focus the partitioning is no longer needed.
    if (&level - focused.levels.data() == static_cast<std::ptrdiff_t>(ring)) {
      level.max_bins = 0;
    }
  }
  return focused;
}

std::size_t ProjectionView::highlight(
    Entity entity, const std::vector<std::uint32_t>& rows) {
  const std::unordered_set<std::uint32_t> set(rows.begin(), rows.end());
  std::size_t hits = 0;
  for (Ring& ring : rings_) {
    if (ring.spec.entity != entity) continue;
    for (RingItem& it : ring.items) {
      const bool hit = std::any_of(
          it.source_rows.begin(), it.source_rows.end(),
          [&](std::uint32_t r) { return set.count(r) > 0; });
      if (hit) {
        it.highlighted = true;
        ++hits;
      }
    }
  }
  if (spec_.ribbons.enabled && spec_.ribbons.entity == entity) {
    for (RibbonBundle& rb : ribbons_) {
      const bool hit = std::any_of(
          rb.source_rows.begin(), rb.source_rows.end(),
          [&](std::uint32_t r) { return set.count(r) > 0; });
      if (hit) {
        rb.highlighted = true;
        ++hits;
      }
    }
  }
  return hits;
}

void ProjectionView::clear_highlight() {
  for (Ring& ring : rings_) {
    for (RingItem& it : ring.items) it.highlighted = false;
  }
  for (RibbonBundle& rb : ribbons_) rb.highlighted = false;
}

// ----------------------------------------------------------------- render

void ProjectionView::render(SvgDocument& doc, double cx, double cy,
                            double radius) const {
  const Rgb highlight_color{255, 215, 0};  // gold, as in the paper's UI
  const double r_ribbon = radius * 0.40;
  const double rings_r0 = radius * 0.46;
  const std::size_t n_rings = rings_.size();
  const double band =
      n_rings ? (radius - rings_r0) / static_cast<double>(n_rings) : 0.0;

  doc.begin_group("ribbons");
  if (spec_.ribbons.enabled) {
    for (const auto& arc : arcs_) {
      doc.ring_sector(cx, cy, r_ribbon + 2.0, r_ribbon + radius * 0.02,
                      arc.a0, arc.a1, Style::filled(arc.color));
    }
    for (const auto& rb : ribbons_) {
      Style s = Style::filled(Rgb{rb.color.r, rb.color.g, rb.color.b, 200});
      if (rb.highlighted) {
        s.stroke = highlight_color;
        s.stroke_width = 1.5;
      }
      doc.ribbon(cx, cy, r_ribbon, rb.a0, rb.a1, rb.b0, rb.b1, s);
    }
  }
  doc.end_group();

  for (std::size_t i = 0; i < n_rings; ++i) {
    const Ring& ring = rings_[i];
    const double r0 = rings_r0 + band * static_cast<double>(i) + band * 0.06;
    const double r1 = rings_r0 + band * static_cast<double>(i + 1) - band * 0.06;
    doc.begin_group("ring" + std::to_string(i));

    const Style border_style = Style::stroked(Rgb{210, 210, 210}, 0.4);
    switch (ring.type) {
      case PlotType::kHeatmap1D:
        for (const auto& it : ring.items) {
          Style s = Style::filled(it.color);
          if (ring.spec.border) {
            s.stroke = border_style.stroke;
            s.stroke_width = border_style.stroke_width;
          }
          if (it.highlighted) {
            s.stroke = highlight_color;
            s.stroke_width = 1.5;
          }
          doc.ring_sector(cx, cy, r0, r1, it.a0, it.a1, s);
        }
        break;

      case PlotType::kBarChart:
        for (const auto& it : ring.items) {
          if (ring.spec.border) {
            doc.ring_sector(cx, cy, r0, r1, it.a0, it.a1,
                            Style::filled(Rgb{245, 245, 245}));
          }
          const double rb = r0 + (r1 - r0) * std::max(0.02, it.size_t_);
          Style s = Style::filled(it.color);
          if (it.highlighted) {
            s.stroke = highlight_color;
            s.stroke_width = 1.5;
          }
          doc.ring_sector(cx, cy, r0, rb, it.a0, it.a1, s);
        }
        break;

      case PlotType::kHeatmap2D: {
        // Grid cells: x and y channels index the angular/radial position.
        std::set<double> xs, ys;
        for (const auto& it : ring.items) {
          xs.insert(it.x_value);
          ys.insert(it.y_value);
        }
        std::map<double, std::size_t> xi, yi;
        std::size_t k = 0;
        for (double v : xs) xi[v] = k++;
        k = 0;
        for (double v : ys) yi[v] = k++;
        const double da = kTau / static_cast<double>(std::max<std::size_t>(1, xs.size()));
        const double dr =
            (r1 - r0) / static_cast<double>(std::max<std::size_t>(1, ys.size()));
        for (const auto& it : ring.items) {
          const double a0 = da * static_cast<double>(xi[it.x_value]);
          const double rr0 = r0 + dr * static_cast<double>(yi[it.y_value]);
          Style s = Style::filled(it.color);
          if (ring.spec.border) {
            s.stroke = border_style.stroke;
            s.stroke_width = border_style.stroke_width;
          }
          if (it.highlighted) {
            s.stroke = highlight_color;
            s.stroke_width = 1.5;
          }
          doc.ring_sector(cx, cy, rr0, rr0 + dr, a0, a0 + da, s);
        }
        break;
      }

      case PlotType::kScatter: {
        const bool aggregated = !ring.spec.aggregate.empty();
        for (const auto& it : ring.items) {
          const double angle =
              aggregated ? it.a0 + it.x_t * (it.a1 - it.a0) : it.x_t * kTau;
          const double rr = r0 + (r1 - r0) * (0.1 + 0.8 * it.y_t);
          const double pr =
              band * (0.05 + 0.18 * (ring.spec.vmap.size.empty() ? 0.5
                                                                 : it.size_t_));
          Style s = Style::filled(Rgb{it.color.r, it.color.g, it.color.b, 220});
          if (it.highlighted) {
            s.stroke = highlight_color;
            s.stroke_width = 1.2;
          }
          doc.circle(cx + rr * std::cos(angle), cy - rr * std::sin(angle),
                     pr, s);
        }
        break;
      }
    }
    doc.end_group();
  }
}

double ProjectionView::legend_height() const {
  return 14.0 * static_cast<double>(rings_.size() +
                                    (spec_.ribbons.enabled ? 1 : 0)) +
         6.0;
}

void ProjectionView::render_legend(SvgDocument& doc, double x, double y,
                                   double width) const {
  const Rgb text_color{70, 70, 70};
  double line_y = y + 10;
  auto ramp_bar = [&](double bx, const std::vector<std::string>& colors,
                      const LinearScale* scale) {
    const ColorRamp ramp = colors.empty()
                               ? ColorRamp::from_names({"white", "steelblue"})
                               : ColorRamp::from_names(colors);
    const double bar_w = 46.0;
    for (int k = 0; k < 20; ++k) {
      doc.rect(bx + bar_w * k / 20.0, line_y - 8, bar_w / 20.0 + 0.4, 9,
               Style::filled(ramp.at(k / 19.0)));
    }
    doc.rect(bx, line_y - 8, bar_w, 9, Style::stroked(Rgb{150, 150, 150}, 0.5));
    if (scale && scale->valid()) {
      std::string range = "[";
      range += fmt_double(scale->lo(), 1);
      range += " .. ";
      range += fmt_double(scale->hi(), 1);
      range += ']';
      doc.text(bx + bar_w + 4, line_y, range, 8, text_color);
    }
  };

  if (spec_.ribbons.enabled) {
    doc.text(x, line_y,
             "ribbons: " + to_string(spec_.ribbons.entity) + " by " +
                 spec_.ribbons.key + "  size=" + spec_.ribbons.size_attr +
                 "  color=" + spec_.ribbons.color_attr,
             9, text_color);
    const LinearScale* s = scales_.has("R/color") ? &scales_.at("R/color") : nullptr;
    ramp_bar(x + width * 0.58, spec_.ribbons.colors, s);
    line_y += 14;
  }
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    const LevelSpec& lvl = rings_[i].spec;
    std::string desc = "ring " + std::to_string(i) + " (" +
                       to_string(rings_[i].type) + "): " +
                       to_string(lvl.entity);
    if (!lvl.aggregate.empty()) desc += " by " + join(lvl.aggregate, ",");
    if (!lvl.vmap.color.empty()) desc += "  color=" + lvl.vmap.color;
    if (!lvl.vmap.size.empty()) desc += "  size=" + lvl.vmap.size;
    if (!lvl.vmap.x.empty()) desc += "  x=" + lvl.vmap.x;
    if (!lvl.vmap.y.empty()) desc += "  y=" + lvl.vmap.y;
    doc.text(x, line_y, desc, 9, text_color);
    if (!lvl.vmap.color.empty() && !is_categorical_attr(lvl.vmap.color)) {
      const std::string key = scale_key(i, "color");
      const LinearScale* s = scales_.has(key) ? &scales_.at(key) : nullptr;
      ramp_bar(x + width * 0.58, lvl.colors, s);
    }
    line_y += 14;
  }
}

std::string ProjectionView::to_svg(double size_px,
                                   const std::string& title) const {
  const double legend_h = legend_height();
  SvgDocument doc(size_px, size_px + 28 + legend_h);
  doc.rect(0, 0, size_px, size_px + 28 + legend_h,
           Style::filled(Rgb{255, 255, 255}));
  if (!title.empty()) {
    doc.text(size_px / 2, 18, title, 14, Rgb{40, 40, 40}, "middle");
  }
  render(doc, size_px / 2, size_px / 2 + 24, size_px * 0.47);
  render_legend(doc, 10, size_px + 24, size_px - 20);
  return std::move(doc).str();
}

void ProjectionView::save_svg(const std::string& path, double size_px,
                              const std::string& title) const {
  std::ofstream os(path, std::ios::binary);
  DV_REQUIRE(os.good(), "cannot open svg for writing: " + path);
  os << to_svg(size_px, title);
  DV_REQUIRE(os.good(), "svg write failed: " + path);
}

}  // namespace dv::core
