#include "core/spec.hpp"

#include "util/str.hpp"

namespace dv::core {

std::size_t VisualMapping::channel_count() const {
  std::size_t n = 0;
  if (!color.empty()) ++n;
  if (!size.empty()) ++n;
  if (!x.empty()) ++n;
  if (!y.empty()) ++n;
  return n;
}

std::string to_string(PlotType t) {
  switch (t) {
    case PlotType::kHeatmap1D: return "heatmap";
    case PlotType::kBarChart: return "bar_chart";
    case PlotType::kHeatmap2D: return "heatmap2d";
    case PlotType::kScatter: return "scatter";
  }
  return "?";
}

PlotType LevelSpec::plot_type() const {
  // Paper: "The type of the plot used in each layer is based on the number
  // of visual encodings defined by the user."
  switch (vmap.channel_count()) {
    case 0:
    case 1: return PlotType::kHeatmap1D;
    case 2: return PlotType::kBarChart;
    case 3: return PlotType::kHeatmap2D;
    default: return PlotType::kScatter;
  }
}

AggregationSpec LevelSpec::aggregation_spec() const {
  AggregationSpec s;
  s.keys = aggregate;
  s.max_bins = max_bins;
  s.filters = filters;
  return s;
}

// ----------------------------------------------------------------- parsing

namespace {

std::vector<std::string> parse_string_list(const json::Value& v,
                                           const char* what) {
  std::vector<std::string> out;
  if (v.is_string()) {
    out.push_back(v.as_string());
  } else if (v.is_array()) {
    for (const auto& item : v.as_array()) out.push_back(item.as_string());
  } else {
    throw Error(std::string(what) + " must be a string or array of strings");
  }
  return out;
}

std::vector<AttrFilter> parse_filters(const json::Value& v) {
  std::vector<AttrFilter> out;
  for (const auto& [attr, range] : v.as_object()) {
    AttrFilter f;
    f.attr = attr;
    // `attr: null` keeps the default unbounded range (the attr is named
    // without restricting it); `[null, hi]` / `[lo, null]` are one-sided.
    if (!range.is_null()) {
      const auto& arr = range.as_array();
      DV_REQUIRE(arr.size() == 2, "filter range must be [lo, hi]");
      if (!arr[0].is_null()) f.lo = arr[0].as_number();
      if (!arr[1].is_null()) f.hi = arr[1].as_number();
    }
    out.push_back(std::move(f));
  }
  return out;
}

TimeWindow parse_window(const json::Value& v) {
  const auto& arr = v.as_array();
  DV_REQUIRE(arr.size() == 2, "window must be [t0, t1]");
  TimeWindow w{arr[0].as_number(), arr[1].as_number()};
  DV_REQUIRE(w.active(), "window must satisfy t0 < t1");
  return w;
}

LevelSpec parse_level(const json::Value& v) {
  LevelSpec lvl;
  lvl.entity = entity_from_string(v.at("project").as_string());
  if (const auto* agg = v.find("aggregate")) {
    lvl.aggregate = parse_string_list(*agg, "aggregate");
  }
  if (const auto* mb = v.find("maxBins")) {
    lvl.max_bins = static_cast<std::size_t>(mb->as_int());
  }
  if (const auto* f = v.find("filter")) {
    lvl.filters = parse_filters(*f);
  }
  if (const auto* vm = v.find("vmap")) {
    lvl.vmap.color = vm->get_string("color", "");
    lvl.vmap.size = vm->get_string("size", "");
    lvl.vmap.x = vm->get_string("x", "");
    lvl.vmap.y = vm->get_string("y", "");
  }
  if (const auto* c = v.find("colors")) {
    lvl.colors = parse_string_list(*c, "colors");
  }
  lvl.border = v.get_bool("border", true);
  return lvl;
}

RibbonSpec parse_ribbons(const json::Value& v) {
  RibbonSpec r;
  r.enabled = v.get_bool("enabled", true);
  if (const auto* e = v.find("project")) {
    r.entity = entity_from_string(e->as_string());
    DV_REQUIRE(r.entity == Entity::kLocalLink || r.entity == Entity::kGlobalLink,
               "ribbons must project a link entity");
  }
  r.key = v.get_string("key", r.key);
  if (const auto* vm = v.find("vmap")) {
    r.size_attr = vm->get_string("size", r.size_attr);
    r.color_attr = vm->get_string("color", r.color_attr);
  }
  if (const auto* c = v.find("colors")) {
    r.colors = parse_string_list(*c, "colors");
  }
  return r;
}

}  // namespace

ProjectionSpec ProjectionSpec::parse(const std::string& script) {
  return from_json(json::parse_script(script));
}

ProjectionSpec ProjectionSpec::from_json(const json::Value& v) {
  ProjectionSpec spec;
  const json::Array* entries = nullptr;
  json::Array single;
  if (v.is_array()) {
    entries = &v.as_array();
  } else {
    single.push_back(v);
    entries = &single;
  }
  for (const auto& entry : *entries) {
    DV_REQUIRE(entry.is_object(), "each spec entry must be an object");
    if (entry.find("ribbons") != nullptr) {
      spec.ribbons = parse_ribbons(entry.at("ribbons"));
      continue;
    }
    if (const auto* w = entry.find("window")) {
      DV_REQUIRE(entry.as_object().size() == 1,
                 "window must be its own spec entry");
      spec.window = parse_window(*w);
      continue;
    }
    spec.levels.push_back(parse_level(entry));
  }
  DV_REQUIRE(!spec.levels.empty(), "projection spec has no levels");
  return spec;
}

json::Value ProjectionSpec::to_json() const {
  json::Array arr;
  for (const auto& lvl : levels) {
    json::Object o;
    o["project"] = json::Value(to_string(lvl.entity));
    if (!lvl.aggregate.empty()) {
      if (lvl.aggregate.size() == 1) {
        o["aggregate"] = json::Value(lvl.aggregate[0]);
      } else {
        json::Array keys;
        for (const auto& k : lvl.aggregate) keys.emplace_back(k);
        o["aggregate"] = json::Value(std::move(keys));
      }
    }
    if (lvl.max_bins) o["maxBins"] = json::Value(lvl.max_bins);
    if (!lvl.filters.empty()) {
      json::Object f;
      for (const auto& flt : lvl.filters) {
        if (!flt.bounded_lo() && !flt.bounded_hi()) {
          f[flt.attr] = json::Value(nullptr);
          continue;
        }
        json::Array range;
        range.emplace_back(flt.bounded_lo() ? json::Value(flt.lo)
                                            : json::Value(nullptr));
        range.emplace_back(flt.bounded_hi() ? json::Value(flt.hi)
                                            : json::Value(nullptr));
        f[flt.attr] = json::Value(std::move(range));
      }
      o["filter"] = json::Value(std::move(f));
    }
    {
      json::Object vm;
      if (!lvl.vmap.color.empty()) vm["color"] = json::Value(lvl.vmap.color);
      if (!lvl.vmap.size.empty()) vm["size"] = json::Value(lvl.vmap.size);
      if (!lvl.vmap.x.empty()) vm["x"] = json::Value(lvl.vmap.x);
      if (!lvl.vmap.y.empty()) vm["y"] = json::Value(lvl.vmap.y);
      if (!vm.empty()) o["vmap"] = json::Value(std::move(vm));
    }
    if (!lvl.colors.empty()) {
      json::Array c;
      for (const auto& name : lvl.colors) c.emplace_back(name);
      o["colors"] = json::Value(std::move(c));
    }
    if (!lvl.border) o["border"] = json::Value(false);
    arr.emplace_back(std::move(o));
  }
  if (window.active()) {
    json::Object w;
    json::Array range;
    range.emplace_back(window.t0);
    range.emplace_back(window.t1);
    w["window"] = json::Value(std::move(range));
    arr.emplace_back(std::move(w));
  }
  {
    json::Object rw;
    json::Object r;
    r["enabled"] = json::Value(ribbons.enabled);
    r["project"] = json::Value(to_string(ribbons.entity));
    r["key"] = json::Value(ribbons.key);
    json::Object vm;
    vm["size"] = json::Value(ribbons.size_attr);
    vm["color"] = json::Value(ribbons.color_attr);
    r["vmap"] = json::Value(std::move(vm));
    json::Array c;
    for (const auto& name : ribbons.colors) c.emplace_back(name);
    r["colors"] = json::Value(std::move(c));
    rw["ribbons"] = json::Value(std::move(r));
    arr.emplace_back(std::move(rw));
  }
  return json::Value(std::move(arr));
}

std::string ProjectionSpec::to_script() const { return json::dump(to_json(), 2); }

// ----------------------------------------------------------------- builder

LevelSpec& SpecBuilder::current() {
  DV_REQUIRE(has_level_, "call level() before configuring it");
  return spec_.levels.back();
}

SpecBuilder& SpecBuilder::level(Entity entity) {
  spec_.levels.push_back(LevelSpec{});
  spec_.levels.back().entity = entity;
  has_level_ = true;
  return *this;
}

SpecBuilder& SpecBuilder::aggregate(std::vector<std::string> keys) {
  current().aggregate = std::move(keys);
  return *this;
}

SpecBuilder& SpecBuilder::max_bins(std::size_t n) {
  current().max_bins = n;
  return *this;
}

SpecBuilder& SpecBuilder::filter(const std::string& attr, double lo,
                                 double hi) {
  current().filters.push_back(AttrFilter{attr, lo, hi});
  return *this;
}

SpecBuilder& SpecBuilder::color(const std::string& attr) {
  current().vmap.color = attr;
  return *this;
}

SpecBuilder& SpecBuilder::size(const std::string& attr) {
  current().vmap.size = attr;
  return *this;
}

SpecBuilder& SpecBuilder::x(const std::string& attr) {
  current().vmap.x = attr;
  return *this;
}

SpecBuilder& SpecBuilder::y(const std::string& attr) {
  current().vmap.y = attr;
  return *this;
}

SpecBuilder& SpecBuilder::colors(std::vector<std::string> ramp) {
  current().colors = std::move(ramp);
  return *this;
}

SpecBuilder& SpecBuilder::no_border() {
  current().border = false;
  return *this;
}

SpecBuilder& SpecBuilder::ribbons(Entity entity, const std::string& key,
                                  const std::string& size_attr,
                                  const std::string& color_attr) {
  DV_REQUIRE(entity == Entity::kLocalLink || entity == Entity::kGlobalLink,
             "ribbons must project a link entity");
  spec_.ribbons.enabled = true;
  spec_.ribbons.entity = entity;
  spec_.ribbons.key = key;
  spec_.ribbons.size_attr = size_attr;
  spec_.ribbons.color_attr = color_attr;
  return *this;
}

SpecBuilder& SpecBuilder::ribbon_colors(std::vector<std::string> ramp) {
  spec_.ribbons.colors = std::move(ramp);
  return *this;
}

SpecBuilder& SpecBuilder::no_ribbons() {
  spec_.ribbons.enabled = false;
  return *this;
}

SpecBuilder& SpecBuilder::window(double t0, double t1) {
  DV_REQUIRE(t0 < t1, "window must satisfy t0 < t1");
  spec_.window = TimeWindow{t0, t1};
  return *this;
}

ProjectionSpec SpecBuilder::build() const {
  DV_REQUIRE(!spec_.levels.empty(), "projection spec has no levels");
  return spec_;
}

}  // namespace dv::core
