#include "metrics/run_metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "metrics/dvr.hpp"
#include "metrics/run_schema.hpp"
#include "util/kernels.hpp"
#include "util/str.hpp"

namespace dv::metrics {

// ------------------------------------------------------------ SampledSeries

void SampledSeries::push_frame(const std::vector<float>& deltas) {
  DV_REQUIRE(deltas.size() == entities_, "frame size mismatch");
  data_.insert(data_.end(), deltas.begin(), deltas.end());
}

float* SampledSeries::push_frame_raw() {
  DV_REQUIRE(entities_ > 0, "push_frame_raw on an unconfigured series");
  data_.resize(data_.size() + entities_, 0.0f);
  return data_.data() + (data_.size() - entities_);
}

SampledSeries SampledSeries::adopt(std::size_t entities, double dt,
                                   std::vector<float> data) {
  DV_REQUIRE(entities ? data.size() % entities == 0 : data.empty(),
             "adopted series data is not a whole number of frames");
  SampledSeries s(entities, dt);
  s.data_ = std::move(data);
  return s;
}

float SampledSeries::at(std::size_t frame, std::size_t entity) const {
  DV_REQUIRE(frame < frames() && entity < entities_, "series index out of range");
  return data_[frame * entities_ + entity];
}

double SampledSeries::frame_total(std::size_t frame) const {
  DV_REQUIRE(frame < frames(), "frame out of range");
  return kernels::sum_span(data_.data() + frame * entities_, entities_);
}

// ------------------------------------------------------------ PrefixSeries

PrefixSeries::PrefixSeries(const SampledSeries& s)
    : entities_(s.entities()), frames_(s.frames()), dt_(s.dt()) {
  const std::size_t frames = frames_;
  // An all-zero series keeps no prefix: the dense one would hold only
  // +0.0, so every delta of it is +0.0, which range_sum returns as is.
  if (entities_ == 0 ||
      kernels::all_zero_bytes(s.data(), frames * entities_ * sizeof(float))) {
    return;
  }
  prefix_.assign((frames + 1) * entities_, 0.0);
  // P[f+1][e] = P[f][e] + frame f — the same sequential accumulation as
  // a plain loop over frames [0, f), so prefix deltas starting at frame 0
  // reproduce that loop bit for bit. Lanes (entities) are independent,
  // so the SIMD frame pass is bit-identical to the scalar loop.
  const float* raw = s.data();
  for (std::size_t f = 0; f < frames; ++f) {
    kernels::prefix_add_frame(raw + f * entities_, &prefix_[f * entities_],
                              &prefix_[(f + 1) * entities_], entities_);
  }
}

double PrefixSeries::range_sum(std::size_t entity, std::size_t f0,
                               std::size_t f1) const {
  DV_REQUIRE(entity < entities_, "entity out of range");
  DV_REQUIRE(f0 <= f1 && f1 <= frames(), "bad frame range");
  if (all_zero()) return 0.0;
  return prefix_[f1 * entities_ + entity] - prefix_[f0 * entities_ + entity];
}

std::pair<std::size_t, std::size_t> PrefixSeries::frame_range(
    double t0, double t1) const {
  const std::size_t n = frames();
  if (dt_ <= 0.0 || n == 0) return {0, 0};
  const std::size_t f0 = static_cast<std::size_t>(std::max(0.0, t0 / dt_));
  std::size_t f1 = t1 >= static_cast<double>(n) * dt_
                       ? n
                       : static_cast<std::size_t>(std::max(0.0, t1 / dt_));
  f1 = std::min(f1, n);
  return {std::min(f0, f1), f1};
}

// ------------------------------------------------------------ formats

std::string to_string(StoreFormat f) {
  return f == StoreFormat::kPacked ? "dvr" : "text";
}

StoreFormat format_for_path(const std::string& path) {
  return path.ends_with(".json") ? StoreFormat::kText : StoreFormat::kPacked;
}

// ------------------------------------------------------------ RunMetrics

std::vector<RouterMetrics> RunMetrics::derive_routers() const {
  const std::uint32_t a = routers_per_group;
  const std::uint32_t n_routers = groups * a;
  std::vector<RouterMetrics> out(n_routers);
  for (std::uint32_t r = 0; r < n_routers; ++r) {
    out[r].router = r;
    out[r].group = r / a;
    out[r].rank = r % a;
  }
  for (const auto& l : local_links) {
    out[l.src_router].local_traffic += l.traffic;
    out[l.src_router].local_sat_time += l.sat_time;
  }
  for (const auto& l : global_links) {
    out[l.src_router].global_traffic += l.traffic;
    out[l.src_router].global_sat_time += l.sat_time;
  }
  for (std::uint32_t r = 0; r < n_routers; ++r) {
    if (r < router_downtime.size()) out[r].downtime = router_downtime[r];
    if (r < router_retries.size()) out[r].retries = router_retries[r];
    if (r < router_drops.size()) out[r].pkts_dropped = router_drops[r];
  }
  return out;
}

double RunMetrics::total_local_traffic() const {
  double s = 0.0;
  for (const auto& l : local_links) s += l.traffic;
  return s;
}

double RunMetrics::total_global_traffic() const {
  double s = 0.0;
  for (const auto& l : global_links) s += l.traffic;
  return s;
}

double RunMetrics::total_terminal_traffic() const {
  double s = 0.0;
  for (const auto& t : terminals) s += t.data_size;
  return s;
}

double RunMetrics::total_injected() const { return total_terminal_traffic(); }

std::uint64_t RunMetrics::total_packets_finished() const {
  std::uint64_t s = 0;
  for (const auto& t : terminals) s += t.packets_finished;
  return s;
}

namespace {

template <typename T>
T number_as(const json::Value& v) {
  if constexpr (std::is_floating_point_v<T>) {
    return v.as_number();
  } else {
    return static_cast<T>(v.as_int());
  }
}

template <typename Rec>
json::Value rows_to_json(const std::vector<Rec>& recs) {
  json::Array arr;
  arr.reserve(recs.size());
  for (const Rec& rec : recs) {
    json::Array row;
    schema::for_each(schema::Table<Rec>::kColumns,
                     [&](const auto& c, std::size_t) {
                       row.emplace_back(static_cast<double>(rec.*c.member));
                     });
    arr.emplace_back(std::move(row));
  }
  return json::Value(std::move(arr));
}

template <typename Rec>
void rows_from_json(const char* section, const json::Value& v,
                    std::vector<Rec>& out) {
  constexpr std::size_t kLegacy = schema::Table<Rec>::kLegacyColumns;
  for (const auto& rowv : v.as_array()) {
    const auto& row = rowv.as_array();
    // Rows written before fault injection carry only the leading
    // columns; the fault columns of those stay zero.
    DV_REQUIRE(row.size() == schema::kColumnCount<Rec> ||
                   row.size() == kLegacy,
               std::string(section) + "[" + std::to_string(out.size()) +
                   "] has " + std::to_string(row.size()) +
                   " columns (expected " +
                   std::to_string(schema::kColumnCount<Rec>) + " or " +
                   std::to_string(kLegacy) + ")");
    Rec& rec = out.emplace_back();
    schema::for_each(schema::Table<Rec>::kColumns,
                     [&](const auto& c, std::size_t i) {
                       if (i < row.size()) {
                         rec.*c.member =
                             number_as<schema::value_t<decltype(c)>>(row[i]);
                       }
                     });
  }
}

json::Value series_to_json(const SampledSeries& s) {
  json::Object o;
  o["entities"] = json::Value(s.entities());
  o["dt"] = json::Value(s.dt());
  json::Array frames;
  for (std::size_t f = 0; f < s.frames(); ++f) {
    json::Array frame;
    frame.reserve(s.entities());
    for (std::size_t e = 0; e < s.entities(); ++e) {
      frame.emplace_back(static_cast<double>(s.at(f, e)));
    }
    frames.emplace_back(std::move(frame));
  }
  o["frames"] = json::Value(std::move(frames));
  return json::Value(std::move(o));
}

SampledSeries series_from_json(const json::Value& v) {
  const auto n = static_cast<std::size_t>(v.at("entities").as_int());
  SampledSeries s(n, v.at("dt").as_number());
  for (const auto& framev : v.at("frames").as_array()) {
    const auto& frame = framev.as_array();
    DV_REQUIRE(frame.size() == n, "bad series frame width");
    std::vector<float> deltas(n);
    for (std::size_t e = 0; e < n; ++e) {
      deltas[e] = static_cast<float>(frame[e].as_number());
    }
    s.push_frame(deltas);
  }
  return s;
}

}  // namespace

json::Value RunMetrics::to_json() const {
  json::Object o;
  o["groups"] = json::Value(groups);
  o["routers_per_group"] = json::Value(routers_per_group);
  o["terminals_per_router"] = json::Value(terminals_per_router);
  o["global_per_router"] = json::Value(global_per_router);
  o["workload"] = json::Value(workload);
  o["routing"] = json::Value(routing);
  o["placement"] = json::Value(placement);
  o["seed"] = json::Value(static_cast<double>(seed));
  o["end_time"] = json::Value(end_time);
  {
    json::Array names;
    for (const auto& n : job_names) names.emplace_back(n);
    o["job_names"] = json::Value(std::move(names));
  }
  schema::for_each_records(*this, [&o](const char* name, DvrSection,
                                        const auto& recs) {
    o[name] = rows_to_json(recs);
  });
  if (!router_downtime.empty() || !router_retries.empty() ||
      !router_drops.empty()) {
    schema::for_each(schema::kRouterTallies, [&](const auto& t, std::size_t) {
      const auto& tally = this->*t.member;
      json::Array a;
      a.reserve(tally.size());
      for (const auto v : tally) a.emplace_back(static_cast<double>(v));
      o[t.name] = json::Value(std::move(a));
    });
  }
  o["sample_dt"] = json::Value(sample_dt);
  if (has_time_series()) {
    for (const schema::Series& ts : schema::kSeries) {
      o[ts.name] = series_to_json(this->*ts.member);
    }
  }
  return json::Value(std::move(o));
}

RunMetrics RunMetrics::from_json(const json::Value& v) {
  RunMetrics m;
  m.groups = static_cast<std::uint32_t>(v.at("groups").as_int());
  m.routers_per_group =
      static_cast<std::uint32_t>(v.at("routers_per_group").as_int());
  m.terminals_per_router =
      static_cast<std::uint32_t>(v.at("terminals_per_router").as_int());
  m.global_per_router =
      static_cast<std::uint32_t>(v.at("global_per_router").as_int());
  m.workload = v.get_string("workload", "");
  m.routing = v.get_string("routing", "");
  m.placement = v.get_string("placement", "");
  m.seed = static_cast<std::uint64_t>(v.get_number("seed", 0));
  m.end_time = v.get_number("end_time", 0.0);
  if (const auto* names = v.find("job_names")) {
    for (const auto& n : names->as_array()) m.job_names.push_back(n.as_string());
  }
  schema::for_each_records(m, [&v](const char* name, DvrSection,
                                   auto& recs) {
    rows_from_json(name, v.at(name), recs);
  });
  schema::for_each(schema::kRouterTallies, [&](const auto& t, std::size_t) {
    const auto* tally = v.find(t.name);
    if (tally == nullptr) return;
    for (const auto& x : tally->as_array()) {
      (m.*t.member).push_back(number_as<schema::value_t<decltype(t)>>(x));
    }
  });
  m.sample_dt = v.get_number("sample_dt", 0.0);
  if (m.has_time_series()) {
    for (const schema::Series& ts : schema::kSeries) {
      m.*ts.member = series_from_json(v.at(ts.name));
    }
  }
  m.validate();
  return m;
}

void RunMetrics::validate() const {
  if (!(std::isfinite(sample_dt) && sample_dt >= 0.0)) {
    throw Error("sample_dt = " + fmt_double(sample_dt) +
                " (must be finite and >= 0)");
  }
  // The shape before anything else: derive_routers and DataSet size
  // router arrays by it, so it must agree with the rows first. The rows
  // follow RunRecorder's layout: terminals_per_router terminal rows per
  // router (fat-tree padding rows included), so the router count is
  // bounded by the rows a reader could allocate, and at most
  // routers_per_group - 1 local and global_per_router global links leave
  // each router.
  const std::uint64_t routers =
      static_cast<std::uint64_t>(groups) * routers_per_group;
  const std::string shape = "groups " + std::to_string(groups) +
                            " x routers_per_group " +
                            std::to_string(routers_per_group);
  if (routers > 0 && terminals_per_router == 0) {
    throw Error("terminals_per_router = 0 (" + shape + " routers)");
  }
  // Division form: routers * terminals_per_router wraps on crafted
  // headers (2^31 x 2^31 x 4 is 0 mod 2^64), which would admit a run with
  // no terminal rows that claims 2^62 routers. Once this holds, routers is
  // at most the terminal row count, so the link products below cannot
  // wrap.
  const bool terminals_fit =
      routers == 0 ? terminals.empty()
                   : terminals.size() % terminals_per_router == 0 &&
                         terminals.size() / terminals_per_router == routers;
  if (!terminals_fit) {
    throw Error("terminals has " + std::to_string(terminals.size()) +
                " rows (" + shape + " x terminals_per_router " +
                std::to_string(terminals_per_router) + " = " +
                std::to_string(routers * terminals_per_router) + ")");
  }
  auto at_most = [&](const char* section, std::size_t rows,
                     std::uint64_t per_router, const char* per) {
    if (rows <= routers * per_router) return;
    throw Error(std::string(section) + " has " + std::to_string(rows) +
                " rows (more than " + shape + " x " + per + " " +
                std::to_string(per_router) + ")");
  };
  at_most("local_links", local_links.size(), routers_per_group - 1u,
          "(routers_per_group - 1)");
  at_most("global_links", global_links.size(), global_per_router,
          "global_per_router");
  const std::uint64_t radix = std::uint64_t{terminals_per_router} +
                              routers_per_group - 1 + global_per_router;
  const schema::Series* framed = nullptr;  // first series with entities
  schema::for_each_records(*this, [&](const char* section, DvrSection s,
                                      const auto& recs) {
    using Rec = schema::record_t<decltype(recs)>;
    schema::for_each(schema::Table<Rec>::kColumns,
                     [&](const auto& c, std::size_t) {
      if (c.bound == schema::Bound::kNone) return;
      const bool router = c.bound == schema::Bound::kRouter;
      const std::uint64_t limit = router ? routers : radix;
      for (std::size_t i = 0; i < recs.size(); ++i) {
        const std::uint64_t id = recs[i].*c.member;
        if (id < limit) continue;
        throw Error(std::string(section) + "." + c.name + "[" +
                    std::to_string(i) + "] = " + std::to_string(id) +
                    " (>= " + std::to_string(limit) +
                    (router ? " routers)" : "-port radix)"));
      }
    });
    if (!has_time_series()) return;
    for (const schema::Series& ts : schema::kSeries) {
      if (ts.entities != s) continue;
      const SampledSeries& series = this->*ts.member;
      if (series.dt() != sample_dt) {
        throw Error(std::string(ts.name) + ".dt = " +
                    fmt_double(series.dt()) + " (sample_dt is " +
                    fmt_double(sample_dt) + ")");
      }
      if (series.entities() != recs.size()) {
        throw Error(std::string(ts.name) + ".entities = " +
                    std::to_string(series.entities()) + " (" + section +
                    " has " + std::to_string(recs.size()) + " rows)");
      }
      if (series.entities() == 0) continue;
      if (framed == nullptr) framed = &ts;
      const std::size_t frames = (this->*framed->member).frames();
      if (series.frames() != frames) {
        throw Error(std::string(ts.name) + " has " +
                    std::to_string(series.frames()) + " frames (" +
                    framed->name + " has " + std::to_string(frames) + ")");
      }
    }
  });
  const auto n_jobs = static_cast<std::int64_t>(job_names.size());
  for (std::size_t i = 0; i < terminals.size(); ++i) {
    const std::int64_t job = terminals[i].job;
    if (job >= -1 && job < n_jobs) continue;
    throw Error("terminals.job[" + std::to_string(i) + "] = " +
                std::to_string(job) + " (not in [-1, " +
                std::to_string(n_jobs) + "))");
  }
}

std::uint64_t RunMetrics::save(const std::string& path) const {
  if (format_for_path(path) == StoreFormat::kPacked) {
    return save_dvr(*this, path);
  }
  const std::string text = json::dump(to_json());
  atomic_write_file(path, text.data(), text.size());
  return run_content_uid(*this);
}

RunMetrics RunMetrics::load(const std::string& path) {
  // Packed runs dispatch on the on-disk magic, not the extension, so a
  // .dvr renamed to .json still loads.
  if (is_dvr_file(path)) return load_dvr(path);
  std::ifstream is(path, std::ios::binary);
  DV_REQUIRE(is.good(), "cannot open for reading: " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  std::string text = buf.str();
  // Tolerate a UTF-8 BOM and trailing whitespace/CRLF noise from editors
  // or transfer tools; the parser handles interior \r as whitespace.
  if (text.size() >= 3 && text.compare(0, 3, "\xEF\xBB\xBF") == 0) {
    text.erase(0, 3);
  }
  while (!text.empty() &&
         (text.back() == '\n' || text.back() == '\r' ||
          text.back() == ' ' || text.back() == '\t')) {
    text.pop_back();
  }
  try {
    return from_json(json::parse(text));
  } catch (const Error& e) {
    // The parser reports line/column; prepend which file was at fault so a
    // failed sweep names the offending run instead of a bare position.
    throw Error(path + ": " + e.what());
  }
}

CsvTable RunMetrics::to_csv(const std::string& entity_class) const {
  CsvTable t;
  auto num = [](double v) { return fmt_double(v, 3); };
  if (entity_class == "local_links" || entity_class == "global_links") {
    const auto& links =
        entity_class == "local_links" ? local_links : global_links;
    schema::for_each(schema::Table<LinkMetrics>::kColumns,
                     [&t](const auto& c, std::size_t) {
                       t.header.emplace_back(c.name);
                     });
    for (const auto& l : links) {
      auto& row = t.rows.emplace_back();
      schema::for_each(schema::Table<LinkMetrics>::kColumns,
                       [&](const auto& c, std::size_t) {
                         const auto v = l.*c.member;
                         if constexpr (std::is_floating_point_v<
                                           decltype(v)>) {
                           row.push_back(num(v));
                         } else {
                           row.push_back(std::to_string(v));
                         }
                       });
    }
    return t;
  }
  if (entity_class == "terminals") {
    t.header = {"router",      "port",     "data_size",    "sat_time",
                "packets",     "avg_latency", "avg_hops",  "job",
                "pkts_rerouted", "pkts_dropped", "downtime"};
    for (const auto& term : terminals) {
      t.rows.push_back({std::to_string(term.router), std::to_string(term.port),
                        num(term.data_size), num(term.sat_time),
                        std::to_string(term.packets_finished),
                        num(term.avg_latency()), num(term.avg_hops()),
                        std::to_string(term.job),
                        std::to_string(term.packets_rerouted),
                        std::to_string(term.packets_dropped),
                        num(term.downtime)});
    }
    return t;
  }
  if (entity_class == "routers") {
    t.header = {"router",        "group",          "rank",
                "global_traffic", "global_sat_time", "local_traffic",
                "local_sat_time", "downtime",       "retries",
                "pkts_dropped"};
    for (const auto& r : derive_routers()) {
      t.rows.push_back({std::to_string(r.router), std::to_string(r.group),
                        std::to_string(r.rank), num(r.global_traffic),
                        num(r.global_sat_time), num(r.local_traffic),
                        num(r.local_sat_time), num(r.downtime),
                        std::to_string(r.retries),
                        std::to_string(r.pkts_dropped)});
    }
    return t;
  }
  throw Error("unknown entity class for csv export: " + entity_class);
}

}  // namespace dv::metrics
