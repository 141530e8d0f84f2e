#include "metrics/run_metrics.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "metrics/dvr.hpp"
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

double SampledSeries::range_sum(std::size_t entity, std::size_t f0,
                                std::size_t f1) const {
  DV_REQUIRE(entity < entities_, "entity out of range");
  DV_REQUIRE(f0 <= f1 && f1 <= frames(), "bad frame range");
  return kernels::strided_sum(data_.data(), entities_, entity, f0, f1);
}

std::size_t SampledSeries::frame_of(SimTime t) const {
  if (dt_ <= 0.0 || frames() == 0) return 0;
  if (t <= 0.0) return 0;
  const auto f = static_cast<std::size_t>(t / dt_);
  return f >= frames() ? frames() - 1 : f;
}

// ------------------------------------------------------------ PrefixSeries

PrefixSeries::PrefixSeries(const SampledSeries& s)
    : entities_(s.entities()), dt_(s.dt()) {
  const std::size_t frames = s.frames();
  if (entities_ == 0) return;
  prefix_.assign((frames + 1) * entities_, 0.0);
  // P[f+1][e] = P[f][e] + frame f — the same sequential accumulation
  // SampledSeries::range_sum(e, 0, f) performs, so prefix deltas starting
  // at frame 0 reproduce it bit for bit. Lanes (entities) are independent,
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

json::Value links_to_json(const std::vector<LinkMetrics>& links) {
  json::Array arr;
  arr.reserve(links.size());
  for (const auto& l : links) {
    json::Array row;
    row.emplace_back(l.src_router);
    row.emplace_back(l.src_port);
    row.emplace_back(l.dst_router);
    row.emplace_back(l.dst_port);
    row.emplace_back(l.traffic);
    row.emplace_back(l.sat_time);
    row.emplace_back(l.downtime);
    row.emplace_back(l.retries);
    row.emplace_back(l.pkts_dropped);
    arr.emplace_back(std::move(row));
  }
  return json::Value(std::move(arr));
}

std::vector<LinkMetrics> links_from_json(const json::Value& v) {
  std::vector<LinkMetrics> out;
  for (const auto& rowv : v.as_array()) {
    const auto& row = rowv.as_array();
    // 6-column rows predate fault injection; accept both layouts.
    DV_REQUIRE(row.size() == 6 || row.size() == 9, "bad link row");
    LinkMetrics l;
    l.src_router = static_cast<std::uint32_t>(row[0].as_int());
    l.src_port = static_cast<std::uint32_t>(row[1].as_int());
    l.dst_router = static_cast<std::uint32_t>(row[2].as_int());
    l.dst_port = static_cast<std::uint32_t>(row[3].as_int());
    l.traffic = row[4].as_number();
    l.sat_time = row[5].as_number();
    if (row.size() == 9) {
      l.downtime = row[6].as_number();
      l.retries = static_cast<std::uint64_t>(row[7].as_int());
      l.pkts_dropped = static_cast<std::uint64_t>(row[8].as_int());
    }
    out.push_back(l);
  }
  return out;
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
  o["local_links"] = links_to_json(local_links);
  o["global_links"] = links_to_json(global_links);
  {
    json::Array arr;
    arr.reserve(terminals.size());
    for (const auto& t : terminals) {
      json::Array row;
      row.emplace_back(t.router);
      row.emplace_back(t.port);
      row.emplace_back(t.data_size);
      row.emplace_back(t.sat_time);
      row.emplace_back(t.packets_finished);
      row.emplace_back(t.sum_latency);
      row.emplace_back(t.sum_hops);
      row.emplace_back(static_cast<double>(t.job));
      row.emplace_back(t.packets_rerouted);
      row.emplace_back(t.packets_dropped);
      row.emplace_back(t.downtime);
      arr.emplace_back(std::move(row));
    }
    o["terminals"] = json::Value(std::move(arr));
  }
  if (!router_downtime.empty() || !router_retries.empty() ||
      !router_drops.empty()) {
    auto dump_doubles = [](const std::vector<double>& vs) {
      json::Array a;
      a.reserve(vs.size());
      for (double d : vs) a.emplace_back(d);
      return json::Value(std::move(a));
    };
    auto dump_counts = [](const std::vector<std::uint64_t>& vs) {
      json::Array a;
      a.reserve(vs.size());
      for (std::uint64_t c : vs) a.emplace_back(c);
      return json::Value(std::move(a));
    };
    o["router_downtime"] = dump_doubles(router_downtime);
    o["router_retries"] = dump_counts(router_retries);
    o["router_drops"] = dump_counts(router_drops);
  }
  o["sample_dt"] = json::Value(sample_dt);
  if (has_time_series()) {
    o["local_traffic_ts"] = series_to_json(local_traffic_ts);
    o["local_sat_ts"] = series_to_json(local_sat_ts);
    o["global_traffic_ts"] = series_to_json(global_traffic_ts);
    o["global_sat_ts"] = series_to_json(global_sat_ts);
    o["term_traffic_ts"] = series_to_json(term_traffic_ts);
    o["term_sat_ts"] = series_to_json(term_sat_ts);
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
  m.local_links = links_from_json(v.at("local_links"));
  m.global_links = links_from_json(v.at("global_links"));
  for (const auto& rowv : v.at("terminals").as_array()) {
    const auto& row = rowv.as_array();
    // 8-column rows predate fault injection; accept both layouts.
    DV_REQUIRE(row.size() == 8 || row.size() == 11, "bad terminal row");
    TerminalMetrics t;
    t.router = static_cast<std::uint32_t>(row[0].as_int());
    t.port = static_cast<std::uint32_t>(row[1].as_int());
    t.data_size = row[2].as_number();
    t.sat_time = row[3].as_number();
    t.packets_finished = static_cast<std::uint64_t>(row[4].as_int());
    t.sum_latency = row[5].as_number();
    t.sum_hops = row[6].as_number();
    t.job = static_cast<std::int32_t>(row[7].as_int());
    if (row.size() == 11) {
      t.packets_rerouted = static_cast<std::uint64_t>(row[8].as_int());
      t.packets_dropped = static_cast<std::uint64_t>(row[9].as_int());
      t.downtime = row[10].as_number();
    }
    m.terminals.push_back(t);
  }
  if (const auto* rd = v.find("router_downtime")) {
    for (const auto& d : rd->as_array()) {
      m.router_downtime.push_back(d.as_number());
    }
  }
  if (const auto* rr = v.find("router_retries")) {
    for (const auto& c : rr->as_array()) {
      m.router_retries.push_back(static_cast<std::uint64_t>(c.as_int()));
    }
  }
  if (const auto* rd = v.find("router_drops")) {
    for (const auto& c : rd->as_array()) {
      m.router_drops.push_back(static_cast<std::uint64_t>(c.as_int()));
    }
  }
  m.sample_dt = v.get_number("sample_dt", 0.0);
  if (m.sample_dt > 0.0) {
    m.local_traffic_ts = series_from_json(v.at("local_traffic_ts"));
    m.local_sat_ts = series_from_json(v.at("local_sat_ts"));
    m.global_traffic_ts = series_from_json(v.at("global_traffic_ts"));
    m.global_sat_ts = series_from_json(v.at("global_sat_ts"));
    m.term_traffic_ts = series_from_json(v.at("term_traffic_ts"));
    m.term_sat_ts = series_from_json(v.at("term_sat_ts"));
  }
  return m;
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
    t.header = {"src_router", "src_port", "dst_router",
                "dst_port",   "traffic",  "sat_time",
                "downtime",   "retries",  "pkts_dropped"};
    for (const auto& l : links) {
      t.rows.push_back({std::to_string(l.src_router), std::to_string(l.src_port),
                        std::to_string(l.dst_router), std::to_string(l.dst_port),
                        num(l.traffic), num(l.sat_time), num(l.downtime),
                        std::to_string(l.retries),
                        std::to_string(l.pkts_dropped)});
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
