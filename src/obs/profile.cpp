#include "obs/profile.hpp"

#include <fstream>

namespace dv::obs {

std::uint64_t RunProfile::counter_value(const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

json::Value RunProfile::to_json() const {
  json::Object o;
  o["schema"] = "dragonviz.profile/1";
  o["wall_seconds"] = wall_seconds;
  json::Object cs;
  for (const auto& c : counters) {
    cs[c.name] = static_cast<double>(c.value);
  }
  o["counters"] = std::move(cs);
  json::Object gs;
  for (const auto& g : gauges) gs[g.name] = g.value;
  o["gauges"] = std::move(gs);
  json::Array ps;
  for (const auto& p : phases) {
    json::Object po;
    po["path"] = p.path;
    po["seconds"] = p.seconds;
    po["count"] = p.count;
    ps.push_back(std::move(po));
  }
  o["phases"] = std::move(ps);
  return o;
}

void RunProfile::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  DV_REQUIRE(os.good(), "cannot open: " + path);
  os << json::dump(to_json(), 2) << "\n";
  DV_REQUIRE(os.good(), "write failed: " + path);
}

RunProfile capture() {
  RunProfile p;
  if constexpr (!kEnabled) return p;
  Snapshot s = snapshot();
  p.wall_seconds = s.wall_seconds;
  p.counters = std::move(s.counters);
  p.gauges = std::move(s.gauges);
  p.phases = std::move(s.phases);
  return p;
}

}  // namespace dv::obs
