// Profile reader for the tests: parses the `--profile` JSON that
// RunProfile::save writes (schema "dragonviz.profile/1", documented in
// docs/SPEC_LANGUAGE.md) back into a RunProfile, plus two lookups over a
// profile. Header-only and free of gtest, like slice_oracle.hpp.
#pragma once

#include <fstream>
#include <iterator>
#include <string>

#include "json/json.hpp"
#include "obs/profile.hpp"
#include "util/common.hpp"

namespace dv::testing {

inline obs::RunProfile profile_from_json(const json::Value& v) {
  DV_REQUIRE(v.get_string("schema", "") == "dragonviz.profile/1",
             "not a dragonviz profile (schema mismatch)");
  obs::RunProfile p;
  p.wall_seconds = v.get_number("wall_seconds", 0.0);
  if (const json::Value* cs = v.find("counters")) {
    for (const auto& [name, val] : cs->as_object()) {
      p.counters.push_back(
          {name, static_cast<std::uint64_t>(val.as_number())});
    }
  }
  if (const json::Value* gs = v.find("gauges")) {
    for (const auto& [name, val] : gs->as_object()) {
      p.gauges.push_back({name, val.as_number()});
    }
  }
  if (const json::Value* ps = v.find("phases")) {
    for (const auto& pv : ps->as_array()) {
      p.phases.push_back({pv.at("path").as_string(),
                          pv.get_number("seconds", 0.0),
                          static_cast<std::uint64_t>(
                              pv.get_number("count", 0.0))});
    }
  }
  return p;
}

inline obs::RunProfile load_profile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DV_REQUIRE(is.good(), "cannot open: " + path);
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  return profile_from_json(json::parse(text));
}

/// Value of one gauge (0.0 when absent).
inline double gauge_value(const obs::RunProfile& p, const std::string& name) {
  for (const auto& g : p.gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

/// Summed seconds of the top-level phases (paths without '/').
inline double top_level_phase_seconds(const obs::RunProfile& p) {
  double s = 0.0;
  for (const auto& ph : p.phases) {
    if (ph.path.find('/') == std::string::npos) s += ph.seconds;
  }
  return s;
}

}  // namespace dv::testing
