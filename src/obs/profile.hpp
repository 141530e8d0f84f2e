// Structured run profile: the observability registry serialized as data.
//
// A RunProfile is a Snapshot plus its JSON form, written through the same
// dv::json writer the run metrics use. The schema (documented in
// docs/SPEC_LANGUAGE.md, "Profile JSON") is stable: fields are only added,
// never renamed, and counter/phase names published by the instrumented
// subsystems follow the dotted naming convention described there.
#pragma once

#include <string>

#include "json/json.hpp"
#include "obs/obs.hpp"

namespace dv::obs {

/// One run's observability record. `capture()` fills it from the global
/// registry; `wall_seconds` covers reset() → capture().
struct RunProfile {
  double wall_seconds = 0.0;
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<PhaseStat> phases;

  bool empty() const {
    return counters.empty() && gauges.empty() && phases.empty();
  }

  /// Value of one counter (0 when absent).
  std::uint64_t counter_value(const std::string& name) const;

  json::Value to_json() const;
  void save(const std::string& path) const;
};

/// Snapshots the registry into a profile (counters/gauges/phases since the
/// last obs::reset()). Returns an empty profile in DV_OBS_ENABLED=OFF
/// builds.
RunProfile capture();

}  // namespace dv::obs
