// Time-slice oracle: restricts a DataSet to [t0, t1) the slow way, by
// copying its run, overwriting every sampled metric with its windowed sum
// and rebuilding all tables and prefix series from the sliced copy. The
// library windows through QueryEngine::table / DataSet::windowed_table
// instead; the windowed-vs-sliced tests compare against this bit for bit,
// and bench_gates / bench_perf_core time it as the cold baseline. Also
// the plain strided loop over a SampledSeries that PrefixSeries' deltas
// from frame 0 reproduce. Header-only and free of gtest so the benches can
// include it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/datatable.hpp"
#include "metrics/run_schema.hpp"
#include "util/common.hpp"

namespace dv::testing {

/// Sum of one entity's frames [f0, f1) of `s`, added in frame order.
inline double series_range_sum(const metrics::SampledSeries& s,
                               std::size_t entity, std::size_t f0,
                               std::size_t f1) {
  DV_REQUIRE(entity < s.entities(), "entity out of range");
  DV_REQUIRE(f0 <= f1 && f1 <= s.frames(), "bad frame range");
  double acc = 0.0;
  for (std::size_t f = f0; f < f1; ++f) {
    acc += static_cast<double>(s.at(f, entity));
  }
  return acc;
}

inline core::DataSet slice_time(const core::DataSet& data, double t0,
                                double t1) {
  DV_REQUIRE(data.run().has_time_series(),
             "time-range selection requires a sampled run");
  DV_REQUIRE(t0 < t1, "empty time range");
  // Windowed values go through the same PrefixSeries deltas as
  // windowed_table, so from-scratch slicing and incremental re-windowing
  // are bit-exact with each other.
  // The dataset's slabs are indexed like schema::kSeries; each one is
  // looked up by its text key, and the record columns below are named by
  // hand, independently of the table's column mapping.
  auto slab = [&data](const std::string& name) -> const metrics::PrefixSeries& {
    for (std::size_t id = 0; id < metrics::schema::kSeries.size(); ++id) {
      if (name == metrics::schema::kSeries[id].name) return data.slabs()[id];
    }
    throw Error("no sampled series " + name);
  };
  metrics::RunMetrics sliced = data.run();
  auto apply = [&](std::vector<metrics::LinkMetrics>& links,
                   const metrics::PrefixSeries& traffic_ps,
                   const metrics::PrefixSeries& sat_ps) {
    const auto [f0, f1] = traffic_ps.frame_range(t0, t1);
    for (std::size_t i = 0; i < links.size(); ++i) {
      links[i].traffic = traffic_ps.range_sum(i, f0, f1);
      links[i].sat_time = sat_ps.range_sum(i, f0, f1);
    }
  };
  apply(sliced.local_links, slab("local_traffic_ts"), slab("local_sat_ts"));
  apply(sliced.global_links, slab("global_traffic_ts"),
        slab("global_sat_ts"));
  {
    const metrics::PrefixSeries& traffic = slab("term_traffic_ts");
    const metrics::PrefixSeries& sat = slab("term_sat_ts");
    const auto [f0, f1] = traffic.frame_range(t0, t1);
    for (std::size_t i = 0; i < sliced.terminals.size(); ++i) {
      sliced.terminals[i].data_size = traffic.range_sum(i, f0, f1);
      sliced.terminals[i].sat_time = sat.range_sum(i, f0, f1);
    }
  }
  return core::DataSet(sliced);
}

}  // namespace dv::testing
