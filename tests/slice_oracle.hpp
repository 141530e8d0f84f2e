// Time-slice oracle: restricts a DataSet to [t0, t1) the slow way, by
// copying its run, overwriting every sampled metric with its windowed sum
// and rebuilding all tables and prefix series from the sliced copy. The
// library windows through QueryEngine::table / DataSet::windowed_table
// instead; the windowed-vs-sliced tests compare against this bit for bit,
// and bench_gates / bench_perf_core time it as the cold baseline. Header-
// only and free of gtest so the benches can include it.
#pragma once

#include <cstddef>
#include <vector>

#include "core/datatable.hpp"
#include "util/common.hpp"

namespace dv::testing {

inline core::DataSet slice_time(const core::DataSet& data, double t0,
                                double t1) {
  DV_REQUIRE(data.run().has_time_series(),
             "time-range selection requires a sampled run");
  DV_REQUIRE(t0 < t1, "empty time range");
  // Windowed values go through the same PrefixSeries deltas as
  // windowed_table, so from-scratch slicing and incremental re-windowing
  // are bit-exact with each other.
  const core::TimeSlabs& sl = data.slabs();
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
  apply(sliced.local_links, sl.local_traffic, sl.local_sat);
  apply(sliced.global_links, sl.global_traffic, sl.global_sat);
  {
    const auto [f0, f1] = sl.term_traffic.frame_range(t0, t1);
    for (std::size_t i = 0; i < sliced.terminals.size(); ++i) {
      sliced.terminals[i].data_size = sl.term_traffic.range_sum(i, f0, f1);
      sliced.terminals[i].sat_time = sl.term_sat.range_sum(i, f0, f1);
    }
  }
  return core::DataSet(sliced);
}

}  // namespace dv::testing
