// The run record's columns, each listed once.
//
// Every serializer of a RunMetrics walks these tables instead of naming
// fields: the text export and its reader, the link CSV, the .dvr writer
// and reader, run_content_uid and RunMetrics::validate. A walk is a fold
// over a tuple of member pointers, so a per-row loop compiles to the
// field-by-field code a hand-written one would. docs/RUN_FORMAT.md's
// "Sections and columns" table is tested against these tables.
//
// Not in the tables: the .dvr header and the text object's header keys
// (their orders differ from each other and from the uid's), and the
// derived terminal and router CSV columns.
#pragma once

#include <array>
#include <cstddef>
#include <tuple>
#include <type_traits>
#include <vector>

#include "metrics/dvr.hpp"
#include "metrics/run_metrics.hpp"

namespace dv::metrics::schema {

/// One record column: its name, the member it reads, and whether it holds
/// a router id (validate() checks those against the run's shape).
template <typename Rec, typename T>
struct Column {
  using Type = T;
  const char* name;
  T Rec::*member;
  bool router_id = false;
};

/// A record's columns, in text-row, .dvr column-id, CSV and uid order,
/// and how many leading columns the text rows written before fault
/// injection carry.
template <typename Rec>
struct Table;

template <>
struct Table<LinkMetrics> {
  using L = LinkMetrics;
  static constexpr std::size_t kLegacyColumns = 6;
  static constexpr std::tuple kColumns{
      Column{"src_router", &L::src_router, true},
      Column{"src_port", &L::src_port},
      Column{"dst_router", &L::dst_router, true},
      Column{"dst_port", &L::dst_port},
      Column{"traffic", &L::traffic},
      Column{"sat_time", &L::sat_time},
      Column{"downtime", &L::downtime},
      Column{"retries", &L::retries},
      Column{"pkts_dropped", &L::pkts_dropped}};
};

template <>
struct Table<TerminalMetrics> {
  using T = TerminalMetrics;
  static constexpr std::size_t kLegacyColumns = 8;
  static constexpr std::tuple kColumns{
      Column{"router", &T::router, true},
      Column{"port", &T::port},
      Column{"data_size", &T::data_size},
      Column{"sat_time", &T::sat_time},
      Column{"packets_finished", &T::packets_finished},
      Column{"sum_latency", &T::sum_latency},
      Column{"sum_hops", &T::sum_hops},
      Column{"job", &T::job},
      Column{"packets_rerouted", &T::packets_rerouted},
      Column{"packets_dropped", &T::packets_dropped},
      Column{"downtime", &T::downtime}};
};

template <typename Rec>
constexpr std::size_t kColumnCount =
    std::tuple_size_v<std::remove_const_t<decltype(Table<Rec>::kColumns)>>;

/// One per-router fault tally (empty on a healthy run): its text key and
/// the run member holding it.
template <typename T>
struct Tally {
  using Type = T;
  const char* name;
  std::vector<T> RunMetrics::*member;
};

/// The tallies, in text, .dvr column-id and uid order.
inline constexpr std::tuple kRouterTallies{
    Tally{"router_downtime", &RunMetrics::router_downtime},
    Tally{"router_retries", &RunMetrics::router_retries},
    Tally{"router_drops", &RunMetrics::router_drops}};

/// One sampled series: its text key, the run member, and the record
/// section whose rows are its entities.
struct Series {
  const char* name;
  SampledSeries RunMetrics::*member;
  DvrSection entities;
};

/// The sampled series in text and uid order; the index is the .dvr
/// series id (section kSeriesBase + id).
inline constexpr std::array<Series, 6> kSeries{{
    {"local_traffic_ts", &RunMetrics::local_traffic_ts,
     DvrSection::kLocalLinks},
    {"local_sat_ts", &RunMetrics::local_sat_ts, DvrSection::kLocalLinks},
    {"global_traffic_ts", &RunMetrics::global_traffic_ts,
     DvrSection::kGlobalLinks},
    {"global_sat_ts", &RunMetrics::global_sat_ts, DvrSection::kGlobalLinks},
    {"term_traffic_ts", &RunMetrics::term_traffic_ts, DvrSection::kTerminals},
    {"term_sat_ts", &RunMetrics::term_sat_ts, DvrSection::kTerminals},
}};

/// Calls f(entry, index) for each entry of a table tuple, in order.
template <typename Tuple, typename F>
constexpr void for_each(const Tuple& table, F&& f) {
  std::apply(
      [&f](const auto&... entry) {
        std::size_t i = 0;
        (f(entry, i++), ...);
      },
      table);
}

/// Calls f(name, section, records) for the three record sections, in
/// text, .dvr and uid order. `Run` is RunMetrics or const RunMetrics.
template <typename Run, typename F>
void for_each_records(Run& run, F&& f) {
  f("local_links", DvrSection::kLocalLinks, run.local_links);
  f("global_links", DvrSection::kGlobalLinks, run.global_links);
  f("terminals", DvrSection::kTerminals, run.terminals);
}

/// A record vector's element type, and a table entry's value type.
template <typename Vec>
using record_t = typename std::remove_cvref_t<Vec>::value_type;
template <typename Entry>
using value_t = typename std::remove_cvref_t<Entry>::Type;

}  // namespace dv::metrics::schema
