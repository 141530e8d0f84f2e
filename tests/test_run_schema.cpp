// The run schema (metrics/run_schema.hpp) and the checks built on it: the
// documented column table matches the schema, both readers reject run
// files whose router ids or series shapes the views would index past, and
// the text reader still accepts the rows written before fault injection.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "metrics/run_schema.hpp"
#include "util/str.hpp"
#include "helpers.hpp"

namespace dv::metrics {
namespace {

template <typename T>
std::string dtype_name() {
  if constexpr (std::is_same_v<T, double>) return "f64";
  if constexpr (std::is_same_v<T, float>) return "f32";
  if constexpr (std::is_same_v<T, std::uint32_t>) return "u32";
  if constexpr (std::is_same_v<T, std::uint64_t>) return "u64";
  if constexpr (std::is_same_v<T, std::int32_t>) return "i32";
}

/// "name dtype, name dtype, ..." for a table tuple.
template <typename Tuple>
std::string columns_cell(const Tuple& table) {
  std::string out;
  schema::for_each(table, [&out](const auto& c, std::size_t i) {
    out += (i ? ", " : "") + std::string(c.name) + " " +
           dtype_name<schema::value_t<decltype(c)>>();
  });
  return out;
}

TEST(RunSchema, FormatDocListsEveryColumnAndDtype) {
  std::ifstream is(std::string(DV_DOCS_DIR) + "/RUN_FORMAT.md");
  ASSERT_TRUE(is.good()) << "docs/RUN_FORMAT.md missing";
  // section -> {id, columns} from the "Sections and columns" table.
  std::map<std::string, std::pair<std::string, std::string>> rows;
  bool in_table = false;
  for (std::string line; std::getline(is, line);) {
    if (line == "### Sections and columns") in_table = true;
    if (in_table && !rows.empty() && !line.starts_with("| ")) break;
    if (!in_table || !line.starts_with("| ")) continue;
    const auto cells = split(line, '|');
    ASSERT_EQ(cells.size(), 5u) << line;  // "", section, id, columns, ""
    rows[trim(cells[1])] = {trim(cells[2]), trim(cells[3])};
  }
  ASSERT_TRUE(rows.count("local_links")) << "table not found";
  EXPECT_EQ(rows["local_links"].first, "1");
  EXPECT_EQ(rows["local_links"].second,
            columns_cell(schema::Table<LinkMetrics>::kColumns));
  EXPECT_EQ(rows["global_links"].first, "2");
  EXPECT_EQ(rows["global_links"].second, "same columns as local_links");
  EXPECT_EQ(rows["terminals"].first, "3");
  EXPECT_EQ(rows["terminals"].second,
            columns_cell(schema::Table<TerminalMetrics>::kColumns));
  EXPECT_EQ(rows["router_tallies"].first, "4");
  EXPECT_TRUE(rows["router_tallies"].second.starts_with(
      columns_cell(schema::kRouterTallies) + " ("))
      << rows["router_tallies"].second;
  std::string series;
  for (const auto& ts : schema::kSeries) {
    series += (series.empty() ? "" : ", ") + std::string(ts.name);
  }
  EXPECT_EQ(rows["series"].first, "16+id");
  EXPECT_TRUE(rows["series"].second.ends_with(": " + series))
      << rows["series"].second;
}

std::string path_in_temp(const char* name) {
  return (dv::testing::test_temp_dir() / name).string();
}

/// Saves `run` at `path` and expects load() to throw an error that starts
/// with the path and contains `what`.
void expect_load_fails(const RunMetrics& run, const std::string& path,
                       const std::string& what) {
  run.save(path);
  try {
    RunMetrics::load(path);
    ADD_FAILURE() << path << " loaded";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(msg.starts_with(path + ": ")) << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
  }
}

TEST(RunSchema, BothReadersRejectBadRouterIdsAndSeriesShapes) {
  const RunMetrics good = dv::testing::make_mini_run().run;  // DF(2)
  ASSERT_EQ(good.groups * good.routers_per_group, 36u);
  ASSERT_TRUE(good.has_time_series());
  for (const char* name : {"run.json", "run.dvr"}) {
    SCOPED_TRACE(name);
    const std::string path = path_in_temp(name);
    good.save(path);
    EXPECT_EQ(run_content_uid(RunMetrics::load(path)), run_content_uid(good));

    RunMetrics bad = good;
    bad.local_links[0].src_router = 5898240;
    expect_load_fails(bad, path,
                      "local_links.src_router[0] = 5898240 (>= 36 routers)");

    bad = good;
    bad.global_links[3].dst_router = 36;
    expect_load_fails(bad, path,
                      "global_links.dst_router[3] = 36 (>= 36 routers)");

    bad = good;
    bad.terminals[0].router = 100000;
    expect_load_fails(bad, path,
                      "terminals.router[0] = 100000 (>= 36 routers)");

    // One entity more than there are local links. The packed file states
    // no entity count of its own, so its reader sees a different frame
    // count (or a chunk that does not tile), not the entity count.
    bad = good;
    const auto& ts = good.local_traffic_ts;
    bad.local_traffic_ts = SampledSeries::adopt(
        ts.entities() + 1, ts.dt(),
        std::vector<float>(ts.frames() * (ts.entities() + 1), 1.0f));
    expect_load_fails(bad, path,
                      format_for_path(path) == StoreFormat::kText
                          ? "local_traffic_ts.entities = 109 "
                            "(local_links has 108 rows)"
                          : "");
  }
}

TEST(RunSchema, BothReadersRejectBadJobsAndSampleSteps) {
  const RunMetrics good = dv::testing::make_mini_run().run;
  ASSERT_EQ(good.job_names.size(), 2u);
  ASSERT_EQ(good.sample_dt, 500.0);
  for (const char* name : {"run.json", "run.dvr"}) {
    SCOPED_TRACE(name);
    const std::string path = path_in_temp(name);

    RunMetrics bad = good;
    bad.terminals[5].job = 2;
    expect_load_fails(bad, path, "terminals.job[5] = 2 (not in [-1, 2))");

    bad = good;
    bad.terminals[0].job = -2;
    expect_load_fails(bad, path, "terminals.job[0] = -2 (not in [-1, 2))");

    // A negative step: neither writer stores series for it.
    bad = good;
    bad.sample_dt = -5.0;
    expect_load_fails(bad, path, "sample_dt = -5 (must be finite and >= 0)");

    // A series sampled at another step. The packed file stores one step
    // for every series, so only the text export can say this.
    if (format_for_path(path) == StoreFormat::kText) {
      bad = good;
      const auto& ts = good.global_sat_ts;
      bad.global_sat_ts = SampledSeries::adopt(
          ts.entities(), 1000.0,
          std::vector<float>(ts.frames() * ts.entities(), 0.0f));
      expect_load_fails(bad, path,
                        "global_sat_ts.dt = 1000 (sample_dt is 500)");
    }
  }
}

TEST(RunSchema, PackedReaderChecksEveryColumnsDtypeAndRowCount) {
  const RunMetrics run = dv::testing::make_mini_run().run;
  const std::string path = path_in_temp("run.dvr");
  run.save(path);
  std::string orig;
  {
    std::ifstream is(path, std::ios::binary);
    orig.assign(std::istreambuf_iterator<char>(is), {});
  }
  // docs/RUN_FORMAT.md: chunk count at byte 72, directory offset at 76,
  // 56-byte entries of section, column, dtype (u16) at 0, 2, 4 and
  // bytes, rows (u64) at 16, 24.
  auto rd = [](const std::string& b, std::size_t at, auto v) {
    std::memcpy(&v, b.data() + at, sizeof(v));
    return v;
  };
  auto wr = [](std::string& b, std::size_t at, auto v) {
    std::memcpy(b.data() + at, &v, sizeof(v));
  };
  auto entry = [&](std::uint16_t section, std::uint16_t column) {
    const auto dir = rd(orig, 76, std::uint64_t{});
    for (std::uint32_t i = 0; i < rd(orig, 72, std::uint32_t{}); ++i) {
      const std::size_t at = dir + i * 56;
      if (rd(orig, at, std::uint16_t{}) == section &&
          rd(orig, at + 2, std::uint16_t{}) == column) {
        return at;
      }
    }
    ADD_FAILURE() << "no chunk " << section << "/" << column;
    return std::size_t{0};
  };
  auto expect_rejected = [&](const std::string& what, auto mutate) {
    std::string bytes = orig;
    mutate(bytes);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    try {
      RunMetrics::load(path);
      ADD_FAILURE() << what << ": loaded";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), path + ": " + what);
    }
  };
  // A column after the first holding one row fewer than the header's
  // count; a reader that checked only the first column would read past
  // this one's payload.
  const std::size_t traffic = entry(1, 4);
  expect_rejected("row count mismatch in column traffic", [&](auto& b) {
    wr(b, traffic + 16, rd(b, traffic + 16, std::uint64_t{}) - 8);
    wr(b, traffic + 24, rd(b, traffic + 24, std::uint64_t{}) - 1);
  });
  // A u64 column relabelled f64: same element size, so only the
  // per-column dtype check can catch it.
  const std::size_t rerouted = entry(3, 8);
  expect_rejected("dtype mismatch in column packets_rerouted", [&](auto& b) {
    wr(b, rerouted + 4, std::uint16_t{1});
  });
}

TEST(RunSchema, LegacyTextRowsLoadWithZeroFaultFields) {
  RunMetrics run = dv::testing::make_mini_run().run;
  run.local_links[0].downtime = 5.0;
  run.local_links[0].retries = 2;
  run.local_links[0].pkts_dropped = 1;
  run.terminals[0].packets_rerouted = 3;
  run.terminals[0].packets_dropped = 4;
  run.terminals[0].downtime = 6.0;
  json::Value v = run.to_json();
  auto& o = v.as_object();
  // Resizes row 0 of `section`, padding with zeros.
  const auto set_width = [&o](const char* section, std::size_t width) {
    json::Array rows = o[section].as_array();
    json::Array row = rows[0].as_array();
    row.resize(width, json::Value(0.0));
    rows[0] = std::move(row);
    o[section] = std::move(rows);
  };
  ASSERT_EQ(o["local_links"].as_array()[0].as_array().size(), 9u);
  ASSERT_EQ(o["terminals"].as_array()[0].as_array().size(), 11u);

  set_width("local_links", 6);
  set_width("terminals", 8);
  const RunMetrics legacy = RunMetrics::from_json(v);
  const LinkMetrics& l = legacy.local_links[0];
  EXPECT_EQ(l.src_router, run.local_links[0].src_router);
  EXPECT_EQ(l.dst_port, run.local_links[0].dst_port);
  EXPECT_EQ(l.traffic, run.local_links[0].traffic);
  EXPECT_EQ(l.sat_time, run.local_links[0].sat_time);
  EXPECT_EQ(l.downtime, 0.0);
  EXPECT_EQ(l.retries, 0u);
  EXPECT_EQ(l.pkts_dropped, 0u);
  const TerminalMetrics& t = legacy.terminals[0];
  EXPECT_EQ(t.router, run.terminals[0].router);
  EXPECT_EQ(t.sum_hops, run.terminals[0].sum_hops);
  EXPECT_EQ(t.job, run.terminals[0].job);
  EXPECT_EQ(t.packets_rerouted, 0u);
  EXPECT_EQ(t.packets_dropped, 0u);
  EXPECT_EQ(t.downtime, 0.0);
  // Every other row keeps all its columns.
  EXPECT_EQ(legacy.local_links[1].sat_time, run.local_links[1].sat_time);
  EXPECT_EQ(legacy.terminals.size(), run.terminals.size());

  set_width("local_links", 7);
  EXPECT_THROW(RunMetrics::from_json(v), Error);
  set_width("local_links", 6);
  set_width("terminals", 9);
  try {
    RunMetrics::from_json(v);
    ADD_FAILURE() << "9-column terminal row loaded";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "terminals[0] has 9 columns (expected 11 or 8)");
  }
}

}  // namespace
}  // namespace dv::metrics
