// Packed columnar run format (.dvr) and vectorized-kernel tests.
//
// Two contracts are pinned here: (1) text-loaded and packed-loaded runs
// are bit-identical all the way into DataTables, and (2) every kernel in
// util/kernels.hpp matches its naive scalar twin bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/datatable.hpp"
#include "metrics/dvr.hpp"
#include "metrics/run_metrics.hpp"
#include "metrics/run_schema.hpp"
#include "metrics/run_store.hpp"
#include "netsim/network.hpp"
#include "serve/catalog.hpp"
#include "util/common.hpp"
#include "util/kernels.hpp"
#include "util/rng.hpp"
#include "helpers.hpp"

namespace dv {
namespace {

metrics::RunMetrics dvr_sample_run(bool sampled, std::uint64_t seed = 17) {
  const auto topo = topo::Dragonfly::canonical(2);
  netsim::Params p;
  p.packet_size = 512;
  netsim::Network net(topo, routing::Algo::kAdaptive, p, seed);
  net.set_labels("uniform_random", "contiguous", {"job0"});
  Rng rng(seed + 1);
  for (int i = 0; i < 150; ++i) {
    const auto src =
        static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    auto dst = src;
    while (dst == src) {
      dst = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    }
    net.add_message({src, dst, 3000, rng.next_double() * 5000.0, 0});
  }
  if (sampled) net.enable_sampling(400.0);
  return net.run();
}

std::string temp_path(const std::string& name) {
  return (dv::testing::test_temp_dir() / name).string();
}

/// Bitwise equality — EXPECT_EQ(0.0, -0.0) would pass, this does not.
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

void expect_tables_bitwise_equal(const core::DataTable& a,
                                 const core::DataTable& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.column_names(), b.column_names());
  for (const auto& name : a.column_names()) {
    const auto& ca = a.column(name);
    const auto& cb = b.column(name);
    for (std::size_t r = 0; r < ca.size(); ++r) {
      ASSERT_TRUE(bits_equal(ca[r], cb[r]))
          << "column " << name << " row " << r;
    }
  }
}

// ------------------------------------------------------------- round trip

TEST(DvrFormat, RoundTripBitExactSampled) {
  const auto run = dvr_sample_run(true);
  const auto path = temp_path("dv_dvr_roundtrip.dvr");
  metrics::save_dvr(run, path);
  ASSERT_TRUE(metrics::is_dvr_file(path));
  const auto back = metrics::load_dvr(path);
  std::remove(path.c_str());

  EXPECT_EQ(back.groups, run.groups);
  EXPECT_EQ(back.routers_per_group, run.routers_per_group);
  EXPECT_EQ(back.terminals_per_router, run.terminals_per_router);
  EXPECT_EQ(back.global_per_router, run.global_per_router);
  EXPECT_EQ(back.workload, run.workload);
  EXPECT_EQ(back.routing, run.routing);
  EXPECT_EQ(back.placement, run.placement);
  EXPECT_EQ(back.seed, run.seed);
  EXPECT_TRUE(bits_equal(back.end_time, run.end_time));
  EXPECT_EQ(back.job_names, run.job_names);

  ASSERT_EQ(back.local_links.size(), run.local_links.size());
  for (std::size_t i = 0; i < run.local_links.size(); ++i) {
    EXPECT_EQ(back.local_links[i].src_router, run.local_links[i].src_router);
    EXPECT_TRUE(bits_equal(back.local_links[i].traffic,
                           run.local_links[i].traffic));
    EXPECT_TRUE(bits_equal(back.local_links[i].sat_time,
                           run.local_links[i].sat_time));
    EXPECT_EQ(back.local_links[i].retries, run.local_links[i].retries);
  }
  ASSERT_EQ(back.terminals.size(), run.terminals.size());
  for (std::size_t i = 0; i < run.terminals.size(); ++i) {
    EXPECT_TRUE(bits_equal(back.terminals[i].sum_latency,
                           run.terminals[i].sum_latency));
    EXPECT_EQ(back.terminals[i].job, run.terminals[i].job);
    EXPECT_EQ(back.terminals[i].packets_finished,
              run.terminals[i].packets_finished);
  }

  ASSERT_TRUE(back.has_time_series());
  ASSERT_EQ(back.local_traffic_ts.frames(), run.local_traffic_ts.frames());
  for (std::size_t f = 0; f < run.local_traffic_ts.frames(); ++f) {
    for (std::size_t e = 0; e < run.local_traffic_ts.entities(); ++e) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(back.local_traffic_ts.at(f, e)),
                std::bit_cast<std::uint32_t>(run.local_traffic_ts.at(f, e)));
    }
  }
}

TEST(DvrFormat, TextAndPackedDataTablesBitIdentical) {
  const auto run = dvr_sample_run(true);
  const auto jpath = temp_path("dv_dvr_tbl.json");
  const auto dpath = temp_path("dv_dvr_tbl.dvr");
  run.save(jpath);
  metrics::save_dvr(run, dpath);
  // RunMetrics::load dispatches on the magic, not the extension.
  const core::DataSet text_ds(metrics::RunMetrics::load(jpath));
  const core::DataSet packed_ds(metrics::RunMetrics::load(dpath));
  std::remove(jpath.c_str());
  std::remove(dpath.c_str());
  for (const auto e : {core::Entity::kRouter, core::Entity::kLocalLink,
                       core::Entity::kGlobalLink, core::Entity::kTerminal}) {
    expect_tables_bitwise_equal(text_ds.table(e), packed_ds.table(e));
  }
  // Windowed tables reduce through PrefixSeries slabs built from the
  // loaded series; equality here pins the whole lazy-load + SIMD path.
  const double t1 = run.end_time / 2;
  expect_tables_bitwise_equal(
      text_ds.windowed_table(core::Entity::kLocalLink, 0.0, t1),
      packed_ds.windowed_table(core::Entity::kLocalLink, 0.0, t1));
}

TEST(DvrFormat, ContentUidStableAcrossFormatsAndSensitiveToContent) {
  const auto run = dvr_sample_run(true);
  const auto jpath = temp_path("dv_dvr_uid.json");
  const auto dpath = temp_path("dv_dvr_uid.dvr");
  run.save(jpath);
  metrics::save_dvr(run, dpath);
  const auto from_text = metrics::RunMetrics::load(jpath);
  const auto from_packed = metrics::RunMetrics::load(dpath);
  std::remove(jpath.c_str());
  std::remove(dpath.c_str());
  const auto uid = metrics::run_content_uid(run);
  EXPECT_EQ(metrics::run_content_uid(from_text), uid);
  EXPECT_EQ(metrics::run_content_uid(from_packed), uid);

  auto tweaked = run;
  tweaked.local_links[0].traffic += 1.0;
  EXPECT_NE(metrics::run_content_uid(tweaked), uid);
}

// ------------------------------------------------------------ writer rule

TEST(DvrWriters, FormatFollowsThePath) {
  using metrics::StoreFormat;
  EXPECT_EQ(metrics::format_for_path("run.json"), StoreFormat::kText);
  EXPECT_EQ(metrics::format_for_path("/tmp/a.b/run.json"),
            StoreFormat::kText);
  EXPECT_EQ(metrics::format_for_path("run.dvr"), StoreFormat::kPacked);
  EXPECT_EQ(metrics::format_for_path("run"), StoreFormat::kPacked);
  EXPECT_EQ(metrics::format_for_path("run.json.bak"), StoreFormat::kPacked);
}

TEST(DvrWriters, SaveToDvrPathWritesPacked) {
  const auto run = dvr_sample_run(true);
  const auto path = temp_path("dv_dvr_save_rule.dvr");
  run.save(path);
  EXPECT_TRUE(metrics::is_dvr_file(path));  // the DVR1 magic
  const auto back = metrics::RunMetrics::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(metrics::run_content_uid(back), metrics::run_content_uid(run));
}

TEST(DvrWriters, SaveToJsonPathWritesTextThatReloadsBitExactly) {
  const auto run = dvr_sample_run(true);
  const auto path = temp_path("dv_dvr_save_rule.json");
  run.save(path);
  EXPECT_FALSE(metrics::is_dvr_file(path));
  std::string text;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    text = buf.str();
  }
  const auto back = metrics::RunMetrics::load(path);
  std::remove(path.c_str());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '{');
  // The content uid hashes every field's bits; the re-dump pins the text.
  EXPECT_EQ(metrics::run_content_uid(back), metrics::run_content_uid(run));
  EXPECT_EQ(json::dump(back.to_json()), text);
}

TEST(DvrFormat, HeaderOnlyOpenReadsNoChunks) {
  const auto run = dvr_sample_run(true);
  const auto path = temp_path("dv_dvr_header.dvr");
  metrics::save_dvr(run, path);
  const auto st0 = metrics::dvr_stats();
  {
    const metrics::DvrFile f(path);
    EXPECT_EQ(f.header().groups, run.groups);
    EXPECT_EQ(f.header().workload, run.workload);
    EXPECT_EQ(f.header().job_names, run.job_names);
    EXPECT_TRUE(f.header().local_links.empty());  // no records
    EXPECT_EQ(f.run_uid(), metrics::run_content_uid(run));
    EXPECT_TRUE(f.header().has_time_series());
    EXPECT_GT(f.chunks().size(), 0u);
    const auto st = metrics::dvr_stats();
    EXPECT_EQ(st.opens - st0.opens, 1u);
    // Metadata is free; payloads untouched.
    EXPECT_EQ(st.chunks_read - st0.chunks_read, 0u);
  }
  std::remove(path.c_str());
}

TEST(DvrFormat, RejectsTruncatedAndForeignFiles) {
  const auto path = temp_path("dv_dvr_bad.dvr");
  {
    std::ofstream os(path, std::ios::binary);
    os << "DVR1";  // magic only: header truncated
  }
  EXPECT_THROW(metrics::DvrFile{path}, Error);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "{\"not\": \"a dvr\"}";
  }
  EXPECT_FALSE(metrics::is_dvr_file(path));
  EXPECT_THROW(metrics::DvrFile{path}, Error);
  std::remove(path.c_str());
}

TEST(DvrFormat, RejectsMalformedChunkDirectory) {
  const auto run = dvr_sample_run(true);
  const auto path = temp_path("dv_dvr_malformed.dvr");
  metrics::save_dvr(run, path);
  std::string orig;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    orig = buf.str();
  }
  auto rd = [](const std::string& b, std::size_t at, auto v) {
    std::memcpy(&v, b.data() + at, sizeof(v));
    return v;
  };
  auto wr = [](std::string& b, std::size_t at, auto v) {
    std::memcpy(b.data() + at, &v, sizeof(v));
  };
  // Fixed header layout (docs/RUN_FORMAT.md): chunk count at byte 72,
  // directory offset at 76; 56-byte directory entries of
  // section/column/dtype/reserved u16s then offset/bytes/rows/row0 u64s.
  const auto n_chunks = rd(orig, 72, std::uint32_t{});
  const auto dir = rd(orig, 76, std::uint64_t{});
  std::size_t series_at = 0, f64_at = 0;
  for (std::uint32_t i = 0; i < n_chunks; ++i) {
    const std::size_t at = dir + i * 56;
    const auto section = rd(orig, at, std::uint16_t{});
    const auto dtype = rd(orig, at + 4, std::uint16_t{});
    const auto rows = rd(orig, at + 24, std::uint64_t{});
    if (rows == 0) continue;
    if (section >= 16 && series_at == 0) series_at = at;
    if (dtype == 1 && f64_at == 0) f64_at = at;  // a kF64 column
  }
  ASSERT_NE(series_at, 0u);
  ASSERT_NE(f64_at, 0u);

  auto expect_rejected = [&](const char* what, auto mutate) {
    std::string bytes = orig;
    mutate(bytes);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.close();
    EXPECT_THROW(metrics::DvrFile{path}, Error) << what;
  };

  // Series chunk whose rows are not a multiple of the entity count: the
  // payload no longer tiles the frames x entities slab, so series() would
  // memcpy past its allocation. bytes is kept consistent with the dtype
  // so only the series-shape validation can catch it.
  expect_rejected("series rows not a multiple of entities", [&](auto& b) {
    const auto rows = rd(b, series_at + 24, std::uint64_t{});
    wr(b, series_at + 24, rows - 1);
    wr(b, series_at + 16, (rows - 1) * sizeof(float));
  });
  // Series chunks claiming the header's entity class is empty while still
  // carrying payload rows.
  expect_rejected("series rows with zero entities", [&](auto& b) {
    const auto section = rd(b, series_at, std::uint16_t{});
    const std::size_t count_at =
        section < 18 ? 56 : section < 20 ? 60 : 64;  // n_local/global/term
    wr(b, count_at, std::uint32_t{0});
  });
  // offset + bytes wrapping past 2^64 — an additive bound check passes.
  expect_rejected("chunk offset overflow", [&](auto& b) {
    wr(b, f64_at + 8, std::numeric_limits<std::uint64_t>::max() - 4);
  });
  // rows * elem_size wrapping back to the real byte count — a
  // multiplicative size/dtype check passes.
  expect_rejected("chunk rows overflow", [&](auto& b) {
    const auto bytes = rd(b, f64_at + 16, std::uint64_t{});
    wr(b, f64_at + 24, (std::uint64_t{1} << 61) + bytes / 8);
  });
  // A frame index far past anything the file can back: frames * entities
  // would overflow the slab allocation arithmetic in series().
  expect_rejected("series frame index overflow", [&](auto& b) {
    wr(b, series_at + 32, std::uint64_t{1} << 62);
  });

  // The pristine bytes still open and materialize.
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(orig.data(), static_cast<std::streamsize>(orig.size()));
  }
  EXPECT_EQ(metrics::run_content_uid(metrics::load_dvr(path)),
            metrics::run_content_uid(run));
  std::remove(path.c_str());
}

TEST(DvrFormat, SampledSeriesAdoptValidates) {
  auto s = metrics::SampledSeries::adopt(2, 10.0, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(s.entities(), 2u);
  EXPECT_EQ(s.frames(), 2u);
  EXPECT_FLOAT_EQ(s.at(1, 0), 3.0f);
  EXPECT_THROW(metrics::SampledSeries::adopt(2, 10.0, {1.0f}), Error);
}

// ------------------------------------------------- text loader satellites

TEST(DvrTextLoader, ToleratesBomCrlfAndTrailingWhitespace) {
  const auto run = dvr_sample_run(false);
  const auto path = temp_path("dv_dvr_crlf.json");
  run.save(path);
  std::string text;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    text = buf.str();
  }
  std::string mangled = "\xEF\xBB\xBF";  // UTF-8 BOM
  for (const char c : text) {
    if (c == '\n') mangled += "\r\n";
    else mangled += c;
  }
  mangled += "\r\n  \t ";
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << mangled;
  }
  const auto back = metrics::RunMetrics::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(metrics::run_content_uid(back), metrics::run_content_uid(run));
}

TEST(DvrTextLoader, ParseErrorsCarryPathAndLine) {
  const auto path = temp_path("dv_dvr_bad_json.json");
  {
    std::ofstream os(path, std::ios::binary);
    os << "{\n  \"groups\": 2,\n  \"oops\n}\n";
  }
  try {
    metrics::RunMetrics::load(path);
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("line"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------- store satellites

TEST(DvrStore, PackedAddUidRoundTripAndAtomicIndex) {
  const auto dir = temp_path("dv_dvr_store_test");
  std::filesystem::remove_all(dir);
  const auto run = dvr_sample_run(false);
  const auto uid = metrics::run_content_uid(run);
  {
    metrics::RunStore store(dir);
    const auto name = store.add(run, "packed_run");
    EXPECT_EQ(name, "packed_run");
    EXPECT_EQ(store.path(name),
              (std::filesystem::path(dir) / "packed_run.dvr").string());
    EXPECT_TRUE(metrics::is_dvr_file(store.path(name)));
    EXPECT_EQ(store.info(name).uid, uid);
    EXPECT_EQ(metrics::run_content_uid(store.load(name)), uid);
  }
  {
    // Reopen: the index round-trips the uid.
    metrics::RunStore store(dir);
    EXPECT_EQ(store.info("packed_run").uid, uid);
    EXPECT_EQ(metrics::run_content_uid(store.load("packed_run")), uid);
  }
  // The atomic index publish never leaves a temp file behind.
  EXPECT_FALSE(
      std::filesystem::exists(std::filesystem::path(dir) / "index.json.tmp"));
  EXPECT_TRUE(
      std::filesystem::exists(std::filesystem::path(dir) / "index.json"));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------- lazy catalog

TEST(ServeLazyCatalog, AttachMaterializesOnFirstGet) {
  const auto run = dvr_sample_run(true);
  const auto path = temp_path("dv_dvr_lazy.dvr");
  metrics::save_dvr(run, path);

  serve::RunCatalog catalog(64, 2);
  const auto name = catalog.attach(path);
  EXPECT_EQ(name, "dv_dvr_lazy");
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.resident(), 0u);
  EXPECT_EQ(catalog.pending(), 1u);
  ASSERT_EQ(catalog.list_pending().size(), 1u);
  EXPECT_TRUE(catalog.list_pending()[0].packed);

  const auto lr = catalog.get(name);  // first touch materializes
  ASSERT_NE(lr, nullptr);
  EXPECT_EQ(lr->name, name);
  EXPECT_EQ(lr->data.run().workload, run.workload);
  EXPECT_EQ(catalog.resident(), 1u);
  EXPECT_EQ(catalog.pending(), 0u);
  EXPECT_EQ(catalog.get(name), lr);  // now a plain lookup
  std::remove(path.c_str());
}

// -------------------------------------------------------------- kernels

TEST(KernelEquivalence, PrefixAddFrame) {
  Rng rng(7);
  for (const std::size_t n : {0u, 1u, 3u, 4u, 7u, 64u, 1000u}) {
    std::vector<float> frame(n);
    std::vector<double> prev(n), got(n), want(n);
    for (std::size_t i = 0; i < n; ++i) {
      frame[i] = static_cast<float>(rng.next_double() * 1e6 - 3e5);
      prev[i] = rng.next_double() * 1e9;
    }
    kernels::prefix_add_frame(frame.data(), prev.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = prev[i] + static_cast<double>(frame[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(bits_equal(got[i], want[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelEquivalence, SpanSum) {
  Rng rng(8);
  std::vector<float> data(17 * 101);
  for (auto& v : data) v = static_cast<float>(rng.next_double() * 100.0);
  double want = 0.0;
  for (const float v : data) want += static_cast<double>(v);
  EXPECT_TRUE(bits_equal(kernels::sum_span(data.data(), data.size()), want));
}

TEST(KernelEquivalence, FilterRangeMaskIncludingNan) {
  Rng rng(9);
  const std::size_t n = 257;
  std::vector<double> col(n);
  for (auto& v : col) v = rng.next_double() * 10.0 - 5.0;
  col[3] = std::numeric_limits<double>::quiet_NaN();
  col[100] = std::numeric_limits<double>::quiet_NaN();
  const double lo = -2.0, hi = 3.0;
  std::vector<unsigned char> got(n, 1), want(n, 1);
  kernels::filter_range_mask(col.data(), n, lo, hi, got.data());
  for (std::size_t i = 0; i < n; ++i) {
    // The scalar filter's exact predicate: reject below/above — a NaN
    // compares false both ways and is kept.
    if (col[i] < lo || col[i] > hi) want[i] = 0;
  }
  EXPECT_EQ(got, want);
}

TEST(KernelEquivalence, MinMax) {
  Rng rng(10);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 5u, 128u, 1001u}) {
    std::vector<float> f(n);
    std::vector<double> d(n);
    for (std::size_t i = 0; i < n; ++i) {
      f[i] = static_cast<float>(rng.next_double() * 2e3 - 1e3);
      d[i] = rng.next_double() * 2e3 - 1e3;
    }
    float flo = 1.0f, fhi = -1.0f;
    kernels::minmax_f32(f.data(), n, flo, fhi);
    double dlo = 1.0, dhi = -1.0;
    kernels::minmax_f64(d.data(), n, dlo, dhi);
    if (n == 0) {
      EXPECT_EQ(flo, 0.0f);
      EXPECT_EQ(dhi, 0.0);
      continue;
    }
    EXPECT_EQ(flo, *std::min_element(f.begin(), f.end()));
    EXPECT_EQ(fhi, *std::max_element(f.begin(), f.end()));
    EXPECT_EQ(dlo, *std::min_element(d.begin(), d.end()));
    EXPECT_EQ(dhi, *std::max_element(d.begin(), d.end()));
  }
}

TEST(KernelEquivalence, GatherSum) {
  Rng rng(11);
  std::vector<double> col(500);
  for (auto& v : col) v = rng.next_double() * 1e7;
  std::vector<std::uint32_t> rows;
  for (int i = 0; i < 237; ++i) {
    rows.push_back(static_cast<std::uint32_t>(rng.next_below(col.size())));
  }
  double want = 0.0;
  for (const auto r : rows) want += col[r];
  EXPECT_TRUE(bits_equal(
      kernels::gather_sum(col.data(), rows.data(), rows.size()), want));
}

}  // namespace
}  // namespace dv
