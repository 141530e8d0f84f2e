// Unit tests for src/util: rng, stats, strings, colors, csv, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <set>
#include <string>

#include <deque>

#include "util/color.hpp"
#include "util/csv.hpp"
#include "util/ring_queue.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/str.hpp"
#include "util/threadpool.hpp"
#include "csv_reader.hpp"

namespace dv {
namespace {

// ----------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeedAndStream) {
  Rng a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsDiverge) {
  Rng a(42, 0), b(42, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(1);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, NextBelowZeroThrows) {
  Rng r(3);
  EXPECT_THROW(r.next_below(0), Error);
}

TEST(Rng, NextRangeInclusive) {
  Rng r(4);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo_seen |= (v == -3);
    hi_seen |= (v == 3);
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, UniformMeanIsHalf) {
  Rng r(5);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(r.next_double());
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, PickFromEmptyThrows) {
  Rng r(8);
  std::vector<int> empty;
  EXPECT_THROW(r.pick(empty), Error);
}

// ----------------------------------------------------------------- stats

TEST(Accumulator, BasicMoments) {
  Accumulator a;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(v);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.variance(), 4.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
}

TEST(Percentile, ExactValues) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Percentile, EmptyThrows) {
  EXPECT_THROW(percentile({}, 0.5), Error);
}

// ----------------------------------------------------------------- strings

TEST(Str, SplitJoinRoundTrip) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, ","), "a,b,,c");
}

TEST(Str, Trim) {
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Str, HumanBytes) {
  EXPECT_EQ(human_bytes(1.2e9), "1.12 GB");
  EXPECT_EQ(human_bytes(512), "512.0 B");
}

TEST(Str, FmtDoubleTrimsZeros) {
  EXPECT_EQ(fmt_double(1.5), "1.5");
  EXPECT_EQ(fmt_double(2.0), "2");
  EXPECT_EQ(fmt_double(0.375, 2), "0.38");
  EXPECT_EQ(fmt_double(1.0 / 3.0, 3), "0.333");
}

/// The formatter append_fixed replaced: snprintf("%.*f"), then trailing
/// zeros and a trailing '.' dropped.
std::string printf_fixed(double v, int decimals) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (s.back() == '0') s.pop_back();
    if (s.back() == '.') s.pop_back();
  }
  return s;
}

::testing::AssertionResult fixed_matches(double v, int decimals) {
  std::string got = "prefix:";
  append_fixed(got, v, decimals);
  const std::string want = "prefix:" + printf_fixed(v, decimals);
  if (got == want && fmt_double(v, decimals) == want.substr(7)) {
    return ::testing::AssertionSuccess();
  }
  // AssertionResult streams each part into a fresh message, so a
  // std::hex would not reach the next part: format the bits first.
  const auto raw = std::bit_cast<std::uint64_t>(v);
  char bits[17];
  std::snprintf(bits, sizeof(bits), "%016llx",
                static_cast<unsigned long long>(raw));
  return ::testing::AssertionFailure()
         << "bits 0x" << bits << " at " << decimals << " decimals: got '"
         << got << "', printf gives '" << want << "'";
}

TEST(Str, FixedAppenderMatchesPrintf) {
  const double edge[] = {
      0.0, -0.0, -0.0004, 0.0004, 0.0005, -0.0005, 0.0625, -0.0625, 2.5,
      0.5, 1.5, -2.5, 0.125, 0.375, 2.675, 1.005, 1e-4, -1e-4, 999.9995,
      1e15, -1e15, 1e15 + 0.5, 123456789.0625,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3,
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  for (const double v : edge) {
    for (int d = 0; d <= 3; ++d) EXPECT_TRUE(fixed_matches(v, d));
  }

  // 10^6 splitmix draws across magnitudes 1e-6 .. 1e15, half of them
  // exact binary fractions (k / 2^m), which hit printf's round-half-even
  // ties at some precision.
  std::uint64_t state = 20240917;
  int failures = 0;
  for (int i = 0; i < 1'000'000 && failures < 10; ++i) {
    const std::uint64_t a = splitmix64(state), b = splitmix64(state);
    double v;
    if (a & 1) {
      const double unit = static_cast<double>(b >> 11) * 0x1.0p-53;
      v = unit * std::pow(10.0, static_cast<double>((a >> 2) % 22) - 6.0);
    } else {
      const auto k = static_cast<double>(b >> 40);  // < 2^24
      v = std::ldexp(k, -static_cast<int>((a >> 2) & 15));
    }
    if (a & 2) v = -v;
    if (!fixed_matches(v, i % 4)) {
      ADD_FAILURE() << fixed_matches(v, i % 4).message();
      ++failures;
    }
  }
  EXPECT_EQ(failures, 0);

  // The integer fast path's edges: |v|·10^d around 2^32 (where it hands
  // over to to_chars), values within a few ulps of a .5 tie at 3 decimals,
  // and 4..9 decimals, each one ulp either side as well.
  auto check_near = [&failures](double v, int d) {
    for (const double w : {std::nextafter(v, -1e300), v,
                           std::nextafter(v, 1e300)}) {
      for (const double s : {w, -w}) {
        if (failures < 10 && !fixed_matches(s, d)) {
          ADD_FAILURE() << fixed_matches(s, d).message();
          ++failures;
        }
      }
    }
  };
  for (int d = 0; d <= 9; ++d) {
    const double scale = std::pow(10.0, d);
    for (const double a : {0x1p32 - 1.0, 0x1p32 - 0.5, 0x1p32 - 0x1p-9,
                           0x1p32, 0x1p32 + 0.5, 0x1p31 + 0.5,
                           0x1p31 + 0.25, 0x1p32 - 1.5}) {
      check_near(a / scale, d);
    }
  }
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t a = splitmix64(state), b = splitmix64(state);
    const auto k = static_cast<double>(b >> 42);  // < 2^22
    // (k + 1/2) / 1000 is not a binary fraction, so the double nearest
    // it lies just above or below the tie.
    check_near((k + 0.5) / 1000.0, 3);
    const int d = 4 + static_cast<int>(a % 6);
    const double unit = static_cast<double>(a >> 11) * 0x1.0p-53;
    check_near(unit * std::pow(10.0, static_cast<double>((b >> 2) % 14) - 4.0),
               d);
    check_near((k + 0.5) / std::pow(10.0, d), d);
  }
  EXPECT_EQ(failures, 0);
  EXPECT_THROW(fmt_double(1.0, -1), Error);
  EXPECT_THROW(fmt_double(1.0, 65), Error);
}

// ----------------------------------------------------------------- colors

TEST(Color, ParseHexAndNames) {
  EXPECT_EQ(parse_color("#ff0000"), (Rgb{255, 0, 0}));
  EXPECT_EQ(parse_color("#f00"), (Rgb{255, 0, 0}));
  EXPECT_EQ(parse_color("steelblue"), (Rgb{70, 130, 180}));
  EXPECT_EQ(parse_color("  White "), (Rgb{255, 255, 255}));
  EXPECT_THROW(parse_color("notacolor"), Error);
  EXPECT_THROW(parse_color("#12345"), Error);
}

TEST(Color, HexRoundTrip) {
  const Rgb c{70, 130, 180, 255};
  EXPECT_EQ(parse_color(c.hex()), c);
}

TEST(Color, HexMatchesPrintf) {
  for (int v = 0; v < 256; ++v) {
    const auto u = static_cast<std::uint8_t>(v);
    const std::uint8_t w = 255 - u;
    for (const Rgb c : {Rgb{u, w, u, 255}, Rgb{w, u, 7, u}}) {
      char want[16];
      if (c.a == 255) {
        std::snprintf(want, sizeof(want), "#%02x%02x%02x", c.r, c.g, c.b);
      } else {
        std::snprintf(want, sizeof(want), "#%02x%02x%02x%02x", c.r, c.g,
                      c.b, c.a);
      }
      std::string got = "x";
      c.append_hex(got);
      EXPECT_EQ(got, std::string("x") + want);
      EXPECT_EQ(c.hex(), want);
    }
  }
}

TEST(Color, LerpEndpointsAndMidpoint) {
  const Rgb w{255, 255, 255}, b{0, 0, 0};
  EXPECT_EQ(lerp(w, b, 0.0), w);
  EXPECT_EQ(lerp(w, b, 1.0), b);
  const Rgb mid = lerp(w, b, 0.5);
  EXPECT_NEAR(mid.r, 128, 1);
}

TEST(ColorRamp, MultiStop) {
  const auto ramp =
      ColorRamp::from_names({"white", "purple"});
  EXPECT_EQ(ramp.at(0.0), parse_color("white"));
  EXPECT_EQ(ramp.at(1.0), parse_color("purple"));
  const auto ramp3 = ColorRamp::from_names({"green", "orange", "brown"});
  EXPECT_EQ(ramp3.at(0.5), parse_color("orange"));
}

TEST(ColorRamp, SingleStopIsConstant) {
  const ColorRamp ramp({Rgb{1, 2, 3}});
  EXPECT_EQ(ramp.at(0.0), ramp.at(0.7));
}

// ----------------------------------------------------------------- csv

TEST(Csv, RoundTripWithQuoting) {
  CsvTable t;
  t.header = {"a", "b"};
  t.rows = {{"1", "plain"}, {"2", "with,comma"}, {"3", "with\"quote"}};
  const auto parsed = testing::parse_csv(testing::to_csv_string(t));
  EXPECT_EQ(parsed.header, t.header);
  EXPECT_EQ(parsed.rows, t.rows);
}

TEST(Csv, UnterminatedQuoteThrows) {
  EXPECT_THROW(testing::parse_csv("a,b\n\"oops"), Error);
}

// ----------------------------------------------------------------- pool

TEST(ThreadPool, DestructorRunsEveryQueuedTask) {
  std::atomic<int> n{0};
  {
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    for (int i = 0; i < 500; ++i) pool.submit([&] { n++; });
  }
  EXPECT_EQ(n.load(), 500);
}

TEST(ThreadPool, TrySubmitRejectsWhenMaxQueuedTasksWait) {
  std::promise<void> started;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    pool.submit([&] {
      started.set_value();
      open.wait();
    });
    started.get_future().wait();  // the only worker is busy; queue empty
    EXPECT_EQ(pool.queued(), 0u);
    EXPECT_TRUE(pool.try_submit([&] { ran++; }, 2));
    EXPECT_TRUE(pool.try_submit([&] { ran++; }, 2));
    EXPECT_EQ(pool.queued(), 2u);
    EXPECT_FALSE(pool.try_submit([&] { ran += 100; }, 2));
    EXPECT_FALSE(pool.try_submit([&] { ran += 100; }, 0));
    EXPECT_EQ(pool.queued(), 2u);
    gate.set_value();
  }
  EXPECT_EQ(ran.load(), 2);  // the rejected tasks never ran
}

TEST(ThreadPool, ZeroThreadsIsRejected) {
  EXPECT_THROW(ThreadPool(0), Error);
}

// ----------------------------------------------------------------- RingQueue

TEST(RingQueue, FifoBasics) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 20; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, WrapsAroundSteadyState) {
  // Keep the size constant so head circles the storage block many times
  // without triggering growth.
  RingQueue<int> q;
  std::deque<int> ref;
  for (int i = 0; i < 6; ++i) {
    q.push_back(i);
    ref.push_back(i);
  }
  for (int i = 6; i < 1000; ++i) {
    q.push_back(i);
    ref.push_back(i);
    ASSERT_EQ(q.front(), ref.front());
    q.pop_front();
    ref.pop_front();
    ASSERT_EQ(q.size(), ref.size());
  }
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(q[i], ref[i]);
}

TEST(RingQueue, IndexedAccessMatchesInsertionOrder) {
  RingQueue<int> q;
  for (int i = 0; i < 5; ++i) q.push_back(i);
  q.pop_front();
  q.pop_front();
  q.push_back(5);
  q.push_back(6);  // storage now wraps
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q[i], static_cast<int>(i) + 2);
  }
}

TEST(RingQueue, EraseAtMatchesDeque) {
  // Randomized differential test against std::deque, covering both the
  // shift-front and shift-back paths of erase_at.
  Rng rng(123);
  RingQueue<int> q;
  std::deque<int> ref;
  for (int step = 0; step < 5000; ++step) {
    const auto op = rng.next_below(4);
    if (op < 2 || ref.empty()) {
      const int v = static_cast<int>(rng.next_below(100000));
      q.push_back(v);
      ref.push_back(v);
    } else if (op == 2) {
      q.pop_front();
      ref.pop_front();
    } else {
      const auto i = static_cast<std::size_t>(rng.next_below(ref.size()));
      q.erase_at(i);
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_EQ(q.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(q.front(), ref.front());
    }
  }
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(q[i], ref[i]);
}

TEST(RingQueue, ClearResets) {
  RingQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push_back(i);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push_back(7);
  EXPECT_EQ(q.front(), 7);
}

/// The message a throwing call raises ("" when it does not throw).
template <class F>
std::string error_of(F f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Errors, RequirementCarriesItsMessageAlone) {
  const int n = 3;
  EXPECT_EQ(error_of([&] { DV_REQUIRE(n < 2, "n must stay below 2"); }),
            "n must stay below 2");
  EXPECT_EQ(error_of([&] { DV_REQUIRE(n < 4, "unreached"); }), "");
}

TEST(Errors, InvariantNamesItsExpressionAndSourceLine) {
  const int n = 3;
  const int line = __LINE__ + 1;
  const std::string err = error_of([&] { DV_CHECK(n == 2, "n drifted"); });
  EXPECT_EQ(err, "invariant failed: n drifted [n == 2 at tests/test_util.cpp:" +
                     std::to_string(line) + "]");
}

}  // namespace
}  // namespace dv
