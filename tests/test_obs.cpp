// Observability layer: counters, gauges, phase timers, profile round-trip,
// and the guarantee that profiling never perturbs simulation results.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "app/runner.hpp"
#include "json/json.hpp"
#include "obs/profile.hpp"
#include "util/threadpool.hpp"
#include "profile_reader.hpp"

namespace dv {
namespace {

// The whole suite assumes the instrumented build; the OFF configuration is
// exercised by the CI matrix instead (everything compiles to no-ops there).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kEnabled) GTEST_SKIP() << "built with DV_OBS_ENABLED=OFF";
    obs::reset();
  }
};

TEST_F(ObsTest, CounterAccumulatesAndSurvivesReset) {
  obs::Counter& c = obs::counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  obs::reset();
  EXPECT_EQ(c.value(), 0u);           // zeroed...
  c.add(7);
  EXPECT_EQ(obs::counter("test.counter").value(), 7u);  // ...same handle
}

TEST_F(ObsTest, GaugeSetAddMax) {
  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.record_max(3.0);  // below current: no change
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.record_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
}

TEST_F(ObsTest, SnapshotSkipsZeroesAndSorts) {
  obs::counter("b.used").add(2);
  obs::counter("a.used").add(1);
  obs::counter("z.unused");  // stays zero
  const obs::Snapshot s = obs::snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].name, "a.used");
  EXPECT_EQ(s.counters[1].name, "b.used");
}

TEST_F(ObsTest, PhasesNestIntoSlashPaths) {
  {
    obs::ScopedPhase outer("outer");
    {
      obs::ScopedPhase inner("inner");
    }
    {
      obs::ScopedPhase inner("inner");
    }
  }
  {
    obs::ScopedPhase outer("outer");
  }
  const obs::Snapshot s = obs::snapshot();
  ASSERT_EQ(s.phases.size(), 2u);  // sorted: "outer", "outer/inner"
  EXPECT_EQ(s.phases[0].path, "outer");
  EXPECT_EQ(s.phases[0].count, 2u);
  EXPECT_EQ(s.phases[1].path, "outer/inner");
  EXPECT_EQ(s.phases[1].count, 2u);
  // The outer phase encloses the inner one, so its time dominates.
  EXPECT_GE(s.phases[0].seconds, s.phases[1].seconds);
}

TEST_F(ObsTest, PhaseStacksArePerThread) {
  obs::ScopedPhase outer("main_phase");
  std::thread t([] {
    obs::ScopedPhase p("worker_phase");  // must NOT nest under main_phase
  });
  t.join();
  const obs::Snapshot s = obs::snapshot();
  bool found = false;
  for (const auto& ph : s.phases) {
    if (ph.path == "worker_phase") found = true;
    EXPECT_EQ(ph.path.find("main_phase/worker_phase"), std::string::npos);
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, CountersAreThreadSafeUnderThreadPool) {
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kPerTask = 10'000;
  obs::Counter& c = obs::counter("test.mt");
  {
    ThreadPool pool(8);  // joined, every task run, at scope end
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.submit([&c] {
        for (std::uint64_t n = 0; n < kPerTask; ++n) c.add();
      });
    }
  }
  EXPECT_EQ(c.value(), kTasks * kPerTask);
}

TEST_F(ObsTest, ProfileJsonRoundTrip) {
  obs::counter("rt.packets").add(123);
  obs::gauge("rt.rate").set(4.5e6);
  {
    obs::ScopedPhase p("rt_phase");
  }
  const obs::RunProfile a = obs::capture();
  const obs::RunProfile b = testing::profile_from_json(
      json::parse(json::dump(a.to_json(), 2)));
  EXPECT_DOUBLE_EQ(b.wall_seconds, a.wall_seconds);
  ASSERT_EQ(b.counters.size(), a.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(b.counters[i].name, a.counters[i].name);
    EXPECT_EQ(b.counters[i].value, a.counters[i].value);
  }
  EXPECT_DOUBLE_EQ(testing::gauge_value(b, "rt.rate"), 4.5e6);
  ASSERT_EQ(b.phases.size(), a.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(b.phases[i].path, a.phases[i].path);
    EXPECT_DOUBLE_EQ(b.phases[i].seconds, a.phases[i].seconds);
    EXPECT_EQ(b.phases[i].count, a.phases[i].count);
  }
  EXPECT_EQ(b.counter_value("rt.packets"), 123u);
  EXPECT_EQ(b.counter_value("rt.missing"), 0u);
}

TEST_F(ObsTest, ProfileSchemaMismatchThrows) {
  EXPECT_THROW(testing::profile_from_json(json::parse("{\"schema\":\"x\"}")),
               Error);
}

app::ExperimentConfig small_config() {
  app::ExperimentConfig cfg;
  cfg.dragonfly_p = 2;
  cfg.jobs = {{"uniform_random", 24, placement::Policy::kContiguous, 1 << 20}};
  cfg.window = 5.0e4;
  cfg.sample_dt = 5'000.0;
  cfg.seed = 11;
  return cfg;
}

TEST_F(ObsTest, ExperimentProfileHasCountersAndPhases) {
  const auto result = app::run_experiment(small_config());
  const obs::RunProfile& p = result.profile;
  EXPECT_GT(p.counter_value("sim.events_processed"), 0u);
  EXPECT_GT(p.counter_value("net.packets_delivered"), 0u);
  EXPECT_EQ(p.counter_value("net.bytes_injected"),
            p.counter_value("net.bytes_delivered"));
  EXPECT_EQ(p.counter_value("net.route.minimal") +
                p.counter_value("net.route.nonminimal"),
            p.counter_value("net.packets_injected"));
  EXPECT_GE(p.counters.size(), 10u);
  // Top-level phases (setup / sim / collect) account for most of the wall.
  EXPECT_GT(p.wall_seconds, 0.0);
  EXPECT_GT(testing::top_level_phase_seconds(p), 0.0);
  EXPECT_LE(testing::top_level_phase_seconds(p), p.wall_seconds * 1.01);
  bool saw_sim = false;
  for (const auto& ph : p.phases) saw_sim |= ph.path == "sim";
  EXPECT_TRUE(saw_sim);
}

TEST_F(ObsTest, EventRateIsCumulativeOverASampledRun) {
  // A sampled run steps the engine once per sample tick; the rate covers
  // every tick, not just the last one.
  const auto result = app::run_experiment(small_config());
  const obs::RunProfile& p = result.profile;
  ASSERT_GT(result.run.global_traffic_ts.frames(), 2u);
  const double seconds = testing::gauge_value(p, "sim.run_seconds");
  ASSERT_GT(seconds, 0.0);
  EXPECT_DOUBLE_EQ(
      testing::gauge_value(p, "sim.events_per_sec"),
      static_cast<double>(p.counter_value("sim.events_processed")) / seconds);
}

TEST_F(ObsTest, FlowSimPhasesCoverTheSimulation) {
  // The flow engine's ev.* phases (layout, issue, drain, solve, target,
  // sample, activate) must account for the "sim" phase, so unattributed
  // time shows up as a number instead of hiding inside it.
  app::ExperimentConfig cfg;
  cfg.dragonfly_p = 3;
  cfg.jobs = {{"uniform_random", 0, placement::Policy::kContiguous, 0}};
  cfg.window = 1.0e5;
  cfg.synthetic_bytes_per_rank = 64 * 1024;
  cfg.sample_dt = 2'000.0;
  cfg.seed = 7;
  cfg.backend = app::Backend::kFlow;
  const obs::RunProfile p = app::run_experiment(cfg).profile;
  double sim = 0.0, children = 0.0;
  for (const auto& ph : p.phases) {
    if (ph.path == "sim") sim = ph.seconds;
    const bool child = ph.path.rfind("sim/", 0) == 0 &&
                       ph.path.find('/', 4) == std::string::npos;
    if (child) children += ph.seconds;
  }
  ASSERT_GT(sim, 0.0);
  EXPECT_GE(children, 0.95 * sim)
      << "sim/* phases cover " << children / sim << " of sim";
}

TEST_F(ObsTest, ProfilingDoesNotChangeRunMetrics) {
  // Same seeded experiment with the registry reset + captured vs. run
  // "cold": the serialized RunMetrics must be bit-identical. (capture()
  // itself is exercised by run_experiment in both cases; what differs is
  // the registry state around the run.)
  obs::reset();
  const auto with_profile = app::run_experiment(small_config());
  EXPECT_FALSE(with_profile.profile.empty());

  obs::counter("noise").add(999);  // dirty registry, no reset this time
  const auto again = app::run_experiment(small_config());

  EXPECT_EQ(json::dump(with_profile.run.to_json()),
            json::dump(again.run.to_json()));
}

}  // namespace
}  // namespace dv
