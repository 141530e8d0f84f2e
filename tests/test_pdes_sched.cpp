// Differential property tests for the bounded-horizon bucket scheduler.
//
// The BucketSched contract is purely about *order*: whatever mix of
// bucketed and heap-backed storage events land in, pops must come out in
// strict (time, pri, seq) order — identical to a std::priority_queue
// reference. The generators below stress the structural edge cases:
// sub-width and zero delays into the active bucket, pushes behind the
// drain cursor after a heap re-anchor, far-future events beyond the
// horizon, and deliberate (time, pri, seq) tie collisions.
#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "pdes/bucket_sched.hpp"
#include "pdes/engine.hpp"
#include "util/rng.hpp"

namespace dv::pdes {
namespace {

bool ref_after(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time > b.time;
  if (a.pri != b.pri) return a.pri > b.pri;
  return a.seq > b.seq;
}

/// Min-queue on the engine's full (time, pri, seq) order.
using RefQueue =
    std::priority_queue<Event, std::vector<Event>, decltype(&ref_after)>;

/// Drives a BucketSched and the reference queue through the same random
/// push/pop interleaving and asserts every popped event matches.
void run_differential(double width, std::size_t buckets, std::uint64_t seed,
                      int ops, double max_delay, std::uint64_t pri_range,
                      double zero_delay_frac) {
  BucketSched<Event> sched;
  if (width > 0.0) sched.configure(width, buckets);
  RefQueue ref(ref_after);
  Rng rng(seed, 0);

  double now = 0.0;
  std::uint64_t seq = 0;
  for (int op = 0; op < ops; ++op) {
    const bool push = ref.empty() || rng.next_double() < 0.55;
    if (push) {
      // Delays from now: a slug of zero/sub-width delays plus a heavy tail
      // that regularly clears the bucket horizon.
      double delay = rng.next_double() < zero_delay_frac
                         ? 0.0
                         : rng.next_double() * max_delay;
      Event ev{.time = now + delay,
               .pri = rng.next_below(pri_range),
               .seq = seq++,
               .lp = 0,
               .kind = static_cast<std::uint32_t>(op)};
      sched.push(ev);
      ref.push(ev);
    } else {
      const Event want = ref.top();
      ref.pop();
      ASSERT_FALSE(sched.empty());
      const Event& t = sched.top();
      EXPECT_EQ(t.time, want.time);
      EXPECT_EQ(t.pri, want.pri);
      EXPECT_EQ(t.seq, want.seq);
      Event got;
      sched.pop_into(got);
      ASSERT_EQ(got.time, want.time);
      ASSERT_EQ(got.pri, want.pri);
      ASSERT_EQ(got.seq, want.seq);
      EXPECT_EQ(got.kind, want.kind);
      now = got.time;  // pops advance the clock like an engine loop does
    }
  }
  // Drain whatever is left and compare the tails too.
  while (!ref.empty()) {
    const Event want = ref.top();
    ref.pop();
    Event got;
    sched.pop_into(got);
    ASSERT_EQ(got.seq, want.seq);
    ASSERT_EQ(got.time, want.time);
  }
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.size(), 0u);
}

TEST(PdesSched, MatchesReferenceNearFutureOnly) {
  // Delays well inside the horizon: almost everything bucketed.
  run_differential(/*width=*/1.0, /*buckets=*/64, /*seed=*/1, /*ops=*/20000,
                   /*max_delay=*/20.0, /*pri_range=*/1000,
                   /*zero_delay_frac=*/0.1);
}

TEST(PdesSched, MatchesReferenceAcrossHorizonSpills) {
  // Heavy tail: many pushes land beyond buckets*width and fall back to the
  // heap, then re-enter the window as the clock advances (re-anchor path).
  run_differential(/*width=*/1.0, /*buckets=*/8, /*seed=*/2, /*ops=*/20000,
                   /*max_delay=*/100.0, /*pri_range=*/1000,
                   /*zero_delay_frac=*/0.1);
}

TEST(PdesSched, MatchesReferenceWithTieCollisions) {
  // Tiny pri range + many zero delays: constant (time, pri) collisions so
  // the seq tie-breaker carries the order.
  run_differential(/*width=*/2.0, /*buckets=*/16, /*seed=*/3, /*ops=*/20000,
                   /*max_delay=*/6.0, /*pri_range=*/2,
                   /*zero_delay_frac=*/0.5);
}

TEST(PdesSched, MatchesReferenceSubWidthDelays) {
  // Every delay is below the bucket width: the ordered-insert slow path
  // into the sorted active bucket runs constantly.
  run_differential(/*width=*/10.0, /*buckets=*/8, /*seed=*/4, /*ops=*/10000,
                   /*max_delay=*/5.0, /*pri_range=*/100,
                   /*zero_delay_frac=*/0.3);
}

TEST(PdesSched, MatchesReferenceUnbucketed) {
  // width = 0: pure fallback heap, same contract.
  run_differential(/*width=*/0.0, /*buckets=*/0, /*seed=*/5, /*ops=*/10000,
                   /*max_delay=*/50.0, /*pri_range=*/100,
                   /*zero_delay_frac=*/0.2);
}

TEST(PdesSched, ExactTiesPopInScheduleOrder) {
  BucketSched<Event> sched;
  sched.configure(1.0, 16);
  for (std::uint64_t s = 0; s < 10; ++s) {
    sched.push(Event{.time = 3.5, .pri = 7, .seq = 9 - s});
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    Event ev;
    sched.pop_into(ev);
    EXPECT_EQ(ev.seq, s);
  }
}

TEST(PdesSched, CountersAttributeBucketAndHeapPushes) {
  BucketSched<Event> sched;
  sched.configure(1.0, 4);  // horizon = [0, 4)
  sched.push(Event{.time = 1.0, .seq = 0});
  sched.push(Event{.time = 1.2, .seq = 1});
  sched.push(Event{.time = 3.9, .seq = 2});
  sched.push(Event{.time = 4.1, .seq = 3});  // beyond the horizon
  EXPECT_EQ(sched.stats().bucket_pushes, 3u);
  EXPECT_EQ(sched.stats().heap_pushes, 1u);
  EXPECT_EQ(sched.stats().bucket_sorts, 0u);  // sorts wait for the cursor
  Event ev;
  sched.pop_into(ev);
  EXPECT_EQ(ev.seq, 0u);
  EXPECT_EQ(sched.stats().bucket_sorts, 1u);
  EXPECT_EQ(sched.stats().sorted_events, 2u);
  // A sub-width push into the bucket being drained is an ordered insert.
  sched.push(Event{.time = 1.1, .seq = 4});
  EXPECT_EQ(sched.stats().ordered_inserts, 1u);
  for (const std::uint64_t seq : {4u, 1u, 2u, 3u}) {
    sched.pop_into(ev);
    EXPECT_EQ(ev.seq, seq);
  }
  EXPECT_EQ(sched.stats().bucket_sorts, 2u);
  EXPECT_EQ(sched.stats().sorted_events, 3u);
  EXPECT_EQ(sched.stats().ordered_inserts, 1u);
}

TEST(PdesSched, ConfigureRequiresEmptyScheduler) {
  BucketSched<Event> sched;
  sched.push(Event{.time = 1.0});
  EXPECT_THROW(sched.configure(1.0), Error);
}

/// Drives a scheduler and the reference queue in bursts: each phase pushes
/// a batch of events, pops them all (each pop may schedule a follow-up, as
/// a handler would) until both are empty, then jumps the clock. Fully
/// drained buckets hand their storage to the spare stack and later
/// buckets take it back; a jump past the horizon re-anchors the window
/// through the fallback heap.
class BurstDriver {
 public:
  BurstDriver(BucketSched<Event>& sched, std::uint64_t seed)
      : sched_(sched), ref_(ref_after), rng_(seed, 0) {}

  void phases(int count, int max_burst, double span, double max_gap) {
    for (int p = 0; p < count; ++p) {
      const auto n = 1 + rng_.next_below(static_cast<std::uint64_t>(max_burst));
      for (std::uint64_t i = 0; i < n; ++i) push(rng_.next_double() * span);
      while (!ref_.empty()) {
        pop_and_compare();
        if (::testing::Test::HasFatalFailure()) return;
        if (rng_.next_double() < 0.3) push(rng_.next_double() * span * 0.1);
      }
      ASSERT_TRUE(sched_.empty());
      now_ += rng_.next_double() * max_gap;
    }
  }

 private:
  void push(double delay) {
    const Event ev{.time = now_ + delay, .pri = rng_.next_below(50),
                   .seq = seq_++};
    sched_.push(ev);
    ref_.push(ev);
  }

  void pop_and_compare() {
    const Event want = ref_.top();
    ref_.pop();
    ASSERT_FALSE(sched_.empty());
    Event got;
    sched_.pop_into(got);
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.pri, want.pri);
    ASSERT_EQ(got.seq, want.seq);
    now_ = got.time;
  }

  BucketSched<Event>& sched_;
  RefQueue ref_;
  Rng rng_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
};

TEST(PdesSched, MatchesReferenceAcrossDrainsAndRefills) {
  BucketSched<Event> sched;
  sched.configure(1.0, 16);
  BurstDriver drive(sched, 12);
  // Gaps up to 4x the 16-unit horizon: many phases start beyond it and
  // re-anchor, others refill buckets in the same window.
  drive.phases(/*count=*/300, /*max_burst=*/200, /*span=*/24.0,
               /*max_gap=*/64.0);
}

TEST(PdesSched, ConfigureAfterDrainStartsClean) {
  BucketSched<Event> sched;
  sched.configure(1.0, 8);
  BurstDriver(sched, 13).phases(50, 100, 12.0, 30.0);
  ASSERT_TRUE(sched.empty());
  // Storage freed under the old layout must not leak into the new one.
  sched.configure(0.25, 64);
  BurstDriver(sched, 14).phases(50, 100, 20.0, 40.0);
  sched.configure(0.0);
  BurstDriver(sched, 15).phases(20, 100, 20.0, 40.0);
  EXPECT_GT(sched.stats().bucket_pushes, 0u);
  EXPECT_GT(sched.stats().heap_pushes, 0u);
}

/// The same model run with and without bucketing must produce the same
/// event trace — set_bucket_granularity is a pure scheduling-cost knob.
class TraceLp : public LogicalProcess {
 public:
  explicit TraceLp(std::uint64_t seed) : rng_(seed, 7) {}
  std::vector<SimTime> trace;

  void on_event(Simulator& sim, const Event& ev) override {
    trace.push_back(sim.now());
    // Mixed delays — sub-width, in-window and far-future — capped by a
    // spawn budget so the run terminates.
    if (spawned_ < 3000) {
      ++spawned_;
      sim.schedule_in(rng_.next_double() * 30.0, ev.lp, ev.kind);
    }
    if (spawned_ < 3000) {
      ++spawned_;
      sim.schedule_in(0.25, ev.lp, ev.kind);
    }
  }

 private:
  Rng rng_;
  int spawned_ = 0;
};

TEST(PdesSched, BucketedSimulatorMatchesUnbucketed) {
  std::vector<SimTime> traces[2];
  for (int pass = 0; pass < 2; ++pass) {
    Simulator sim;
    if (pass == 1) sim.set_bucket_granularity(2.0, 8);
    TraceLp lp(99);
    const LpId id = sim.add_lp(&lp);
    for (std::uint32_t i = 0; i < 8; ++i) sim.schedule(0.5 * i, id, 0);
    sim.run();
    traces[pass] = lp.trace;
  }
  ASSERT_EQ(traces[0].size(), traces[1].size());
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(PdesSched, EventHeapPopIntoMatchesPop) {
  EventHeap<Event> heap;
  Rng rng(11, 0);
  for (std::uint64_t s = 0; s < 200; ++s) {
    heap.push(Event{.time = rng.next_double() * 50.0,
                    .pri = rng.next_below(4), .seq = s});
  }
  Event prev{};
  bool first = true;
  while (!heap.empty()) {
    Event ev;
    heap.pop_into(ev);
    if (!first) {
      const bool ordered =
          prev.time < ev.time ||
          (prev.time == ev.time &&
           (prev.pri < ev.pri || (prev.pri == ev.pri && prev.seq < ev.seq)));
      EXPECT_TRUE(ordered);
    }
    prev = ev;
    first = false;
  }
}

}  // namespace
}  // namespace dv::pdes
