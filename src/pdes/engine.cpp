#include "pdes/engine.hpp"

#include <chrono>

#include "obs/obs.hpp"

namespace dv::pdes {

LpId Simulator::add_lp(LogicalProcess* lp) {
  DV_REQUIRE(lp != nullptr, "null logical process");
  lps_.push_back(lp);
  return static_cast<LpId>(lps_.size() - 1);
}

void Simulator::set_kind_label(std::uint32_t kind, std::string label) {
  if (kind_labels_.size() <= kind) kind_labels_.resize(kind + 1);
  kind_labels_[kind] = std::move(label);
}

void Simulator::schedule(SimTime t, LpId lp, std::uint32_t kind,
                         std::uint64_t data0, std::uint64_t data1,
                         std::uint64_t pri) {
  DV_REQUIRE(lp < lps_.size(), "schedule to unknown LP");
  DV_REQUIRE(t >= now_, "cannot schedule into the past");
  queue_.push(Event{.time = t, .pri = pri, .seq = next_seq_++, .lp = lp,
                    .kind = kind, .data0 = data0, .data1 = data1});
#ifdef DV_OBS_ENABLED
  if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
#endif
}

void Simulator::schedule_in(SimTime delay, LpId lp, std::uint32_t kind,
                            std::uint64_t data0, std::uint64_t data1,
                            std::uint64_t pri) {
  DV_REQUIRE(delay >= 0.0, "negative delay");
  schedule(now_ + delay, lp, kind, data0, data1, pri);
}

void Simulator::dispatch(const Event& ev) {
  now_ = ev.time;
  ++events_processed_;
  if (budget_ != 0 && events_processed_ > budget_) {
    throw Error("simulation event budget exceeded");
  }
#ifdef DV_OBS_ENABLED
  if (kind_counts_.size() <= ev.kind) kind_counts_.resize(ev.kind + 1, 0);
  ++kind_counts_[ev.kind];
#endif
  lps_[ev.lp]->on_event(*this, ev);
}

void Simulator::publish_obs(double loop_seconds) {
#ifdef DV_OBS_ENABLED
  const std::uint64_t delta = events_processed_ - events_published_;
  events_published_ = events_processed_;
  obs::Counter& processed = obs::counter("sim.events_processed");
  processed.add(delta);
  if (kind_published_.size() < kind_counts_.size()) {
    kind_published_.resize(kind_counts_.size(), 0);
  }
  for (std::size_t k = 0; k < kind_counts_.size(); ++k) {
    const std::uint64_t kd = kind_counts_[k] - kind_published_[k];
    if (!kd) continue;
    kind_published_[k] = kind_counts_[k];
    const std::string label = k < kind_labels_.size() && !kind_labels_[k].empty()
                                  ? kind_labels_[k]
                                  : "kind" + std::to_string(k);
    obs::counter("sim.events." + label).add(kd);
  }
  obs::gauge("sim.queue_high_water")
      .record_max(static_cast<double>(queue_high_water_));
  // Scheduler attribution: pushes absorbed by the bounded-horizon bucket
  // layer vs. pushes that fell through to the fallback heap, the lazy
  // bucket sorts and the events they ordered, and the pushes that took an
  // ordered insert into the bucket being drained.
  const auto& sched = queue_.stats();
  auto publish = [](const char* name, std::uint64_t now,
                    std::uint64_t& published) {
    obs::counter(name).add(now - published);
    published = now;
  };
  publish("sim.sched.bucket_pushes", sched.bucket_pushes,
          sched_published_.bucket_pushes);
  publish("sim.sched.heap_pushes", sched.heap_pushes,
          sched_published_.heap_pushes);
  publish("sim.sched.bucket_sorts", sched.bucket_sorts,
          sched_published_.bucket_sorts);
  publish("sim.sched.sorted_events", sched.sorted_events,
          sched_published_.sorted_events);
  publish("sim.sched.ordered_inserts", sched.ordered_inserts,
          sched_published_.ordered_inserts);
  // The rate is cumulative (every segment since the last obs reset), so a
  // sampled run reports its whole run's rate, not its final tick's.
  obs::Gauge& run_seconds = obs::gauge("sim.run_seconds");
  run_seconds.add(loop_seconds);
  if (run_seconds.value() > 0.0) {
    obs::gauge("sim.events_per_sec")
        .set(static_cast<double>(processed.value()) / run_seconds.value());
  }
#else
  (void)loop_seconds;
#endif
}

void Simulator::run() {
  const auto t0 = std::chrono::steady_clock::now();
  Event ev;  // pop target reused across the loop — no per-event temporary
  while (!queue_.empty()) {
    queue_.pop_into(ev);
    dispatch(ev);
  }
  publish_obs(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count());
}

void Simulator::run_until(SimTime t_end) {
  DV_REQUIRE(t_end >= now_, "run_until into the past");
  const auto t0 = std::chrono::steady_clock::now();
  Event ev;
  while (!queue_.empty() && queue_.top().time <= t_end) {
    queue_.pop_into(ev);
    dispatch(ev);
  }
  now_ = t_end;
  publish_obs(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count());
}

}  // namespace dv::pdes
