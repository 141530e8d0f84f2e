// Discrete-event simulation engine.
//
// This is the substrate standing in for ROSS in the paper's toolchain: a
// deterministic event engine over logical processes (LPs). Events are
// ordered by (timestamp, priority key, sequence number). The priority key
// is model-assigned, so a model that keys every event by the entity it
// concerns gets an order that does not depend on how its handlers happen
// to schedule; `seq` (schedule order) breaks the remaining ties, so every
// run is bit-reproducible for a given seed.
//
// The model layer (netsim) keeps its own payload arenas; an event carries
// the destination LP, a model-defined kind, and two 64-bit payload words,
// which avoids per-event heap allocation on the hot path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pdes/bucket_sched.hpp"
#include "util/common.hpp"

namespace dv::pdes {

using LpId = std::uint32_t;

/// One scheduled event. `kind` and `data` are interpreted by the receiving
/// logical process. Field order is hot-path-deliberate: the three ordering
/// keys the scheduler compares on occupy the first 24 bytes (one cache
/// line covers them wherever the event starts), and the four dispatch
/// fields fill the remaining 24, so the whole record stays at 48 bytes.
struct Event {
  SimTime time = 0.0;
  // Model-assigned ordering key for simultaneous events. Unlike `seq` it
  // does not depend on schedule order; netsim gives every event class a
  // unique key (kind + entity id). 0 (the default) preserves pure schedule
  // order.
  std::uint64_t pri = 0;
  std::uint64_t seq = 0;  // schedule order; last tie-breaker
  LpId lp = 0;
  std::uint32_t kind = 0;
  std::uint64_t data0 = 0;
  std::uint64_t data1 = 0;
};
static_assert(sizeof(Event) == 48, "keep the event record at 48 bytes");

class Simulator;

/// Base class for simulation entities (routers, terminals, samplers...).
class LogicalProcess {
 public:
  virtual ~LogicalProcess() = default;

  /// Handles one event addressed to this LP. Called with sim.now() ==
  /// event.time.
  virtual void on_event(Simulator& sim, const Event& ev) = 0;
};

/// Sequential deterministic event-driven simulator.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Registers an LP and returns its id. The pointer must stay valid for
  /// the simulator's lifetime (LPs are owned by the model layer).
  LpId add_lp(LogicalProcess* lp);

  /// Schedules an event at absolute time `t` (must be >= now()).
  void schedule(SimTime t, LpId lp, std::uint32_t kind, std::uint64_t data0 = 0,
                std::uint64_t data1 = 0, std::uint64_t pri = 0);

  /// Schedules an event `delay` after now().
  void schedule_in(SimTime delay, LpId lp, std::uint32_t kind,
                   std::uint64_t data0 = 0, std::uint64_t data1 = 0,
                   std::uint64_t pri = 0);

  /// Runs until the event queue is empty (or the event budget is hit).
  void run();

  /// Runs while events exist with time <= t_end; now() ends at t_end.
  void run_until(SimTime t_end);

  SimTime now() const { return now_; }
  std::uint64_t events_processed() const { return events_processed_; }
  bool queue_empty() const { return queue_.empty(); }

  /// Safety valve against runaway models; 0 disables. Exceeding it throws.
  void set_event_budget(std::uint64_t max_events) { budget_ = max_events; }

  /// Enables the bounded-horizon bucket layer of the pending-event set
  /// (see bucket_sched.hpp). `width` should be the model's minimum
  /// scheduling delay (netsim passes its lookahead); 0
  /// reverts to the pure heap. Must be called before any event is
  /// scheduled. No effect on event order — only on scheduling cost.
  void set_bucket_granularity(double width,
                              std::size_t buckets =
                                  BucketSched<Event>::kDefaultBuckets) {
    queue_.configure(width, buckets);
  }

  /// Names an event kind for observability output ("sim.events.<label>"
  /// instead of "sim.events.kind<N>"). No effect on simulation behaviour.
  void set_kind_label(std::uint32_t kind, std::string label);

  /// Largest queue size observed so far (0 in DV_OBS_ENABLED=OFF builds).
  std::size_t queue_high_water() const { return queue_high_water_; }

 private:
  void dispatch(const Event& ev);
  /// Publishes events/sec, per-kind counts and queue high-water to the
  /// observability registry (deltas since the previous publish).
  void publish_obs(double loop_seconds);

  std::vector<LogicalProcess*> lps_;
  BucketSched<Event> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t budget_ = 0;

  // Observability (updated only in DV_OBS_ENABLED builds; publish_obs
  // flushes deltas so repeated run()/run_until() calls accumulate).
  std::size_t queue_high_water_ = 0;
  std::vector<std::uint64_t> kind_counts_;
  std::vector<std::uint64_t> kind_published_;
  std::vector<std::string> kind_labels_;
  std::uint64_t events_published_ = 0;
  BucketSched<Event>::Stats sched_published_;
};

}  // namespace dv::pdes
