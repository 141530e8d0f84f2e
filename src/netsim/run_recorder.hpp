// The simulation record both backends write. netsim::Network (packets)
// and flow::FlowNetwork (fluid rates) each hold one RunRecorder, so the
// message rules, labels, job map, per-terminal delivery sums, the six
// sampled series and the RunMetrics layout are decided once. A backend
// reports each delivery, and its cumulative link and terminal counters
// through a probe: a struct with const methods local(id) and global(id)
// returning Totals, and terminal(term) returning Totals or SplitTotals.
// push_frame and finish are templates over the probe, so the per-entity
// loops call it inline (no virtual call, no std::function).
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "metrics/run_metrics.hpp"
#include "netsim/fabric.hpp"
#include "placement/placement.hpp"

namespace dv::netsim {

/// One application-level message to inject.
struct Message {
  std::uint32_t src_terminal = 0;
  std::uint32_t dst_terminal = 0;
  std::uint64_t bytes = 0;
  SimTime time = 0.0;   ///< earliest injection time
  std::int32_t job = -1;
};

/// Cumulative bytes and saturated ns. A terminal's saturation is its
/// injection plus ejection link's, summed before a frame delta is taken.
struct Totals {
  double traffic = 0.0, sat = 0.0;
};

/// A terminal's counters with injection and ejection saturation apart:
/// its frame delta is the sum of the two links' deltas.
struct SplitTotals {
  double traffic = 0.0, inj_sat = 0.0, ej_sat = 0.0;
};

class RunRecorder {
 public:
  /// Lays out the record: the fabric's shape, one row per local and
  /// global link with its endpoint ports, and one terminal row per
  /// (router, slot) of the grid. `fabric` must outlive the recorder.
  RunRecorder(const Fabric& fabric, std::uint64_t seed);

  /// Queues a message: both terminals in range and distinct, a positive
  /// size, a non-negative time, and the run not started.
  void add_message(const Message& m);
  void add_messages(const std::vector<Message>& ms);
  const std::vector<Message>& messages() const { return messages_; }

  void set_labels(std::string workload, std::string placement,
                  std::vector<std::string> job_names);
  /// Terminal job ownership; the placement must cover every terminal.
  void set_jobs(const placement::Placement& placement);

  /// Fixed-rate sampling (dt in ns > 0); only before the run starts.
  void enable_sampling(double dt);
  double sample_dt() const { return run_.sample_dt; }
  bool sampled() const { return run_.sample_dt > 0.0; }

  /// Marks the run started (once); messages and sampling are fixed.
  void start();
  bool started() const { return started_; }

  /// Credits terminal `term` with `packets` delivered packets, their
  /// summed latency (ns) and summed router hops.
  void deliver(std::uint32_t term, std::uint64_t packets, double latency,
               double hops) {
    finished_[term] += packets;
    sum_latency_[term] += latency;
    sum_hops_[term] += hops;
  }

  /// Appends one frame to every series: each column is the float delta
  /// of the probe's counters since the previous frame. Terminal padding
  /// rows stay zero.
  template <class Probe>
  void push_frame(const Probe& probe);

  /// The record, with the link and terminal traffic and saturation the
  /// probe reports at `end`; the backend fills any further columns. Call
  /// once.
  template <class Probe>
  metrics::RunMetrics finish(const Probe& at_end, std::string routing,
                             double end);

 private:
  /// The cumulative values a series pair's last frame ended at.
  struct Last {
    std::vector<double> traffic, sat;
  };

  template <class Cumulative>
  void push_pair(metrics::SampledSeries& traffic, metrics::SampledSeries& sat,
                 Last& last, std::uint32_t n, const Cumulative& at);
  static double sat_of(const Totals& c) { return c.sat; }
  static double sat_of(const SplitTotals& c) { return c.inj_sat + c.ej_sat; }

  const Fabric& fabric_;
  metrics::RunMetrics run_;
  std::vector<Message> messages_;
  bool started_ = false;
  // Columnar, so a packet delivery touches three flat arrays, not a row.
  std::vector<std::uint64_t> finished_;
  std::vector<double> sum_latency_, sum_hops_;
  Last local_last_, global_last_, term_last_;
  std::vector<double> last_ej_sat_;  ///< SplitTotals terminals only
};

template <class Cumulative>
void RunRecorder::push_pair(metrics::SampledSeries& traffic,
                            metrics::SampledSeries& sat, Last& last,
                            std::uint32_t n, const Cumulative& at) {
  float* dt = traffic.push_frame_raw();
  float* ds = sat.push_frame_raw();
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto c = at(i);
    dt[i] = static_cast<float>(c.traffic - last.traffic[i]);
    last.traffic[i] = c.traffic;
    if constexpr (std::is_same_v<std::decay_t<decltype(c)>, SplitTotals>) {
      ds[i] = static_cast<float>(c.inj_sat - last.sat[i] + c.ej_sat -
                                 last_ej_sat_[i]);
      last.sat[i] = c.inj_sat;
      last_ej_sat_[i] = c.ej_sat;
    } else {
      ds[i] = static_cast<float>(c.sat - last.sat[i]);
      last.sat[i] = c.sat;
    }
  }
}

template <class Probe>
void RunRecorder::push_frame(const Probe& probe) {
  push_pair(run_.local_traffic_ts, run_.local_sat_ts, local_last_,
            fabric_.num_local_links(),
            [&](std::uint32_t i) { return probe.local(i); });
  push_pair(run_.global_traffic_ts, run_.global_sat_ts, global_last_,
            fabric_.num_global_links(),
            [&](std::uint32_t i) { return probe.global(i); });
  push_pair(run_.term_traffic_ts, run_.term_sat_ts, term_last_,
            fabric_.num_terminals(),
            [&](std::uint32_t t) { return probe.terminal(t); });
}

template <class Probe>
metrics::RunMetrics RunRecorder::finish(const Probe& at_end,
                                        std::string routing, double end) {
  run_.routing = std::move(routing);
  run_.end_time = end;
  auto links = [](std::vector<metrics::LinkMetrics>& rows, const auto& at) {
    for (std::uint32_t i = 0; i < rows.size(); ++i) {
      const Totals c = at(i);
      rows[i].traffic = c.traffic;
      rows[i].sat_time = c.sat;
    }
  };
  links(run_.local_links, [&](std::uint32_t i) { return at_end.local(i); });
  links(run_.global_links, [&](std::uint32_t i) { return at_end.global(i); });
  for (std::uint32_t t = 0; t < fabric_.num_terminals(); ++t) {
    metrics::TerminalMetrics& tm = run_.terminals[t];
    const auto c = at_end.terminal(t);
    tm.data_size = c.traffic;
    tm.sat_time = sat_of(c);
    tm.packets_finished = finished_[t];
    tm.sum_latency = sum_latency_[t];
    tm.sum_hops = sum_hops_[t];
  }
  return std::move(run_);
}

}  // namespace dv::netsim
