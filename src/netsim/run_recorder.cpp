#include "netsim/run_recorder.hpp"

namespace dv::netsim {

RunRecorder::RunRecorder(const Fabric& fabric, std::uint64_t seed)
    : fabric_(fabric) {
  const Fabric::Shape& shape = fabric_.shape();
  run_.groups = shape.groups;
  run_.routers_per_group = shape.routers_per_group;
  run_.terminals_per_router = shape.terminals_per_router;
  run_.global_per_router = shape.global_per_router;
  run_.workload = "custom";
  run_.placement = "custom";
  run_.seed = seed;
  // Terminal t's row is row t; empty rows follow for the slots routers
  // leave unused (fat-tree agg and core switches), so the VA invariant
  // terminals == groups * routers_per_group * terminals_per_router holds.
  run_.local_links.resize(fabric_.num_local_links());
  run_.global_links.resize(fabric_.num_global_links());
  run_.terminals.resize(fabric_.num_terminals());
  for (std::uint32_t r = 0; r < fabric_.num_routers(); ++r) {
    std::uint32_t slots = 0;
    for (std::uint32_t p = 0; p < fabric_.ports_per_router(); ++p) {
      const Port& hop = fabric_.port(r, p);
      if (hop.cls == LinkClass::kEjection) {
        run_.terminals[hop.dst_terminal] = {.router = r, .port = p};
        ++slots;
      } else if (hop.cls == LinkClass::kLocal ||
                 hop.cls == LinkClass::kGlobal) {
        (hop.cls == LinkClass::kLocal ? run_.local_links
                                      : run_.global_links)[hop.id] = {
            .src_router = r, .src_port = p, .dst_router = hop.dst_router,
            .dst_port = hop.dst_port};
      }
    }
    for (; slots < shape.terminals_per_router; ++slots) {
      run_.terminals.push_back({.router = r, .port = slots});
    }
  }
  finished_.assign(fabric_.num_terminals(), 0);
  sum_latency_.assign(fabric_.num_terminals(), 0.0);
  sum_hops_.assign(fabric_.num_terminals(), 0.0);
}

void RunRecorder::add_message(const Message& m) {
  DV_REQUIRE(!started_, "add_message after run()");
  DV_REQUIRE(m.src_terminal < fabric_.num_terminals() &&
                 m.dst_terminal < fabric_.num_terminals(),
             "message terminal out of range");
  DV_REQUIRE(m.src_terminal != m.dst_terminal,
             "self-messages never enter the network");
  DV_REQUIRE(m.bytes > 0, "empty message");
  DV_REQUIRE(m.time >= 0.0, "negative message time");
  messages_.push_back(m);
}

void RunRecorder::add_messages(const std::vector<Message>& ms) {
  for (const auto& m : ms) add_message(m);
}

void RunRecorder::set_labels(std::string workload, std::string placement,
                             std::vector<std::string> job_names) {
  run_.workload = std::move(workload);
  run_.placement = std::move(placement);
  run_.job_names = std::move(job_names);
}

void RunRecorder::set_jobs(const placement::Placement& placement) {
  DV_REQUIRE(placement.job_of.size() == fabric_.num_terminals(),
             "placement size mismatch");
  for (std::uint32_t t = 0; t < fabric_.num_terminals(); ++t) {
    run_.terminals[t].job = placement.job_of[t];
  }
}

void RunRecorder::enable_sampling(double dt) {
  DV_REQUIRE(!started_, "enable_sampling after run()");
  DV_REQUIRE(dt > 0.0, "sampling interval must be positive");
  run_.sample_dt = dt;
  auto series = [dt](metrics::SampledSeries& traffic,
                     metrics::SampledSeries& sat, Last& last,
                     std::size_t columns, std::size_t entities) {
    traffic = metrics::SampledSeries(columns, dt);
    sat = metrics::SampledSeries(columns, dt);
    last.traffic.assign(entities, 0.0);
    last.sat.assign(entities, 0.0);
  };
  const std::uint32_t nlocal = fabric_.num_local_links();
  const std::uint32_t nglobal = fabric_.num_global_links();
  series(run_.local_traffic_ts, run_.local_sat_ts, local_last_, nlocal,
         nlocal);
  series(run_.global_traffic_ts, run_.global_sat_ts, global_last_, nglobal,
         nglobal);
  // One column per terminal row; padding rows stay zero.
  series(run_.term_traffic_ts, run_.term_sat_ts, term_last_,
         run_.terminals.size(), fabric_.num_terminals());
  last_ej_sat_.assign(fabric_.num_terminals(), 0.0);
}

void RunRecorder::start() {
  DV_REQUIRE(!started_, "run() may be called once");
  started_ = true;
}

}  // namespace dv::netsim
