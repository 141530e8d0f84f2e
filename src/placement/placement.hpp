// Job placement policies for Dragonfly networks.
//
// The paper studies contiguous placement (the supercomputer-centre default),
// random-group and random-router placement (following Jain et al. and Yang
// et al.), and derives a *hybrid* policy — different random policies for
// different jobs — as its mitigation for inter-job interference (Sec. V-D).
// Hybrid is expressed here by giving every job its own policy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/dragonfly.hpp"

namespace dv::placement {

enum class Policy {
  kContiguous,   ///< consecutive terminals in id order
  kRandomGroup,  ///< fill available terminals of randomly ordered groups
  kRandomRouter, ///< fill terminals of randomly ordered routers
  kRandomNode,   ///< uniformly random individual terminals
};

Policy policy_from_string(const std::string& name);  // throws on unknown
std::string to_string(Policy p);

/// One job to be placed.
struct JobRequest {
  std::string name;
  std::uint32_t ranks = 0;
  Policy policy = Policy::kContiguous;
};

/// Result of placing a set of jobs on a network. Jobs never share terminals.
struct Placement {
  /// terminals[j][r] = terminal id hosting rank r of job j.
  std::vector<std::vector<std::uint32_t>> terminals;
  /// job_of[t] = job index using terminal t, or kIdle.
  std::vector<std::int32_t> job_of;
  /// rank_of[t] = MPI rank hosted on terminal t, or -1 when idle.
  std::vector<std::int32_t> rank_of;

  static constexpr std::int32_t kIdle = -1;

  std::size_t job_count() const { return terminals.size(); }
};

/// Places all jobs (in order) on the network; policies see only terminals
/// not taken by earlier jobs. Deterministic for a given seed. Throws if the
/// jobs do not fit.
Placement place_jobs(const topo::Dragonfly& net,
                     const std::vector<JobRequest>& jobs,
                     std::uint64_t seed = 1);

}  // namespace dv::placement
