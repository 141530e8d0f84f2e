#include "placement/placement.hpp"

#include <algorithm>
#include <numeric>

#include "util/rng.hpp"
#include "util/str.hpp"

namespace dv::placement {

Policy policy_from_string(const std::string& name) {
  const std::string n = to_lower(trim(name));
  if (n == "contiguous") return Policy::kContiguous;
  if (n == "random_group" || n == "randomgroup") return Policy::kRandomGroup;
  if (n == "random_router" || n == "randomrouter") return Policy::kRandomRouter;
  if (n == "random_node" || n == "randomnode") return Policy::kRandomNode;
  throw Error("unknown placement policy: " + name);
}

std::string to_string(Policy p) {
  switch (p) {
    case Policy::kContiguous: return "contiguous";
    case Policy::kRandomGroup: return "random_group";
    case Policy::kRandomRouter: return "random_router";
    case Policy::kRandomNode: return "random_node";
  }
  return "?";
}

namespace {

/// Takes up to `want` free terminals in id order from `candidates` (a list
/// of terminal ids), appending to `out` and marking them used.
void take_available(const std::vector<std::uint32_t>& candidates,
                    std::vector<bool>& used, std::uint32_t want,
                    std::vector<std::uint32_t>& out) {
  for (std::uint32_t t : candidates) {
    if (out.size() >= want) return;
    if (!used[t]) {
      used[t] = true;
      out.push_back(t);
    }
  }
}

std::vector<std::uint32_t> place_one(const topo::Dragonfly& net,
                                     const JobRequest& job,
                                     std::vector<bool>& used, Rng& rng) {
  const std::uint32_t n = net.num_terminals();
  std::vector<std::uint32_t> picked;
  picked.reserve(job.ranks);

  switch (job.policy) {
    case Policy::kContiguous: {
      std::vector<std::uint32_t> all(n);
      std::iota(all.begin(), all.end(), 0u);
      take_available(all, used, job.ranks, picked);
      break;
    }
    case Policy::kRandomGroup: {
      std::vector<std::uint32_t> order(net.groups());
      std::iota(order.begin(), order.end(), 0u);
      rng.shuffle(order);
      const std::uint32_t per_group =
          net.routers_per_group() * net.terminals_per_router();
      for (std::uint32_t grp : order) {
        if (picked.size() >= job.ranks) break;
        std::vector<std::uint32_t> terms(per_group);
        const std::uint32_t base =
            net.router_id(grp, 0) * net.terminals_per_router();
        std::iota(terms.begin(), terms.end(), base);
        take_available(terms, used, job.ranks, picked);
      }
      break;
    }
    case Policy::kRandomRouter: {
      std::vector<std::uint32_t> order(net.num_routers());
      std::iota(order.begin(), order.end(), 0u);
      rng.shuffle(order);
      for (std::uint32_t r : order) {
        if (picked.size() >= job.ranks) break;
        std::vector<std::uint32_t> terms(net.terminals_per_router());
        std::iota(terms.begin(), terms.end(), r * net.terminals_per_router());
        take_available(terms, used, job.ranks, picked);
      }
      break;
    }
    case Policy::kRandomNode: {
      std::vector<std::uint32_t> order(n);
      std::iota(order.begin(), order.end(), 0u);
      rng.shuffle(order);
      take_available(order, used, job.ranks, picked);
      break;
    }
  }

  if (picked.size() < job.ranks) {
    throw Error("placement failed: job '" + job.name + "' needs " +
                std::to_string(job.ranks) + " terminals but only " +
                std::to_string(picked.size()) + " are available");
  }
  return picked;
}

}  // namespace

Placement place_jobs(const topo::Dragonfly& net,
                     const std::vector<JobRequest>& jobs,
                     std::uint64_t seed) {
  Placement out;
  out.job_of.assign(net.num_terminals(), Placement::kIdle);
  out.rank_of.assign(net.num_terminals(), -1);
  std::vector<bool> used(net.num_terminals(), false);

  Rng rng(seed, /*stream=*/0x9a110cULL);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    DV_REQUIRE(jobs[j].ranks > 0, "job must have at least one rank");
    auto picked = place_one(net, jobs[j], used, rng);
    for (std::uint32_t r = 0; r < picked.size(); ++r) {
      out.job_of[picked[r]] = static_cast<std::int32_t>(j);
      out.rank_of[picked[r]] = static_cast<std::int32_t>(r);
    }
    out.terminals.push_back(std::move(picked));
  }
  return out;
}

}  // namespace dv::placement
