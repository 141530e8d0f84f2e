// Placement-policy invariants: disjointness, coverage, policy structure.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "placement/placement.hpp"

namespace dv::placement {
namespace {

topo::Dragonfly net() { return topo::Dragonfly::canonical(3); }  // 162 terms

std::vector<JobRequest> three_jobs(Policy p0, Policy p1, Policy p2) {
  return {{"amg", 40, p0}, {"amr", 40, p1}, {"minife", 30, p2}};
}

class AllPolicies : public ::testing::TestWithParam<Policy> {};

TEST_P(AllPolicies, JobsAreDisjointAndComplete) {
  const auto topo = net();
  const auto placement =
      place_jobs(topo, three_jobs(GetParam(), GetParam(), GetParam()), 7);
  std::set<std::uint32_t> seen;
  for (std::size_t j = 0; j < placement.job_count(); ++j) {
    for (std::uint32_t t : placement.terminals[j]) {
      EXPECT_LT(t, topo.num_terminals());
      EXPECT_TRUE(seen.insert(t).second) << "terminal " << t << " reused";
    }
  }
  EXPECT_EQ(seen.size(), 110u);
}

TEST_P(AllPolicies, ReverseMapsAreConsistent) {
  const auto topo = net();
  const auto placement =
      place_jobs(topo, three_jobs(GetParam(), GetParam(), GetParam()), 3);
  for (std::size_t j = 0; j < placement.job_count(); ++j) {
    for (std::uint32_t r = 0; r < placement.terminals[j].size(); ++r) {
      const std::uint32_t t = placement.terminals[j][r];
      EXPECT_EQ(placement.job_of[t], static_cast<std::int32_t>(j));
      EXPECT_EQ(placement.rank_of[t], static_cast<std::int32_t>(r));
    }
  }
  // Idle terminals are marked idle.
  std::size_t idle = 0;
  for (std::uint32_t t = 0; t < topo.num_terminals(); ++t) {
    if (placement.job_of[t] == Placement::kIdle) {
      EXPECT_EQ(placement.rank_of[t], -1);
      ++idle;
    }
  }
  EXPECT_EQ(idle, topo.num_terminals() - 110u);
}

TEST_P(AllPolicies, DeterministicForSeed) {
  const auto topo = net();
  const auto a = place_jobs(topo, three_jobs(GetParam(), GetParam(), GetParam()), 11);
  const auto b = place_jobs(topo, three_jobs(GetParam(), GetParam(), GetParam()), 11);
  EXPECT_EQ(a.terminals, b.terminals);
}

INSTANTIATE_TEST_SUITE_P(Policies, AllPolicies,
                         ::testing::Values(Policy::kContiguous,
                                           Policy::kRandomGroup,
                                           Policy::kRandomRouter,
                                           Policy::kRandomNode));

TEST(Placement, ContiguousIsPrefix) {
  const auto topo = net();
  const auto placement =
      place_jobs(topo, {{"a", 25, Policy::kContiguous}}, 1);
  for (std::uint32_t r = 0; r < 25; ++r) {
    EXPECT_EQ(placement.terminals[0][r], r);
  }
}

TEST(Placement, RandomRouterFillsWholeRouters) {
  const auto topo = net();  // p = 3 terminals per router
  const auto placement =
      place_jobs(topo, {{"a", 30, Policy::kRandomRouter}}, 5);
  // Count terminals per router: every touched router is fully used
  // (30 ranks / 3 per router = 10 routers exactly).
  std::map<std::uint32_t, int> per_router;
  for (std::uint32_t t : placement.terminals[0]) {
    ++per_router[topo.terminal_router(t)];
  }
  EXPECT_EQ(per_router.size(), 10u);
  for (const auto& [router, cnt] : per_router) EXPECT_EQ(cnt, 3);
}

TEST(Placement, RandomGroupFillsGroupContiguously) {
  const auto topo = net();  // 18 terminals per group
  const auto placement =
      place_jobs(topo, {{"a", 18, Policy::kRandomGroup}}, 5);
  std::set<std::uint32_t> groups;
  for (std::uint32_t t : placement.terminals[0]) {
    groups.insert(topo.terminal_group(t));
  }
  EXPECT_EQ(groups.size(), 1u);  // exactly one group suffices
}

TEST(Placement, RandomGroupSpreadsAcrossSeeds) {
  const auto topo = net();
  std::set<std::uint32_t> first_groups;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto placement =
        place_jobs(topo, {{"a", 18, Policy::kRandomGroup}}, seed);
    first_groups.insert(topo.terminal_group(placement.terminals[0][0]));
  }
  EXPECT_GT(first_groups.size(), 3u);  // actually random
}

TEST(Placement, HybridPoliciesPerJob) {
  const auto topo = net();
  const auto placement = place_jobs(
      topo, three_jobs(Policy::kRandomRouter, Policy::kRandomGroup,
                       Policy::kRandomRouter),
      9);
  EXPECT_EQ(placement.job_count(), 3u);
  // Job 1 (random group) occupies few groups; 40 ranks / 18 per group -> 3.
  std::set<std::uint32_t> groups;
  for (std::uint32_t t : placement.terminals[1]) {
    groups.insert(topo.terminal_group(t));
  }
  EXPECT_LE(groups.size(), 4u);
}

TEST(Placement, OverflowThrows) {
  const auto topo = net();
  EXPECT_THROW(
      place_jobs(topo, {{"big", topo.num_terminals() + 1, Policy::kContiguous}}, 1),
      Error);
  EXPECT_THROW(place_jobs(topo,
                          {{"a", topo.num_terminals(), Policy::kContiguous},
                           {"b", 1, Policy::kRandomNode}},
                          1),
               Error);
}

TEST(Placement, ZeroRankJobThrows) {
  EXPECT_THROW(place_jobs(net(), {{"a", 0, Policy::kContiguous}}, 1), Error);
}

TEST(Placement, PolicyStringRoundTrip) {
  for (Policy p : {Policy::kContiguous, Policy::kRandomGroup,
                   Policy::kRandomRouter, Policy::kRandomNode}) {
    EXPECT_EQ(policy_from_string(to_string(p)), p);
  }
  EXPECT_THROW(policy_from_string("bogus"), Error);
}

}  // namespace
}  // namespace dv::placement
