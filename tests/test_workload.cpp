// Workload-generator tests: structure of each communication pattern,
// volume accounting, placement mapping.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/workload.hpp"

namespace dv::workload {
namespace {

Config cfg(std::uint32_t ranks, std::uint64_t bytes = 1 << 20) {
  Config c;
  c.ranks = ranks;
  c.total_bytes = bytes;
  c.window = 1.0e5;
  c.seed = 3;
  c.msg_bytes = 4096;
  return c;
}

/// Traffic matrix (rank -> rank -> bytes).
std::map<std::uint32_t, std::map<std::uint32_t, std::uint64_t>> matrix(
    const std::vector<RankMsg>& msgs) {
  std::map<std::uint32_t, std::map<std::uint32_t, std::uint64_t>> m;
  for (const auto& msg : msgs) m[msg.src_rank][msg.dst_rank] += msg.bytes;
  return m;
}

/// Dense ranks x ranks demand matrix: bytes from src to dst at
/// [src * ranks + dst].
std::vector<std::uint64_t> demand_matrix(const std::vector<RankMsg>& msgs,
                                         std::uint32_t ranks) {
  std::vector<std::uint64_t> dm(std::size_t{ranks} * ranks, 0);
  for (const auto& m : msgs) {
    DV_REQUIRE(m.src_rank < ranks && m.dst_rank < ranks,
               "rank message outside the demand matrix");
    dm[std::size_t{m.src_rank} * ranks + m.dst_rank] += m.bytes;
  }
  return dm;
}

class AllWorkloads : public ::testing::TestWithParam<std::string> {};

TEST_P(AllWorkloads, BasicInvariants) {
  const auto c = cfg(64);
  const auto msgs = generate(GetParam(), c);
  ASSERT_FALSE(msgs.empty());
  for (const auto& m : msgs) {
    EXPECT_LT(m.src_rank, c.ranks);
    EXPECT_LT(m.dst_rank, c.ranks);
    EXPECT_NE(m.src_rank, m.dst_rank);
    EXPECT_GT(m.bytes, 0u);
    EXPECT_GE(m.time, 0.0);
    EXPECT_LE(m.time, c.window * 1.3);
  }
  // Volume lands close to the target (integer truncation loses a little).
  const auto total = total_bytes(msgs);
  EXPECT_LE(total, c.total_bytes);
  EXPECT_GT(total, c.total_bytes * 85 / 100);
}

TEST_P(AllWorkloads, DeterministicForSeed) {
  const auto a = generate(GetParam(), cfg(48));
  const auto b = generate(GetParam(), cfg(48));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src_rank, b[i].src_rank);
    EXPECT_EQ(a[i].dst_rank, b[i].dst_rank);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
  }
}

INSTANTIATE_TEST_SUITE_P(Names, AllWorkloads,
                         ::testing::ValuesIn(workload_names()));

TEST(Workload, NearestNeighborIsARing) {
  const auto m = matrix(generate_nearest_neighbor(cfg(32)));
  for (const auto& [src, row] : m) {
    ASSERT_EQ(row.size(), 1u);
    EXPECT_EQ(row.begin()->first, (src + 1) % 32);
  }
}

TEST(Workload, UniformRandomCoversManyDestinations) {
  const auto msgs = generate_uniform_random(cfg(64, 8 << 20));
  std::set<std::uint32_t> dsts;
  for (const auto& m : msgs) dsts.insert(m.dst_rank);
  EXPECT_GT(dsts.size(), 48u);
}

TEST(Workload, AmgIs3DHalo) {
  const auto c = cfg(64);  // 4x4x4 grid
  const auto m = matrix(generate_amg(c));
  // Corner rank (0,0,0) has exactly 3 neighbours; interior rank has 6.
  EXPECT_EQ(m.at(0).size(), 3u);
  // rank (1,1,1) = 1 + 4 + 16 = 21 is interior.
  EXPECT_EQ(m.at(21).size(), 6u);
  // Communication is symmetric (each rank talks to its halo partners).
  for (const auto& [src, row] : m) {
    for (const auto& [dst, bytes] : row) {
      EXPECT_TRUE(m.at(dst).count(src))
          << src << "->" << dst << " not reciprocated";
    }
  }
}

TEST(Workload, AmgHasThreeBursts) {
  const auto msgs = generate_amg(cfg(64));
  // Cluster times: all messages fall into 3 windows.
  std::set<int> phases;
  for (const auto& m : msgs) {
    phases.insert(static_cast<int>(m.time / (cfg(64).window / 3.0)));
  }
  EXPECT_EQ(phases.size(), 3u);
}

TEST(Workload, AmrBoxlibConcentratesLoadOnLowRanks) {
  const auto c = cfg(512, 64 << 20);
  const auto msgs = generate_amr_boxlib(c);
  std::uint64_t hot = 0, total = 0;
  const std::uint32_t hot_cutoff = 512 * 6 / 100;
  for (const auto& m : msgs) {
    total += m.bytes;
    if (m.src_rank < hot_cutoff) hot += m.bytes;
  }
  // Paper: first groups/ranks dominate (>60% inter-group traffic).
  EXPECT_GT(static_cast<double>(hot) / static_cast<double>(total), 0.55);
}

TEST(Workload, MinifeIsManyToMany) {
  const auto m = matrix(generate_minife(cfg(64, 32 << 20)));
  // Every rank exchanges with its whole process row+column (plus the
  // butterfly): far more partners than a halo pattern.
  for (const auto& [src, row] : m) {
    EXPECT_GE(row.size(), 10u);
  }
}

TEST(Workload, DemandMatrixConservesBytesAndHasZeroDiagonal) {
  const auto c = cfg(32);
  for (const char* name : {"uniform_random", "nearest_neighbor",
                           "transpose"}) {
    const auto msgs = generate(name, c);
    const auto dm = demand_matrix(msgs, c.ranks);
    ASSERT_EQ(dm.size(), std::size_t{32} * 32);
    std::uint64_t sum = 0;
    for (const auto b : dm) sum += b;
    EXPECT_EQ(sum, total_bytes(msgs)) << name;
    for (std::uint32_t r = 0; r < c.ranks; ++r) {
      EXPECT_EQ(dm[std::size_t{r} * c.ranks + r], 0u) << name;
    }
  }
}

TEST(Workload, DemandMatrixUniformRandomBalancesRows) {
  const auto c = cfg(16, 16 << 20);
  const auto dm = demand_matrix(generate_uniform_random(c), c.ranks);
  const double expect_row =
      static_cast<double>(c.total_bytes) / static_cast<double>(c.ranks);
  for (std::uint32_t r = 0; r < c.ranks; ++r) {
    std::uint64_t row = 0;
    for (std::uint32_t d = 0; d < c.ranks; ++d) {
      row += dm[std::size_t{r} * c.ranks + d];
    }
    // Every source injects the same per-rank share (uniform injection).
    EXPECT_NEAR(static_cast<double>(row), expect_row, expect_row * 0.02) << r;
  }
}

TEST(Workload, DemandMatrixShiftIsASingleDiagonal) {
  auto c = cfg(24);
  c.neighbor_stride = 5;
  const auto dm = demand_matrix(generate_nearest_neighbor(c), c.ranks);
  for (std::uint32_t r = 0; r < c.ranks; ++r) {
    for (std::uint32_t d = 0; d < c.ranks; ++d) {
      const auto bytes = dm[std::size_t{r} * c.ranks + d];
      if (d == (r + c.neighbor_stride) % c.ranks) {
        EXPECT_GT(bytes, 0u) << r << "->" << d;
      } else {
        EXPECT_EQ(bytes, 0u) << r << "->" << d;
      }
    }
  }
}

TEST(Workload, DemandMatrixTransposeIsABijection) {
  // 6x8 grid — the non-square case is where the partner indexing is easy
  // to get wrong (it must land in the transposed pc x pr layout).
  const auto c = cfg(48);
  const auto dm = demand_matrix(generate_transpose(c), c.ranks);
  const std::uint32_t pr = 6, pc = 8;
  std::uint32_t senders = 0;
  for (std::uint32_t r = 0; r < c.ranks; ++r) {
    const std::uint32_t row = r / pc, col = r % pc;
    const std::uint32_t partner = col * pr + row;
    for (std::uint32_t d = 0; d < c.ranks; ++d) {
      const auto bytes = dm[std::size_t{r} * c.ranks + d];
      if (d == partner && partner != r) {
        EXPECT_GT(bytes, 0u) << r << "->" << d;
        ++senders;
      } else {
        EXPECT_EQ(bytes, 0u) << r << "->" << d;
      }
    }
    // Bijection check: decode the partner in the transposed pc x pr
    // layout and map it back — that must recover r.
    const std::uint32_t trow = partner / pr, tcol = partner % pr;
    EXPECT_EQ(tcol * pc + trow, r);
  }
  // Only the fixed points of the transpose map are silent (two ranks on a
  // 6x8 grid); everyone else sends.
  EXPECT_GT(senders, c.ranks * 3 / 4);
}

TEST(Workload, VolumeOrderingMatchesTableI) {
  const auto apps = paper_applications();
  ASSERT_EQ(apps.size(), 3u);
  EXPECT_LT(apps[0].scaled_bytes, apps[1].scaled_bytes);  // AMG < AMR
  EXPECT_LT(apps[1].scaled_bytes * 4, apps[2].scaled_bytes);  // << MiniFE
  EXPECT_EQ(app_info("amg").ranks, 1728u);
  EXPECT_EQ(app_info("minife").ranks, 1152u);
  EXPECT_THROW(app_info("bogus"), Error);
}

TEST(Workload, MapToTerminalsUsesPlacement) {
  const auto topo = topo::Dragonfly::canonical(2);
  const auto placement = placement::place_jobs(
      topo, {{"a", 16, placement::Policy::kRandomRouter}}, 5);
  const auto msgs = generate_nearest_neighbor(cfg(16));
  const auto mapped = map_to_terminals(msgs, placement, 0);
  ASSERT_FALSE(mapped.empty());
  for (const auto& m : mapped) {
    EXPECT_NE(m.src_terminal, m.dst_terminal);
    EXPECT_EQ(m.job, 0);
    // Source terminal belongs to the job.
    EXPECT_EQ(placement.job_of[m.src_terminal], 0);
    EXPECT_EQ(placement.job_of[m.dst_terminal], 0);
  }
}

TEST(Workload, MapToTerminalsRejectsOversizedRanks) {
  const auto topo = topo::Dragonfly::canonical(2);
  const auto placement = placement::place_jobs(
      topo, {{"a", 8, placement::Policy::kContiguous}}, 1);
  const auto msgs = generate_nearest_neighbor(cfg(16));
  EXPECT_THROW(map_to_terminals(msgs, placement, 0), Error);
  EXPECT_THROW(map_to_terminals(msgs, placement, 1), Error);
}

TEST(Workload, ConfigValidation) {
  Config c;  // zeroed
  EXPECT_THROW(generate_uniform_random(c), Error);
  c.ranks = 8;
  EXPECT_THROW(generate_uniform_random(c), Error);  // no volume
  c.total_bytes = 100;
  c.window = -1;
  EXPECT_THROW(generate_uniform_random(c), Error);
  EXPECT_THROW(generate("nope", cfg(8)), Error);
}

}  // namespace
}  // namespace dv::workload
