#include "workload/workload.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "util/rng.hpp"
#include "util/str.hpp"

namespace dv::workload {

std::vector<AppInfo> paper_applications() {
  // Scaled volumes keep the ordering AMG < AMR << MiniFE while staying
  // simulable on one machine; ratios are compressed for MiniFE (see
  // DESIGN.md "Substitutions").
  return {
      {"amg", 1728, 1.2e9, 48e6, "3D nearest neighbor"},
      {"amr_boxlib", 1728, 2.2e9, 88e6, "Irregular and sparse"},
      {"minife", 1152, 147e9, 735e6, "Many-to-many"},
  };
}

const AppInfo& app_info(const std::string& name) {
  static const std::vector<AppInfo> apps = paper_applications();
  for (const auto& a : apps) {
    if (a.name == name) return a;
  }
  throw Error("unknown application: " + name);
}

std::uint64_t total_bytes(const std::vector<RankMsg>& msgs) {
  std::uint64_t s = 0;
  for (const auto& m : msgs) s += m.bytes;
  return s;
}

namespace {

void check_config(const Config& cfg, std::uint32_t min_ranks = 2) {
  DV_REQUIRE(cfg.ranks >= min_ranks, "workload needs more ranks");
  DV_REQUIRE(cfg.total_bytes > 0, "workload volume must be positive");
  DV_REQUIRE(cfg.window > 0, "injection window must be positive");
  DV_REQUIRE(cfg.msg_bytes > 0, "message granularity must be positive");
}

/// A weighted flow; emit() converts flows to messages so each generator
/// only describes structure (who talks to whom, when, how much).
struct Flow {
  std::uint32_t src, dst;
  double weight;  ///< share of the total volume (unnormalized)
  double time;    ///< nominal start (ns)
};

std::vector<RankMsg> emit(const std::vector<Flow>& flows,
                          std::uint64_t total, double jitter, Rng& rng) {
  double wsum = 0.0;
  for (const auto& f : flows) wsum += f.weight;
  DV_REQUIRE(wsum > 0, "workload has no flows");
  std::vector<RankMsg> out;
  out.reserve(flows.size());
  for (const auto& f : flows) {
    const auto bytes = static_cast<std::uint64_t>(
        static_cast<double>(total) * f.weight / wsum);
    if (bytes == 0 || f.src == f.dst) continue;
    double t = f.time + (jitter > 0 ? rng.next_double() * jitter : 0.0);
    if (t < 0) t = 0;
    out.push_back(RankMsg{f.src, f.dst, bytes, t});
  }
  return out;
}

/// Factors n into (x, y, z) as close to a cube as possible.
std::array<std::uint32_t, 3> grid3(std::uint32_t n) {
  std::uint32_t best_x = 1, best_y = 1, best_z = n;
  double best_score = 1e300;
  for (std::uint32_t x = 1; x * x * x <= n; ++x) {
    if (n % x) continue;
    const std::uint32_t rest = n / x;
    for (std::uint32_t y = x; y * y <= rest; ++y) {
      if (rest % y) continue;
      const std::uint32_t z = rest / y;
      const double score = static_cast<double>(z) / x;  // aspect ratio
      if (score < best_score) {
        best_score = score;
        best_x = x;
        best_y = y;
        best_z = z;
      }
    }
  }
  return {best_x, best_y, best_z};
}

std::array<std::uint32_t, 2> grid2(std::uint32_t n) {
  std::uint32_t best_x = 1;
  for (std::uint32_t x = 1; x * x <= n; ++x) {
    if (n % x == 0) best_x = x;
  }
  return {best_x, n / best_x};
}

}  // namespace

// ------------------------------------------------------------- synthetic

std::vector<RankMsg> generate_uniform_random(const Config& cfg) {
  check_config(cfg);
  Rng rng(cfg.seed, 0x11f02aULL);
  const std::uint64_t per_rank = std::max<std::uint64_t>(
      1, cfg.total_bytes / cfg.ranks / cfg.msg_bytes);
  std::vector<Flow> flows;
  flows.reserve(cfg.ranks * per_rank);
  for (std::uint32_t r = 0; r < cfg.ranks; ++r) {
    for (std::uint64_t k = 0; k < per_rank; ++k) {
      std::uint32_t dst = r;
      while (dst == r) {
        dst = static_cast<std::uint32_t>(rng.next_below(cfg.ranks));
      }
      flows.push_back({r, dst, 1.0, rng.next_double() * cfg.window});
    }
  }
  return emit(flows, cfg.total_bytes, 0.0, rng);
}

std::vector<RankMsg> generate_nearest_neighbor(const Config& cfg) {
  check_config(cfg);
  DV_REQUIRE(cfg.neighbor_stride >= 1 && cfg.neighbor_stride < cfg.ranks,
             "neighbor stride out of range");
  Rng rng(cfg.seed, 0x2e14b0ULL);
  const std::uint64_t per_rank = std::max<std::uint64_t>(
      1, cfg.total_bytes / cfg.ranks / cfg.msg_bytes);
  std::vector<Flow> flows;
  flows.reserve(cfg.ranks * per_rank);
  for (std::uint32_t r = 0; r < cfg.ranks; ++r) {
    const std::uint32_t dst = (r + cfg.neighbor_stride) % cfg.ranks;
    for (std::uint64_t k = 0; k < per_rank; ++k) {
      flows.push_back({r, dst, 1.0, rng.next_double() * cfg.window});
    }
  }
  return emit(flows, cfg.total_bytes, 0.0, rng);
}

// ------------------------------------------------------------- extensions

std::vector<RankMsg> generate_all_to_all(const Config& cfg) {
  check_config(cfg);
  Rng rng(cfg.seed, 0xa77a11ULL);
  std::vector<Flow> flows;
  flows.reserve(static_cast<std::size_t>(cfg.ranks) * (cfg.ranks - 1));
  for (std::uint32_t r = 0; r < cfg.ranks; ++r) {
    for (std::uint32_t d = 0; d < cfg.ranks; ++d) {
      if (d == r) continue;
      // Ring-shifted schedule, as an MPI_Alltoall implementation would use.
      const double phase =
          static_cast<double>((d + cfg.ranks - r) % cfg.ranks) /
          static_cast<double>(cfg.ranks);
      flows.push_back({r, d, 1.0, phase * cfg.window});
    }
  }
  return emit(flows, cfg.total_bytes, cfg.window * 0.01, rng);
}

std::vector<RankMsg> generate_permutation(const Config& cfg) {
  check_config(cfg);
  Rng rng(cfg.seed, 0x9e2174ULL);
  std::vector<std::uint32_t> perm(cfg.ranks);
  std::iota(perm.begin(), perm.end(), 0u);
  rng.shuffle(perm);
  // Fix fixed points to keep the permutation a derangement.
  for (std::uint32_t r = 0; r < cfg.ranks; ++r) {
    if (perm[r] == r) std::swap(perm[r], perm[(r + 1) % cfg.ranks]);
  }
  const std::uint64_t per_rank = std::max<std::uint64_t>(
      1, cfg.total_bytes / cfg.ranks / cfg.msg_bytes);
  std::vector<Flow> flows;
  for (std::uint32_t r = 0; r < cfg.ranks; ++r) {
    for (std::uint64_t k = 0; k < per_rank; ++k) {
      flows.push_back({r, perm[r], 1.0, rng.next_double() * cfg.window});
    }
  }
  return emit(flows, cfg.total_bytes, 0.0, rng);
}

std::vector<RankMsg> generate_bisection(const Config& cfg) {
  check_config(cfg);
  Rng rng(cfg.seed, 0xb15ec7ULL);
  const std::uint32_t half = cfg.ranks / 2;
  DV_REQUIRE(half >= 1, "bisection needs at least 2 ranks");
  const std::uint64_t per_rank = std::max<std::uint64_t>(
      1, cfg.total_bytes / cfg.ranks / cfg.msg_bytes);
  std::vector<Flow> flows;
  for (std::uint32_t r = 0; r < half; ++r) {
    for (std::uint64_t k = 0; k < per_rank; ++k) {
      const double t = rng.next_double() * cfg.window;
      flows.push_back({r, r + half, 1.0, t});
      flows.push_back({r + half, r, 1.0, t});
    }
  }
  return emit(flows, cfg.total_bytes, 0.0, rng);
}

std::vector<RankMsg> generate_transpose(const Config& cfg) {
  check_config(cfg);
  Rng rng(cfg.seed, 0x7a4259ULL);
  const auto [pr, pc] = grid2(cfg.ranks);
  const std::uint64_t per_rank = std::max<std::uint64_t>(
      1, cfg.total_bytes / cfg.ranks / cfg.msg_bytes);
  std::vector<Flow> flows;
  flows.reserve(cfg.ranks * per_rank);
  for (std::uint32_t r = 0; r < cfg.ranks; ++r) {
    const std::uint32_t row = r / pc;
    const std::uint32_t col = r % pc;
    // (row, col) -> (col, row), the partner indexed in the transposed
    // pc x pr layout: col * pr + row < pc * pr = ranks, so the map is a
    // bijection even on non-square grids. Diagonal ranks stay silent.
    const std::uint32_t partner = col * pr + row;
    if (partner == r) continue;
    for (std::uint64_t k = 0; k < per_rank; ++k) {
      flows.push_back({r, partner, 1.0, rng.next_double() * cfg.window});
    }
  }
  return emit(flows, cfg.total_bytes, 0.0, rng);
}

// ------------------------------------------------------------- applications

std::vector<RankMsg> generate_amg(const Config& cfg) {
  check_config(cfg);
  Rng rng(cfg.seed, 0xa319a3ULL);
  const auto [nx, ny, nz] = grid3(cfg.ranks);
  auto rank_of = [&, nx = nx, ny = ny](std::uint32_t x, std::uint32_t y,
                                       std::uint32_t z) {
    return (z * ny + y) * nx + x;
  };
  // Three traffic bursts (setup, solve, refinement) — Fig. 12 of the paper
  // shows bursts at the beginning, middle and end of the AMG run.
  const double bursts[3] = {0.05 * cfg.window, 0.48 * cfg.window,
                            0.88 * cfg.window};
  std::vector<Flow> flows;
  for (std::uint32_t z = 0; z < nz; ++z) {
    for (std::uint32_t y = 0; y < ny; ++y) {
      for (std::uint32_t x = 0; x < nx; ++x) {
        const std::uint32_t r = rank_of(x, y, z);
        std::vector<std::uint32_t> nbrs;
        if (x > 0) nbrs.push_back(rank_of(x - 1, y, z));
        if (x + 1 < nx) nbrs.push_back(rank_of(x + 1, y, z));
        if (y > 0) nbrs.push_back(rank_of(x, y - 1, z));
        if (y + 1 < ny) nbrs.push_back(rank_of(x, y + 1, z));
        if (z > 0) nbrs.push_back(rank_of(x, y, z - 1));
        if (z + 1 < nz) nbrs.push_back(rank_of(x, y, z + 1));
        for (const double bt : bursts) {
          for (std::uint32_t d : nbrs) {
            flows.push_back({r, d, 1.0, bt});
          }
        }
      }
    }
  }
  return emit(flows, cfg.total_bytes, 0.04 * cfg.window, rng);
}

std::vector<RankMsg> generate_amr_boxlib(const Config& cfg) {
  check_config(cfg);
  Rng rng(cfg.seed, 0xab0817ULL);
  // Two-tier load model encoding the paper's observation that the lowest
  // ranks dominate: the "hot" first ~6 % of ranks (refined AMR levels)
  // carry ~65 % of the volume; the rest is sparse background exchange.
  const std::uint32_t hot =
      std::max<std::uint32_t>(2, cfg.ranks * 6 / 100);
  const double phases[2] = {0.25 * cfg.window, 0.65 * cfg.window};
  std::vector<Flow> flows;
  auto skewed_dst = [&](std::uint32_t src, double nearby_prob) {
    // Mixture: nearby (sparse stencil) or skewed toward low ids.
    std::uint32_t dst = src;
    while (dst == src) {
      if (rng.next_bool(nearby_prob)) {
        const std::int64_t delta = rng.next_range(-8, 8);
        const std::int64_t cand = static_cast<std::int64_t>(src) + delta;
        if (cand < 0 || cand >= static_cast<std::int64_t>(cfg.ranks)) continue;
        dst = static_cast<std::uint32_t>(cand);
      } else {
        const double u = rng.next_double();
        dst = static_cast<std::uint32_t>(u * u *
                                         static_cast<double>(cfg.ranks));
        if (dst >= cfg.ranks) dst = cfg.ranks - 1;
      }
    }
    return dst;
  };
  for (std::uint32_t r = 0; r < cfg.ranks; ++r) {
    const bool is_hot = r < hot;
    const double rank_weight =
        is_hot ? 0.65 / hot : 0.35 / (cfg.ranks - hot);
    const std::uint32_t degree =
        static_cast<std::uint32_t>(rng.next_range(2, is_hot ? 12 : 5));
    // Hot (refined-level) ranks exchange mostly with distant coarse ranks,
    // which is what pushes their load onto the inter-group links.
    const double nearby_prob = 0.5;
    for (const double ph : phases) {
      for (std::uint32_t k = 0; k < degree; ++k) {
        flows.push_back({r, skewed_dst(r, nearby_prob), rank_weight / degree, ph});
      }
    }
  }
  return emit(flows, cfg.total_bytes, 0.18 * cfg.window, rng);
}

std::vector<RankMsg> generate_minife(const Config& cfg) {
  check_config(cfg);
  Rng rng(cfg.seed, 0x31f1feULL);
  const auto [pr, pc] = grid2(cfg.ranks);
  const std::uint32_t iters = 8;
  std::vector<Flow> flows;
  for (std::uint32_t it = 0; it < iters; ++it) {
    const double t0 = (static_cast<double>(it) + 0.1) /
                      static_cast<double>(iters) * cfg.window;
    for (std::uint32_t r = 0; r < cfg.ranks; ++r) {
      const std::uint32_t row = r / pc;
      const std::uint32_t col = r % pc;
      // Matrix-vector halo: exchange with the full process row and column
      // (many-to-many). Weight favours the row exchange.
      for (std::uint32_t c2 = 0; c2 < pc; ++c2) {
        if (c2 == col) continue;
        flows.push_back({r, row * pc + c2, 1.0, t0});
      }
      for (std::uint32_t r2 = 0; r2 < pr; ++r2) {
        if (r2 == row) continue;
        flows.push_back({r, r2 * pc + col, 1.0, t0});
      }
      // Dot-product allreduce: butterfly partners (small messages).
      for (std::uint32_t bit = 1; bit < cfg.ranks; bit <<= 1) {
        const std::uint32_t partner = r ^ bit;
        if (partner < cfg.ranks && partner != r) {
          flows.push_back({r, partner, 0.05, t0 + 0.04 * cfg.window});
        }
      }
    }
  }
  return emit(flows, cfg.total_bytes, 0.02 * cfg.window, rng);
}

// ------------------------------------------------------------- dispatch

std::vector<RankMsg> generate(const std::string& name, const Config& cfg) {
  const std::string n = to_lower(trim(name));
  if (n == "uniform_random" || n == "uniform") return generate_uniform_random(cfg);
  if (n == "nearest_neighbor" || n == "nn") return generate_nearest_neighbor(cfg);
  if (n == "all_to_all") return generate_all_to_all(cfg);
  if (n == "permutation") return generate_permutation(cfg);
  if (n == "bisection") return generate_bisection(cfg);
  if (n == "transpose") return generate_transpose(cfg);
  if (n == "amg") return generate_amg(cfg);
  if (n == "amr_boxlib" || n == "amr") return generate_amr_boxlib(cfg);
  if (n == "minife") return generate_minife(cfg);
  throw Error("unknown workload: " + name);
}

std::vector<std::string> workload_names() {
  return {"uniform_random", "nearest_neighbor", "all_to_all", "permutation",
          "bisection", "transpose", "amg", "amr_boxlib", "minife"};
}

std::vector<netsim::Message> map_to_terminals(
    const std::vector<RankMsg>& msgs, const placement::Placement& placement,
    std::size_t job) {
  DV_REQUIRE(job < placement.job_count(), "job index out of range");
  const auto& terms = placement.terminals[job];
  std::vector<netsim::Message> out;
  out.reserve(msgs.size());
  for (const auto& m : msgs) {
    DV_REQUIRE(m.src_rank < terms.size() && m.dst_rank < terms.size(),
               "rank message outside the placed job size");
    const std::uint32_t src = terms[m.src_rank];
    const std::uint32_t dst = terms[m.dst_rank];
    if (src == dst) continue;  // same terminal: no network traffic
    out.push_back(netsim::Message{src, dst, m.bytes, m.time,
                                  static_cast<std::int32_t>(job)});
  }
  return out;
}

}  // namespace dv::workload
