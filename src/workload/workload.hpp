// Workload generators.
//
// The paper drives its case studies with two synthetic traffic patterns
// (nearest neighbour, uniform random) and DUMPI communication traces of
// three DOE Design Forward applications (Table I):
//
//   AMG        1728 ranks  1.2 GB   3-D nearest-neighbour halo exchange
//   AMR Boxlib 1728 ranks  2.2 GB   irregular and sparse
//   MiniFE     1152 ranks  147 GB   many-to-many
//
// We do not have the proprietary traces, so each application is replaced by
// a synthetic generator reproducing its *communication structure* (matrix
// shape, load concentration, temporal phases — see DESIGN.md):
//   - AMG: 12x12x12 rank grid, 6-point halo exchange, three traffic bursts
//     (the paper's Fig. 12 shows bursts at the start, middle and end).
//   - AMR Boxlib: power-law (Zipf) load concentrated in the lowest ranks —
//     the paper observes the first two groups generating >60 % of
//     inter-group traffic — over a sparse irregular neighbour set.
//   - MiniFE: 2-D row/column process-grid exchange plus allreduce-style
//     butterfly phases repeated over CG iterations (many-to-many).
//
// Generators emit rank-level messages; map_to_terminals() applies a job
// placement to turn them into terminal-level netsim messages.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/network.hpp"
#include "placement/placement.hpp"

namespace dv::workload {

/// A rank-level message (independent of placement).
struct RankMsg {
  std::uint32_t src_rank = 0;
  std::uint32_t dst_rank = 0;
  std::uint64_t bytes = 0;
  double time = 0.0;  // ns

  bool operator==(const RankMsg&) const = default;
};

/// Table I of the paper.
struct AppInfo {
  std::string name;
  std::uint32_t ranks;
  double paper_bytes;     ///< data volume reported in the paper
  double scaled_bytes;    ///< default volume simulated here (see DESIGN.md)
  std::string pattern;
};
std::vector<AppInfo> paper_applications();
const AppInfo& app_info(const std::string& name);  // throws on unknown

/// Generator configuration.
struct Config {
  std::uint32_t ranks = 0;
  std::uint64_t total_bytes = 0;   ///< across all ranks
  double window = 1.0e6;           ///< injection window (ns)
  std::uint64_t seed = 1;
  std::uint32_t msg_bytes = 16 * 1024;  ///< nominal message granularity
  /// nearest_neighbor only: rank r sends to r + stride. Stride 1 is a ring
  /// over terminals; stride = terminals-per-router targets the same slot
  /// on the next router, so all flows of a router share one link (the
  /// congestion-forming variant used for Fig. 7).
  std::uint32_t neighbor_stride = 1;
};

// ---- synthetic patterns (Sec. V-A) -----------------------------------
std::vector<RankMsg> generate_uniform_random(const Config& cfg);
std::vector<RankMsg> generate_nearest_neighbor(const Config& cfg);

// ---- extension patterns ----------------------------------------------
std::vector<RankMsg> generate_all_to_all(const Config& cfg);
std::vector<RankMsg> generate_permutation(const Config& cfg);
std::vector<RankMsg> generate_bisection(const Config& cfg);
/// Matrix-transpose exchange over the grid2(ranks) process grid:
/// rank (row, col) sends to rank (col, row). Diagonal ranks are local-only
/// and emit nothing. A classic adversarial pattern for minimal routing.
std::vector<RankMsg> generate_transpose(const Config& cfg);

// ---- application stand-ins (Table I) ----------------------------------
std::vector<RankMsg> generate_amg(const Config& cfg);
std::vector<RankMsg> generate_amr_boxlib(const Config& cfg);
std::vector<RankMsg> generate_minife(const Config& cfg);

/// Dispatch by name: "uniform_random", "nearest_neighbor", "all_to_all",
/// "permutation", "bisection", "transpose", "amg", "amr_boxlib", "minife".
std::vector<RankMsg> generate(const std::string& name, const Config& cfg);
/// The canonical names generate() accepts (not the short aliases).
std::vector<std::string> workload_names();

/// Applies a placement: rank r of job `job` runs on
/// placement.terminals[job][r]. Messages whose endpoints land on the same
/// terminal are dropped (they never enter the network). Ranks must fit the
/// placement.
std::vector<netsim::Message> map_to_terminals(
    const std::vector<RankMsg>& msgs, const placement::Placement& placement,
    std::size_t job);

/// Total bytes across a rank-message list.
std::uint64_t total_bytes(const std::vector<RankMsg>& msgs);

}  // namespace dv::workload
