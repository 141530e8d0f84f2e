// Table I — Summary of Applications.
//
// Regenerates the paper's application table (ranks, data volume,
// communication pattern) from the workload generators, and verifies that
// each generator actually produces the pattern the table names: AMG's 3-D
// halo degree, AMR Boxlib's sparse/irregular skew, MiniFE's many-to-many
// fan-out.
#include <cstdio>
#include <map>
#include <set>

#include "bench_common.hpp"
#include "util/str.hpp"
#include "workload/workload.hpp"

int main() {
  using namespace dv;
  bench::banner("Table I — Summary of Applications",
                "AMG 1728 ranks / 1.2 GB / 3D nearest neighbor; "
                "AMR Boxlib 1728 / 2.2 GB / irregular and sparse; "
                "MiniFE 1152 / 147 GB / many-to-many");

  std::printf("%-12s %6s %12s %12s  %s\n", "Application", "Ranks",
              "Paper data", "Sim data", "Comm. Pattern");
  const auto apps = workload::paper_applications();
  for (const auto& a : apps) {
    std::printf("%-12s %6u %12s %12s  %s\n", a.name.c_str(), a.ranks,
                human_bytes(a.paper_bytes).c_str(),
                human_bytes(a.scaled_bytes).c_str(), a.pattern.c_str());
  }

  // Generate each workload at its Table I rank count and measure the
  // communication-matrix structure.
  std::printf("\nmeasured communication structure:\n");
  std::printf("%-12s %10s %12s %14s %16s\n", "app", "messages",
              "avg degree", "max degree", "top-6%-rank share");
  for (const auto& a : apps) {
    workload::Config cfg;
    cfg.ranks = a.ranks;
    cfg.total_bytes = static_cast<std::uint64_t>(a.scaled_bytes);
    cfg.window = 5.0e5;
    cfg.seed = 7;
    const auto msgs = workload::generate(a.name, cfg);
    std::map<std::uint32_t, std::set<std::uint32_t>> partners;
    std::uint64_t total = 0, hot = 0;
    const std::uint32_t hot_cut = a.ranks * 6 / 100;
    for (const auto& m : msgs) {
      partners[m.src_rank].insert(m.dst_rank);
      total += m.bytes;
      if (m.src_rank < hot_cut) hot += m.bytes;
    }
    double deg_sum = 0;
    std::size_t deg_max = 0;
    for (const auto& [r, p] : partners) {
      deg_sum += static_cast<double>(p.size());
      deg_max = std::max(deg_max, p.size());
    }
    const double avg_deg = deg_sum / static_cast<double>(partners.size());
    const double hot_share = static_cast<double>(hot) / static_cast<double>(total);
    std::printf("%-12s %10zu %12.1f %14zu %15.0f%%\n", a.name.c_str(),
                msgs.size(), avg_deg, deg_max, hot_share * 100);

    if (a.name == "amg") {
      bench::shape_check(avg_deg > 5.0 && deg_max == 6,
                         "AMG is a 3-D halo (degree <= 6, interior = 6)");
    } else if (a.name == "amr_boxlib") {
      bench::shape_check(hot_share > 0.55,
                         "AMR Boxlib concentrates >55% of bytes in the "
                         "lowest ranks (irregular and sparse)");
    } else if (a.name == "minife") {
      bench::shape_check(avg_deg > 20.0,
                         "MiniFE is many-to-many (row+column+butterfly "
                         "partners)");
    }
  }

  bench::shape_check(apps[0].scaled_bytes < apps[1].scaled_bytes &&
                         apps[1].scaled_bytes * 4 < apps[2].scaled_bytes,
                     "volume ordering AMG < AMR Boxlib << MiniFE preserved");
  return bench::footer();
}
