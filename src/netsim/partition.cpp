#include "netsim/partition.hpp"

#include <algorithm>
#include <limits>

#include "netsim/network.hpp"
#include "util/common.hpp"

namespace dv::netsim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Credit returns are a few flits of control traffic against whole packets
// of data: they still force a cut channel (and pin its lookahead to the
// credit latency) but should barely influence *where* the cut goes.
constexpr double kCreditWeightScale = 0.1;

/// Fills the cut metrics and the pairwise min-delay matrix from a
/// finished atom -> partition assignment.
void finalize(PartitionPlan& plan, const std::vector<ChannelEdge>& edges) {
  const std::uint32_t parts = plan.num_parts;
  plan.pair_min_delay.assign(static_cast<std::size_t>(parts) * parts, kInf);
  plan.cut_channels = 0;
  plan.total_channels = 0;
  plan.cut_weight = 0.0;
  for (const ChannelEdge& e : edges) {
    if (e.src == e.dst) continue;
    ++plan.total_channels;
    const std::uint32_t ps = plan.atom_partition[e.src];
    const std::uint32_t pd = plan.atom_partition[e.dst];
    if (ps == pd) continue;
    ++plan.cut_channels;
    plan.cut_weight += e.weight;
    double& la = plan.pair_min_delay[ps * parts + pd];
    la = std::min(la, e.min_delay);
  }
}

/// Symmetric atom-to-atom weight matrix (direction does not matter for
/// the cut objective: a channel crossing either way is a crossing).
std::vector<double> weight_matrix(std::uint32_t atoms,
                                  const std::vector<ChannelEdge>& edges) {
  std::vector<double> w(static_cast<std::size_t>(atoms) * atoms, 0.0);
  for (const ChannelEdge& e : edges) {
    if (e.src == e.dst) continue;
    DV_REQUIRE(e.src < atoms && e.dst < atoms,
               "channel edge endpoint out of range");
    w[static_cast<std::size_t>(e.src) * atoms + e.dst] += e.weight;
    w[static_cast<std::size_t>(e.dst) * atoms + e.src] += e.weight;
  }
  return w;
}

}  // namespace

PartitionPlan stripe_partition(std::uint32_t atoms, std::uint32_t parts,
                               const std::vector<ChannelEdge>& edges) {
  DV_REQUIRE(parts >= 1 && parts <= atoms,
             "stripe_partition needs 1 <= parts <= atoms");
  PartitionPlan plan;
  plan.num_atoms = atoms;
  plan.num_parts = parts;
  plan.atom_partition.resize(atoms);
  for (std::uint32_t a = 0; a < atoms; ++a) {
    plan.atom_partition[a] =
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(a) * parts /
                                   atoms);
  }
  finalize(plan, edges);
  return plan;
}

PartitionPlan partition_channels(std::uint32_t atoms, std::uint32_t parts,
                                 const std::vector<ChannelEdge>& edges) {
  DV_REQUIRE(parts >= 1 && parts <= atoms,
             "partition_channels needs 1 <= parts <= atoms");
  const std::vector<double> w = weight_matrix(atoms, edges);

  // --- Phase 1: greedy cluster merge -------------------------------
  // Every atom starts as its own cluster; repeatedly merge the pair of
  // clusters joined by the heaviest total channel weight whose combined
  // size fits the balance cap, until exactly `parts` clusters remain.
  // Ties break on the lowest (a, b) cluster ids so the result is a pure
  // function of the channel graph.
  std::uint32_t cap = (atoms + parts - 1) / parts;
  std::vector<std::uint32_t> cluster_of(atoms);
  for (std::uint32_t a = 0; a < atoms; ++a) cluster_of[a] = a;
  std::vector<std::uint32_t> size(atoms, 1);
  std::vector<bool> alive(atoms, true);
  // Inter-cluster weights, updated on merge (clusters are few: atoms is
  // group-count scale, so the O(atoms^2) matrix is cheap).
  std::vector<double> cw = w;
  std::uint32_t clusters = atoms;
  while (clusters > parts) {
    std::uint32_t best_a = atoms, best_b = atoms;
    double best_w = -1.0;
    for (std::uint32_t a = 0; a < atoms; ++a) {
      if (!alive[a]) continue;
      for (std::uint32_t b = a + 1; b < atoms; ++b) {
        if (!alive[b] || size[a] + size[b] > cap) continue;
        const double weight = cw[static_cast<std::size_t>(a) * atoms + b];
        if (weight > best_w) {
          best_w = weight;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_a == atoms) {
      // No pair fits the cap (pathological sizes): relax it one notch
      // rather than wedge — the refinement pass keeps the cut honest.
      ++cap;
      continue;
    }
    // Merge b into a.
    for (std::uint32_t c = 0; c < atoms; ++c) {
      if (!alive[c] || c == best_a || c == best_b) continue;
      cw[static_cast<std::size_t>(best_a) * atoms + c] +=
          cw[static_cast<std::size_t>(best_b) * atoms + c];
      cw[static_cast<std::size_t>(c) * atoms + best_a] =
          cw[static_cast<std::size_t>(best_a) * atoms + c];
    }
    for (std::uint32_t a2 = 0; a2 < atoms; ++a2) {
      if (cluster_of[a2] == best_b) cluster_of[a2] = best_a;
    }
    size[best_a] += size[best_b];
    alive[best_b] = false;
    --clusters;
  }

  // Renumber surviving clusters 0..parts-1 in ascending id order.
  std::vector<std::uint32_t> remap(atoms, 0);
  std::uint32_t next = 0;
  for (std::uint32_t c = 0; c < atoms; ++c) {
    if (alive[c]) remap[c] = next++;
  }
  PartitionPlan plan;
  plan.num_atoms = atoms;
  plan.num_parts = parts;
  plan.atom_partition.resize(atoms);
  for (std::uint32_t a = 0; a < atoms; ++a) {
    plan.atom_partition[a] = remap[cluster_of[a]];
  }

  // --- Phase 2: KL-style boundary refinement -----------------------
  // Greedy single-atom moves: shift an atom to the partition where its
  // external weight is highest whenever that strictly reduces the cut,
  // respecting the balance cap and never emptying a partition. Bounded
  // passes; stops at the first pass with no accepted move.
  std::vector<std::uint32_t> part_size(parts, 0);
  for (std::uint32_t a = 0; a < atoms; ++a) ++part_size[plan.atom_partition[a]];
  std::vector<double> affinity(parts, 0.0);
  for (int pass = 0; pass < 8; ++pass) {
    bool moved = false;
    for (std::uint32_t a = 0; a < atoms; ++a) {
      const std::uint32_t from = plan.atom_partition[a];
      if (part_size[from] <= 1) continue;  // never empty a partition
      std::fill(affinity.begin(), affinity.end(), 0.0);
      for (std::uint32_t b = 0; b < atoms; ++b) {
        if (b == a) continue;
        affinity[plan.atom_partition[b]] +=
            w[static_cast<std::size_t>(a) * atoms + b];
      }
      std::uint32_t best = from;
      double best_gain = 0.0;
      for (std::uint32_t p = 0; p < parts; ++p) {
        if (p == from || part_size[p] + 1 > cap) continue;
        const double gain = affinity[p] - affinity[from];
        if (gain > best_gain) {
          best_gain = gain;
          best = p;
        }
      }
      if (best != from) {
        plan.atom_partition[a] = best;
        --part_size[from];
        ++part_size[best];
        ++plan.refine_moves;
        moved = true;
      }
    }
    if (!moved) break;
  }

  finalize(plan, edges);
  return plan;
}

std::vector<ChannelEdge> channel_graph(const Fabric& fabric,
                                       const Params& params) {
  std::vector<ChannelEdge> edges;
  for (std::uint32_t r = 0; r < fabric.num_routers(); ++r) {
    const std::uint32_t src_group = fabric.router_group(r);
    for (std::uint32_t p = 0; p < fabric.ports_per_router(); ++p) {
      const Port& hop = fabric.port(r, p);
      if (hop.cls != LinkClass::kLocal && hop.cls != LinkClass::kGlobal) {
        continue;
      }
      const std::uint32_t dst_group = fabric.router_group(hop.dst_router);
      if (dst_group == src_group) continue;
      // Data: packets traverse the cable with at least its wire latency
      // before anything happens at the far router.
      edges.push_back({src_group, dst_group, hop.bandwidth, hop.latency});
      // Credit return for this cable flows the other way.
      edges.push_back({dst_group, src_group,
                       hop.bandwidth * kCreditWeightScale,
                       params.credit_latency});
    }
  }
  return edges;
}

}  // namespace dv::netsim
