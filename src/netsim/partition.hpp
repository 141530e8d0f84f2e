// Topology-aware partitioning for the parallel netsim engine.
//
// The unit of placement is an *atom* — an indivisible block of LPs that
// must land on one partition (for netsim an atom is a fabric group: a
// dragonfly group, or a fat-tree pod or core pseudo-pod).
// The input is the directed channel graph between atoms; each edge carries
// the traffic-class weight used by the cut objective (how much crossing
// it is expected to hurt) and the minimum latency any event travelling
// over it can carry (what bounds the pairwise lookahead if it crosses).
//
// partition_channels() minimizes the weight of channels crossing the cut:
// greedy cluster merging (heaviest inter-cluster weight first, capped at
// ceil(atoms/parts) atoms per partition) followed by KL-style boundary
// refinement (single-atom moves with positive cut gain). The result is
// deterministic — no RNG, fixed tie-breaks — because partition layout
// feeds the parallel engine whose output must be byte-identical to the
// sequential engine regardless of how clever the placement is.
//
// stripe_partition() is the naive contiguous striping the engine used
// before (atom a -> a * parts / atoms), kept as the comparison baseline:
// tests assert the optimized cut is never worse.
//
// The plan also carries the per-partition-pair lookahead matrix: entry
// (p, q) is the minimum `min_delay` over channels that actually cross
// from p to q, or +infinity when no channel does (the parallel engine
// treats +infinity pairs as unreachable — sends there throw).
#pragma once

#include <cstdint>
#include <vector>


namespace dv::netsim {

struct Params;
class Fabric;

/// One directed channel between atoms. `weight` is the cut-objective
/// weight (traffic class x bandwidth), `min_delay` the smallest latency
/// any cross-partition event on this channel can carry.
struct ChannelEdge {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  double weight = 1.0;
  double min_delay = 0.0;
};

/// Output of a partitioning pass, including cut provenance for obs/bench.
struct PartitionPlan {
  std::uint32_t num_atoms = 0;
  std::uint32_t num_parts = 0;
  std::vector<std::uint32_t> atom_partition;  ///< atom -> partition id
  std::uint64_t cut_channels = 0;   ///< directed channels crossing the cut
  std::uint64_t total_channels = 0; ///< directed channels between atoms
  double cut_weight = 0.0;          ///< total weight of crossing channels
  std::uint64_t refine_moves = 0;   ///< KL-style moves accepted
  /// Row-major [src_part][dst_part]: min `min_delay` over channels
  /// crossing that ordered pair; +infinity when none does. The diagonal
  /// is +infinity (same-partition events need no lookahead).
  std::vector<double> pair_min_delay;

  double pair_lookahead(std::uint32_t src, std::uint32_t dst) const {
    return pair_min_delay[src * num_parts + dst];
  }
};

/// Naive contiguous striping baseline: atom a -> a * parts / atoms.
PartitionPlan stripe_partition(std::uint32_t atoms, std::uint32_t parts,
                               const std::vector<ChannelEdge>& edges);

/// Greedy cluster merge + KL-style refinement minimizing cut weight.
/// Every partition ends up non-empty with at most ceil(atoms / parts)
/// atoms (the cap is relaxed only if merging would otherwise wedge).
/// Requires 1 <= parts <= atoms; edges with src == dst are ignored.
PartitionPlan partition_channels(std::uint32_t atoms, std::uint32_t parts,
                                 const std::vector<ChannelEdge>& edges);

/// Channel graph at group granularity: one data edge per router-to-router
/// link whose ends lie in different groups (weight = link bandwidth,
/// min_delay = link latency) and one credit-return edge in the reverse
/// direction (light weight, min_delay = credit latency), in router-major
/// port order. On a dragonfly these are exactly the global links.
std::vector<ChannelEdge> channel_graph(const Fabric& fabric,
                                       const Params& params);

}  // namespace dv::netsim
