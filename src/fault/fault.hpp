// Deterministic fault injection for the dragonfly simulator.
//
// A FaultPlan is a list of scheduled link-down/up and router-down/up
// intervals, parsed from a spec file (--faults) or inline CLI arguments
// (--fault). The plan is pure configuration: compiled against a concrete
// topology it becomes a FaultTimeline, where "is entity X down at time t"
// is a pure function of the plan — sorted, merged down-intervals queried
// by binary search. Liveness never depends on simulation state, and the
// netsim reacts through ordinary PDES events scheduled at the interval
// boundaries, so a faulted run is as deterministic as a healthy one.
//
// Spec grammar (one fault per line / argument, '#' starts a comment):
//   link:g<G>.r<R>->g<G'>.r<R'>@<t_down>[:<t_up>]  exact directed link
//   link:g<G>->g<G'>@<t_down>[:<t_up>]             the unique inter-group
//                                                  cable (canonical wiring)
//   router:g<G>.r<R>@<t_down>[:<t_up>]             whole router
// Times are ns; a missing <t_up> means the entity never recovers.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "topology/dragonfly.hpp"
#include "util/common.hpp"

namespace dv::fault {

/// A (group, rank) router address as written in fault specs.
struct RouterRef {
  std::uint32_t group = 0;
  std::uint32_t rank = 0;
  bool operator==(const RouterRef&) const = default;
};

/// One scheduled fault: the entity is down over [t_down, t_up).
struct FaultSpec {
  enum class Kind { kLink, kRouter };
  Kind kind = Kind::kRouter;
  RouterRef src;            ///< the router, or the link's source router
  RouterRef dst;            ///< link destination router (kLink only)
  /// Group-level link form ("link:g2->g5"): ranks are resolved from the
  /// topology's group_exit wiring at timeline-compile time.
  bool group_level = false;
  double t_down = 0.0;
  double t_up = std::numeric_limits<double>::infinity();

  bool operator==(const FaultSpec&) const = default;
};

/// Parses one fault spec; throws dv::Error with the offending text on
/// malformed input. to_string(parse_fault(s)) round-trips semantically.
FaultSpec parse_fault(const std::string& spec);
std::string to_string(const FaultSpec& f);

/// An ordered list of scheduled faults (order is irrelevant to semantics).
struct FaultPlan {
  std::vector<FaultSpec> faults;

  bool empty() const { return faults.empty(); }

  /// Parses a multi-line spec ('#' comments, blank lines ignored).
  static FaultPlan parse(const std::string& text);
  static FaultPlan load(const std::string& path);
};

/// A FaultPlan resolved against a topology: per-entity sorted disjoint
/// down-intervals plus the wake schedule the simulator needs. Queries are
/// pure functions of (plan, t).
class FaultTimeline {
 public:
  /// Sorted, merged, half-open [down, up) intervals.
  using Intervals = std::vector<std::pair<double, double>>;

  FaultTimeline() = default;  ///< empty timeline: nothing ever fails
  FaultTimeline(const topo::Dragonfly& topo, const FaultPlan& plan);

  bool empty() const { return faults_ == 0; }
  std::size_t faults() const { return faults_; }
  /// Distinct entities with at least one scheduled down-interval.
  std::size_t entities() const {
    return local_.size() + global_.size() + routers_.size();
  }

  bool local_link_down(std::uint32_t id, double t) const {
    return is_down(local_, id, t);
  }
  bool global_link_down(std::uint32_t id, double t) const {
    return is_down(global_, id, t);
  }
  bool router_down(std::uint32_t router, double t) const {
    return is_down(routers_, router, t);
  }

  /// Scheduled downtime of the entity itself, clipped to [0, end).
  double local_link_downtime(std::uint32_t id, double end) const {
    return downtime(local_, id, end);
  }
  double global_link_downtime(std::uint32_t id, double end) const {
    return downtime(global_, id, end);
  }
  double router_downtime(std::uint32_t router, double end) const {
    return downtime(routers_, router, end);
  }

  /// Downtime during which the link was *effectively* unusable: its own
  /// intervals unioned with both endpoint routers' (a link hangs off live
  /// electronics on both ends), clipped to [0, end).
  double effective_link_downtime(bool global, std::uint32_t id,
                                 std::uint32_t src_router,
                                 std::uint32_t dst_router, double end) const;

  /// (router, time) pairs at which some adjacent entity changes liveness —
  /// the simulator schedules one wake event per pair so ports re-evaluate
  /// exactly at the transitions. Sorted, deduplicated.
  const std::vector<std::pair<std::uint32_t, double>>& wakes() const {
    return wakes_;
  }

 private:
  using Map = std::unordered_map<std::uint32_t, Intervals>;
  static bool is_down(const Map& m, std::uint32_t id, double t);
  static double downtime(const Map& m, std::uint32_t id, double end);

  Map local_, global_, routers_;
  std::vector<std::pair<std::uint32_t, double>> wakes_;
  std::size_t faults_ = 0;
};

}  // namespace dv::fault
