#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/str.hpp"

namespace dv::fault {

// ----------------------------------------------------------------- parsing

namespace {

std::uint32_t parse_nat(const std::string& s, const std::string& what) {
  DV_REQUIRE(!s.empty(), "missing " + what + " in fault spec");
  for (char c : s) {
    DV_REQUIRE(c >= '0' && c <= '9', "bad " + what + " in fault spec: " + s);
  }
  return static_cast<std::uint32_t>(std::stoul(s));
}

/// Parses "g<G>" or "g<G>.r<R>"; `has_rank` reports which form was used.
RouterRef parse_endpoint(const std::string& s, bool& has_rank) {
  DV_REQUIRE(starts_with(s, "g"), "fault endpoint must start with 'g': " + s);
  RouterRef ref;
  const auto dot = s.find('.');
  if (dot == std::string::npos) {
    ref.group = parse_nat(s.substr(1), "group");
    has_rank = false;
    return ref;
  }
  ref.group = parse_nat(s.substr(1, dot - 1), "group");
  const std::string r = s.substr(dot + 1);
  DV_REQUIRE(starts_with(r, "r"), "fault endpoint rank must be 'r<N>': " + s);
  ref.rank = parse_nat(r.substr(1), "rank");
  has_rank = true;
  return ref;
}

double parse_time(const std::string& s) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    DV_REQUIRE(pos == s.size(), "trailing characters in fault time: " + s);
    return v;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw Error("bad time in fault spec: " + s);
  }
}

/// Shortest decimal form that parses back to exactly the same double.
std::string fmt_time(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (int prec = 1; prec < 17; ++prec) {
    char probe[64];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    if (std::stod(probe) == v) return probe;
  }
  return buf;
}

// The strings here are built by appending in place: gcc 12 at -O3 warns
// (-Wrestrict) on `"literal" + std::string` temporaries.
std::string endpoint_to_string(const RouterRef& r, bool group_level) {
  std::string s = "g";
  s += std::to_string(r.group);
  if (!group_level) {
    s += ".r";
    s += std::to_string(r.rank);
  }
  return s;
}

}  // namespace

FaultSpec parse_fault(const std::string& spec) {
  const std::string s = trim(spec);
  const auto colon = s.find(':');
  DV_REQUIRE(colon != std::string::npos,
             "fault spec must be kind:target@times — got: " + spec);
  const std::string kind = to_lower(s.substr(0, colon));
  std::string rest = s.substr(colon + 1);

  const auto at = rest.find('@');
  DV_REQUIRE(at != std::string::npos, "fault spec missing '@times': " + spec);
  const std::string target = trim(rest.substr(0, at));
  const auto times = split(rest.substr(at + 1), ':');
  DV_REQUIRE(times.size() == 1 || times.size() == 2,
             "fault times must be t_down[:t_up]: " + spec);

  FaultSpec f;
  f.t_down = parse_time(trim(times[0]));
  DV_REQUIRE(f.t_down >= 0.0 && std::isfinite(f.t_down),
             "fault t_down must be finite and non-negative: " + spec);
  if (times.size() == 2) {
    f.t_up = parse_time(trim(times[1]));
    DV_REQUIRE(f.t_up > f.t_down,
               "fault t_up must be after t_down: " + spec);
  }

  if (kind == "router") {
    f.kind = FaultSpec::Kind::kRouter;
    bool has_rank = false;
    f.src = parse_endpoint(target, has_rank);
    DV_REQUIRE(has_rank, "router fault needs g<G>.r<R>: " + spec);
    return f;
  }
  DV_REQUIRE(kind == "link", "fault kind must be link or router: " + spec);
  f.kind = FaultSpec::Kind::kLink;
  const auto arrow = target.find("->");
  DV_REQUIRE(arrow != std::string::npos,
             "link fault needs src->dst endpoints: " + spec);
  bool src_rank = false, dst_rank = false;
  f.src = parse_endpoint(trim(target.substr(0, arrow)), src_rank);
  f.dst = parse_endpoint(trim(target.substr(arrow + 2)), dst_rank);
  DV_REQUIRE(src_rank == dst_rank,
             "link fault endpoints must both be g<G> or both g<G>.r<R>: " +
                 spec);
  f.group_level = !src_rank;
  if (f.group_level) {
    DV_REQUIRE(f.src.group != f.dst.group,
               "group-level link fault needs two distinct groups: " + spec);
  } else {
    DV_REQUIRE(!(f.src == f.dst), "link fault endpoints are equal: " + spec);
  }
  return f;
}

std::string to_string(const FaultSpec& f) {
  std::string s = f.kind == FaultSpec::Kind::kRouter ? "router:" : "link:";
  s += endpoint_to_string(f.src, f.group_level);
  if (f.kind == FaultSpec::Kind::kLink) {
    s += "->";
    s += endpoint_to_string(f.dst, f.group_level);
  }
  s += '@';
  s += fmt_time(f.t_down);
  if (std::isfinite(f.t_up)) {
    s += ':';
    s += fmt_time(f.t_up);
  }
  return s;
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    plan.faults.push_back(parse_fault(line));
  }
  return plan;
}

FaultPlan FaultPlan::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DV_REQUIRE(is.good(), "cannot open fault plan: " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse(buf.str());
}

// ----------------------------------------------------------------- timeline

namespace {

void merge_intervals(FaultTimeline::Intervals& iv) {
  std::sort(iv.begin(), iv.end());
  std::size_t out = 0;
  for (std::size_t i = 0; i < iv.size(); ++i) {
    if (out > 0 && iv[i].first <= iv[out - 1].second) {
      iv[out - 1].second = std::max(iv[out - 1].second, iv[i].second);
    } else {
      iv[out++] = iv[i];
    }
  }
  iv.resize(out);
}

double sum_clipped(const FaultTimeline::Intervals& iv, double end) {
  double s = 0.0;
  for (const auto& [lo, hi] : iv) {
    if (lo >= end) break;
    s += std::min(hi, end) - lo;
  }
  return s;
}

const FaultTimeline::Intervals* find_intervals(
    const std::unordered_map<std::uint32_t, FaultTimeline::Intervals>& m,
    std::uint32_t id) {
  const auto it = m.find(id);
  return it == m.end() ? nullptr : &it->second;
}

}  // namespace

FaultTimeline::FaultTimeline(const topo::Dragonfly& topo,
                             const FaultPlan& plan) {
  const std::uint32_t nterm = topo.terminals_per_router();
  auto router_of = [&](const RouterRef& ref, const FaultSpec& f) {
    DV_REQUIRE(ref.group < topo.groups() &&
                   ref.rank < topo.routers_per_group(),
               "fault endpoint outside the topology: " + to_string(f));
    return topo.router_id(ref.group, ref.rank);
  };

  for (const auto& f : plan.faults) {
    if (f.kind == FaultSpec::Kind::kRouter) {
      routers_[router_of(f.src, f)].emplace_back(f.t_down, f.t_up);
      ++faults_;
      continue;
    }
    if (f.group_level) {
      DV_REQUIRE(f.src.group < topo.groups() && f.dst.group < topo.groups(),
                 "fault endpoint outside the topology: " + to_string(f));
      const topo::GlobalEnd exit = topo.group_exit(f.src.group, f.dst.group);
      global_[topo.global_link_id(exit.router, exit.channel)].emplace_back(
          f.t_down, f.t_up);
      ++faults_;
      continue;
    }
    const std::uint32_t src = router_of(f.src, f);
    const std::uint32_t dst = router_of(f.dst, f);
    if (f.src.group == f.dst.group) {
      const std::uint32_t lidx =
          topo.local_port(f.src.rank, f.dst.rank) - nterm;
      local_[topo.local_link_id(src, lidx)].emplace_back(f.t_down, f.t_up);
      ++faults_;
      continue;
    }
    bool found = false;
    for (std::uint32_t c = 0; c < topo.global_per_router(); ++c) {
      if (topo.global_neighbor(src, c).router == dst) {
        global_[topo.global_link_id(src, c)].emplace_back(f.t_down, f.t_up);
        found = true;
        break;
      }
    }
    DV_REQUIRE(found, "no global link between the named routers: " +
                          to_string(f));
    ++faults_;
  }

  for (auto& [id, iv] : local_) merge_intervals(iv);
  for (auto& [id, iv] : global_) merge_intervals(iv);
  for (auto& [id, iv] : routers_) merge_intervals(iv);

  // Wake schedule: the source router of a faulted link re-evaluates its
  // ports at every transition; a faulted router wakes itself, its group
  // peers (their local links into it die with it) and its global
  // neighbors. Dedup'd so simultaneous transitions yield one event.
  std::vector<std::pair<std::uint32_t, double>> wakes;
  auto add_wakes = [&wakes](std::uint32_t router, const Intervals& iv) {
    for (const auto& [lo, hi] : iv) {
      wakes.emplace_back(router, lo);
      if (std::isfinite(hi)) wakes.emplace_back(router, hi);
    }
  };
  for (const auto& [id, iv] : local_) {
    add_wakes(topo.local_link_ends(id).first, iv);
  }
  for (const auto& [id, iv] : global_) {
    add_wakes(topo.global_link_src(id).router, iv);
  }
  for (const auto& [r, iv] : routers_) {
    add_wakes(r, iv);
    const std::uint32_t g = topo.router_group(r);
    for (std::uint32_t rank = 0; rank < topo.routers_per_group(); ++rank) {
      const std::uint32_t peer = topo.router_id(g, rank);
      if (peer != r) add_wakes(peer, iv);
    }
    for (std::uint32_t c = 0; c < topo.global_per_router(); ++c) {
      add_wakes(topo.global_neighbor(r, c).router, iv);
    }
  }
  std::sort(wakes.begin(), wakes.end());
  wakes.erase(std::unique(wakes.begin(), wakes.end()), wakes.end());
  wakes_ = std::move(wakes);
}

bool FaultTimeline::is_down(const Map& m, std::uint32_t id, double t) {
  const Intervals* iv = find_intervals(m, id);
  if (!iv) return false;
  // First interval starting after t; the one before it is the only
  // candidate containing t.
  auto it = std::upper_bound(
      iv->begin(), iv->end(), t,
      [](double v, const std::pair<double, double>& p) { return v < p.first; });
  if (it == iv->begin()) return false;
  --it;
  return t < it->second;
}

double FaultTimeline::downtime(const Map& m, std::uint32_t id, double end) {
  const Intervals* iv = find_intervals(m, id);
  return iv ? sum_clipped(*iv, end) : 0.0;
}

double FaultTimeline::effective_link_downtime(bool global, std::uint32_t id,
                                              std::uint32_t src_router,
                                              std::uint32_t dst_router,
                                              double end) const {
  Intervals merged;
  if (const Intervals* iv = find_intervals(global ? global_ : local_, id)) {
    merged.insert(merged.end(), iv->begin(), iv->end());
  }
  for (std::uint32_t r : {src_router, dst_router}) {
    if (const Intervals* iv = find_intervals(routers_, r)) {
      merged.insert(merged.end(), iv->begin(), iv->end());
    }
  }
  if (merged.empty()) return 0.0;
  merge_intervals(merged);
  return sum_clipped(merged, end);
}

}  // namespace dv::fault
