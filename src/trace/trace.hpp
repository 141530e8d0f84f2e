// Communication trace recording and replay — the stand-in for the DUMPI
// MPI trace path in the paper's toolchain (Fig. 1 "Application Traces").
//
// A trace is a rank-level message list plus metadata. The binary format is
// little-endian, versioned, and validated on load. Replaying a trace
// through a placement yields exactly the messages the original workload
// generator produced, so the trace-driven and generator-driven paths are
// interchangeable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/workload.hpp"

namespace dv::trace {

struct Trace {
  std::string app;            ///< workload/application name
  std::uint32_t ranks = 0;
  std::vector<workload::RankMsg> messages;

  std::uint64_t total_bytes() const { return workload::total_bytes(messages); }

  bool operator==(const Trace&) const = default;
};

/// Records a generated workload as a trace.
Trace record(const std::string& app, std::uint32_t ranks,
             std::vector<workload::RankMsg> messages);

/// Binary serialization (magic "DVTR", version 1).
void save_binary(const Trace& t, const std::string& path);
Trace load_binary(const std::string& path);

/// Validates invariants (ranks in range, bytes > 0, times >= 0); throws.
void validate(const Trace& t);

/// Aggregate statistics of a trace (for trace-info and workload studies).
struct TraceSummary {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double t_first = 0.0, t_last = 0.0;
  double avg_degree = 0.0;   ///< mean distinct destinations per sender
  std::uint32_t max_degree = 0;
  std::uint32_t active_ranks = 0;  ///< ranks that send at least once
  double top_decile_share = 0.0;   ///< byte share of the busiest 10% senders
};
TraceSummary summarize(const Trace& t);

}  // namespace dv::trace
