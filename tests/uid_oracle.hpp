// Content-uid oracle: run_content_uid's canonical byte stream hashed one
// byte at a time by plain FNV-1a, with no zero-word skipping. The library
// applies each run of zero 8-byte words in a series as one multiplication
// by a power of the prime; the uid tests compare the two on series built
// to put zero runs at every length and alignment. Header-only and free of
// gtest.
#pragma once

#include <cstdint>
#include <string>

#include "metrics/run_schema.hpp"

namespace dv::testing {

inline std::uint64_t byte_wise_content_uid(const metrics::RunMetrics& run) {
  namespace schema = metrics::schema;
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  auto pod = [&mix](auto v) { mix(&v, sizeof(v)); };
  auto str = [&](const std::string& s) {
    pod(static_cast<std::uint64_t>(s.size()));
    mix(s.data(), s.size());
  };
  pod(run.groups);
  pod(run.routers_per_group);
  pod(run.terminals_per_router);
  pod(run.global_per_router);
  str(run.workload);
  str(run.routing);
  str(run.placement);
  pod(run.seed);
  pod(run.end_time);
  pod(static_cast<std::uint64_t>(run.job_names.size()));
  for (const auto& n : run.job_names) str(n);
  schema::for_each_records(run, [&](const char*, metrics::DvrSection,
                                    const auto& recs) {
    using Rec = schema::record_t<decltype(recs)>;
    pod(static_cast<std::uint64_t>(recs.size()));
    for (const Rec& rec : recs) {
      schema::for_each(schema::Table<Rec>::kColumns,
                       [&](const auto& c, std::size_t) { pod(rec.*c.member); });
    }
  });
  schema::for_each(schema::kRouterTallies, [&](const auto& t, std::size_t) {
    const auto& tally = run.*t.member;
    pod(static_cast<std::uint64_t>(tally.size()));
    for (const auto v : tally) pod(v);
  });
  pod(run.sample_dt);
  for (const schema::Series& ts : schema::kSeries) {
    const metrics::SampledSeries& s = run.*ts.member;
    pod(static_cast<std::uint64_t>(s.entities()));
    pod(static_cast<std::uint64_t>(s.frames()));
    mix(s.data(), s.frames() * s.entities() * sizeof(float));
  }
  return h;
}

}  // namespace dv::testing
