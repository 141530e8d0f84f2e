// analyst_bench — drives one workload of the analyst-loop benchmark and
// writes its raw measurements (set-up repetitions, timed passes, counts,
// correctness checks and, with --trace 1, the span list) as JSON. run.py
// builds this binary, runs it, and turns the raw file into metrics.
//
//   analyst_bench --workload NAME --seed N --seconds S --trace 0|1
//                 --workdir DIR --out RESULT.json
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  std::string workload, out;
  ab::Context ctx;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      ctx.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      ctx.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      ctx.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--workdir") {
      ctx.workdir = val;
    } else if (key == "--out") {
      out = val;
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0 || out.empty() || ctx.workdir.empty()) {
    std::fprintf(stderr,
                 "usage: analyst_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR --out RESULT.json\n");
    return 2;
  }
  ctx.rec.workload = workload;
  ctx.rec.seed = ctx.seed;
  ctx.rec.trace = ctx.trace;

  int rc = 0;
  try {
    if (workload == "loop-df6-packet") {
      ab::run_loop_df6_packet(ctx);
    } else if (workload == "brush-serve-df6") {
      ab::run_brush_serve_df6(ctx);
    } else if (workload == "sweep-df5-flow") {
      ab::run_sweep_df5_flow(ctx);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    // Reported as a failed operation; the result is still written.
    std::fprintf(stderr, "workload %s failed: %s\n", workload.c_str(),
                 e.what());
    ctx.rec.check("workload ran to completion", false, e.what());
    rc = 1;
  }
  ab::write_result(ctx, out);
  return rc;
}
