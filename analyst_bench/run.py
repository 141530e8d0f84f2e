#!/usr/bin/env python3
"""The analyst-loop benchmark: builds the benchmark binary from the repository's
sources, runs workloads, checks their outputs and prints their metrics.

    python3 analyst_bench/run.py --workload loop-df6-packet --seed 1 \
        --seconds 15 --trace 0

Run it from the repository root; without --workload it runs every workload
in turn. For each workload the last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones, taken from the
span trace (kept in .bench_build/traces/). Build output and progress go to
standard error and .bench_build/. See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402

WORKLOADS = ("loop-df6-packet", "brush-serve-df6", "sweep-df5-flow")
DEFAULT_SEED = 1
RUN_LIMIT_S = 165      # one workload run, the build excluded
BUILD_LIMIT_S = 840    # a cold build


def fail(msg, code):
    print(f"analyst_bench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in a process group of its own and waits for it. On a
    timeout, or any other exception, kills the whole group (compilers
    included) and waits for it before re-raising."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def git_commit(root):
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def build(build_dir, env):
    """Configures (once) and builds the benchmark binary; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "analyst_bench", "-j", str(nproc())])
    deadline = time.monotonic() + BUILD_LIMIT_S
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = run_group(cmd, max(1.0, deadline - time.monotonic()),
                               stdout=out, stderr=subprocess.STDOUT, env=env)
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log}", 3)
            if rc != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({' '.join(cmd[:2])}); see {log}", 3)
    binary = build_dir / "analyst_bench"
    if not binary.exists():
        fail(f"build produced no binary at {binary}", 3)
    return binary


def print_summary(raw, workload, args, commit):
    prov = dict(raw["provenance"], nproc=nproc(), git_commit=commit)
    print(f"analyst_bench {workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if not prov["ndebug"] or prov["build_type"] in ("", "Debug"):
        msg = ("WARNING: NON-OPTIMIZED BUILD "
               f"(build_type={prov['build_type']!r}, "
               f"NDEBUG={prov['ndebug']}) -- timings are not comparable")
        print(msg)
        print(msg, file=sys.stderr)
    untraced = [u for u in raw["units"]
                if u["kind"] == "pass" and not u["traced"]]
    timings = {
        "setup_s": [u["wall_s"] for u in raw["units"] if u["kind"] == "setup"],
        "loop_s": [u["wall_s"] for u in untraced],
        "first_view_s": [u["first_view_s"] for u in untraced],
        "brush_ms": [ms for u in untraced for ms in u["brush_ms"]],
    }
    for name, values in timings.items():
        t = benchstats.timing_summary(values)
        tail = (f"p{t['tail_p']:g} {t['tail']:.6g}" if t["tail_p"]
                else "no percentile with >=10 samples beyond it")
        print(f"  {name:<13} median {t['median'] or 0:.6g}  {tail}  "
              f"n={t['n']}")
    attempted = max(1, raw["ops_attempted"])
    print(f"  fail_frac     {raw['ops_failed'] / attempted:.6g} "
          f"({raw['ops_failed']} of {raw['ops_attempted']} operations)")
    bad = [c for c in raw["checks"] if not c["ok"]]
    print(f"  checks        {len(raw['checks']) - len(bad)} of "
          f"{len(raw['checks'])} passed")
    for c in bad:
        print(f"    FAILED {c['name']}: {c['detail']}")


def run_workload(workload, args, root, binary, env):
    """Runs one workload and prints its summary and JSON line."""
    bench_root = root / ".bench_build"
    started = time.monotonic()
    work = bench_root / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work / "result.json"
    try:
        cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(work), "--out", str(result)]
        try:
            rc = run_group(cmd, RUN_LIMIT_S, cwd=root, stdout=sys.stderr,
                           env=env)
        except subprocess.TimeoutExpired:
            fail(f"{workload} exceeded {RUN_LIMIT_S}s", 4)
        if not result.exists():
            fail(f"{workload} exited {rc} without a result", 4)
        raw = json.loads(result.read_text())
        if args.trace:
            traces = bench_root / "traces"
            traces.mkdir(exist_ok=True)
            shutil.copyfile(result,
                            traces / f"{workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print_summary(raw, workload, args, git_commit(root))
    if args.trace:
        values = benchstats.per_layer(raw)
        units = benchstats.per_layer_units()
    else:
        values = benchstats.end_to_end(raw)
        units = benchstats.END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    correct = (rc == 0 and raw["ops_failed"] == 0
               and all(c["ok"] for c in raw["checks"]))
    print(f"  {workload} took {time.monotonic() - started:.1f}s after the "
          "build", file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": max(1, raw["ops_attempted"]),
                      "failed": raw["ops_failed"],
                      "metrics": metrics}), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = HERE.parent
    if not (root / "src" / "CMakeLists.txt").exists():
        fail(f"dragonviz sources not found under {root}/src; run from a "
             "full checkout", 2)
    tmp = root / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Compilers and the benchmark binary keep their temporary files in the checkout.
    env = dict(os.environ, TMPDIR=str(tmp))
    binary = build(root / ".bench_build" / "analyst_bench", env)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        run_workload(workload, args, root, binary, env)


if __name__ == "__main__":
    main()
