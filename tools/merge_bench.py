#!/usr/bin/env python3
"""Merge every BENCH_*.json under the given directories into one document.

CI produces one JSON per bench gate (BENCH_perf.json, BENCH_va.json,
BENCH_store.json, ...) spread across per-job artifacts. This script folds
them into a single `bench-trajectory` document so one download shows the
whole performance picture of a run:

    {
      "schema": "dragonviz.bench-trajectory/1",
      "benches": [
        {"name": "BENCH_perf.json", "source": "bench-perf", "data": {...}},
        ...
      ]
    }

`source` is the path of the containing directory relative to the scan
root (the artifact name in CI), so two lanes uploading the same filename
stay distinguishable. Files that fail to parse are reported and skipped: a
truncated artifact must not hide every other measurement.

Usage:
    merge_bench.py --out BENCH_trajectory.json DIR [DIR ...]
"""

import argparse
import json
import os
import sys


def collect(roots):
    """Yields (source, name, path) for every BENCH_*.json under roots."""
    for root in roots:
        if os.path.isfile(root):
            yield os.path.basename(os.path.dirname(root)) or ".", \
                os.path.basename(root), root
            continue
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in sorted(filenames):
                if not (name.startswith("BENCH_") and name.endswith(".json")):
                    continue
                source = os.path.relpath(dirpath, root)
                yield ("." if source == "." else source), name, \
                    os.path.join(dirpath, name)


def summarize(data):
    """One-line human summary of a bench document, or None.

    Currently only BENCH_sweep.json carries enough provenance to be worth
    a line: the heavy-UR point's wall clocks plus the flow solver
    telemetry recorded alongside them (how the run split its solves),
    so a trajectory diff shows *why* a number moved, not just that it did.
    """
    ur = data.get("heavy_ur")
    if not isinstance(ur, dict):
        return None
    parts = []
    for key, label in (("seconds_flow", "flow"),
                       ("seconds_flow_coarsen", "coarsen"),
                       ("seconds_packet", "packet")):
        if key in ur:
            parts.append(f"{label} {ur[key]:.3f}s")
    tel = ur.get("telemetry_flow")
    if isinstance(tel, dict):
        parts.append(
            f"[{tel.get('solves', 0)} solves: "
            f"{tel.get('full_solves', 0)} full + "
            f"{tel.get('incremental_solves', 0)} incremental, "
            f"{tel.get('epochs', 0)} epochs, "
            f"{tel.get('drain_events', 0)} drains]")
    return "heavy_ur " + " ".join(parts) if parts else None


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="merged output path")
    ap.add_argument("roots", nargs="+",
                    help="directories (or single files) to scan")
    args = ap.parse_args(argv)

    benches = []
    skipped = []
    for source, name, path in sorted(collect(args.roots)):
        try:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, ValueError) as err:
            skipped.append(f"{path}: {err}")
            continue
        benches.append({"name": name, "source": source, "data": data})
        line = summarize(data)
        if line:
            print(f"merge_bench: {source}/{name}: {line}")

    for line in skipped:
        print(f"merge_bench: skipped unreadable {line}", file=sys.stderr)
    if not benches:
        print("merge_bench: no BENCH_*.json found", file=sys.stderr)
        return 1

    merged = {
        "schema": "dragonviz.bench-trajectory/1",
        "benches": benches,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"merge_bench: wrote {args.out} "
          f"({len(benches)} documents, {len(skipped)} skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
