"""Statistics of the analyst-loop benchmark: percentiles, span self time,
and the end-to-end and per-layer metrics derived from one raw result file
(the JSON `analyst_bench` writes). Pure functions, tested by
test_benchstats.py."""

import math
import statistics

# Modules whose public calls the benchmark wraps in spans ("<layer>.<call>").
LAYERS = ("workload", "netsim", "flow", "metrics", "core", "serve", "app")

# Percentiles a timing may report as its tail, highest last.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)

# End-to-end metrics and their units; README.md defines each.
END_TO_END = {
    "setup_s": "s",
    "loop_s": "s",
    "first_view_s": "s",
    "brush_p50_ms": "ms",
    "brush_p95_ms": "ms",
    "serve_rps": "1/s",
    "sweep_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer time metrics: metric -> span names whose self time it sums.
LAYER_TIMES = {
    "workload.generate_s": ("workload.place", "workload.generate"),
    "netsim.build_s": ("netsim.build",),
    "netsim.run_s": ("netsim.run",),
    "flow.run_s": ("flow.run",),
    "metrics.save_s": ("metrics.save",),
    "metrics.load_s": ("metrics.load",),
    "core.dataset_s": ("core.dataset",),
    "core.view_build_s": ("core.view_build",),
    "core.svg_s": ("core.svg",),
    "core.report_s": ("core.report", "core.comparison"),
    "serve.client_s": ("serve.attach", "serve.get", "serve.window",
                       "serve.brush", "serve.render", "serve.report"),
}

# Per-layer counts the binary records per unit, with their units.
LAYER_COUNTS = {
    "workload.messages": "count",
    "netsim.events": "count",
    "netsim.end_time_ns": "ns",
    "flow.epochs": "count",
    "flow.solves": "count",
    "flow.incremental_solves": "count",
    "flow.solver_rounds": "count",
    "metrics.bytes_written": "bytes",
    "metrics.dvr_chunks_read": "count",
    "metrics.dvr_chunk_bytes_read": "bytes",
    "metrics.dvr_chunks_pruned": "count",
    "core.cache_hits": "count",
    "core.cache_misses": "count",
    "core.slab_builds": "count",
    "core.slab_reduces": "count",
    "serve.server_p50_ms": "ms",
    "serve.cache_hit_rate": "frac",
    "serve.coalesced": "count",
    "serve.overloaded": "count",
    "serve.requests": "count",
    "sweep.point_s": "s",
    "sweep.report_s": "s",
}

PER_LAYER_DERIVED = {
    "netsim.events_per_s": "1/s",
    "core.cache_lookups": "count",
    "core.cache_hit_rate": "frac",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {name: "s" for name in LAYER_TIMES}
    out.update(LAYER_COUNTS)
    out.update(PER_LAYER_DERIVED)
    return out


# ------------------------------------------------------------ percentiles

def nearest_rank(values, p):
    """The p-th percentile by the nearest-rank rule: the smallest sample
    with at least p% of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile's rank."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(values, ladder=TAIL_LADDER, min_beyond=10):
    """The highest percentile of `ladder` with at least `min_beyond`
    samples beyond it, as (p, value); None when not even the lowest has."""
    best = None
    for p in ladder:
        if beyond(len(values), p) >= min_beyond:
            best = (p, nearest_rank(values, p))
    return best


def timing_summary(values):
    """Median, highest well-supported tail percentile and sample count."""
    tail = tail_percentile(values) if values else None
    return {
        "n": len(values),
        "median": statistics.median(values) if values else None,
        "tail_p": tail[0] if tail else None,
        "tail": tail[1] if tail else None,
    }


# ------------------------------------------------------------- self time

def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def duration(span):
    if "seconds" in span:
        return span["seconds"]
    return span["end"] - span["start"]


def self_times(spans):
    """Span id -> self time: its duration minus the part of its interval
    its child spans cover, minus the durations its reported (interval-less)
    children carry. Never negative."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        d = duration(s)
        if "seconds" in s:
            out[s["id"]] = d
            continue
        kids = children.get(s["id"], [])
        covered = union_length(
            (max(k["start"], s["start"]), min(k["end"], s["end"]))
            for k in kids if "start" in k and k["end"] > s["start"]
            and k["start"] < s["end"])
        reported = sum(k["seconds"] for k in kids if "seconds" in k)
        out[s["id"]] = max(0.0, d - covered - reported)
    return out


def layer_of(name):
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def unattributed(spans):
    """Share of the root spans' wall time covered by no layer span.
    Reported spans lie inside their parent's interval and add nothing."""
    by_unit = {}
    for s in spans:
        by_unit.setdefault(s["unit"], []).append(s)
    wall = uncovered = 0.0
    for unit_spans in by_unit.values():
        roots = [s for s in unit_spans if not s["parent"] and "start" in s]
        for root in roots:
            layer = [(max(s["start"], root["start"]),
                      min(s["end"], root["end"]))
                     for s in unit_spans
                     if "start" in s and layer_of(s["name"])
                     and s["end"] > root["start"] and s["start"] < root["end"]]
            d = duration(root)
            wall += d
            uncovered += max(0.0, d - union_length(layer))
    return uncovered / wall if wall > 0 else 0.0


# --------------------------------------------------------------- metrics

def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(raw):
    """End-to-end metrics of an untraced result: name -> value."""
    setups = [u for u in raw["units"] if u["kind"] == "setup"]
    passes = [u for u in raw["units"]
              if u["kind"] == "pass" and not u["traced"]]
    brush = [ms for u in passes for ms in u["brush_ms"]]
    return {
        "setup_s": _median([u["wall_s"] for u in setups]),
        "loop_s": _median([u["wall_s"] for u in passes]),
        "first_view_s": _median([u["first_view_s"] for u in passes]),
        "brush_p50_ms": nearest_rank(brush, 50) if brush else 0.0,
        "brush_p95_ms": nearest_rank(brush, 95) if brush else 0.0,
        "serve_rps": _median([len(u["brush_ms"]) / u["brush_wall_s"]
                              for u in passes if u["brush_wall_s"] > 0]),
        "sweep_s": _median([u["produce_s"] + u["report_s"] for u in passes]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    """Per-layer metrics of a traced result: name -> value. Each is the
    median over the traced passes that exercise the layer or, for a layer
    only set-up exercises (the simulation of brush-serve-df6), over the
    traced set-up repetitions; 0 when neither does."""
    units = raw["units"]
    traced = {i for i, u in enumerate(units) if u["traced"]}
    spans = [s for s in raw["spans"] if s["unit"] in traced]
    selfs = self_times(spans)
    per_unit = {}  # metric -> unit -> value
    for s in spans:
        for metric, names in LAYER_TIMES.items():
            if s["name"] in names:
                slot = per_unit.setdefault(metric, {})
                slot[s["unit"]] = slot.get(s["unit"], 0.0) + selfs[s["id"]]
    for i in traced:
        counts = units[i]["counts"]
        for metric in LAYER_COUNTS:
            if metric in counts:
                per_unit.setdefault(metric, {})[i] = counts[metric]
        hits, misses = counts.get("core.cache_hits"), counts.get(
            "core.cache_misses")
        if hits is not None and misses is not None:
            per_unit.setdefault("core.cache_lookups", {})[i] = hits + misses
            if hits + misses > 0:
                per_unit.setdefault("core.cache_hit_rate", {})[i] = (
                    hits / (hits + misses))
        run_s = per_unit.get("netsim.run_s", {}).get(i)
        if run_s and "netsim.events" in counts:
            per_unit.setdefault("netsim.events_per_s", {})[i] = (
                counts["netsim.events"] / run_s)
    out = {}
    for metric in per_layer_units():
        values = per_unit.get(metric, {})
        passes = [v for i, v in values.items() if units[i]["kind"] == "pass"]
        setups = [v for i, v in values.items() if units[i]["kind"] == "setup"]
        out[metric] = _median(passes or setups)
    out["trace.unattributed_frac"] = unattributed(
        [s for s in spans if units[s["unit"]]["kind"] == "pass"])
    walls = {True: [], False: []}
    for u in units:
        if u["kind"] == "pass":
            walls[u["traced"]].append(u["wall_s"])
    base = _median(walls[False])
    out["trace.overhead_frac"] = (
        (_median(walls[True]) - base) / base if base > 0 else 0.0)
    return out
