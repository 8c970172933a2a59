"""Turns the runner's raw measurements into the benchmark's metrics.

Pure functions only: run.py feeds them the runner's JSON output and the
span list of a traced run, and test_perfbench.py feeds them synthetic data.
"""

import math
import statistics

# Fixed once for the benchmark; changing any of these redefines it.
LATENCY_LIMIT_MS = 50.0  # serve_mixed: p99 from the scheduled send, per rate
LIMIT_LEVEL = 99.0
# The end-to-end tail is p90 on every workload: a closed-loop run holds
# 100-1000 ops, which supports p90 by the ten-samples-beyond rule, and on
# serve_mixed a p99 of ~1600 requests moves 15-30% between runs of the same
# seed on a shared 4-core host. The p99 is still what the latency limit
# tests, and every rate's p99 is printed.
TAIL_LEVEL = 90.0
# The lowest bottleneck recall a run may report and still be correct:
# every injected bottleneck on large_spmd, every reference bottleneck of
# the undirected run on tuning_loop, every one-shot bottleneck on
# serve_mixed.
RECALL_FLOOR = {"tuning_loop": 1.0, "large_spmd": 1.0, "serve_mixed": 1.0}
LEVELS = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("max_ops_per_s", "1/s"),
    ("find_all_virtual_s", "sim_s"),
    ("bottleneck_recall", "ratio"),
]

SPAN_LAYERS = [
    "core.session",
    "core.unattributed",
    "apps.build",
    "simmpi.key",
    "simmpi.cache_load",
    "simmpi.cache_store",
    "simmpi.simulate",
    "metrics.view_build",
    "pc.search",
    "history.harvest",
    "history.map",
    "history.save",
    "telemetry.perflog_append",
    "serve.roundtrip",
    "serve.handle",
    "serve.queue",
]

COUNT_LAYERS = [
    ("simmpi.cache_hit_ratio", "ratio"),
    ("simmpi.ops", "count"),
    ("metrics.intervals", "count"),
    ("pc.pairs_tested", "count"),
    ("pc.pairs_pruned", "count"),
    ("pc.true_ratio", "ratio"),
    ("history.store_runs", "count"),
    ("serve.result_cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("trace.ops", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
]


def per_layer_names():
    """(name, unit) of every per-layer metric, in print order."""
    names = []
    for layer in SPAN_LAYERS:
        names += [(layer + "_ms", "ms"), (layer + "_p50_ms", "ms"), (layer + "_calls", "count")]
    return names + COUNT_LAYERS


# --- percentiles ------------------------------------------------------------

def rank(n, level):
    """1-based nearest rank of percentile `level` among n samples."""
    return min(n, max(1, math.ceil(level / 100.0 * n - 1e-9)))


def beyond(n, level):
    """Samples strictly above the nearest-rank percentile."""
    return n - rank(n, level)


def supported_level(n, levels=LEVELS):
    """The highest level with at least MIN_BEYOND samples beyond it, or None."""
    for level in sorted(levels, reverse=True):
        if n > 0 and beyond(n, level) >= MIN_BEYOND:
            return level
    return None


def percentile(values, level):
    s = sorted(values)
    return s[rank(len(s), level) - 1]


def tail(values, wanted):
    """(value, level, n): the `wanted` percentile, lowered to the highest
    level the sample count supports; level is None when even the median
    lacks ten samples beyond it (the median is then returned)."""
    n = len(values)
    level = supported_level(n, [lv for lv in LEVELS if lv <= wanted])
    return percentile(values, level if level else 50.0), level, n


# --- end-to-end metrics -----------------------------------------------------

def rung_summary(point):
    """Latency figures of one serve_mixed rate and whether it meets the limit."""
    lat = point["latency_ms"]
    out = {"rate": point["rate"], "scheduled": point["scheduled"], "sent": point["sent"],
           "ok": len(lat)}
    if not lat:
        out.update(p50=None, p99=None, level=None, late_p99=None, passed=False)
        return out
    value, level, n = tail(lat, LIMIT_LEVEL)
    late, _, _ = tail(point["lateness_ms"], LIMIT_LEVEL)
    no_backlog = point["sent"] == point["scheduled"] and len(lat) == point["sent"]
    out.update(p50=percentile(lat, 50.0), p99=value, level=level, late_p99=late,
               passed=no_backlog and level == LIMIT_LEVEL and value <= LATENCY_LIMIT_MS)
    return out


def end_to_end(raw):
    """Metrics of an untraced run, plus notes worth printing and whether
    the quality floor held."""
    workload = raw["workload"]
    notes = []
    ops = [ms for ms, _ in raw["ops"]]
    if not ops:
        raise ValueError("no op completed")
    p90, level, n = tail(ops, TAIL_LEVEL)
    top_value, top_level, _ = tail(ops, max(LEVELS))
    notes.append("op_ms: n=%d p50=%.3f p90=%.3f highest supported: p%s=%.3f"
                 % (n, statistics.median(ops), p90, top_level, top_value))
    if level != TAIL_LEVEL:
        notes.append("op_ms_p90: %d samples support only p%s" % (n, level))
    if workload == "serve_mixed":
        rungs = [rung_summary(p) for p in raw["extra"]["ladder"]]
        for r in rungs:
            notes.append("rate %(rate)g/s: scheduled=%(scheduled)d sent=%(sent)d ok=%(ok)d "
                         "p50=%(p50)s p99=%(p99)s (level %(level)s) late_p99=%(late_p99)s "
                         "meets_limit=%(passed)s" % r)
        passing = [r["rate"] for r in rungs if r["passed"]]
        notes.append("highest rate meeting the limit: %s/s" % (max(passing) if passing else "none"))
        # The capacity is measured, not read off the ladder: which rung
        # meets the limit is a yes/no verdict that flips with host load.
        extra = raw["extra"]
        max_rate = extra["saturation_rps"]
        notes.append("capacity: %d requests closed-loop, %.1f/s"
                     % (extra["saturation_requests"], max_rate))
    else:
        max_rate = len(ops) / (sum(ops) / 1000.0)
    # The mean, not the median: per op the figure takes one of a few values
    # (one per configuration), and the median jumps between them from seed
    # to seed.
    finds = [t if t >= 0 else math.inf for t in raw["find_virtual_s"]]
    find = statistics.fmean(finds) if finds else 0.0
    recall = raw["recall_found"] / raw["recall_expected"] if raw["recall_expected"] else 1.0
    floor_ok = recall >= RECALL_FLOOR[workload] and math.isfinite(find)
    if not floor_ok:
        notes.append("quality: recall %.4f (floor %.4f), find %.1f"
                     % (recall, RECALL_FLOOR[workload], find))
    values = {
        "setup_s": statistics.median(raw["setup_seconds"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "op_ms_p50": statistics.median(ops),
        "op_ms_p90": p90,
        "max_ops_per_s": max_rate,
        "find_all_virtual_s": find if math.isfinite(find) else -1.0,
        "bottleneck_recall": recall,
    }
    return values, notes, floor_ok


# --- per-layer metrics ------------------------------------------------------

def per_layer(raw, spans):
    """Metrics of a traced run. `spans` is a list of
    [name, start_us, end_us, parent, op_id], the parent an index into it."""
    workload = raw["workload"]
    counters = raw["counters"]
    ms_by_name = {}
    children_us = [0.0] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        ms_by_name.setdefault(name, []).append((end - start) / 1000.0)
        if parent >= 0:
            children_us[parent] += end - start
    ms_by_name["core.unattributed"] = [
        (s[2] - s[1] - children_us[i]) / 1000.0
        for i, s in enumerate(spans) if s[0] == "core.session"]

    traced = [ms for ms, t in raw["ops"] if t]
    untraced = [ms for ms, t in raw["ops"] if not t]
    if workload == "serve_mixed":
        n_ops = counters.get("serve.requests", 0)
        ms_by_name["serve.queue"] = raw["extra"].get("queue_ms", [])
        ms_by_name["pc.search"] = raw["extra"].get("search_ms", [])
        covered = sum(ms_by_name.get("serve.roundtrip", []))
        coverage = covered / sum(traced) if traced else 0.0
    else:
        n_ops = counters.get("ops.traced", 0)
        roots = [i for i, s in enumerate(spans) if s[0] == "op"]
        root_us = sum(spans[i][2] - spans[i][1] for i in roots)
        coverage = sum(children_us[i] for i in roots) / root_us if root_us else 0.0

    out = {}
    for layer in SPAN_LAYERS:
        values = ms_by_name.get(layer, [])
        out[layer + "_ms"] = sum(values) / n_ops if n_ops else 0.0
        out[layer + "_p50_ms"] = statistics.median(values) if values else 0.0
        out[layer + "_calls"] = len(values) / n_ops if n_ops else 0.0

    def per(key, denominator):
        return counters.get(key, 0.0) / denominator if denominator else 0.0

    searches = counters.get("ops.searched", n_ops) if workload == "serve_mixed" else n_ops
    hits = counters.get("simmpi.cache_hits", 0.0)
    lookups = hits + counters.get("simmpi.cache_misses", 0.0)
    out.update({
        "simmpi.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "simmpi.ops": per("simmpi.ops", n_ops),
        "metrics.intervals": per("metrics.intervals", n_ops),
        "pc.pairs_tested": per("pc.pairs_tested", searches),
        "pc.pairs_pruned": per("pc.pairs_pruned", searches),
        "pc.true_ratio": per("pc.conclusions_true", counters.get("pc.pairs_tested", 0.0)),
        "history.store_runs": counters.get("history.store_runs", 0.0),
        "serve.result_cache_hit_ratio": per("serve.result_cache_hits",
                                            counters.get("serve.requests", 0.0)),
        "serve.shed": counters.get("serve.shed", 0.0),
        "trace.ops": float(n_ops),
        "trace.overhead_ms": (statistics.median(traced) - statistics.median(untraced)
                              if traced and untraced else 0.0),
        "trace.coverage": coverage,
    })
    return out
