"""Statistics helpers for the benchmark: exact percentiles from sorted raw
samples, tail selection, and per-layer self time from a Chrome trace.

Percentiles use the nearest-rank definition on the sorted samples, so every
reported latency is a value that was actually measured (never a histogram
bucket edge).
"""

import math

# The tail is the highest percentile that still has this many samples
# beyond it.
TAIL_BEYOND = 10


def percentile(samples, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(samples, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, pct, n, beyond_count). With n sorted samples that is
    the (n - beyond)-th smallest, i.e. percentile 100 * (n - beyond) / n.
    With too few samples for any such percentile, returns the maximum and
    reports 0 samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= beyond:
        return ordered[-1], 100.0, n, 0
    pct = 100.0 * (n - beyond) / n
    return ordered[n - beyond - 1], pct, n, beyond


def mean(samples):
    return sum(samples) / len(samples) if samples else 0.0


# Chrome-trace categories -> the repository module (layer) they belong
# to. "wait" spans (and the driver's "collect") are a thread blocked on a
# result, not work, and "probe" spans run outside the rounds, so neither
# counts toward a layer; the engine/driver "round" lifetimes span threads,
# so they are left out entirely.
LAYER_OF_CATEGORY = {
    "core": "core",
    "engine": "core",
    "intake": "core",
    "net": "net",
    "driver": "net",
}
LIFETIME_SPANS = {"round", "driver_round"}
WAITING_SPANS = {"collect"}


def self_times(events):
    """Self time per span name and per layer, in microseconds.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; a child is a span on the same thread that starts
    inside the parent. Returns (by_name, by_layer): by_name maps a span
    name to (total self us, span count), by_layer a layer to total self us.
    """
    spans = [e for e in events
             if e.get("ph") == "X" and e.get("name") not in LIFETIME_SPANS]
    by_thread = {}
    for e in spans:
        by_thread.setdefault(e.get("tid"), []).append(e)

    by_name = {}
    by_layer = {}
    for thread_spans in by_thread.values():
        # Parents before children: earlier start first, longer first on ties.
        thread_spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [start, end, covered_us, event]
        finished = []
        for e in thread_spans:
            start, end = e["ts"], e["ts"] + e["dur"]
            while stack and stack[-1][1] <= start:
                finished.append(stack.pop())
            if stack:
                parent = stack[-1]
                # Only the part of the child inside the parent is covered.
                parent[2] += max(0, min(end, parent[1]) - start)
            stack.append([start, end, 0, e])
        finished.extend(stack)

        for start, end, covered, e in finished:
            own = max(0, (end - start) - covered)
            total, count = by_name.get(e["name"], (0, 0))
            by_name[e["name"]] = (total + own, count + 1)
            cat = e.get("cat")
            if cat in LAYER_OF_CATEGORY and e["name"] not in WAITING_SPANS:
                layer = LAYER_OF_CATEGORY[cat]
                by_layer[layer] = by_layer.get(layer, 0) + own
    return by_name, by_layer
