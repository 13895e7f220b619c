"""The benchmark's own arithmetic: medians, the percentile rule, spreads,
span self time, and failure counting. Pure Python, no numpy, so the tests of
this file run without the program."""

from __future__ import annotations

import math
import statistics


def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, q: float):
    """Nearest-rank q-th percentile (0 < q < 100), or None when fewer than ten
    samples lie above it: a tail is reported only with ten samples beyond it."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile needs 0 < q < 100, got {q}")
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))  # 1-based nearest rank
    if n - rank < 10:
        return None
    return ordered[rank - 1]


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) with Python's default quantile method."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("a spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else math.inf


def failure_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no run was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def span_table(spans):
    """Per span name: busy seconds, call count, and self seconds.

    `spans` is a list of (name, start_ns, end_ns, parent_index) with parent -1
    for a top-level span. Self time is a span's duration minus the durations of
    its direct children. Busy time counts a span nested inside a span of the
    same name once, through the outer span.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    table = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = table.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start - child_ns[i]) / 1e9
        if all(spans[a][0] != name for a in ancestors(spans, parent)):
            row["s"] += (end - start) / 1e9
    return table


def ancestors(spans, parent: int):
    """Indices of the span at `parent` and of every span enclosing it."""
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def top_level_s(spans) -> float:
    """Seconds covered by spans with no traced parent."""
    return sum(end - start for _, start, end, parent in spans if parent < 0) / 1e9


def merge_tables(tables):
    """Sum per-name rows of several span tables (one per traced command)."""
    out = {}
    for table in tables:
        for name, row in table.items():
            acc = out.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    return out
