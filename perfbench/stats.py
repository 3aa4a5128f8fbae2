"""Order statistics and span aggregation for the benchmark report.

A span is ``[name, start, end, parent, value]``: times in seconds on
one clock, ``parent`` the index of the enclosing span in the same list
(-1 for a top-level span), ``value`` an optional count the span carried
(simulated events for an engine run), else None.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Sequence, Tuple

Span = list


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls`` and ``total`` over outermost spans (a
    span nested in one of the same name is part of that call), ``self``
    time (duration minus direct children) over every span, and the sum
    of span ``value``\\ s."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0, "value": 0})
    for index, (name, start, end, parent, value) in enumerate(spans):
        entry = out[name]
        entry["self"] += (end - start) - child_time[index]
        if value is not None:
            entry["value"] += value
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["calls"] += 1
            entry["total"] += end - start
    return out


def unattributed(spans: Sequence[Span], wall: float) -> float:
    """Wall time not covered by a top-level span."""
    return wall - sum(end - start for _name, start, end, parent, _value
                      in spans if parent < 0)
