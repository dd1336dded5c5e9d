"""In-memory spans for the traced run, and the self-time arithmetic.

A span is (name, start_ns, end_ns, parent, op, attrs): parent is the index of
the enclosing span in the same op (-1 at the top), and attrs holds counts
taken at the call (array elements, quadrature nodes, box size). Spans stay in
a list until the op ends and are written out in one piece.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Recorder:
    """Collects the spans of one op; wrap() makes a function record one per call."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack, clock, op = self.spans, self._stack, time.perf_counter_ns, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs is not None else None
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # keeps the slot; the span is stored on return
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                # atoms and a dict of numbers: the garbage collector leaves it alone
                spans[index] = (name, start, clock(), parent, op, extra)
                stack.pop()

        return traced


def covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list) -> list:
    """Per span: its duration minus the union of its children's intervals.

    Children may overlap each other or stick out of the parent; the union is
    clipped to the parent so no instant is subtracted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        span[END] - span[START] - covered(children[i], span[START], span[END])
        for i, span in enumerate(spans)
    ]


def aggregate(spans: list) -> dict:
    """name -> {calls, self_ns, total_ns, and the sum of each attr}."""
    out: dict = {}
    for span, self_ns in zip(spans, self_times(spans)):
        row = out.setdefault(span[NAME], defaultdict(int))
        row["calls"] += 1
        row["self_ns"] += self_ns
        row["total_ns"] += span[END] - span[START]
        for key, value in (span[ATTRS] or {}).items():
            row[key] += value
    return out
