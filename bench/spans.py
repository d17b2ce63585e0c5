"""In-memory spans and counters recorded around calls into htfid.

A span is ``(name, start, end, parent)`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span
(``None`` for the root).  Spans are recorded in call order, so a span's
parent always precedes it.  The tracer only wraps functions; it never
edits the package, and it keeps everything in memory until `to_dict`.
"""

import functools
import time
from collections import Counter


class Tracer:
    """Records spans and counts for one traced process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, on_return=None):
        """``fn`` wrapped in a span called ``name``.

        ``on_return(counts, args, kwargs, result)`` runs after a call
        returns, outside the span, to add counts read from the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result

        return traced

    def to_dict(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    ``spans`` is a list of dicts with ``start``, ``end`` and ``parent``.
    Children are clipped to their parent and overlapping children are
    counted once, so a self time is never negative.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(
            (max(spans[c]["start"], start), min(spans[c]["end"], end))
            for c in children[i]
        ):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def under(spans, index, ancestor_name):
    """Whether span ``index`` has an ancestor called ``ancestor_name``."""
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] == ancestor_name:
            return True
        parent = spans[parent]["parent"]
    return False
