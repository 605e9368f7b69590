"""In-memory spans around the benchmark's own calls into the library.

A span records its name, start, end, parent span, call index and trial
id, plus an optional work count (for example the subsets a fragility call
enumerates).  Spans stay in memory until the run ends.  Self time is a
span's duration minus the time its direct children cover, which is exact
here because the benchmark is single-threaded and children never overlap.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from statistics import median


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, call=None, trial=None, work=None):
        """Time the body; call index and trial id default to the parent's."""
        parent = self._open[-1] if self._open else None
        if parent is not None:
            call = parent["call"] if call is None else call
            trial = parent["trial"] if trial is None else trial
        rec = {"id": len(self.spans), "name": name,
               "parent": None if parent is None else parent["id"],
               "call": call, "trial": trial, "work": work,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans):
    """Self time in seconds of every span, indexed like ``spans``."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_stats(spans, layers, busy_total_s):
    """calls, self_ms_p50, busy_share and work rate for each named layer.

    ``busy_total_s`` is the traced wall time the shares are taken of.  A
    layer the workload never calls reports zero calls, time and share.
    """
    own = self_times(spans)
    by_name = {}
    for s, t in zip(spans, own):
        by_name.setdefault(s["name"], []).append((t, s["work"]))
    stats = {}
    for layer in layers:
        rows = by_name.get(layer, [])
        selfs = [t for t, _ in rows]
        work = sum(w for _, w in rows if w is not None)
        stats[layer] = {
            "calls": len(rows),
            "self_ms_p50": median(selfs) * 1e3 if rows else 0.0,
            "busy_share": sum(selfs) / busy_total_s if rows else 0.0,
            "work_per_s": work / sum(selfs) if work else 0.0,
        }
    return stats
