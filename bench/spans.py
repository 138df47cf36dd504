"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of ``hdrsim.engine``,
``hdrsim.scenarios``, ``hdrsim.analytic`` and ``hdrsim.cli`` by replacing
the module attributes, so calls made through those attributes, including
the library's own internal calls such as ``summarize -> detect_cycles``,
open a span.  ``engine.step`` is left alone: a wrapper around every slot
would time the wrapper, not the engine.

Spans carry a name, start, end, parent and experiment id.  They are kept in
memory and written out when the run ends.  Self time comes from one pass
over the timeline of an experiment (``attribute``): every instant belongs
to the deepest span open at that instant, or to nobody.  With one thread
that is the usual "duration minus the children"; when ``cmd_sweep`` runs
analytic calls on pool threads, the parent's self time is its duration
minus the union of the children, and instants where several equally deep
spans are open are shared between them equally.  The per-layer self times
plus the unattributed remainder therefore add up to the experiment's wall
time exactly.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int          # 0 is the experiment itself
    experiment: int
    thread: int
    payload: Optional[tuple] = None   # (args, kwargs, result) of a return


@dataclass
class Experiment:
    id: int
    label: str
    start: float
    end: float
    spans: list


class Recorder:
    """Thread-safe span store; one experiment open at a time."""

    def __init__(self, counters: Optional[dict] = None):
        # span name -> function(args, kwargs, result) -> {count: value}
        self.counters = counters or {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._exp: Optional[int] = None
        self._exp_start = 0.0
        self._spans: list[Span] = []
        self._owner_stack: list[int] = []

    # -- experiment boundaries ------------------------------------------

    def begin(self, exp_id: int) -> None:
        self._spans = []
        self._owner_stack = self._stack()
        self._exp = exp_id
        self._exp_start = time.perf_counter()

    def end(self, label: str) -> Experiment:
        end = time.perf_counter()
        exp = Experiment(self._exp, label, self._exp_start, end, self._spans)
        self._exp = None
        return exp

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        """``name`` is the span name, or a function of the call's
        positional arguments that returns it."""
        rec = self

        def wrapper(*args, **kwargs):
            exp = rec._exp
            if exp is None:
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            stack = rec._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool thread: its spans belong to whatever span the
                # thread that opened the experiment is blocked in
                owner = rec._owner_stack
                parent = owner[-1] if owner else 0
            with rec._lock:
                sid = next(rec._ids)
            stack.append(sid)
            payload = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if span_name in rec.counters:
                    payload = (args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, span_name, start, end, parent, exp,
                            threading.get_ident(), payload)
                with rec._lock:
                    rec._spans.append(span)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, targets):
        """Replace ``(module, attribute, span name)`` targets with wrappers
        for the duration of the block."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- reduction -----------------------------------------------------------

    def counts(self, exp: Experiment) -> dict:
        """Sum the counters of one experiment and drop the payloads."""
        out: dict = defaultdict(float)
        for span in exp.spans:
            out[span.name + ".calls"] += 1
            if span.payload is not None:
                args, kwargs, result = span.payload
                span.payload = None
                for key, value in self.counters[span.name](
                        args, kwargs, result).items():
                    out[f"{span.name}.{key}"] += value
        return dict(out)



def write_spans(experiments, path) -> None:
    """One JSON line per experiment, then one per span; times are seconds
    from the start of the experiment."""
    with open(path, "w") as fh:
        for exp in experiments:
            base = exp.start
            fh.write(json.dumps({"experiment": exp.id, "label": exp.label,
                                 "start": 0.0, "end": exp.end - base}) + "\n")
            for s in exp.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start - base,
                    "end": s.end - base, "parent": s.parent,
                    "experiment": s.experiment, "thread": s.thread,
                }) + "\n")


def attribute(spans, start: float, end: float):
    """Split ``[start, end]`` between the spans open in it.

    Each instant goes to the deepest open span(s); ties at equal depth
    share the instant equally.  Returns ``(self_time_by_name, unattributed)``
    whose values sum to ``end - start``.
    """
    by_id = {s.id: s for s in spans}
    depth: dict = {}

    def depth_of(sid):
        if sid not in depth:
            parent = by_id[sid].parent
            depth[sid] = depth_of(parent) + 1 if parent in by_id else 1
        return depth[sid]

    events = []
    for s in spans:
        lo, hi = max(s.start, start), min(s.end, end)
        if hi > lo:
            events.append((lo, 1, s.id))
            events.append((hi, 0, s.id))
    events.sort()
    own: dict = defaultdict(float)
    unattributed = 0.0
    open_spans: set = set()
    prev = start
    for t, opening, sid in events + [(end, 0, None)]:
        if t > prev:
            if open_spans:
                deepest = max(depth_of(x) for x in open_spans)
                top = [x for x in open_spans if depth_of(x) == deepest]
                for x in top:
                    own[by_id[x].name] += (t - prev) / len(top)
            else:
                unattributed += t - prev
            prev = t
        if opening:
            open_spans.add(sid)
        else:
            open_spans.discard(sid)
    return dict(own), unattributed
