"""In-memory spans and engine counters for the traced run.

Spans wrap the benchmark's calls into qppl's public functions; per-statement
spans come from the ``observer`` hook of ``engine.run`` and
``classical.run_classical``. Whatever the
observer itself does (counters, the ``truth_table`` probe, bookkeeping) is
kept off the span clock, so statement times are what the engine spent.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from qppl.engine import truth_table
from qppl.syntax import Assign, If, Measure, New, QNeg, QRand, RandBit, XorAssign

STATE_TOL = 1e-10  # the engine's own norm tolerance (qppl.state.STATE_TOL)

_KINDS = ((QRand, "qrand"), (XorAssign, "xor"), (If, "if"), (QNeg, "qneg"),
          (Measure, "measure"), (New, "new"), (Assign, "assign"), (RandBit, "rand_bit"))


def _kind(stmt) -> str:
    for cls, name in _KINDS:
        if isinstance(stmt, cls):
            return name
    raise TypeError(f"not a statement: {stmt!r}")


def _expressions(stmt):
    """Expressions the engine turns into truth tables for one statement."""
    if isinstance(stmt, XorAssign):
        yield stmt.rhs
    elif isinstance(stmt, If):
        yield stmt.cond
        for inner in stmt.body:
            yield from _expressions(inner)


def distinct_up_to_sign(branches) -> int:
    """Number of branch vectors that differ by more than STATE_TOL up to sign."""
    if len(branches) == 1:
        return 1
    q = np.rint(np.stack([b.amps for b in branches]) / STATE_TOL)
    first = np.argmax(q != 0, axis=1)
    q *= np.sign(q[np.arange(len(q)), first])[:, None]
    return len(np.unique(q, axis=0))


class Untraced:
    """Calls straight through; the timed path of the untraced run."""

    def program(self, name, fn, *args):
        return fn(*args)

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def observer(self, program, layer):
        return None


class Tracer(Untraced):
    """Spans as (trace, id, parent, name, start, end) tuples, kept in memory.

    ``now()`` excludes time spent inside the observer, so spans measure the
    program and not the instrument.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._trace = -1
        self._paused = 0.0
        self._origin = time.perf_counter()
        self.probe_s = 0.0
        self.amp_updates = 0
        self.branches_peak = 0
        self.bytes_peak = 0
        self.distinct = 0
        self.branches = 0

    def now(self) -> float:
        return time.perf_counter() - self._paused - self._origin

    def _add(self, name, start, end, parent):
        self.spans.append((self._trace, len(self.spans), parent, name, start, end))

    def program(self, name, fn, *args):
        """Run one program under a fresh trace id, inside a root span."""
        self._trace += 1
        return self.call(name, fn, *args)

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = self.now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.now()
            self._stack.pop()
            self.spans[sid] = (self._trace, sid, parent, name, start, end)

    def observer(self, program, layer):
        """Observer for ``engine.run`` or ``classical.run_classical``.

        It closes one span per top-level statement, named ``<layer>.<kind>``.
        Observer call i > 0 follows ``program.body[i - 1]`` (or the return),
        so statement kinds come from the tree, not from the label text. For
        the engine it also updates the counters and runs the probe.
        """
        engine = layer == "engine"
        kinds = [_kind(s) for s in program.body] + ["return"]
        upcoming = list(program.body) + [None]
        state = {"i": 0, "last": 0.0}

        def observe(_label, st):
            entered = time.perf_counter()
            i = state["i"]
            if i > 0:
                self._add(f"{layer}.{kinds[i - 1]}", state["last"],
                          entered - self._paused - self._origin, self._stack[-1])
            if i > 0 and engine:
                n = len(st.branches)
                self.amp_updates += n * st.env.dim
                self.branches_peak = max(self.branches_peak, n)
                self.bytes_peak = max(self.bytes_peak, sum(b.amps.nbytes for b in st.branches))
                self.distinct += distinct_up_to_sign(st.branches)
                self.branches += n
            nxt = upcoming[i] if engine and i < len(upcoming) else None
            for e in _expressions(nxt):
                t0 = time.perf_counter()
                truth_table(e, st.env)
                self.probe_s += time.perf_counter() - t0
            state["i"] = i + 1
            self._paused += time.perf_counter() - entered
            state["last"] = self.now()

        return observe

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus its children's."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for _, sid, _, name, start, end in self.spans:
            out[name] += end - start - child[sid]
        return out

    def totals(self) -> dict[str, float]:
        out = defaultdict(float)
        for _, _, _, name, start, end in self.spans:
            out[name] += end - start
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for trace, sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"trace": trace, "span": sid, "parent": parent,
                                    "name": name, "start": start, "end": end}) + "\n")
