"""Classical stochastic execution: one layer, nonnegative weights.

The state is a single probability distribution over worlds (weights sum
to 1 rather than having unit length). A run goes through the engine's run
loop, ``engine._run``, and each statement through its kernel,
``engine.apply_comp``, as quantum amplitudes do; only the step and the
return here are classical. Destructive assignment merges worlds, rand_bit
splits them half and half, and conditionals act on the worlds where the
condition holds: every statement is a column-stochastic linear map. Return
sums the distribution over the discarded variables' axes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .engine import QUANTUM_ONLY, Observer, _run, apply_comp
from .syntax import Program, Statement
from .state import Environment, _json_head, _write_json_floats


@dataclass
class ClassicalState:
    env: Environment
    probs: np.ndarray

    def distribution(self) -> dict[int, float]:
        return {int(k): float(self.probs[k]) for k in np.flatnonzero(self.probs)}

    def to_json(self, out: TextIO | None = None) -> str | None:
        """{"vars": [...], "probs": [...]} as json.dumps(..., indent=2) lays
        it out, written to ``out`` a chunk at a time, or, with no ``out``,
        returned as one string."""
        if out is None:
            out = io.StringIO()
            self.to_json(out)
            return out.getvalue()
        out.write(_json_head(self.env, "probs"))
        _write_json_floats(out, self.probs, 1)
        out.write("\n}")
        return None


def _step(state: ClassicalState, stmt: Statement, _in_place: bool) -> ClassicalState:
    return ClassicalState(state.env, apply_comp(state.probs, stmt, state.env, QUANTUM_ONLY))


def _marginalize(state: ClassicalState, returns: Sequence[str]) -> ClassicalState:
    env = state.env
    kept = tuple(sorted(set(returns), key=env.position))  # KeyError if not live
    discarded = tuple(i for i, n in enumerate(env.names) if n not in kept)
    marginal = state.probs.reshape((2,) * env.n_bits).sum(axis=discarded).reshape(-1)
    return ClassicalState(Environment(kept), marginal)


def run_classical(p: Program, *, observer: Observer | None = None) -> ClassicalState:
    """Execute a validated classical program; returns the final distribution."""
    env = Environment(()).extended(tuple(p.inputs))  # CapacityError past MAX_LIVE_BITS
    return _run(p, ClassicalState(env, np.eye(1, env.dim)[0]), _step, _marginalize, observer)
