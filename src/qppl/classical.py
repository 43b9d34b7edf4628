"""Classical stochastic execution: one layer, nonnegative weights.

The state is a single probability distribution over worlds (weights sum
to 1 rather than having unit length). Statements go through the engine's
kernel, ``engine.apply_comp``, the same one that moves quantum amplitudes:
destructive assignment merges worlds, rand_bit splits them half and half,
and conditionals act on the worlds where the condition holds. Every
statement is a column-stochastic linear map. Return sums the
distribution over the discarded variables' axes of its (2,)*n view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import QUANTUM_ONLY, apply_comp
from .syntax import Program, statement_source
from .state import Environment


@dataclass
class ClassicalState:
    env: Environment
    probs: np.ndarray

    def distribution(self) -> dict[int, float]:
        return {int(k): float(self.probs[k]) for k in np.flatnonzero(self.probs)}


Observer = Callable[[str, ClassicalState], None]


def run_classical(p: Program, *, observer: Observer | None = None) -> ClassicalState:
    """Execute a validated classical program; returns the final distribution."""
    env = Environment(tuple(p.inputs))
    probs = np.zeros(env.dim)
    probs[0] = 1.0
    state = ClassicalState(env, probs)
    if observer:
        observer("", state)
    for stmt in p.body:
        state = ClassicalState(env, apply_comp(state.probs, stmt, env, QUANTUM_ONLY))
        if observer:
            observer(statement_source(stmt), state)
    if p.returns is not None:
        kept = tuple(n for n in env.names if n in set(p.returns))
        discarded = tuple(i for i, n in enumerate(env.names) if n not in set(p.returns))
        marginal = state.probs.reshape((2,) * env.n_bits).sum(axis=discarded).reshape(-1)
        state = ClassicalState(Environment(kept), marginal)
        if observer:
            suffix = " " + ", ".join(p.returns) if p.returns else ""
            observer(f"return{suffix}", state)
    return state
