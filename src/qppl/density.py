"""Independent density-matrix semantics, used to cross-check the engine.

A two-layer state collapses to a single density matrix (branch identity is
forgotten; observationally indistinguishable ensembles coincide). Running
a program directly on density matrices therefore gives a second route to
the same observable statistics, in the style of QPL's semantics (Selinger,
"Towards a quantum programming language", MSCS 14(4), 2004): unitaries
conjugate the matrix, allocation embeds it through an isometry,
measurement zeroes the blocks that mix distinct observed values, and a
return is a partial trace. Agreement between the two routes is checked
entrywise.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from . import engine
from .state import CapacityError, Environment, TwoLayerState, to_density
from .syntax import Measure, New, Program


# The projector and the embedding below, and the partial trace in
# run_density, deliberately share no bit-layout code with the engine: the
# equivalence sweep checks the engine's measure and return against them,
# and one shared layout bug would pass both sides.
def _project_measurement(rho: np.ndarray, env: Environment, names) -> np.ndarray:
    keys = np.arange(env.dim) & sum(1 << env.shift(n) for n in set(names))
    return rho * (keys[:, None] == keys[None, :])


def _embed(rho: np.ndarray, m: int) -> np.ndarray:
    step = 1 << m
    big = np.zeros((rho.shape[0] * step, rho.shape[1] * step))
    big[::step, ::step] = rho
    return big


def run_density(p: Program) -> np.ndarray:
    """Fold a validated program over density matrices.

    Each maximal run of computational statements conjugates the matrix by
    its ``engine.comp_matrix``; new embeds through the zero-initialized
    inclusion; measure applies the projector sum. Return is one partial
    trace over the discarded variables' axes: it reads only the blocks
    where their row and column values agree, which measuring them first
    would leave as they are, so no projection precedes it. Dense matrices
    cap the oracle at 10 bits: the inputs and the names of every ``new``
    are counted before any is built.
    """
    env = Environment(tuple(p.inputs))
    n_bits = len(p.inputs) + sum(len(s.names) for s in p.body if isinstance(s, New))
    if n_bits > engine.COMP_MATRIX_MAX_BITS:
        raise CapacityError(
            f"density semantics supports at most {engine.COMP_MATRIX_MAX_BITS} bits")
    rho = np.zeros((env.dim, env.dim))
    rho[0, 0] = 1.0
    for computational, stmts in groupby(p.body, lambda s: not isinstance(s, (New, Measure))):
        if computational:
            u = engine.comp_matrix(tuple(stmts), env)
            rho = u @ rho @ u.T
            continue
        for stmt in stmts:
            if isinstance(stmt, New):
                rho = _embed(rho, len(stmt.names))
                env = env.extended(stmt.names)
            else:
                rho = _project_measurement(rho, env, stmt.names)

    if p.returns is not None:
        n = env.n_bits
        # Axis q is row bit q and axis n + q its column bit; a discarded
        # variable's two axes share one index, which einsum sums along.
        cols = [n + q if name in p.returns else q for q, name in enumerate(env.names)]
        kept = [q for q in range(n) if cols[q] != q]
        rho = np.einsum(rho.reshape((2,) * 2 * n), [*range(n), *cols],
                        [*kept, *(n + q for q in kept)])
        rho = rho.reshape(1 << len(kept), 1 << len(kept))
    return rho


def check_equivalence(p: Program, final: TwoLayerState | None = None) -> float:
    """Largest entrywise gap between the oracle's matrix of a program and
    ``final``, the engine's final state of it (by default, a run of its own).
    The oracle runs first, so a program over its bit cap raises
    CapacityError before the engine's state is turned into a matrix."""
    direct = run_density(p)
    via_branches = to_density(engine.run(p) if final is None else final)
    return float(np.max(np.abs(via_branches - direct)))
