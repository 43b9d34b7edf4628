"""Independent density-matrix semantics, used to cross-check the engine.

A two-layer state collapses to a single density matrix (branch identity is
forgotten; observationally indistinguishable ensembles coincide). Running
a program directly on density matrices therefore gives a second route to
the same observable statistics: unitaries conjugate the matrix, allocation
embeds it through an isometry, and measurement zeroes the blocks that mix
distinct observed values. Agreement between the two routes is checked
entrywise.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .state import CapacityError, Environment, to_density
from .syntax import Measure, New, Program, Statement


# The projector and the partial trace below deliberately share no bit-layout
# code with the engine: the equivalence sweep checks the engine's measure
# and return against them, and one shared layout bug would pass both sides.
def _project_measurement(rho: np.ndarray, env: Environment, names) -> np.ndarray:
    keys = np.arange(env.dim) & sum(1 << env.shift(n) for n in set(names))
    return rho * (keys[:, None] == keys[None, :])


def _embed(rho: np.ndarray, m: int) -> np.ndarray:
    step = 1 << m
    big = np.zeros((rho.shape[0] * step, rho.shape[1] * step))
    big[::step, ::step] = rho
    return big


def _trace_out(rho: np.ndarray, env: Environment, keep: tuple[str, ...]) -> np.ndarray:
    n = env.n_bits
    keep_positions = {env.position(name) for name in keep}
    t = rho.reshape((2,) * (2 * n))
    remaining = n
    for pos in sorted((q for q in range(n) if q not in keep_positions), reverse=True):
        t = np.trace(t, axis1=pos, axis2=pos + remaining)
        remaining -= 1
    dim = 1 << remaining
    return t.reshape(dim, dim)


def run_density(p: Program) -> np.ndarray:
    """Fold a validated program over density matrices.

    Maximal runs of computational statements are conjugated in one step via
    their extracted matrix; new embeds through the zero-initialized
    inclusion; measure applies the projector sum; return measures the
    discarded variables and traces them out (exact, since the matrix is
    block diagonal by then). Dense matrices cap the oracle at 10 bits: the
    inputs and the names of every ``new`` are counted before any is built.
    """
    env = Environment(tuple(p.inputs))
    n_bits = len(p.inputs) + sum(len(s.names) for s in p.body if isinstance(s, New))
    if n_bits > engine.COMP_MATRIX_MAX_BITS:
        raise CapacityError(
            f"density semantics supports at most {engine.COMP_MATRIX_MAX_BITS} bits")
    rho = np.zeros((env.dim, env.dim))
    rho[0, 0] = 1.0

    pending: list[Statement] = []

    def flush():
        nonlocal rho
        if pending:
            u = engine.comp_matrix(pending, env)
            rho = u @ rho @ u.T
            pending.clear()

    for stmt in p.body:
        if isinstance(stmt, New):
            flush()
            rho = _embed(rho, len(stmt.names))
            env = env.extended(stmt.names)
        elif isinstance(stmt, Measure):
            flush()
            rho = _project_measurement(rho, env, stmt.names)
        else:
            pending.append(stmt)
    flush()

    if p.returns is not None:
        kept = tuple(n for n in env.names if n in set(p.returns))
        discarded = [n for n in env.names if n not in set(p.returns)]
        rho = _project_measurement(rho, env, discarded)
        rho = _trace_out(rho, env, kept)
    return rho


def check_equivalence(p: Program) -> float:
    """Largest entrywise gap between the two semantics of a program.

    The oracle runs first, so a program over its bit cap raises
    CapacityError before the engine's state is turned into a matrix."""
    direct = run_density(p)
    via_branches = to_density(engine.run(p))
    return float(np.max(np.abs(via_branches - direct)))
