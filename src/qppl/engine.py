"""Execution of validated programs under the two-layer semantics.

``apply_comp`` is the one statement kernel. It maps a world vector to a
world vector: signed amplitudes here and in ``comp_matrix``, probabilities
in classical mode. ``if`` is applied by masking: the body runs on the
worlds where the condition holds and the rest pass through, the block form
of the statement's matrix without materializing it. ``split_index`` holds
the bit layout that measurement, return, the classical return and the
density oracle's projector read. Measurement splits each branch into one
branch per observed value, squaring amplitude mass into classical
probability; return measures the discarded variables and keeps the
returned worlds of each outcome. After either split, branches whose
amplitudes are equal up to a global sign are merged into their first
occurrence, in first-occurrence order, so measuring one bit k times holds
2 branches rather than 2**k. A split that would hold more than
MAX_SPLIT_BYTES of amplitudes raises CapacityError before it is built.

Runs are deterministic; sampling happens only when rendering output.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .syntax import (
    And, Assign, Const, Expression, If, Measure, New, Not, Or, Program, QNeg,
    QRand, RandBit, Statement, Var, XorAssign, statement_source,
)
from .state import (
    Branch, CapacityError, Environment, MAX_SPLIT_BYTES, PRUNE_EPS, TwoLayerState,
    assert_valid_state, extend, initial_state, prune_branches,
)

COMP_MATRIX_MAX_BITS = 10
# Branches whose amplitudes agree up to sign on this grid (about 9.1e-13;
# a power of two, so scaling onto it is exact) are merged. A merge moves no
# density entry by more than about 1e-12.
MERGE_GRID = 2.0 ** -40

_SQRT_HALF = 1.0 / np.sqrt(2.0)

Observer = Callable[[str, TwoLayerState], None]


def truth_table(e: Expression, env: Environment) -> np.ndarray:
    """Boolean value of the expression in every world, as a 0/1 array."""
    return _table(e, np.arange(env.dim), env)


def _table(node: Expression, idx: np.ndarray, env: Environment) -> np.ndarray:
    # A module-level recursion: a nested closure calling itself would be a
    # reference cycle holding the 2**n index array until the cycle collector runs.
    if isinstance(node, Var):
        return (idx >> env.shift(node.name)) & 1
    if isinstance(node, Const):
        return np.full(len(idx), node.value, dtype=np.int64)
    if isinstance(node, Not):
        return 1 - _table(node.operand, idx, env)
    if isinstance(node, And):
        return _table(node.left, idx, env) & _table(node.right, idx, env)
    if isinstance(node, Or):
        return _table(node.left, idx, env) | _table(node.right, idx, env)
    raise TypeError(f"not an expression: {node!r}")


# ---------------------------------------------------------------------------
# The statement kernel, shared by both modes
# ---------------------------------------------------------------------------

CLASSICAL_ONLY = (Assign, RandBit)
QUANTUM_ONLY = (QRand, QNeg, Measure, New)


def _coin(vec: np.ndarray, shift: int, signed: bool) -> np.ndarray:
    """Mix each pair of worlds that differ only in the target bit.

    Signed, the pair goes through the Hadamard matrix (qrand); unsigned,
    both worlds get the pair's average mass (rand_bit). The world axis is
    viewed as (higher bits, target bit, lower bits), so each half of every
    pair is a strided slice and no index array is built; trailing axes
    (the columns of ``comp_matrix``) ride along.
    """
    pairs = vec.reshape(-1, 2, 1 << shift, *vec.shape[1:])
    zero, one = pairs[:, 0], pairs[:, 1]
    out = np.empty_like(pairs)
    np.add(zero, one, out=out[:, 0])
    if signed:
        np.subtract(zero, one, out=out[:, 1])
        out *= _SQRT_HALF
    else:
        out[:, 0] *= 0.5
        out[:, 1] = out[:, 0]
    return out.reshape(vec.shape)


def apply_comp(vec: np.ndarray, stmt: Statement, env: Environment,
               foreign: tuple[type, ...]) -> np.ndarray:
    """Apply one computational statement to a world vector.

    The vector holds amplitudes in quantum mode and probabilities in
    classical mode; both go through this one kernel. A 2-D array is a
    stack of column vectors, advanced together. ``foreign`` is the caller's
    tuple of the other mode's statement kinds (CLASSICAL_ONLY or
    QUANTUM_ONLY); meeting one at any depth raises ValueError.
    """
    if isinstance(stmt, foreign):
        raise ValueError(f"statement of the other mode: {statement_source(stmt)}")
    if isinstance(stmt, (QRand, RandBit)):
        return _coin(vec, env.shift(stmt.target), isinstance(stmt, QRand))
    if isinstance(stmt, QNeg):
        return -vec
    if isinstance(stmt, XorAssign):
        # The permutation k -> k XOR (rhs << shift) is an involution because
        # the right-hand side never reads the target bit.
        shift = env.shift(stmt.target)
        return vec[np.arange(len(vec)) ^ (truth_table(stmt.rhs, env) << shift)]
    if isinstance(stmt, Assign):
        # Destructive: worlds that differ only in the target bit merge.
        shift = env.shift(stmt.target)
        dest = (np.arange(len(vec)) & ~(1 << shift)) | (truth_table(stmt.rhs, env) << shift)
        out = np.zeros_like(vec)
        np.add.at(out, dest, vec)
        return out
    if isinstance(stmt, If):
        mask = truth_table(stmt.cond, env).astype(float)
        if vec.ndim == 2:  # stack of column vectors; mask rows
            mask = mask[:, None]
        inside = vec * mask
        for inner in stmt.body:
            inside = apply_comp(inside, inner, env, foreign)
        return inside + vec * (1.0 - mask)
    raise TypeError(f"not a computational statement: {stmt!r}")


# ---------------------------------------------------------------------------
# Bit layout, measurement, return
# ---------------------------------------------------------------------------

def split_index(env: Environment, names: Sequence[str]) -> np.ndarray:
    """World index of every (other variables, named variables) value pair.

    Entry [r, y] is the world where the variables outside ``names`` take
    the value r and the named ones the value y, each group packed in
    environment order with the earliest declared variable most significant.
    Raises KeyError if a named variable is not live.
    """
    named = set(names)
    if not named <= set(env.names):
        raise KeyError(f"variables not live: {sorted(named - set(env.names))}")
    # Axis i of the (2,)*n view is the bit of env.names[i].
    axes = ([i for i, n in enumerate(env.names) if n not in named]
            + [i for i, n in enumerate(env.names) if n in named])
    worlds = np.arange(env.dim).reshape((2,) * env.n_bits).transpose(axes)
    return worlds.reshape(env.dim >> len(named), 1 << len(named))


def measurement_keys(env: Environment, names: Sequence[str]) -> np.ndarray:
    """Observed value of the named variables in every world."""
    index = split_index(env, names)
    keys = np.empty(env.dim, dtype=np.int64)
    keys[index] = np.arange(index.shape[1])
    return keys


def _sign_free_key(amps: np.ndarray) -> np.ndarray:
    """Amplitudes as integer multiples of MERGE_GRID, negated if the first
    nonzero one is negative; integers have no -0.0."""
    key = np.rint(amps * (1.0 / MERGE_GRID)).astype(np.int64)
    if key[np.argmax(key != 0)] < 0:
        np.negative(key, out=key)
    return key


def _merge_up_to_sign(branches: list[Branch]) -> list[Branch]:
    """Fold each branch whose amplitudes equal an earlier one's up to a
    global sign into that earlier branch, adding its probability.

    Exact for every observable: the state is seen only through its density
    matrix, the sum of p * a a^T, and a a^T is unchanged when a becomes -a.
    The first occurrence keeps its vector and its place. Keys are hashed to
    ints and a hash hit is confirmed by comparing keys, so no per-branch
    bytes are held.
    """
    if len(branches) < 2:
        return branches
    merged: list[Branch] = []
    slots: dict[int, list[int]] = {}
    for b in branches:
        key = _sign_free_key(b.amps)
        same_hash = slots.setdefault(hash(key.tobytes()), [])
        for j in same_hash:
            if np.array_equal(_sign_free_key(merged[j].amps), key):
                merged[j].p += b.p
                break
        else:
            same_hash.append(len(merged))
            merged.append(b)
    return merged


def _split_branches(state: TwoLayerState, keys: np.ndarray, take,
                    out_dim: int) -> list[Branch]:
    """One branch per parent branch and key y of nonzero mass, holding
    take(amps, y) rescaled to unit norm, with branches equal up to sign
    merged.

    This is the only place where branches are created, so it is the only
    place that merges: computational statements and ``new`` are isometries
    on each branch, so branches that are distinct after a split stay
    distinct. The outcomes are counted first, and CapacityError is raised
    before any is built if their ``out_dim`` float64 amplitudes would
    exceed MAX_SPLIT_BYTES.
    """
    outcomes = []
    for b in state.branches:
        mass = np.bincount(keys, weights=b.amps * b.amps)
        ys = np.flatnonzero(b.p * mass > PRUNE_EPS)
        outcomes.append((b, ys, mass[ys]))
    count = sum(len(ys) for _, ys, _ in outcomes)
    if count * out_dim * 8 > MAX_SPLIT_BYTES:
        raise CapacityError(
            f"{count} branches of {out_dim} amplitudes need {count * out_dim * 8 >> 20} MiB, "
            f"over the {MAX_SPLIT_BYTES >> 20} MiB limit")
    new_branches = [Branch(b.p * q2, take(b.amps, y) / np.sqrt(q2))
                    for b, ys, masses in outcomes for y, q2 in zip(ys, masses)]
    return _merge_up_to_sign(prune_branches(new_branches))


def apply_measure(state: TwoLayerState, names: Sequence[str]) -> TwoLayerState:
    """Split branches by observed value, converting amplitude mass to probability.

    Each branch j becomes one branch per value y with probability
    p_j * Q_jy**2, where Q_jy**2 is the squared amplitude mass of the worlds
    showing y; their amplitudes are rescaled by 1/Q_jy. Zero-mass outcomes
    are dropped. New branches are ordered by (parent branch, y ascending),
    and then each branch equal up to sign to an earlier one is merged into
    it: the earlier branch keeps its amplitudes and place, and gains the
    later one's probability.
    """
    if len(set(names)) != len(names):
        raise ValueError("measured variables must be distinct")
    keys = measurement_keys(state.env, names)
    return TwoLayerState(state.env, _split_branches(
        state, keys, lambda amps, y: np.where(keys == y, amps, 0.0), state.env.dim))


def apply_return(state: TwoLayerState, returns: Sequence[str]) -> TwoLayerState:
    """Measure everything not returned, then delete those bit positions.

    Each outcome of the measurement fixes the discarded variables, so its
    branch is one row of the split index: a gather of the 2**k returned
    worlds. The surviving environment lists the returned variables in
    declaration order.
    """
    index = split_index(state.env, returns)
    kept = tuple(n for n in state.env.names if n in set(returns))
    discarded = [n for n in state.env.names if n not in set(returns)]
    branches = _split_branches(state, measurement_keys(state.env, discarded),
                               lambda amps, row: amps[index[row]], index.shape[1])
    return TwoLayerState(Environment(kept), branches)


# ---------------------------------------------------------------------------
# Whole-program execution
# ---------------------------------------------------------------------------

def _apply_statement(state: TwoLayerState, stmt: Statement) -> TwoLayerState:
    if isinstance(stmt, New):
        return extend(state, stmt.names)
    if isinstance(stmt, Measure):
        return apply_measure(state, stmt.names)
    env = state.env
    return TwoLayerState(env, [
        Branch(b.p, apply_comp(b.amps, stmt, env, CLASSICAL_ONLY)) for b in state.branches
    ])


def apply_qrand(state: TwoLayerState, target: str) -> TwoLayerState:
    return _apply_statement(state, QRand(target))


def run(p: Program, *, observer: Observer | None = None,
        check_invariants: bool = False) -> TwoLayerState:
    """Execute a validated program and return its final two-layer state.

    The observer, if given, is called with ("", initial state) and then
    (statement text, state) after every top-level statement, including the
    final return.
    """
    state = initial_state(p.inputs)
    if observer:
        observer("", state)
    for stmt in p.body:
        state = _apply_statement(state, stmt)
        if check_invariants:
            assert_valid_state(state)
        if observer:
            observer(statement_source(stmt), state)
    if p.returns is not None:
        state = apply_return(state, p.returns)
        if check_invariants:
            assert_valid_state(state)
        if observer:
            suffix = " " + ", ".join(p.returns) if p.returns else ""
            observer(f"return{suffix}", state)
    return state


def comp_matrix(body: Sequence[Statement], env: Environment) -> np.ndarray:
    """Matrix of a computational-statement sequence.

    Column k is the result of running the body on basis state k; all
    columns are advanced together. A test and oracle utility, capped at
    10 bits since the matrix is dense.
    """
    if env.n_bits > COMP_MATRIX_MAX_BITS:
        raise CapacityError(
            f"comp_matrix supports at most {COMP_MATRIX_MAX_BITS} bits, got {env.n_bits}")
    matrix = np.eye(env.dim)
    for stmt in body:
        matrix = apply_comp(matrix, stmt, env, CLASSICAL_ONLY)
    return matrix
