"""Execution of validated programs under the two-layer semantics.

``apply_comp`` is the one statement kernel. It maps a world vector to a
world vector: signed amplitudes here and in ``comp_matrix``, probabilities
in classical mode. It works on the (2,)*n view of the vector, one axis per
live variable and the columns of a stack trailing, and builds no index
array. An expression's truth table has a length-2 axis only for each
variable the expression reads, so it holds 2**|FV| entries and is
broadcast against the worlds. ``x ^= E`` swaps the two halves of x's axis
where E holds; ``x := E`` moves the worlds where E differs from x to
their partner across that axis; ``if`` masks: the body runs on the worlds
where the condition holds and the rest pass through, the block form of
the statement's matrix without materializing it. ``split_index`` holds
the bit layout that measurement, return and the density oracle's
projector read. Measurement splits each branch into one
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

from functools import lru_cache
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

# Trailing world axes a mask is expanded over when it reads a low-order
# bit: numpy's inner loop runs over the axes that every operand walks
# evenly, and a broadcast table that varies on the last axis cuts it to 2.
_INNER_AXES = 8


def truth_table(e: Expression, env: Environment) -> np.ndarray:
    """Boolean value of the expression in every world, as a 0/1 array."""
    table = np.empty((2,) * env.n_bits, dtype=np.int64)
    table[...] = _table(e, env, {})
    return table.reshape(env.dim)


def _table(node: Expression, env: Environment, memo: dict[int, np.ndarray]) -> np.ndarray:
    """Boolean value of the expression on the (2,)*n view of the worlds.

    Axis i has length 2 if the expression reads env.names[i] and length 1
    otherwise, so the table holds 2**|FV| entries and is broadcast against
    the world vector, never expanded to 2**n. ``memo`` maps id(node) of
    each And/Or node to its table: the comparison sugar puts each operand
    into the tree twice, and a chain of k comparisons would otherwise cost
    2**k evaluations. It is a module-level function, as a closure calling
    itself would be a reference cycle.
    """
    if isinstance(node, Var):
        return _bit_table(env.n_bits, env.position(node.name))
    if isinstance(node, Not):
        return ~_table(node.operand, env, memo)
    if isinstance(node, (And, Or)):
        table = memo.get(id(node))
        if table is None:
            left, right = _table(node.left, env, memo), _table(node.right, env, memo)
            table = memo[id(node)] = left & right if isinstance(node, And) else left | right
        return table
    if isinstance(node, Const):
        return np.full((1,) * env.n_bits, bool(node.value))
    raise TypeError(f"not an expression: {node!r}")


@lru_cache(maxsize=1024)
def _bit_table(n_bits: int, pos: int) -> np.ndarray:
    """Table of the variable on axis ``pos``; read-only, as it is shared."""
    table = np.array([False, True]).reshape((1,) * pos + (2,) + (1,) * (n_bits - pos - 1))
    table.flags.writeable = False
    return table


def _mask(table: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """A table shaped to broadcast against the world view of ``vec``.

    If the table reads one of the last _INNER_AXES bits of a wider state,
    those axes are expanded, which costs at most 2**(|FV| + _INNER_AXES)
    entries and keeps numpy's inner loops 2**_INNER_AXES long. Length-1
    axes are appended for the columns of a stack.
    """
    n = table.ndim
    if n > _INNER_AXES and max(table.shape[n - _INNER_AXES:]) == 2:
        table = np.ascontiguousarray(
            np.broadcast_to(table, table.shape[:n - _INNER_AXES] + (2,) * _INNER_AXES))
    if vec.ndim > 1:
        table = table.reshape(table.shape + (1,) * (vec.ndim - 1))
    return table


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
    if not isinstance(stmt, (XorAssign, Assign, If)):
        raise TypeError(f"not a computational statement: {stmt!r}")
    worlds = vec.reshape((2,) * env.n_bits + vec.shape[1:])
    if isinstance(stmt, If):
        # Linear in the vector: the body may write the condition's variables
        # in classical mode, so it must not be run on the whole vector.
        # Multiplying by a boolean mask selects, and is faster than np.where.
        mask = _mask(_table(stmt.cond, env, {}), vec)
        inside = (worlds * mask).reshape(vec.shape)
        for inner in stmt.body:
            inside = apply_comp(inside, inner, env, foreign)
        return inside + (worlds * ~mask).reshape(vec.shape)
    pos = env.position(stmt.target)
    value = _table(stmt.rhs, env, {})
    flip = (slice(None),) * pos + (slice(None, None, -1),)
    if isinstance(stmt, XorAssign) and value.shape[pos] == 1:
        # The right-hand side does not read the target, so the statement
        # swaps the two halves of the target axis wherever it holds.
        return np.where(_mask(value, vec), worlds[flip], worlds).reshape(vec.shape)
    # Otherwise each world whose target bit must change moves to its partner
    # across the target axis, and worlds may merge: for x := E, where E
    # differs from x; for x ^= E (in classical mode E may read x), where E
    # holds.
    move = value if isinstance(stmt, XorAssign) else value ^ _bit_table(env.n_bits, pos)
    move = _mask(move, vec)
    out = worlds * ~move
    out += (worlds * move)[flip]
    return out.reshape(vec.shape)


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
    nonzero one is negative (row by row for a 2-D array); integers have no
    -0.0."""
    key = np.rint(amps * (1.0 / MERGE_GRID)).astype(np.int64)
    lead = np.argmax(key != 0, axis=-1)
    if key.ndim == 1:
        if key[lead] < 0:
            np.negative(key, out=key)
    else:
        key[key[np.arange(len(key)), lead] < 0] *= -1
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


def _split_branches(state: TwoLayerState, keys: np.ndarray, split,
                    out_dim: int) -> list[Branch]:
    """Split every branch by key: split(branch, ys, masses) returns the
    branches of the keys ys of nonzero mass, with masses[i] the squared
    amplitude of the worlds keyed ys[i]. Branches equal up to sign are
    then merged.

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
    new_branches = [nb for b, ys, masses in outcomes for nb in split(b, ys, masses)]
    return _merge_up_to_sign(prune_branches(new_branches))


def _group_rows(rows: np.ndarray, ps: np.ndarray) -> list[Branch]:
    """One branch per set of rows equal up to sign: the set's first row,
    with the set's summed probability, in first-occurrence order."""
    if len(rows) < 2:
        return [Branch(float(p), row) for p, row in zip(ps, rows)]
    first: dict[bytes, int] = {}
    group = [first.setdefault(key.tobytes(), i) for i, key in enumerate(_sign_free_key(rows))]
    totals = np.bincount(group, weights=ps, minlength=len(rows))
    return [Branch(float(totals[i]), rows[i].copy()) for i in first.values()]


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

    def split(b, ys, masses):
        # The outcomes of one branch have disjoint supports, so none of
        # them are equal up to sign.
        return [Branch(b.p * q2, np.where(keys == y, b.amps, 0.0) / np.sqrt(q2))
                for y, q2 in zip(ys, masses)]
    return TwoLayerState(state.env, _split_branches(state, keys, split, state.env.dim))


def apply_return(state: TwoLayerState, returns: Sequence[str]) -> TwoLayerState:
    """Measure everything not returned, then delete those bit positions.

    Each outcome of the measurement fixes the discarded variables, so its
    branch is one row of the split index: a gather of the 2**k returned
    worlds. A branch's outcomes are gathered as one matrix, and rows equal
    up to sign are grouped before any branch is built, so returning
    nothing from a uniform state builds one branch, not 2**n.
    The surviving environment lists the returned variables in
    declaration order.
    """
    index = split_index(state.env, returns)
    kept = tuple(n for n in state.env.names if n in set(returns))
    discarded = [n for n in state.env.names if n not in set(returns)]

    def split(b, ys, masses):
        return _group_rows(b.amps[index[ys]] / np.sqrt(masses)[:, None], b.p * masses)
    branches = _split_branches(state, measurement_keys(state.env, discarded), split,
                               index.shape[1])
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
