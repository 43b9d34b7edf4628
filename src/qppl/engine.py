"""Execution of validated programs under the two-layer semantics.

A state is one block: a (B, 2**n) float64 array whose row j is branch
j's amplitudes, and a vector of the B probabilities (``TwoLayerState``).
The functions here take states and return new ones; a state that has
been handed out, to a caller or an observer, is never written to.

``apply_comp`` is the one statement kernel. It maps a world vector to a
world vector: signed amplitudes here and in ``comp_matrix``, probabilities
in classical mode. It works on the (2,)*n view of the vector, one axis per
live variable and the columns of a stack trailing, and builds no index
array. A block goes in as its transpose, worlds on axis 0 and a column
per branch, so a statement is one call on the block, or on a chunk of
rows at a time when the block is larger than state._CHUNK entries. An
expression's truth table has a length-2 axis only for each variable the
expression reads, so it holds 2**|FV| entries and is broadcast against
the worlds. ``x ^= E`` swaps the two halves of x's axis where E holds;
``x := E`` moves the worlds where E differs from x to their partner
across that axis; ``if`` masks: the body runs on the worlds where the
condition holds and the rest pass through, the block form of the
statement's matrix without materializing it, and an ``if`` of negations
only is one multiply by a table of signs.

Measurement splits the block in bulk into one branch per (branch,
observed value), squaring amplitude mass into classical probability;
return measures the discarded variables and keeps the returned worlds of
each outcome. After either split, branches whose amplitudes are equal up
to a global sign are merged into their first occurrence, in
first-occurrence order, so measuring one bit k times holds 2 branches
rather than 2**k. A split or a ``new`` whose block would hold more than
MAX_BLOCK_BYTES of amplitudes raises CapacityError before it is built.

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
from . import state as _state
from .state import (
    CapacityError, Environment, MAX_BLOCK_BYTES, PRUNE_EPS, TwoLayerState, _chunks,
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
    out = np.empty_like(pairs)
    # With the target bit next to the lowest, the halves interleave two by
    # two and numpy's inner loop would be two long; each of the two lanes
    # is one long strided pass instead.
    for lane in (0, 1) if shift == 1 else (slice(None),):
        zero, one = pairs[:, 0, lane], pairs[:, 1, lane]
        np.add(zero, one, out=out[:, 0, lane])
        if signed:
            np.subtract(zero, one, out=out[:, 1, lane])
        else:
            out[:, 0, lane] *= 0.5
            out[:, 1, lane] = out[:, 0, lane]
    if signed:
        out *= _SQRT_HALF
    return out.reshape(vec.shape)


def _negated(stmt: If, env: Environment) -> np.ndarray | None:
    """Table of the worlds an ``if`` negates, if its body holds only
    ``qnegate()`` and ``if`` statements of the same kind; else None.

    Such an ``if`` is diagonal: a world is negated when the condition holds
    and an odd number of the body's negations reach it.
    """
    odd = np.zeros((1,) * env.n_bits, dtype=bool)
    for inner in stmt.body:
        if isinstance(inner, QNeg):
            odd = ~odd
        elif isinstance(inner, If) and (table := _negated(inner, env)) is not None:
            odd = odd ^ table
        else:
            return None
    return _table(stmt.cond, env, {}) & odd


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
        negated = None if QNeg in foreign else _negated(stmt, env)
        if negated is not None:
            signs = _mask(np.where(negated, -1.0, 1.0), vec)
            return (worlds * signs).reshape(vec.shape)
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
# Blocks: a state's branches as one array
# ---------------------------------------------------------------------------

def _check_block(rows: int, width: int):
    """Raise CapacityError if rows x width float64 amplitudes exceed MAX_BLOCK_BYTES."""
    if rows * width * 8 > MAX_BLOCK_BYTES:
        raise CapacityError(
            f"{rows} branches of {width} amplitudes need "
            f"{rows * width * 8 >> 20} MiB, over the {MAX_BLOCK_BYTES >> 20} MiB limit")


def initial_state(inputs: Sequence[str]) -> TwoLayerState:
    """All inputs zero, with classical and quantum certainty."""
    env = Environment(()).extended(tuple(inputs))
    return TwoLayerState(env, np.eye(1, env.dim), np.ones(1))


def extend(state: TwoLayerState, new_names: Sequence[str]) -> TwoLayerState:
    """Embed every branch into the larger space with the new bits at zero:
    each world moves to the one whose new low-order bits are zero."""
    env = state.env.extended(new_names)
    _check_block(len(state.amps), env.dim)
    amps = np.zeros((len(state.amps), env.dim))
    amps[:, ::1 << len(new_names)] = state.amps
    return TwoLayerState(env, amps, state.probs)


# ---------------------------------------------------------------------------
# Measurement and return
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _by_value(live: tuple[str, ...], names: tuple[str, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """A view of the rows of a block over the live variables as (row,
    named bits..., other bits).

    Axis i of the (2,)*n view of a row is the bit of live[i]; the named
    axes come first, each group in environment order, so the worlds where
    the named variables read y are one slice, in world order. When the
    named variables lead the environment, the other bits are one axis and
    the view is a reshape. Raises KeyError if a named variable is not live.
    """
    env = Environment(live)
    named = sorted(env.position(n) for n in names)
    k = len(named)
    if named == list(range(k)):
        shape = (2,) * k + (env.dim >> k,)
        return lambda block: block.reshape((len(block),) + shape)
    shape = (2,) * env.n_bits
    axes = [0] + [1 + i for i in named] + [1 + i for i in range(env.n_bits) if i not in named]
    return lambda block: block.reshape((len(block),) + shape).transpose(axes)


def _sign_free_key(rows: np.ndarray) -> np.ndarray:
    """Rows as integer multiples of MERGE_GRID, each negated if its first
    nonzero entry is negative; integers have no -0.0."""
    key = np.rint(rows * (1.0 / MERGE_GRID)).astype(np.int64)
    key *= np.sign(key[np.arange(len(key)), np.argmax(key != 0, axis=1)])[:, None]
    return key


def _first_equal(rows_of: Callable, n: int, width: int, tags: np.ndarray) -> np.ndarray:
    """Index of the first of n rows, each ``width`` long, that has the same
    tag as each row and equals it up to a global sign on MERGE_GRID.

    ``rows_of(k)`` gives the rows k (a slice or an index array). It is
    called a chunk of rows at a time, and only one chunk's keys are held:
    rows are matched exactly within a chunk, and across chunks through a
    hash of the key. A match through the hash is confirmed by rebuilding
    both rows and comparing their keys, so a hash collision can leave two
    equal rows apart, never join two different ones.
    """
    if n < 2:
        return np.arange(n)
    local: list[int] = []  # first equal row in the same chunk
    first: list[int] = []  # for such a row, the first row with its hash
    seen: dict[int, int] = {}
    chunks = _chunks(n, width)
    for c in chunks:
        exact: dict[tuple[int, bytes], int] = {}
        for i, t, k in zip(range(c.start, n), tags[c].tolist(), _sign_free_key(rows_of(c))):
            key = (t, k.tobytes())
            j = exact.setdefault(key, i)
            local.append(j)
            first.append(seen.setdefault(hash(key), i) if j == i else i)
    if len(chunks) == 1:  # every match was exact
        return np.array(local)
    first = np.array(first)
    later = np.flatnonzero(first != np.arange(n))
    for c in _chunks(len(later), width):
        i = later[c]
        j = first[i]
        same = (tags[i] == tags[j]) & np.all(
            _sign_free_key(rows_of(i)) == _sign_free_key(rows_of(j)), axis=1)
        first[i[~same]] = i[~same]
    return first[local]


def _bits(values: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """The k bits of each value, the most significant first."""
    return np.unravel_index(values, (2,) * k) if k > 1 else (values,) if k else ()


def _split(state: TwoLayerState, names: Sequence[str],
           drop_named: bool) -> tuple[np.ndarray, np.ndarray]:
    """Split every branch of a state by the value y of the named variables.

    Branch j becomes one branch per y whose probability p_j * m_jy exceeds
    PRUNE_EPS, where m_jy is the squared amplitude mass of the worlds
    showing y; the new branches come in (j, y ascending) order, their
    probabilities are renormalized, and their amplitudes on those worlds
    are divided by sqrt(m_jy). A new branch keeps all 2**n worlds, zero
    where the named variables do not read y (measure), or with
    ``drop_named`` only the worlds showing y, indexed by the other
    variables (return). Raises KeyError if a named variable is not live.

    The outcomes are counted first, a chunk of branches at a time, and
    CapacityError is raised before any is built if their float64
    amplitudes would exceed MAX_BLOCK_BYTES; for each (branch, value) pair
    that survives pruning, and for no other, the split keeps a few numbers.
    Then every outcome equal up to a global sign to an earlier one is
    merged into it: the earlier one keeps its amplitudes and its place and
    gains the later one's probability. This is exact for every
    observable: the state is seen only through its density matrix, the sum
    of p * a a^T, and a a^T is unchanged when a becomes -a. Splits are the
    only place that merges: computational statements and ``new`` are
    isometries on each branch, so branches distinct after a split stay
    distinct. Outcomes that do not fit in one chunk are built a chunk at a
    time, once to find the merges and once into the new block, so a split
    holds the old block, the new one, a chunk and the per-outcome numbers.
    """
    env, amps, probs = state.env, state.amps, state.probs
    k, dim = len(names), amps.shape[1]
    n_values, width = 1 << k, dim >> k
    out_width = width if drop_named else dim
    by_value = _by_value(env.names, tuple(names))
    # A chunk of branches at a time: the mass of each (branch, value),
    # summed in world order, of which only the outcomes whose probability
    # exceeds PRUNE_EPS are kept, as (branch, value, mass, probability).
    source = by_value(amps)
    found, count = [], 0
    for c in _chunks(len(amps), dim):
        rows = source[c]
        squares = (rows * rows).reshape(-1, n_values, width)
        masses = np.add.accumulate(squares, axis=2)[:, :, -1]
        weights = probs[c, None] * masses
        j, y = (weights > PRUNE_EPS).nonzero()
        count += len(j)
        _check_block(count, out_width)
        found.append((j + c.start if c.start else j, y, masses[j, y], weights[j, y]))
    if not count:
        raise ValueError("all branches were pruned")
    js, ys, scale, weights = (found[0] if len(found) == 1 else
                              (np.concatenate(f) for f in zip(*found)))
    weights /= np.add.reduce(weights)
    np.sqrt(scale, out=scale)

    def rows_of(i):
        """Amplitudes of the outcomes i on the worlds showing their value."""
        rows = source[(js[i],) + _bits(ys[i], k)]
        return rows.reshape(len(rows), width) / scale[i, None]

    # An outcome of a measurement is zero off its own worlds, so outcomes
    # with different values never merge, and neither do the outcomes of a
    # single branch; on return they may. ``heads`` lists the outcomes
    # that stay, when some merged.
    heads = None
    if count > 1 and (drop_named or len(amps) > 1):
        if len(_chunks(count, width)) == 1:  # outcomes that fit in one chunk are built once
            rows_of = rows_of(slice(None)).__getitem__
        first = _first_equal(rows_of, count, width, np.zeros_like(ys) if drop_named else ys)
        heads = np.flatnonzero(first == np.arange(count))
        if len(heads) < count:
            group = np.searchsorted(heads, first)
            weights = np.bincount(group, weights=weights, minlength=len(heads))
        else:
            heads = None
    n_out = count if heads is None else len(heads)
    out = (np.empty if drop_named else np.zeros)((n_out, out_width))
    target = None if drop_named else by_value(out)
    for c in _chunks(n_out, width):
        i = c if heads is None else heads[c]
        rows = rows_of(i)
        if drop_named:
            out[c] = rows
        else:
            at = (np.arange(c.start, c.start + len(rows)),) + _bits(ys[i], k)
            target[at] = rows.reshape((len(rows),) + target.shape[1 + k:])
    return out, weights


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
    return TwoLayerState(state.env, *_split(state, names, drop_named=False))


def apply_return(state: TwoLayerState, returns: Sequence[str]) -> TwoLayerState:
    """Measure everything not returned, then delete those bit positions.

    Each outcome of the measurement fixes the discarded variables, so its
    branch holds just the 2**k worlds where they take that value, indexed
    by the returned variables; outcomes equal up to sign are grouped
    before the new block is built. The surviving environment lists the
    returned variables in declaration order.
    """
    kept = tuple(sorted(set(returns), key=state.env.position))  # KeyError if not live
    discarded = [n for n in state.env.names if n not in kept]
    return TwoLayerState(Environment(kept), *_split(state, discarded, drop_named=True))


# ---------------------------------------------------------------------------
# Whole-program execution
# ---------------------------------------------------------------------------

def _step(state: TwoLayerState, stmt: Statement, in_place: bool) -> TwoLayerState:
    """One top-level statement on a state; with ``in_place``, the state's
    block may be overwritten."""
    if isinstance(stmt, New):
        return extend(state, stmt.names)
    if isinstance(stmt, Measure):
        return apply_measure(state, stmt.names)
    env, amps = state.env, state.amps
    # The transpose is a view: worlds on axis 0, one column per branch. A
    # block of several chunks goes a chunk of rows at a time, written back
    # in place when no one else holds the block, so a statement holds one
    # block and a chunk's temporaries.
    if len(amps) == 1 or amps.size <= _state._CHUNK:
        return TwoLayerState(env, apply_comp(amps.T, stmt, env, CLASSICAL_ONLY).T, state.probs)
    out = amps if in_place else np.empty_like(amps)
    for c in _chunks(len(amps), env.dim):
        out[c] = apply_comp(amps[c].T, stmt, env, CLASSICAL_ONLY).T
    return TwoLayerState(env, out, state.probs)


def apply_qrand(state: TwoLayerState, target: str) -> TwoLayerState:
    return _step(state, QRand(target), in_place=False)


def run(p: Program, *, observer: Observer | None = None) -> TwoLayerState:
    """Execute a validated program and return its final two-layer state.

    The observer, if given, is called with ("", initial state) and then
    (statement text, state) after every top-level statement, including the
    final return. The states it sees are never written to afterwards.
    """
    state = initial_state(p.inputs)
    if observer:
        observer("", state)
    for stmt in p.body:
        state = _step(state, stmt, in_place=observer is None)
        if observer:
            observer(statement_source(stmt), state)
    if p.returns is not None:
        state = apply_return(state, p.returns)
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
