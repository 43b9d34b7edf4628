"""Execution of validated programs under the two-layer semantics.

A state is one block: a (B, 2**n) float64 array whose row j is branch
j's amplitudes, and a vector of the B probabilities (``TwoLayerState``).
The functions here take states and return new ones; a state that has
been handed out, to a caller or an observer, is never written to.

``apply_comp`` is the one statement kernel. It writes a statement into
the world vector it is given, or into each row of a batch of them:
signed amplitudes here and in ``comp_matrix``, probabilities in classical
mode. It works on the (2,)*n view of the last axis, one axis per live
variable with the rows of a batch in front, and builds no index array but
a sign pass's, a chunk at a time. A block goes in a chunk of rows at a
time (at most state._CHUNK entries, or one row). Beside the block a coin,
a write and an ``if`` of negations hold at most a chunk's temporaries, or
two for ``x := E``, however wide the row; any other ``if`` and a sign pass
that moves worlds hold a copy of the chunk too, which is the whole row when
a row is wider than a chunk (an ``if``'s body holds its own beside it). An
unobserved run writes its own block; a state that must stay as it was (an
observed run's, or the argument of ``apply_qrand``) is copied once and the
copy is written. An expression's truth table has a length-2 axis only for
each variable the expression reads, so it holds 2**|FV| entries and is
broadcast against the worlds of every row.
``qrand`` and ``rand_bit`` are one coin: a product of each pair of worlds
with [[1, 1], [1, -1]] or [[1, 1], [1, 1]], then a scale, √½ or ½, which
is exact. An unobserved run takes each run of consecutive top-level coins
of its mode on distinct targets as one step: coins on distinct bits
commute, so each aligned group of four target bits is one product with
the kron of its coins' matrices, then one exact scale. A group sums in
another order than its coins one at a time, so an unobserved quantum run
may differ from an observed one in the last bits (about 1e-15 in a
weight); a classical run sums dyadic probabilities, exactly, and does not.
``x ^= E`` swaps the two halves of x's axis where E holds, and ``x := E``
moves the worlds where E differs from x to their partner across that axis
and adds them to the rest, which merges worlds for ``x := 0``. Both go
whole on a vector of at most a chunk (a swap in one ``np.where``) and a
piece of at most a chunk at a time on a longer one (_pieces). An ``if``
whose body is an odd number of ``qnegate()`` and nothing else multiplies
the worlds by a table of signs; any other ``if`` runs its body on a masked
copy of the worlds, added back to the worlds where the condition fails:
the block form of the statement's matrix, never materialized.

An expression built from variables, constants, ``not`` and ``^`` (which
``==`` and ``!=`` parse to) is affine over GF(2). A write ``x := F`` (and
``x ^= E``, read as ``x := x ^ E``) with F affine and a bijection, an
``if`` of negations on an affine condition, ``qnegate()``, and in classical
mode ``if C: x := not x`` with x not in C (which is ``x ^= C``) are affine
statements: a run of them sends each world k to one world with the sign
(-1)**(a·k ⊕ c). ``_plan`` plans an unobserved run once, following the
environment through each ``new``: between two ``new`` or ``measure``
statements, on an environment of _SUB_BLOCK_MIN worlds or more, it
follows each variable's value and the phase as affine forms over the
bits of the world a run of affine statements starts from, so the phase
is taken in input coordinates (Amy, Maslov and Mosca's phase polynomials,
IEEE TCAD 2014). Each run of two or more consecutive top-level affine
statements is one step, a sign pass (``_SignPass``): it multiplies the
(rows, high half, low half) view of the worlds by two tables of 2**(n/2)
signs; unless each variable ends at its own bit, as in a
Bernstein-Vazirani middle, it then sends world k to the xor of two tables
of 2**(n/2) destinations, indexed by k's halves, from a copy of the
worlds (Aaronson and Gottesman's tableau composes affine maps so, PRA
2004). A run that is the identity is no step. Signs of ±1 and moves are
exact, so the step gives its statements' states bit for bit. On fewer
worlds, and for a lone affine statement, each statement is its own step.

Measurement splits the block into one outcome per (branch, observed
value), squaring amplitude mass into classical probability; return
measures the discarded variables and keeps the returned worlds of each
outcome. Either split merges each outcome whose amplitudes equal an
earlier one's up to a global sign into that one as it is found, in
first-occurrence order, so measuring one bit k times holds 2 branches
rather than 2**k. A ``new`` whose block, or a split whose branches after
merging, would hold more than MAX_BLOCK_BYTES of amplitudes raises
CapacityError before it is built.

``run`` and ``run_classical`` share one run loop, ``_run``, and differ
only in the step and the return they pass it. A classical state is one
probability vector (``ClassicalState``), and each statement goes through
``apply_comp`` as amplitudes do: destructive assignment merges worlds,
rand_bit splits them half and half, and conditionals act on the worlds
where the condition holds, so every classical statement is a
column-stochastic linear map. The classical return sums the distribution
over the discarded variables' axes of ``apply_comp``'s (2,)*n view.
Runs are deterministic; sampling happens only when rendering output.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby, product
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .syntax import (
    CLASSICAL_ONLY, QUANTUM_ONLY, And, Assign, Expression, If, Measure, New, Not, Or, Program,
    QNeg, QRand, RandBit, Statement, Var, Xor, XorAssign, fold, free_vars, return_source,
    statement_source,
)
from . import state as _state
from .state import PRUNE_EPS, CapacityError, ClassicalState, Environment, TwoLayerState, _chunks

# Most bits of a dense 2**n x 2**n matrix: comp_matrix and the density oracle.
COMP_MATRIX_MAX_BITS = 10
MAX_BLOCK_BYTES = 1 << 30  # amplitudes one state's block may hold
# Branches whose amplitudes agree up to sign on this grid (about 9.1e-13;
# a power of two, so scaling onto it is exact) are merged. A merge moves no
# density entry by more than about 1e-12.
MERGE_GRID = 2.0 ** -40
# Bytes a split holds per head beside its row: its entry in the hash dict
# ``seen`` (about 107: a slot, a hash and a head number) and its place in
# the three head arrays, which double when full (up to 48).
_HEAD_BYTES = 160

Observer = Callable[[str, Any], None]  # (label, a TwoLayerState or a ClassicalState)

# Trailing world axes a mask is expanded over when it reads a low-order
# bit: numpy's inner loop runs over the axes that every operand walks
# evenly, and a broadcast table that varies on the last axis cuts it to 2.
_INNER_AXES = 8


def truth_table(e: Expression, env: Environment) -> np.ndarray:
    """Boolean value of the expression on the (2,)*n view of the worlds.

    Axis i has length 2 if the expression reads env.names[i] and length 1
    otherwise, so the table holds 2**|FV| entries and is broadcast against
    the world vector, never expanded to 2**n: world k's value is entry k of
    ``np.broadcast_to(table, (2,) * n).ravel()``.
    """
    n = env.n_bits
    return fold(e, lambda leaf: (_bit_table(n, env.position(leaf.name)) if isinstance(leaf, Var)
                                 else np.full((1,) * n, bool(leaf.value))), _TABLE_OPS)


_TABLE_OPS = {Not: np.invert, And: np.bitwise_and, Or: np.bitwise_or, Xor: np.bitwise_xor}


@lru_cache(maxsize=1024)
def _bit_table(n_bits: int, pos: int) -> np.ndarray:
    """Table of the variable on axis ``pos``; read-only, as it is shared."""
    table = np.array([False, True]).reshape((1,) * pos + (2,) + (1,) * (n_bits - pos - 1))
    table.flags.writeable = False
    return table


_ALL = slice(None)
# Worlds from which the planner takes runs of affine statements apart: on
# fewer, its statements go one at a time, as their fewer numpy calls cost less.
_SUB_BLOCK_MIN = 1 << 9


def _mask(table: np.ndarray) -> np.ndarray:
    """The table, with its last _INNER_AXES axes expanded if it reads one of
    them on a wider state: that costs at most 2**(|FV| + _INNER_AXES)
    entries and keeps numpy's inner loops 2**_INNER_AXES long."""
    n = table.ndim
    if n > _INNER_AXES and max(table.shape[n - _INNER_AXES:]) == 2:
        table = np.ascontiguousarray(
            np.broadcast_to(table, table.shape[:n - _INNER_AXES] + (2,) * _INNER_AXES))
    return table


# ---------------------------------------------------------------------------
# The statement kernel, shared by both modes
# ---------------------------------------------------------------------------

# A coin's product with its matrix of ones and signs is exact: each world
# gets the rounded sum or difference of its pair, then the rounded scale.
_COIN = {signed: (np.array([[1.0, 1.0], [1.0, -1.0 if signed else 1.0]]),
                  1.0 / np.sqrt(2.0) if signed else 0.5) for signed in (True, False)}
# Multiply-adds of one product of the coin kernel: none is big enough for
# OpenBLAS to split it across threads. A fused group in the low group's row
# form goes in items of at most _ROWS rows, as many as 16-world rows fill it.
_PRODUCT = 1 << 16
_ROWS = _PRODUCT >> 8


@lru_cache(maxsize=1024)
def _coin_matrix(signed: bool, shifts: tuple[int, ...], lo: int, bits: int,
                 rows: bool) -> tuple[np.ndarray, float]:
    """The matrix of coins on the bits at ``shifts`` among the ``bits``
    bits from shift ``lo`` up: the kron, high bit to low, of the coin's
    matrix on each target and I on each other bit, transposed for ``rows``;
    C-contiguous, which BLAS multiplies faster than a transposed view, and
    read-only, as it is shared. And the coins' scale, exact, as (√½)² rounds
    below ½: 2**-(c//2) for c signed coins, times √½ if c is odd, and 2**-c
    for c unsigned ones."""
    coin, scale = _COIN[signed]
    matrix = np.ones((1, 1))
    for bit in reversed(range(lo, lo + bits)):
        matrix = np.kron(matrix, (coin.T if rows else coin) if bit in shifts else np.eye(2))
    matrix = np.ascontiguousarray(matrix)
    matrix.flags.writeable = False
    c = len(shifts)
    return matrix, math.ldexp(scale if c % 2 else 1.0, -(c // 2) * (1 if signed else 2))


def _coins(vec: np.ndarray, shifts: tuple[int, ...], signed: bool) -> np.ndarray:
    """Coins on the target bits at ``shifts``, ascending and within one
    aligned group of four (shifts 4b to 4b + 3), in place: each set of
    worlds that differ only in those bits goes through the coins' matrix
    into one scratch piece, scaled back into place. A group at shift 4 or
    more multiplies the (rows and higher bits, the group's bits, lower bits)
    view, in items of as many lower bits as _PRODUCT allows; the low group,
    rows of max(8, 2 << top shift) worlds by the matrixᵀ. One coin's
    product is exact whatever its shape, so its rows go up to a chunk of
    multiply-adds at a time, across the rows of a batch. A fused group's
    sums round by the product's shape, so its rows go in items of one
    row's worlds, or _ROWS rows of them: no item reaches across rows or
    depends on the chunks and batches the block is cut into. A piece holds
    at most state._CHUNK entries, or one item."""
    lo, hi = shifts[0], shifts[-1]
    if rows := lo < 4:
        width = min(max(8, 2 << hi), vec.shape[-1])
        matrix, scale = _coin_matrix(signed, shifts, 0, width.bit_length() - 1, True)
        if len(shifts) == 1:
            view = vec.reshape(-1, width)
            pieces = [view] if vec.size * width <= _state._CHUNK else [
                view[c] for c in _chunks(len(view), width * width)]
        else:
            view = vec.reshape(-1, min(_ROWS, vec.shape[-1] // width), width)
            pieces = [view[c] for c in _chunks(len(view), view[0].size)]
    else:
        matrix, scale = _coin_matrix(signed, shifts, lo, hi - lo + 1, False)
        per = min(1 << lo, _PRODUCT // len(matrix) ** 2)  # lower bits of an item
        # (rows and higher bits, items, the group's bits, per lower bits)
        view = vec.reshape(-1, len(matrix), (1 << lo) // per, per).swapaxes(1, 2)
        pieces = [view] if vec.size <= _state._CHUNK else [
            view[c, i] for c in _chunks(len(view), view[0].size)
            for i in _chunks(view.shape[1], len(matrix) * per)]
    scratch = np.empty(pieces[0].shape)
    for piece in pieces:
        mixed = scratch[:len(piece), :piece.shape[1]]  # the last piece may hold fewer
        if not rows:
            np.matmul(matrix, piece, out=mixed)
        else:  # np.dot is the cheaper call on one coin's 2-D piece
            (np.dot if piece.ndim == 2 else np.matmul)(piece, matrix, out=mixed)
        np.multiply(mixed, scale, out=piece)
    return vec


class _CoinRun(NamedTuple):
    """A run of two or more consecutive top-level coins of one kind on
    distinct targets, as one kernel step: coins on distinct bits commute,
    so each aligned group of four bits is one product."""
    targets: tuple[str, ...]
    signed: bool


class _SignPass(NamedTuple):
    """A run of two or more consecutive affine statements, as one kernel
    step: world k of a row, viewed as (high half, low half) of its index, is
    multiplied by high[k_high] * low[k_low] (a table is None where it holds
    only 1), then, unless ``moves`` is None, moved to moves[0][k_high] ^
    moves[1][k_low]."""
    high: np.ndarray | None
    low: np.ndarray | None
    moves: tuple[np.ndarray, np.ndarray] | None


def _negations(stmt: Statement) -> bool:
    """Whether the statement is an ``if`` whose body is an odd number of
    ``qnegate()`` and nothing else: it only negates where its condition holds."""
    return type(stmt) is If and len(stmt.body) % 2 == 1 and all(type(s) is QNeg for s in stmt.body)


def _flip(stmt: Statement) -> bool:
    """Whether the statement is an ``if C:`` whose body is only ``x := not
    x``, with x not read by C: it is ``x ^= C``."""
    return (type(stmt) is If and len(stmt.body) == 1 and type(inner := stmt.body[0]) is Assign
            and inner.rhs == Not(Var(inner.target)) and inner.target not in free_vars(stmt.cond))


# An affine form over GF(2) is an int: bit 0 is its constant and bit 1 + s
# its coefficient of the input bit at shift s. A form is None where the
# expression uses `and` or `or`.
_FORM_OPS = {Not: lambda a: None if a is None else a ^ 1,
             Xor: lambda a, b: None if a is None or b is None else a ^ b,
             And: lambda a, b: None, Or: lambda a, b: None}


def _form(e: Expression, values: dict[str, int]) -> int | None:
    """The affine form of an expression whose variables hold ``values``."""
    return fold(e, lambda leaf: values[leaf.name] if type(leaf) is Var else 1 if leaf.value else 0,
                _FORM_OPS)


def _signs(mask: int, bits: int, negate: int) -> np.ndarray | None:
    """(-1)**(parity(mask & i) ^ negate) for i < 2**bits, from the parity of
    the span of the mask's bits; None if all 1."""
    if not mask and not negate:
        return None
    return 1.0 - 2.0 * (_span([mask >> s & 1 for s in range(bits)], negate) & 1)


def _span(images: Sequence[int], start: int) -> np.ndarray:
    """start ^ the xor of images[s] over the bits s of i, for i < 2**len(images)."""
    table = np.array([start], np.intp)
    for image in images:
        table = np.concatenate((table, table ^ image))
    return table


def _destinations(values: dict[str, int], env: Environment) -> tuple[np.ndarray, np.ndarray]:
    """Where each world goes when each variable takes its affine form: the
    high half table, with the forms' constants, and the low half table. The
    image of input bit s sets the bits of the variables whose forms read it."""
    n, forms = env.n_bits, [(values[name], env.shift(name)) for name in env.names]
    images = [sum((form >> 1 + s & 1) << t for form, t in forms) for s in range(n)]
    constant = sum((form & 1) << t for form, t in forms)
    return _span(images[n // 2:], constant), _span(images[:n // 2], 0)


def _start(env: Environment) -> dict[str, int] | None:
    """Each variable's form where a run of affine statements starts: its
    own bit; None under _SUB_BLOCK_MIN worlds, where no run is analysed."""
    return {name: 2 << env.shift(name) for name in env.names} if env.dim >= _SUB_BLOCK_MIN else None


def _plan(body: Sequence[Statement], env: Environment, coin: type) -> list[list]:
    """The steps of an unobserved run, planned once, in one pass over its
    body that follows the environment through each ``new``: ``[new]`` and
    ``[measure]``, and each stretch of computational statements between
    them as one list of kernel steps, which _step sends each chunk of rows
    through in turn. In a stretch, each run of two or more consecutive
    ``coin`` statements on distinct targets is one _CoinRun. From
    _SUB_BLOCK_MIN worlds on, ``if C: x := not x`` with x not read by C is
    ``x ^= C`` in classical mode, and each run of two or more consecutive
    affine statements is one _SignPass, or no step if it is the identity;
    a lone one keeps its own kernel, in place.

    A write ``x := F`` (``x ^= E`` is ``x := x ^ E``; ``:=`` only in
    classical mode) is affine if it is a bijection: F is x ^ G, that is F's
    form with x read as a bit of its own, ``own``, reads that bit; x's form
    then gains G's. In quantum mode ``qnegate()`` adds 1 to the phase, and
    an ``if`` of negations on an affine condition the condition's form. The
    forms are over the bits of the world the run starts from, so its signs
    go first and its moves after them."""
    quantum, plan, steps, run, phase = coin is QRand, [], [], [], 0
    start = _start(env)
    values = None if start is None else dict(start)
    for stmt in (*body, None):
        kind = type(stmt)
        if start is not None:  # an affine statement joins the run
            if not quantum and _flip(stmt):
                stmt, kind = XorAssign(stmt.body[0].target, stmt.cond), XorAssign
            if affine := quantum and kind is QNeg:
                phase ^= 1
            elif quantum and _negations(stmt) and (form := _form(stmt.cond, values)) is not None:
                phase, affine = phase ^ form, True
            elif kind is XorAssign or kind is Assign and not quantum:
                n, own = env.n_bits, 2 << env.n_bits
                kept, values[stmt.target] = values[stmt.target], own
                form = _form(stmt.rhs, values)
                values[stmt.target] = kept
                if affine := form is not None and form >> n + 1 == (kind is Assign):  # a bijection
                    values[stmt.target] ^= form & own - 1
            if affine:
                run.append(stmt)
                continue
        # A coin joins the step before it only if that is the coins just before it.
        if (kind is coin and not run and steps and type(last := steps[-1]) in (coin, _CoinRun)
                and stmt.target not in (targets := last.targets if type(last) is _CoinRun
                                        else (last.target,))):
            steps[-1] = _CoinRun(targets + (stmt.target,), quantum)
            continue
        if run:  # the run ends, at a statement that is not affine or at the end
            if len(run) == 1:
                steps.append(run[0])
            elif phase or values != start:
                moves = None if values == start else _destinations(values, env)
                n, half, mask = env.n_bits, env.n_bits // 2, phase >> 1
                steps.append(_SignPass(_signs(mask >> half, n - half, phase & 1),
                                       _signs(mask & ((1 << half) - 1), half, 0), moves))
            run, values, phase = [], dict(start), 0
        if stmt is not None and kind is not New and kind is not Measure:
            steps.append(stmt)
            continue
        if steps:
            plan.append(steps)
            steps = []
        if stmt is not None:
            plan.append([stmt])
        if kind is New:
            env = env.extended(stmt.names)
            start = _start(env)
            values = None if start is None else dict(start)
    return plan


def _sign_pass(vec: np.ndarray, step: _SignPass, env: Environment) -> np.ndarray:
    """Apply a _SignPass in place: its tables multiply the (rows, high
    half, low half) view of the worlds in place, or, if it moves worlds, a
    copy of them, which goes to its destinations a chunk of index at a time.
    A sign pass holds at most a copy of the vector and a chunk of index."""
    half = env.n_bits // 2
    view = vec.reshape(-1, 1 << env.n_bits - half, 1 << half)
    source = view if step.moves is None else view.copy()
    if step.high is not None:
        np.multiply(source, step.high[:, None], out=source)
    if step.low is not None:
        np.multiply(source, step.low, out=source)
    if step.moves is not None:
        high, low = step.moves
        rows, chunks = vec.reshape(len(view), -1), _chunks(len(high), len(low))
        index = np.empty((len(high[chunks[0]]), len(low)), np.intp)  # one chunk, reused
        for c in chunks:
            part = high[c]
            to = index[:len(part)]
            to[...] = part[:, None]
            to ^= low
            rows[:, to.ravel()] = source[:, c].reshape(len(rows), -1)
    return vec


def apply_comp(vec: np.ndarray, stmt: Statement, env: Environment,
               foreign: dict[type, str]) -> np.ndarray:
    """Apply one computational statement to a world vector, in place.

    The vector holds amplitudes in quantum mode and probabilities in
    classical mode; both go through this one kernel. The worlds are the
    last axis; any leading axes hold a batch of rows, each advanced alone.
    The result is written into ``vec``, which is returned. ``foreign`` is
    the other dialect's table from ``syntax`` (CLASSICAL_ONLY in quantum
    mode, QUANTUM_ONLY in classical); meeting one of its statements at any
    depth raises ValueError.
    """
    if type(stmt) in foreign:
        raise ValueError(f"statement of the other mode: {statement_source(stmt)}")
    if isinstance(stmt, (QRand, RandBit)):
        return _coins(vec, (env.shift(stmt.target),), isinstance(stmt, QRand))
    if isinstance(stmt, _CoinRun):
        for _, group in groupby(sorted(map(env.shift, stmt.targets)), lambda s: s >> 2):
            _coins(vec, tuple(group), stmt.signed)
        return vec
    if isinstance(stmt, _SignPass):
        return _sign_pass(vec, stmt, env)
    if isinstance(stmt, QNeg):
        return np.multiply(vec, -1.0, out=vec)
    if not isinstance(stmt, (XorAssign, Assign, If)):
        raise TypeError(f"not a computational statement: {stmt!r}")
    worlds = vec.reshape(vec.shape[:-1] + (2,) * env.n_bits)
    if isinstance(stmt, If):
        table, body = truth_table(stmt.cond, env), stmt.body
        if QNeg not in foreign and _negations(stmt):  # negate where the condition holds
            worlds *= _mask(np.where(table, -1.0, 1.0))
            return vec
        # Linear in the vector: the body may write the condition's variables
        # in classical mode, so it must not be run on the whole vector.
        # Multiplying by a boolean mask selects, and is faster than np.where.
        mask = _mask(table)
        inside = (worlds * mask).reshape(vec.shape)
        for inner in body:
            apply_comp(inside, inner, env, foreign)
        worlds *= ~mask
        worlds += inside.reshape(worlds.shape)
        return vec
    # Each world whose target bit must change moves to its partner across
    # the target axis: for x ^= E where E holds, for x := E where E differs
    # from x.
    pos, below = env.position(stmt.target), (_ALL,) * env.shift(stmt.target)
    value = truth_table(stmt.rhs, env)
    move = value if isinstance(stmt, XorAssign) else value ^ _bit_table(env.n_bits, pos)
    flip = (..., slice(None, None, -1)) + below
    # Read before _mask, which may widen the target's axis.
    swap, move = move.shape[pos] == 1, _mask(move)
    if swap and vec.size <= _state._CHUNK:
        # The move does not depend on the target, so the statement swaps the
        # two halves of the target axis wherever it holds.
        worlds[...] = np.where(move, worlds[flip], worlds)
        return vec
    zero, one = (..., 0) + below, (..., 1) + below
    pieces = [(worlds, move)] if vec.size <= _state._CHUNK else _pieces(worlds, move, pos)
    for piece, where in pieces:
        if swap:  # the half at 0 is copied aside
            low, high, where = piece[zero], piece[one], where[zero]
            kept = low.copy()
            np.copyto(low, high, where=where)
            np.copyto(high, kept, where=where)
        else:  # worlds may merge
            moved = (piece * where)[flip]
            piece *= ~where
            piece += moved
    return vec


def _pieces(worlds: np.ndarray, move: np.ndarray, pos: int):
    """Yield the worlds in pieces of at most state._CHUNK entries, each a
    view with its slice of ``move``: a row and one value of each world axis
    the piece does not keep, those above ``pos`` first."""
    n = move.ndim
    fixed = [i for i in range(n) if i != pos][:max(0, n + 1 - _state._CHUNK.bit_length())]
    for row in worlds.reshape((-1,) + worlds.shape[-n:]):
        for bits in product((0, 1), repeat=len(fixed)):
            at = [_ALL] * n
            for i, bit in zip(fixed, bits):
                at[i] = slice(bit, bit + 1)
            yield row[tuple(at)], move[tuple(a if m == 2 else _ALL for a, m in zip(at, move.shape))]


# ---------------------------------------------------------------------------
# Blocks: a state's branches as one array
# ---------------------------------------------------------------------------

def _check_block(rows: int, width: int, per_row: int = 0):
    """Raise CapacityError if rows of width float64 amplitudes and per_row
    bytes each exceed MAX_BLOCK_BYTES; a split's rows are its heads."""
    need = rows * (width * 8 + per_row)
    if need > MAX_BLOCK_BYTES:
        raise CapacityError(  # the MiB rounded up, so a refusal never reads as within the limit
            f"{rows} branches of {width} amplitudes need {-(-need >> 20)} "
            f"MiB, over the {MAX_BLOCK_BYTES >> 20} MiB limit")


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
    """The split's view of the rows of a block over the live variables:
    (row, named bits..., other bits).

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


def _heads(keys: np.ndarray, seen: dict, n_heads: int, head_keys: Callable) -> tuple:
    """Merge a chunk's outcomes, one row of integer ``keys`` each, into the
    n_heads heads found before it. An outcome joins the first in the chunk
    with its exact key; that one joins the head ``seen`` maps its hash to if
    the head's ``head_keys`` equal its key (so a hash collision can leave two
    equal outcomes apart, never join two different ones), or else is a new
    head, numbered on from n_heads, which ``seen`` maps its hash to if free.
    Returns the new heads' chunk positions and each outcome's head."""
    blobs = keys.view(f"V{keys.itemsize * keys.shape[1]}").ravel().tolist()
    exact: dict[bytes, int] = {}
    first = [exact.setdefault(b, i) for i, b in enumerate(blobs)]
    local, head = list(exact.values()), [seen.get(hash(b), -1) for b in exact]
    check = np.array([i for i, j in enumerate(head) if j >= 0], np.int64)
    if len(check):
        same = np.all(keys[np.array(local)[check]] == head_keys(np.array(head)[check]), axis=1)
        for i in check[~same].tolist():
            head[i] = -1
    new = []
    for i, b in enumerate(exact):
        if head[i] < 0:
            head[i] = n_heads + len(new)
            new.append(local[i])
        seen.setdefault(hash(b), head[i])
    to = np.array(head)
    return (slice(None), to) if new == first else (new, to[np.searchsorted(local, first)])


def _split(state: TwoLayerState, names: Sequence[str],
           drop_named: bool) -> tuple[np.ndarray, np.ndarray]:
    """Split every branch of a state by the value y of the named variables.

    Branch j becomes one outcome per y whose probability p_j * m_jy exceeds
    PRUNE_EPS, where m_jy is the squared amplitude mass of the worlds
    showing y; outcomes come in (j, y ascending) order, and their amplitudes
    on those worlds are divided by sqrt(m_jy). A new branch keeps all 2**n
    worlds, zero where the named variables do not read y (measure), or with
    ``drop_named`` only the worlds showing y, indexed by the other
    variables (return). Raises KeyError if a named variable is not live.

    Every outcome equal up to a global sign to an earlier one is merged into
    the first such, its head: the head keeps its amplitudes and its place
    and gains the later one's probability, and the probabilities are
    renormalized over the heads. This is exact for every observable: the
    state is seen only through its density matrix, the sum of p * a a^T,
    and a a^T is unchanged when a becomes -a. Splits are the only place
    that merges: computational statements and ``new`` are isometries on
    each branch, so branches distinct after a split stay distinct.

    The split is one pass over the branches, a chunk at a time, that finds
    their outcomes and merges them into the heads found so far (``_heads``),
    raising CapacityError as soon as the heads' amplitudes and bookkeeping
    (_HEAD_BYTES each) would exceed MAX_BLOCK_BYTES; then the heads are
    rebuilt into the new block a chunk at a time. A split holds the old
    block, the new one, a chunk and the heads' bookkeeping, and nothing per
    outcome beyond its chunk.
    """
    env, amps, probs = state.env, state.amps, state.probs
    k, dim = len(names), amps.shape[1]
    n_values, width = 1 << k, dim >> k
    out_width = width if drop_named else dim
    by_value = _by_value(env.names, tuple(names))
    source = by_value(amps)

    def rows_of(at, scale):
        """Index and rows of the outcomes ``at`` (branch * n_values + y), over ``scale``."""
        index = np.unravel_index(at, source.shape[:1 + k])
        rows = source[index].reshape(len(at), width)
        rows /= scale[:, None]
        return index, rows

    def key_of(rows, at):
        """The rows of outcomes ``at`` as integer multiples of MERGE_GRID, negated
        where the first nonzero entry is negative, so outcomes equal up to sign
        share a key (integers have no -0.0); a measured outcome's key starts
        with its value. Overwrites the rows."""
        rows *= 1.0 / MERGE_GRID
        key = np.rint(rows, out=rows).astype(np.int64)
        key *= np.sign(key[np.arange(len(key)), (key != 0).argmax(1)])[:, None]
        return key if drop_named else np.concatenate(((at & (n_values - 1))[:, None], key), 1)

    # An outcome of a measurement is zero off its own worlds, so outcomes
    # with different values never merge, and neither do the outcomes of a
    # single branch; on return they may.
    merging = drop_named or len(amps) > 1
    n_heads, seen = 0, {}  # and the first head with each hash of a key
    for c in _chunks(len(amps), dim):
        block = source[c].reshape(-1, width)  # row j * n_values + y; a copy unless named bits lead
        masses = block * block
        masses = np.add.accumulate(masses, axis=1, out=masses)[:, -1].copy()  # in world order
        weights = (probs[c, None] * masses.reshape(-1, n_values)).ravel()
        survivors = (weights > PRUNE_EPS).nonzero()[0]
        if not merging:  # every survivor is a head: refuse before building their numbers
            _check_block(n_heads + len(survivors), out_width, _HEAD_BYTES)
        # Merging holds a key of width + 1 entries and about seven numbers per
        # outcome, so it takes a chunk's worth of the survivors at a time.
        for part in _chunks(len(survivors), width + 8 if merging else width):
            found = survivors[part]
            w, s = weights[found], np.sqrt(masses[found])
            if merging:
                new, to = _heads(key_of(block[found] / s[:, None], found), seen, n_heads,
                                 lambda j: key_of(rows_of(at[j], scale[j])[1], at[j]))
                found, s = found[new], s[new]
            else:
                to = np.arange(n_heads, n_heads + len(found))
            found = found + (c.start << k)
            end = n_heads + len(found)
            _check_block(end, out_width, _HEAD_BYTES)
            if not n_heads:  # per head: its outcome, sqrt(m_jy) and summed probability
                at, scale, weight = found, s, np.zeros(len(found))
            elif end > len(at):  # room for twice the heads, the new ones at zero
                at, scale, weight = (np.pad(a[:n_heads], (0, n_heads + end))
                                     for a in (at, scale, weight))
            at[n_heads:end], scale[n_heads:end] = found, s
            np.add.at(weight, to, w)  # in outcome order
            n_heads = end
        del block, masses, weights, survivors  # before the next chunk's are built
    if not n_heads:
        raise ValueError("all branches were pruned")
    at, scale, weight = at[:n_heads], scale[:n_heads], weight[:n_heads]
    weight /= np.add.reduce(weight)
    out = (np.empty if drop_named else np.zeros)((n_heads, out_width))
    target = None if drop_named else by_value(out)
    for c in _chunks(n_heads, width + 1 + k):  # a row and an index per named bit
        (_, *ys), rows = rows_of(at[c], scale[c])
        if drop_named:
            out[c] = rows
        else:
            target[(np.arange(c.start, c.start + len(rows)), *ys)] = rows.reshape(
                (len(rows),) + target.shape[1 + k:])
    return out, weight


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
    kept = tuple(sorted(returns, key=state.env.position))  # KeyError if not live
    discarded = [n for n in state.env.names if n not in kept]
    return TwoLayerState(Environment(kept), *_split(state, discarded, drop_named=True))


# ---------------------------------------------------------------------------
# Whole-program execution
# ---------------------------------------------------------------------------

def _step(state: TwoLayerState, steps: list, in_place: bool) -> TwoLayerState:
    """One list of _plan's steps on a state: ``[new]``, ``[measure]``, or
    kernel steps, which each chunk of rows goes through in turn. With
    ``in_place`` the state's block is written; otherwise it is copied once
    and the copy is written.

    A chunk is at most state._CHUNK entries, or one row. Beside the block a
    step holds at most two chunks' temporaries, or for an ``if`` whose body
    is not only negations and a sign pass that moves worlds, one copy of the
    chunk (a row wider than a chunk is one chunk).
    """
    first = steps[0]
    if isinstance(first, New):
        return extend(state, first.names)
    if isinstance(first, Measure):
        return apply_measure(state, first.names)
    env, out = state.env, state.amps if in_place else state.amps.copy()
    for c in _chunks(*out.shape):
        rows = out[c]
        for stmt in steps:
            apply_comp(rows, stmt, env, CLASSICAL_ONLY)
    return TwoLayerState(env, out, state.probs)


def apply_qrand(state: TwoLayerState, target: str) -> TwoLayerState:
    """One coin on a copy of the state, unfused: the state is left alone."""
    return _step(state, [QRand(target)], in_place=False)


def _run(p: Program, state, step: Callable, finish: Callable, observer: Observer | None,
         coin: type):
    """The run loop of both modes: ``step(state, steps, in_place)`` runs
    each list of steps and ``finish(state, returns)`` the return, if any.
    An unobserved run goes by _plan's lists, planned once with the mode's
    own ``coin``, and lets each step write its state. An observed run gives
    each statement a list of its own, whose step writes a copy, so no state
    the observer saw changes later; the observer gets ("", initial state),
    then (statement text, state) after each statement and the return.
    """
    if observer:
        observer("", state)
    for steps in ([stmt] for stmt in p.body) if observer else _plan(p.body, state.env, coin):
        state = step(state, steps, observer is None)
        if observer:
            observer(statement_source(steps[0]), state)
    if p.returns is not None:
        state = finish(state, p.returns)
        if observer:
            observer(return_source(p.returns), state)
    return state


def run(p: Program, *, observer: Observer | None = None) -> TwoLayerState:
    """Execute a validated program; returns its final two-layer state."""
    return _run(p, initial_state(p.inputs), _step, apply_return, observer, QRand)


def _classical_step(state: ClassicalState, steps: list, in_place: bool) -> ClassicalState:
    probs = state.probs if in_place else state.probs.copy()
    for stmt in steps:
        apply_comp(probs, stmt, state.env, QUANTUM_ONLY)
    return ClassicalState(state.env, probs)


def _marginalize(state: ClassicalState, returns: Sequence[str]) -> ClassicalState:
    env = state.env
    kept = tuple(sorted(returns, key=env.position))  # KeyError if not live
    discarded = tuple(i for i, n in enumerate(env.names) if n not in kept)
    marginal = state.probs.reshape((2,) * env.n_bits).sum(axis=discarded).reshape(-1)
    return ClassicalState(Environment(kept), marginal)


def run_classical(p: Program, *, observer: Observer | None = None) -> ClassicalState:
    """Execute a validated classical program; returns the final distribution."""
    start = initial_state(p.inputs)  # CapacityError past MAX_LIVE_BITS
    return _run(p, ClassicalState(start.env, start.amps[0]), _classical_step, _marginalize,
                observer, RandBit)


def comp_matrix(body: Sequence[Statement], env: Environment) -> np.ndarray:
    """Matrix of a computational-statement sequence.

    Column k is the result of running the body on basis state k. The
    column index is n more low-order bits that no statement reads (named
    ``#i``, as no variable can be), so the matrix goes through the kernel
    as one vector of 2n bits. A test and oracle utility, capped at 10 bits.
    """
    if env.n_bits > COMP_MATRIX_MAX_BITS:
        raise CapacityError(
            f"comp_matrix supports at most {COMP_MATRIX_MAX_BITS} bits, got {env.n_bits}")
    columns = env.extended(tuple(f"#{i}" for i in range(env.n_bits)))
    matrix = np.eye(env.dim)
    for stmt in body:
        apply_comp(matrix.reshape(-1), stmt, columns, CLASSICAL_ONLY)
    return matrix
