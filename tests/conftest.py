import math
from fractions import Fraction

import numpy as np
import pytest

import qppl
from qppl.syntax import (
    And, Assign, Const, If, Measure, New, Not, Or, QNeg, QRand, RandBit, Var, Xor, XorAssign,
)

RT2 = float(np.sqrt(2.0))
H = np.array([[1.0, 1.0], [1.0, -1.0]]) / RT2


def make_state(names, branches):
    """Build a TwoLayerState from (probability, amplitude list) pairs."""
    env = qppl.Environment(tuple(names))
    amps = np.array([amps for _, amps in branches], dtype=float)
    probs = np.array([p for p, _ in branches], dtype=float)
    return qppl.TwoLayerState(env, amps.reshape(len(branches), env.dim), probs)


def branches_of(state):
    return [(b.p, b.amps) for b in state.branches]


def assert_state_close(state, expected, tol=1e-10):
    """Compare branch lists (probability, amplitudes) in order."""
    assert len(state.branches) == len(expected), (
        f"expected {len(expected)} branches, got {len(state.branches)}"
    )
    for got, (p, amps) in zip(state.branches, expected):
        assert got.p == pytest.approx(p, abs=tol)
        np.testing.assert_allclose(got.amps, np.asarray(amps, dtype=float), atol=tol)


def brute_force_measure(state, names):
    """Reference measurement: group worlds by observed value and renormalize.

    Deliberately index-by-index and dict-based, sharing no code with the
    engine's vectorized path.
    """
    env = state.env
    ordered = [n for n in env.names if n in set(names)]
    split = []
    for branch in state.branches:
        groups: dict[tuple, list] = {}
        for k in range(env.dim):
            a = float(branch.amps[k])
            key = tuple(env.bit(k, n) for n in ordered)
            groups.setdefault(key, []).append((k, a))
        for key in sorted(groups):
            mass = sum(a * a for _, a in groups[key])
            if branch.p * mass <= 1e-12:
                continue
            amps = np.zeros(env.dim)
            for k, a in groups[key]:
                amps[k] = a / np.sqrt(mass)
            split.append((branch.p * mass, amps))
    total = sum(p for p, _ in split)
    return [(p / total, amps) for p, amps in split]


class Root2:
    """An exact amplitude (a + b√2) / 2**e with integers a, b and e >= 0: an
    element of the ring Z[1/√2] that coins and negations reach from 1
    (Giles & Selinger, PRA 87, 032332, 2013). 1/√2 is Root2(0, 1, 1)."""

    __slots__ = ("a", "b", "e")

    def __init__(self, a, b=0, e=0):
        self.a, self.b, self.e = a, b, e

    def __add__(self, other):
        if self.e < other.e:
            self, other = other, self
        shift = self.e - other.e
        return Root2(self.a + (other.a << shift), self.b + (other.b << shift), self.e)

    def __neg__(self):
        return Root2(-self.a, -self.b, self.e)

    def __mul__(self, other):
        return Root2(self.a * other.a + 2 * self.b * other.b,
                     self.a * other.b + self.b * other.a, self.e + other.e)

    def __bool__(self):
        return bool(self.a or self.b)

    def __float__(self):
        return math.ldexp(self.a + self.b * math.sqrt(2.0), -self.e)


def bit_value(e, bits):
    """An expression's value in one world, ``bits`` mapping each name to its bit."""
    if isinstance(e, Var):
        return bits[e.name]
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Not):
        return 1 - bit_value(e.operand, bits)
    left, right = bit_value(e.left, bits), bit_value(e.right, bits)
    if isinstance(e, And):
        return left & right
    if isinstance(e, Or):
        return left | right
    assert isinstance(e, Xor), e
    return left ^ right


def _world_step(stmt, world, names, one):
    """The worlds one computational statement takes a single world to, each
    with its exact coefficient."""
    bits = dict(zip(names, world))

    def put(name, bit):
        i = names.index(name)
        return world[:i] + (bit,) + world[i + 1:]

    if isinstance(stmt, QRand):
        half = Root2(0, 1, 1)  # 1/√2
        return [(put(stmt.target, 0), half),
                (put(stmt.target, 1), -half if bits[stmt.target] else half)]
    if isinstance(stmt, RandBit):
        return [(put(stmt.target, 0), Fraction(1, 2)), (put(stmt.target, 1), Fraction(1, 2))]
    if isinstance(stmt, QNeg):
        return [(world, -one)]
    if isinstance(stmt, XorAssign):
        return [(put(stmt.target, bits[stmt.target] ^ bit_value(stmt.rhs, bits)), one)]
    if isinstance(stmt, Assign):
        return [(put(stmt.target, bit_value(stmt.rhs, bits)), one)]
    if isinstance(stmt, If):
        if bit_value(stmt.cond, bits):
            return list(_exact_walk(stmt.body, {world: one}, names, one).items())
        return [(world, one)]
    raise TypeError(f"not a computational statement: {stmt!r}")


def _exact_walk(stmts, vector, names, one):
    """Run computational statements on a dict of nonzero worlds, one world
    at a time; worlds whose exact value cancels to 0 are dropped."""
    for stmt in stmts:
        out = {}
        for world, value in vector.items():
            for to, coefficient in _world_step(stmt, world, names, one):
                out[to] = out[to] + coefficient * value if to in out else coefficient * value
        vector = {world: value for world, value in out.items() if value}
    return vector


def exact_weights(program, classical=False):
    """Reference semantics: the returned names in declaration order, and the
    exact chance of each of their worlds in the engine's world order (the
    first name most significant), as a Root2 (quantum) or a Fraction
    (classical).

    Deliberately a walk over worlds, one at a time, with exact numbers,
    sharing no code with the engine. A quantum branch is a dict of the
    nonzero amplitudes of its worlds, never normalised: ``measure`` splits
    each branch by the measured value with no division, so a world's
    chance is the sum of its squared amplitudes over the branches. A
    classical state is one dict of Fraction probabilities.
    """
    one = Fraction(1) if classical else Root2(1)
    names = list(program.inputs)
    branches = [{(0,) * len(names): one}]
    for stmt in program.body:
        if isinstance(stmt, New):
            names += stmt.names
            branches = [{w + (0,) * len(stmt.names): a for w, a in b.items()} for b in branches]
        elif isinstance(stmt, Measure):
            at = [names.index(n) for n in stmt.names]
            split = {}
            for i, branch in enumerate(branches):
                for world, a in branch.items():
                    split.setdefault((i, *(world[j] for j in at)), {})[world] = a
            branches = list(split.values())
        else:
            branches = [_exact_walk([stmt], b, names, one) for b in branches]
    kept = [i for i, n in enumerate(names) if program.returns is None or n in program.returns]
    weights = [Fraction(0) if classical else Root2(0)] * (1 << len(kept))
    for branch in branches:
        for world, a in branch.items():
            k = int("".join(str(world[i]) for i in kept) or "0", 2)
            weights[k] = weights[k] + (a if classical else a * a)
    return tuple(names[i] for i in kept), weights


@pytest.fixture(scope="session")
def corpus():
    return qppl.bundled_programs()
