"""Program states: signed-amplitude branches under a classical distribution.

A running quantum program is described on two levels. The inner level is a
branch: a real vector of 2**n amplitudes over the worlds (joint bit
assignments) of the n live variables, normalized so the squares sum to 1.
The outer level is a classical probability distribution over branches.
Measurement moves weight from the inner level to the outer one; nothing
else ever couples branches, so they evolve independently.

Basis indexing is fixed once and for all by the environment: variables in
declaration order, inputs first, with the first-declared variable as the
most significant bit of the world index. Newly allocated variables are
appended at the low-order end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MAX_LIVE_BITS = 24      # dense vectors; refuse anything bigger up front
MAX_SPLIT_BYTES = 1 << 30  # amplitudes one measure or return may create
STATE_TOL = 1e-10       # norm and total-probability invariants
PRUNE_EPS = 1e-12       # branch probabilities at or below this are dropped


class CapacityError(RuntimeError):
    """Raised when a program needs more live bits than the simulator allows."""


@dataclass(frozen=True)
class Environment:
    """Ordered live variables; position 0 is the most significant bit."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("environment names must be distinct")

    @property
    def n_bits(self) -> int:
        return len(self.names)

    @property
    def dim(self) -> int:
        return 1 << len(self.names)

    def position(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"variable '{name}' is not live") from None

    def shift(self, name: str) -> int:
        """Bit shift of a variable inside a world index."""
        return self.n_bits - 1 - self.position(name)

    def extended(self, new_names: Sequence[str]) -> "Environment":
        clash = set(self.names) & set(new_names)
        if clash:
            raise ValueError(f"already live: {sorted(clash)}")
        names = self.names + tuple(new_names)
        if len(names) > MAX_LIVE_BITS:
            raise CapacityError(
                f"{len(names)} live bits exceed the {MAX_LIVE_BITS}-bit capacity limit")
        return Environment(names)

    def bit(self, index: int, name: str) -> int:
        return (index >> self.shift(name)) & 1


@dataclass
class Branch:
    p: float
    amps: np.ndarray


@dataclass
class TwoLayerState:
    env: Environment
    branches: list[Branch]


def initial_state(inputs: Sequence[str]) -> TwoLayerState:
    """All inputs zero, with classical and quantum certainty."""
    env = Environment(()).extended(tuple(inputs))
    amps = np.zeros(env.dim)
    amps[0] = 1.0
    return TwoLayerState(env, [Branch(1.0, amps)])


def extend(state: TwoLayerState, new_names: Sequence[str]) -> TwoLayerState:
    """Embed every branch into the larger space with the new bits at zero."""
    env = state.env.extended(new_names)
    step = 1 << len(new_names)
    branches = []
    for b in state.branches:
        amps = np.zeros(env.dim)
        amps[::step] = b.amps
        branches.append(Branch(b.p, amps))
    return TwoLayerState(env, branches)


def to_density(state: TwoLayerState) -> np.ndarray:
    """Probability-weighted sum of the branches' outer products."""
    dim = state.env.dim
    rho = np.zeros((dim, dim))
    for b in state.branches:
        rho += b.p * np.outer(b.amps, b.amps)
    return rho


def output_distribution(state: TwoLayerState) -> dict[int, float]:
    """Chance of observing each world: sum of p * amplitude**2 over branches.

    Worlds with zero weight are omitted. The values equal the diagonal of
    to_density(state).
    """
    weights = np.zeros(state.env.dim)
    for b in state.branches:
        weights += b.p * b.amps * b.amps
    return {int(k): float(weights[k]) for k in np.flatnonzero(weights)}


def assert_valid_state(state: TwoLayerState, tol: float = STATE_TOL):
    """Raise ValueError unless probabilities and branch norms are in order."""
    if not state.branches:
        raise ValueError("state has no branches")
    total = 0.0
    for j, b in enumerate(state.branches):
        if b.p <= 0:
            raise ValueError(f"branch {j} has non-positive probability {b.p}")
        if b.amps.shape != (state.env.dim,):
            raise ValueError(f"branch {j} has {b.amps.shape} amplitudes, "
                             f"expected ({state.env.dim},)")
        norm2 = float(np.dot(b.amps, b.amps))
        if abs(norm2 - 1.0) > tol:
            raise ValueError(f"branch {j} squared norm {norm2} deviates from 1")
        total += b.p
    if abs(total - 1.0) > tol:
        raise ValueError(f"branch probabilities sum to {total}")


def basis_label(index: int, n_bits: int) -> str:
    """World index as a bit string; the 0-bit world renders as '()'."""
    if n_bits == 0:
        return "()"
    return format(index, f"0{n_bits}b")


def state_to_json(state: TwoLayerState) -> str:
    payload = {
        "vars": list(state.env.names),
        "branches": [
            {"p": float(b.p), "amps": [float(a) for a in b.amps]}
            for b in state.branches
        ],
    }
    return json.dumps(payload, indent=2)


def state_from_json(text: str) -> TwoLayerState:
    payload = json.loads(text)
    env = Environment(tuple(payload["vars"]))
    branches = [
        Branch(float(item["p"]), np.asarray(item["amps"], dtype=float))
        for item in payload["branches"]
    ]
    state = TwoLayerState(env, branches)
    assert_valid_state(state)
    return state


def prune_branches(branches: Iterable[Branch]) -> list[Branch]:
    """Drop negligible branches and rescale so probabilities sum to 1."""
    kept = [b for b in branches if b.p > PRUNE_EPS]
    if not kept:
        raise ValueError("all branches were pruned")
    total = sum(b.p for b in kept)
    for b in kept:
        b.p /= total
    return kept
