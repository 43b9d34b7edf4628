"""Program states: signed-amplitude branches under a classical distribution.

A running quantum program is described on two levels. The inner level is a
branch: a real vector of 2**n amplitudes over the worlds (joint bit
assignments) of the n live variables, normalized so the squares sum to 1.
The outer level is a classical probability distribution over branches.
Measurement moves weight from the inner level to the outer one; nothing
else ever couples branches, so they evolve independently.

``TwoLayerState`` and ``Branch`` are the boundary of the package. Inside a
run the engine holds the branches as one block instead: a (B, 2**n) array
whose row j is branch j's amplitudes, and a vector of the B
probabilities. ``to_block`` stacks a state's branches into that form,
and ``engine.from_block`` turns a block back into a state. The states a
run hands out, to an observer or as its result, have branch amplitudes
that are views of the rows of that block.

Basis indexing is fixed once and for all by the environment: variables in
declaration order, inputs first, with the first-declared variable as the
most significant bit of the world index. Newly allocated variables are
appended at the low-order end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

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


def to_block(state: TwoLayerState) -> tuple[np.ndarray, np.ndarray]:
    """A state's branches as one block: the (B, 2**n) array whose row j is
    branch j's amplitudes, and the B branch probabilities."""
    amps = np.array([b.amps for b in state.branches], dtype=float)
    return (amps.reshape(len(state.branches), state.env.dim),
            np.array([b.p for b in state.branches], dtype=float))


def to_density(state: TwoLayerState) -> np.ndarray:
    """Probability-weighted sum of the branches' outer products, as one
    product of the (B, 2**n) amplitude block with itself."""
    amps, probs = to_block(state)
    return (amps.T * probs) @ amps


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
    """The state as JSON. A zero amplitude prints as 0.0 whatever its sign,
    so the text does not depend on which kernel wrote the zero."""
    payload = {
        "vars": list(state.env.names),
        "branches": [
            {"p": float(b.p), "amps": [float(a) + 0.0 for a in b.amps]}
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
