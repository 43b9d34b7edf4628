"""Program states: signed-amplitude branches under a classical distribution.

A running quantum program is described on two levels. The inner level is a
branch: a real vector of 2**n amplitudes over the worlds (joint bit
assignments) of the n live variables, normalized so the squares sum to 1.
The outer level is a classical probability distribution over branches.
Measurement moves weight from the inner level to the outer one; nothing
else ever couples branches, so they evolve independently.

A ``TwoLayerState`` holds its branches as one block: a (B, 2**n) float64
array whose row j is branch j's amplitudes, and a vector of the B
probabilities. The engine, the observables and the JSON form all work on
that block; ``branches`` lists it as ``Branch`` records whose amplitudes
are views of the rows.

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
MAX_BLOCK_BYTES = 1 << 30  # amplitudes one state's block may hold
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
    """Branch j has probability probs[j] and amplitudes amps[j]: ``amps``
    is a (B, 2**n) float64 array and ``probs`` a vector of length B."""

    env: Environment
    amps: np.ndarray
    probs: np.ndarray

    @property
    def branches(self) -> list[Branch]:
        """The branches as records whose amplitudes are views of the rows."""
        return [Branch(p, row) for p, row in zip(self.probs.tolist(), self.amps)]


# Entries of a block that one chunk holds (512 KiB of float64): statements,
# splits and to_density on a block of many branches go a chunk of rows at
# a time, so their temporaries stay this small and in cache.
_CHUNK = 1 << 16


def _chunks(n_rows: int, row_len: int) -> list[slice]:
    """Consecutive row ranges of at most _CHUNK entries (one row at least)."""
    step = _CHUNK // row_len or 1
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def to_density(state: TwoLayerState) -> np.ndarray:
    """Probability-weighted sum of the branches' outer products: the
    product of the amplitude block with itself, a chunk of the matrix's
    rows at a time, so it holds the matrix and one chunk beside the block."""
    amps, probs = state.amps, state.probs
    dim = amps.shape[1]
    rho = np.empty((dim, dim))
    for r in _chunks(dim, len(amps)):
        np.matmul(amps[:, r].T * probs, amps, out=rho[r])
    return rho


def output_distribution(state: TwoLayerState) -> dict[int, float]:
    """Chance of observing each world: sum of p * amplitude**2 over branches.

    Worlds with zero weight are omitted. The values equal the diagonal of
    to_density(state).
    """
    weights = np.einsum("j,jk,jk->k", state.probs, state.amps, state.amps)
    return {int(k): float(weights[k]) for k in np.flatnonzero(weights)}


def assert_valid_state(state: TwoLayerState, tol: float = STATE_TOL):
    """Raise ValueError unless probabilities and branch norms are in order."""
    amps, probs = state.amps, state.probs
    if not len(probs):
        raise ValueError("state has no branches")
    if amps.shape != (len(probs), state.env.dim):
        raise ValueError(f"amplitudes have shape {amps.shape}, "
                         f"expected ({len(probs)}, {state.env.dim})")
    # argmin and argmax stop at the first NaN, which fails the checks too.
    j = int(np.argmin(probs))
    if not probs[j] > 0:
        raise ValueError(f"branch {j} has non-positive probability {probs[j]}")
    gaps = np.abs(np.einsum("jk,jk->j", amps, amps) - 1.0)
    j = int(np.argmax(gaps))
    if not gaps[j] <= tol:
        raise ValueError(f"branch {j} squared norm deviates from 1 by {gaps[j]}")
    total = float(np.sum(probs))
    if not abs(total - 1.0) <= tol:
        raise ValueError(f"branch probabilities sum to {total}")


def basis_label(index: int, n_bits: int) -> str:
    """World index as a bit string; the 0-bit world renders as '()'."""
    if n_bits == 0:
        return "()"
    return format(index, f"0{n_bits}b")


def state_to_json(state: TwoLayerState) -> str:
    """The state as JSON. A zero amplitude prints as 0.0 whatever its sign,
    so the text does not depend on which kernel wrote the zero."""
    rows = (state.amps + 0.0).tolist()
    payload = {
        "vars": list(state.env.names),
        "branches": [{"p": p, "amps": amps} for p, amps in zip(state.probs.tolist(), rows)],
    }
    return json.dumps(payload, indent=2)


def state_from_json(text: str) -> TwoLayerState:
    payload = json.loads(text)
    branches = payload["branches"]
    state = TwoLayerState(Environment(tuple(payload["vars"])),
                          np.array([item["amps"] for item in branches], dtype=float),
                          np.array([item["p"] for item in branches], dtype=float))
    assert_valid_state(state)
    return state
