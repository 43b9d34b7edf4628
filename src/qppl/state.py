"""Program states: signed-amplitude branches under a classical distribution.

A running quantum program is described on two levels. The inner level is a
branch: a real vector of 2**n amplitudes over the worlds (joint bit
assignments) of the n live variables, normalized so the squares sum to 1.
The outer level is a classical probability distribution over branches.
Measurement moves weight from the inner level to the outer one; nothing
else ever couples branches, so they evolve independently.

A ``TwoLayerState`` holds its branches as one block: a (B, 2**n) float64
array whose row j is branch j's amplitudes, and a vector of the B
probabilities. The engine, the observables and the text forms all work on
that block; ``branches`` lists it as ``Branch`` records whose amplitudes
are views of the rows.

A classical program's state, a ``ClassicalState``, has one layer: a
probability vector over the worlds. That vector is its ``weights()``, the
chance of each world, which a ``TwoLayerState`` sums from its block.

Basis indexing is fixed once and for all by the environment: variables in
declaration order, inputs first, with the first-declared variable as the
most significant bit of the world index. Newly allocated variables are
appended at the low-order end. Every text form of a state, its JSON, a
trace's kets, the distribution's lines and sampled shots, is written here;
a writer of a world vector reads the labels' width off its length, 2**n.
An ``Environment``'s names are distinct, checked once, when it is built.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence, TextIO

import numpy as np

from .validator import capacity_error

STATE_TOL = 1e-10       # norm and total-probability invariants
PRUNE_EPS = 1e-12       # a chance this small is roundoff: a split drops it, weights() reads 0


class CapacityError(RuntimeError):
    """Raised when a program needs more live bits than the simulator allows."""


@dataclass(frozen=True)
class Environment:
    """Ordered live variables; position 0 is the most significant bit."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            repeated = sorted(n for n, count in Counter(self.names).items() if count > 1)
            raise ValueError(f"environment names must be distinct, repeated: {repeated}")

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
        env = Environment(self.names + tuple(new_names))  # ValueError on a name already live
        if (message := capacity_error(env.n_bits)) is not None:
            raise CapacityError(message)
        return env

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

    def weights(self) -> np.ndarray:
        """Chance of observing each world, one vector: the sum of p *
        amplitude**2 over the branches, the diagonal of to_density(state),
        with each chance of PRUNE_EPS or less, which only roundoff leaves, set to 0."""
        weights = np.einsum("j,jk,jk->k", self.probs, self.amps, self.amps)
        weights[weights <= PRUNE_EPS] = 0.0
        return weights


@dataclass
class ClassicalState:
    """World k has probability probs[k]: one layer, nonnegative weights."""

    env: Environment
    probs: np.ndarray

    def weights(self) -> np.ndarray:
        """Chance of observing each world: the probability vector itself."""
        return self.probs

    def distribution(self) -> dict[int, float]:
        return output_distribution(self)


# Entries of a block that one chunk holds (512 KiB of float64): statements,
# splits and to_density on a block of many branches go a chunk of rows at
# a time, so their temporaries stay this small and in cache.
_CHUNK = 1 << 16


def _chunks(n_rows: int, row_len: int) -> list[slice]:
    """Consecutive row ranges of at most _CHUNK entries (one row at least)."""
    step = _CHUNK // row_len or 1
    if 0 < n_rows <= step:  # the common case, without the comprehension's cost
        return [slice(0, n_rows)]
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


def output_distribution(state: TwoLayerState | ClassicalState) -> dict[int, float]:
    """The state's weights as a dict from world index to probability,
    without the worlds of weight zero."""
    weights = state.weights()
    return {int(k): float(weights[k]) for k in np.flatnonzero(weights)}


def assert_valid_state(state: TwoLayerState):
    """Raise ValueError unless probabilities and branch norms are in order."""
    amps, probs = state.amps, state.probs
    if not probs.size:
        raise ValueError("state has no branches")
    if probs.ndim != 1 or amps.shape != (len(probs), state.env.dim):
        raise ValueError(f"amplitudes have shape {amps.shape} and probabilities "
                         f"{probs.shape}, expected (B, {state.env.dim}) and (B,)")
    # argmin and argmax stop at the first NaN, which fails the checks too.
    j = int(np.argmin(probs))
    if not probs[j] > 0:
        raise ValueError(f"branch {j} has non-positive probability {probs[j]}")
    gaps = np.abs(np.einsum("jk,jk->j", amps, amps) - 1.0)
    j = int(np.argmax(gaps))
    if not gaps[j] <= STATE_TOL:
        raise ValueError(f"branch {j} squared norm deviates from 1 by {gaps[j]}")
    total = float(np.sum(probs))
    if not abs(total - 1.0) <= STATE_TOL:
        raise ValueError(f"branch probabilities sum to {total}")


def basis_label(index: int, n_bits: int) -> str:
    """World index as a bit string; the 0-bit world renders as '()'."""
    return _label_field(1 << n_bits).format(index)


def _label_field(n_worlds: int) -> str:
    """The format field that writes argument 0, an index of 2**n worlds, as basis_label(·, n)."""
    return f"{{0:0{n_worlds.bit_length() - 1}b}}" if n_worlds > 1 else "()"


# Entries of a vector written as text at a time: floats of the JSON form,
# kets of a trace line and lines of the distribution, about 100 KiB of text.
_TEXT_CHUNK = 1 << 12


def _nonzero(vec: np.ndarray) -> Iterator[list[int]]:
    """The ascending indices of a vector's nonzero entries, a list per text chunk."""
    for start in range(0, len(vec), _TEXT_CHUNK):
        yield (np.flatnonzero(vec[start:start + _TEXT_CHUNK]) + start).tolist()


def write_kets(prefix: str, vec: np.ndarray, out: TextIO):
    """Write the prefix and the nonzero entries of a world vector as kets, one line."""
    ket = "{1:.6g}|" + _label_field(len(vec)) + "⟩"
    kets = (" + ".join(map(ket.format, ks, vec[ks].tolist())) for ks in _nonzero(vec) if ks)
    out.write(prefix + next(kets, ""))
    for text in kets:
        out.write(" + " + text)
    out.write("\n")


def write_trace(label: str, state: TwoLayerState | ClassicalState, out: TextIO):
    """The statement's text, then a line of kets per branch, or of weights if classical."""
    if label:
        print(label, file=out)
    if isinstance(state, ClassicalState):
        write_kets("  ", state.probs, out)
    else:
        for p, amps in zip(state.probs.tolist(), state.amps):
            write_kets(f"  p={p:.6g}: ", amps, out)


def write_distribution(weights: np.ndarray, out: TextIO):
    """Write a line per nonzero world, its label and weight, a text chunk at a time."""
    line = _label_field(len(weights)) + ": {1:.6f}\n"
    for ks in _nonzero(weights):
        out.write("".join(map(line.format, ks, weights[ks].tolist())))


def sample(weights: np.ndarray, seed: int, shots: int) -> Iterator[int]:
    """Yield shots i.i.d. worlds drawn from a weight vector: Generator.choice's
    draws, its cumulative sum built once, one uniform number a draw."""
    keys = np.flatnonzero(weights)
    cdf = weights[keys]
    cdf /= cdf.sum()
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    for start in range(0, shots, _CHUNK):
        size = min(_CHUNK, shots - start)
        yield from keys[cdf.searchsorted(rng.random(size), side="right")].tolist()


def write_shots(weights: np.ndarray, seed: int, shots: int, out: TextIO):
    """Write the label of each of ``sample``'s draws on a line, one write a line."""
    line = _label_field(len(weights)) + "\n"
    out.writelines(map(line.format, sample(weights, seed, shots)))


def _write_json_floats(out: TextIO, values: np.ndarray, depth: int):
    """Write a nonempty float vector as the JSON list that json.dumps(...,
    indent=2) lays out at nesting depth ``depth``, a chunk at a time, so
    the text is never held whole. A zero prints as 0.0 whatever its sign,
    so the text does not depend on which kernel wrote the zero."""
    sep = ",\n" + "  " * (depth + 1)
    out.write("[" + sep[1:])
    for start in range(0, len(values), _TEXT_CHUNK):
        chunk = (values[start:start + _TEXT_CHUNK] + 0.0).tolist()
        out.write((sep if start else "") + json.dumps(chunk, separators=(sep, ":"))[1:-1])
    out.write("\n" + "  " * depth + "]")


def _json_head(env: Environment, key: str) -> str:
    """The JSON form's text up to the list under ``key``, after "vars"."""
    names = json.dumps(list(env.names), indent=2).replace("\n", "\n  ")
    return f'{{\n  "vars": {names},\n  "{key}": '


def state_to_json(state: TwoLayerState | ClassicalState, out: TextIO):
    """Write the state to ``out`` as JSON, a chunk of a row at a time, laid
    out as json.dumps(..., indent=2) lays out {"vars": [...], "branches":
    [{"p": ..., "amps": [...]}, ...]}, or a classical state's {"vars": [...],
    "probs": [...]}."""
    if isinstance(state, ClassicalState):
        out.write(_json_head(state.env, "probs"))
        _write_json_floats(out, state.probs, 1)
        out.write("\n}")
        return
    out.write(_json_head(state.env, "branches") + "[")
    for j, (p, row) in enumerate(zip(state.probs.tolist(), state.amps)):
        out.write(("," if j else "") + f'\n    {{\n      "p": {json.dumps(p)},\n      "amps": ')
        _write_json_floats(out, row, 3)
        out.write("\n    }")
    out.write("\n  ]\n}")


def state_from_json(text: str) -> TwoLayerState | ClassicalState:
    """Read either form state_to_json writes; raise ValueError if the text
    holds neither form or the state it holds is not valid."""
    payload = json.loads(text)
    try:  # a key missing, or a value of another form
        names, classical = payload["vars"], "probs" in payload
        if classical:
            probs = np.array(payload["probs"], dtype=float)
        else:
            amps = np.array([item["amps"] for item in payload["branches"]], dtype=float)
            probs = np.array([item["p"] for item in payload["branches"]], dtype=float)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"not a state: {exc!r}") from None
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError('"vars" must be a list of names')
    env = Environment(tuple(names))
    if classical:
        if probs.shape != (env.dim,):
            raise ValueError(f"probabilities have shape {probs.shape}, expected ({env.dim},)")
        # Negated comparisons, so that a NaN fails them too.
        if not np.all(probs >= 0) or not abs(float(np.sum(probs)) - 1.0) <= STATE_TOL:
            raise ValueError("probabilities must be non-negative and sum to 1")
        return ClassicalState(env, probs)
    state = TwoLayerState(env, amps, probs)
    assert_valid_state(state)
    return state
