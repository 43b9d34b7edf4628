import numpy as np
import pytest

import qppl

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


@pytest.fixture(scope="session")
def corpus():
    return qppl.bundled_programs()
