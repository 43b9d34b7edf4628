import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import qppl
from qppl import (
    CapacityError, Environment, extend, initial_state,
    output_distribution, state_from_json, state_to_json, to_density,
)
from conftest import RT2, assert_state_close, make_state

S = 1 / RT2


def to_json(state) -> str:
    """The text state_to_json writes for a state."""
    out = io.StringIO()
    state_to_json(state, out)
    return out.getvalue()


def random_two_layer(rng, n_bits, n_branches):
    names = tuple(f"v{i}" for i in range(n_bits))
    probs = rng.random(n_branches) + 0.1
    probs /= probs.sum()
    branches = []
    for p in probs:
        v = rng.standard_normal(1 << n_bits)
        v /= np.linalg.norm(v)
        branches.append((float(p), v))
    return make_state(names, branches)


class TestInitialState:
    def test_single_input(self):
        assert_state_close(initial_state(["x"]), [(1.0, [1, 0])])

    def test_two_inputs(self):
        assert_state_close(initial_state(["x", "y"]), [(1.0, [1, 0, 0, 0])])

    def test_no_inputs_is_scalar_one(self):
        assert_state_close(initial_state([]), [(1.0, [1])])

    def test_duplicate_inputs_rejected(self):
        with pytest.raises(ValueError):
            initial_state(["x", "x"])

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            initial_state([f"v{i}" for i in range(25)])


class TestEnvironment:
    def test_first_declared_is_most_significant(self):
        env = Environment(("x", "y"))
        assert env.shift("x") == 1
        assert env.shift("y") == 0
        assert env.bit(0b10, "x") == 1
        assert env.bit(0b10, "y") == 0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            Environment(("x",)).shift("w")

    def test_repeated_names_are_named(self):
        with pytest.raises(ValueError, match=r"repeated: \['x'\]"):
            Environment(("x", "x"))
        with pytest.raises(ValueError, match=r"repeated: \['a', 'x'\]"):
            Environment(("x", "a", "y", "a", "x"))
        with pytest.raises(ValueError, match=r"repeated: \['x'\]"):
            extend(make_state(["x", "y"], [(1.0, [1, 0, 0, 0])]), ["z", "x"])
        # The clash is found before the capacity check, at the limit too.
        full = Environment(tuple(f"v{i}" for i in range(qppl.validator.MAX_LIVE_BITS)))
        with pytest.raises(ValueError, match=r"repeated: \['v0'\]"):
            full.extended(["v0"])


class TestExtend:
    def test_basis_state_gets_low_order_zero(self):
        st = make_state(["x"], [(1.0, [0, 1])])
        out = extend(st, ["y"])
        assert out.env.names == ("x", "y")
        assert_state_close(out, [(1.0, [0, 0, 1, 0])])

    def test_superposition_embeds_per_world(self):
        st = make_state(["x"], [(1.0, [S, S])])
        assert_state_close(extend(st, ["y"]), [(1.0, [S, 0, S, 0])])

    def test_zero_extension_is_identity(self):
        st = make_state(["x"], [(1.0, [S, -S])])
        out = extend(st, [])
        assert out.env.names == st.env.names
        assert_state_close(out, [(1.0, [S, -S])])

    def test_name_clash(self):
        with pytest.raises(ValueError):
            extend(make_state(["x"], [(1.0, [1, 0])]), ["x"])


class TestToDensity:
    def test_pure_zero(self):
        st = make_state(["x"], [(1.0, [1, 0])])
        np.testing.assert_array_equal(to_density(st), [[1, 0], [0, 0]])

    def test_even_mixture(self):
        st = make_state(["x"], [(0.5, [1, 0]), (0.5, [0, 1])])
        np.testing.assert_allclose(to_density(st), np.diag([0.5, 0.5]))

    def test_uniform_superposition(self):
        st = make_state(["x"], [(1.0, [S, S])])
        np.testing.assert_allclose(to_density(st), [[0.5, 0.5], [0.5, 0.5]])


class TestOutputDistribution:
    def test_uniform(self):
        st = make_state(["x"], [(1.0, [S, S])])
        dist = output_distribution(st)
        assert dist[0] == pytest.approx(0.5)
        assert dist[1] == pytest.approx(0.5)

    def test_weighted_mixture(self):
        st = make_state(["x"], [(0.5, [1, 0]), (0.5, [S, -S])])
        dist = output_distribution(st)
        assert dist[0] == pytest.approx(0.75)
        assert dist[1] == pytest.approx(0.25)

    def test_zero_weight_worlds_omitted(self):
        st = make_state(["x"], [(1.0, [1, 0])])
        assert set(output_distribution(st)) == {0}

    def test_matches_density_diagonal(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            st = random_two_layer(rng, rng.integers(1, 5), rng.integers(1, 4))
            dist = output_distribution(st)
            diag = np.diag(to_density(st))
            full = np.zeros(st.env.dim)
            for k, v in dist.items():
                full[k] = v
            np.testing.assert_allclose(full, diag, atol=1e-10)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)


class TestStateInvariants:
    def test_valid_random_states_pass(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            qppl.assert_valid_state(random_two_layer(rng, 3, 3))

    def test_bad_norm_rejected(self):
        st = make_state(["x"], [(1.0, [1, 1])])
        with pytest.raises(ValueError):
            qppl.assert_valid_state(st)

    def test_bad_probability_sum_rejected(self):
        st = make_state(["x"], [(0.7, [1, 0]), (0.7, [0, 1])])
        with pytest.raises(ValueError):
            qppl.assert_valid_state(st)

    @pytest.mark.parametrize("branches", [
        [(float("nan"), [1, 0])],
        [(1.0, [float("nan"), 0])],
        [(0.5, [1, 0]), (0.5, [0, 1]), (0.0, [1, 0])],
    ], ids=["nan-probability", "nan-amplitude", "zero-probability"])
    def test_nan_and_zero_weights_rejected(self, branches):
        with pytest.raises(ValueError):
            qppl.assert_valid_state(make_state(["x"], branches))

    def test_amplitude_block_of_the_wrong_shape_rejected(self):
        st = make_state(["x"], [(1.0, [1, 0])])
        st.amps = np.ones((1, 4)) / 2
        with pytest.raises(ValueError, match="shape"):
            qppl.assert_valid_state(st)

    @pytest.mark.parametrize("probs", [np.float64(1.0), np.ones((1, 1))], ids=["scalar", "matrix"])
    def test_probabilities_that_are_not_a_vector_rejected(self, probs):
        st = make_state(["x"], [(1.0, [1, 0])])
        st.probs = probs
        with pytest.raises(ValueError, match="shape"):
            qppl.assert_valid_state(st)


# JSON-like payloads: nested lists and objects of numbers and strings, and
# objects with or without each key of the two forms, whose values are
# sometimes of the right shape and sometimes any such payload.
JSON_VALUES = hst.recursive(
    hst.none() | hst.booleans() | hst.integers() | hst.floats() | hst.text(max_size=3),
    lambda inner: hst.lists(inner, max_size=4) | hst.dictionaries(hst.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=10)
NUMBERS = hst.lists(hst.sampled_from([0.0, 0.5, S, -S, 1.0]) | hst.integers() | hst.floats(),
                    max_size=4)
STATE_PAYLOADS = hst.fixed_dictionaries({}, optional={
    "vars": hst.lists(hst.sampled_from(["x", "y"]), max_size=2) | JSON_VALUES,
    "probs": NUMBERS | JSON_VALUES,
    "branches": hst.lists(hst.fixed_dictionaries({}, optional={
        "p": NUMBERS.map(sum) | JSON_VALUES, "amps": NUMBERS | JSON_VALUES}), max_size=3)
    | JSON_VALUES,
})


class TestJson:
    def test_schema(self):
        st = make_state(["x", "y"], [(1.0, [S, 0, S, 0])])
        payload = json.loads(to_json(st))
        assert payload["vars"] == ["x", "y"]
        assert len(payload["branches"]) == 1
        assert payload["branches"][0]["p"] == 1.0
        assert len(payload["branches"][0]["amps"]) == 4

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        st = random_two_layer(rng, 3, 2)
        back = state_from_json(to_json(st))
        assert back.env.names == st.env.names
        assert_state_close(back, [(b.p, b.amps) for b in st.branches], tol=1e-12)

    @pytest.mark.parametrize("probs", [
        [0.5, -0.25, 0.5, 0.25], [0.5, 0.5], [0.25, 0.25, 0.25, 0.2], [0.5, 0.5, 0.0, float("nan")],
    ], ids=["negative", "short", "unnormalised", "nan"])
    def test_a_classical_payload_out_of_order_is_refused(self, probs):
        text = json.dumps({"vars": ["x", "y"], "probs": probs})
        with pytest.raises(ValueError):
            state_from_json(text)

    @pytest.mark.parametrize("payload", [
        [], {}, {"vars": []}, {"vars": [], "branches": [{"p": 1.0}]}, {"vars": 3, "probs": [1]},
        {"vars": "x", "probs": [0.5, 0.5]}, {"vars": [], "branches": [{"p": [1.0], "amps": [1]}]},
        {"vars": [], "probs": [10 ** 400]},
    ])
    def test_a_payload_that_is_no_state_is_refused(self, payload):
        with pytest.raises(ValueError):
            state_from_json(json.dumps(payload))

    @given(payload=hst.one_of(JSON_VALUES, STATE_PAYLOADS))
    @settings(max_examples=300, deadline=None)
    def test_any_payload_gives_a_valid_state_or_a_value_error(self, payload):
        try:
            st = state_from_json(json.dumps(payload))
        except ValueError:
            return
        if isinstance(st, qppl.ClassicalState):
            assert st.probs.shape == (st.env.dim,)
        else:
            assert isinstance(st, qppl.TwoLayerState)
            qppl.assert_valid_state(st)

    def test_zero_prints_without_sign(self):
        # Negating a block by a table of signs turns 0.0 into -0.0; the dump
        # must read the same as for a zero that was never negated.
        negated = make_state(["x", "y"], [(1.0, np.array([S, -0.0, -S, 0.0]))])
        plain = make_state(["x", "y"], [(1.0, [S, 0, -S, 0])])
        assert to_json(negated) == to_json(plain)
        assert "-0.0" not in to_json(negated)

    @pytest.mark.parametrize("n_bits, n_branches", [(0, 1), (1, 3), (13, 2)])
    def test_text_is_json_dumps_of_the_whole_payload(self, n_bits, n_branches):
        # 2**13 amplitudes are two chunks of the streamed form.
        st = random_two_layer(np.random.default_rng(n_bits), n_bits, n_branches)
        payload = {"vars": list(st.env.names), "branches": [
            {"p": p, "amps": row} for p, row in zip(st.probs.tolist(), st.amps.tolist())]}
        assert to_json(st) == json.dumps(payload, indent=2)
        env = st.env
        dist = qppl.ClassicalState(env, st.amps[0] ** 2)
        assert to_json(dist) == json.dumps(
            {"vars": list(env.names), "probs": dist.probs.tolist()}, indent=2)

    @pytest.mark.parametrize("mode", ["quantum", "classical"])
    def test_a_16_bit_dump_is_written_a_chunk_at_a_time(self, tmp_path, mode):
        env = Environment(tuple(f"x{i}" for i in range(16)))
        weights = np.random.default_rng(16).random(env.dim)
        if mode == "quantum":
            st = qppl.TwoLayerState(env, weights[None] / np.linalg.norm(weights), np.ones(1))
        else:
            st = qppl.ClassicalState(env, weights / weights.sum())
        with open(tmp_path / "state.json", "w", encoding="utf-8") as out:
            tracemalloc.start()
            try:
                state_to_json(st, out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # The 0.5 MiB vector as text is about 1.3 MiB; whole, it peaked at 8 MiB.
        assert peak < 2 << 20
        assert len(json.loads((tmp_path / "state.json").read_text())["vars"]) == 16


def test_basis_label():
    assert qppl.basis_label(0, 0) == "()"
    assert qppl.basis_label(3, 2) == "11"
    assert qppl.basis_label(2, 3) == "010"
