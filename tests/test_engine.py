import gc
import tracemalloc

import numpy as np
import pytest

import qppl
from qppl import (
    And, Branch, CapacityError, Const, Environment, If, Not, Or, QNeg, QRand,
    RandBit, TwoLayerState, Var, XorAssign, apply_measure, apply_qrand, apply_return,
    check_equivalence, comp_matrix, extend, output_distribution, parse, run,
    to_density, truth_table,
)
from qppl.engine import CLASSICAL_ONLY, QUANTUM_ONLY, apply_comp, split_index
from qppl.randprog import random_comp_program, random_program
from conftest import H, RT2, assert_state_close, brute_force_measure, make_state

S = 1 / RT2


def step(state, stmt):
    """One computational statement on every branch, through the engine's kernel."""
    return TwoLayerState(state.env, [
        Branch(b.p, apply_comp(b.amps, stmt, state.env, CLASSICAL_ONLY))
        for b in state.branches
    ])


def world_value(e, k, env):
    """An expression's value in world k, evaluated bit by bit with env.bit."""
    if isinstance(e, Var):
        return env.bit(k, e.name)
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Not):
        return 1 - world_value(e.operand, k, env)
    if isinstance(e, And):
        return world_value(e.left, k, env) & world_value(e.right, k, env)
    assert isinstance(e, Or), e
    return world_value(e.left, k, env) | world_value(e.right, k, env)


class TestEvalExpr:
    """truth_table against the per-world evaluation above."""

    def test_and(self):
        env = Environment(("x", "y"))
        expr = And(Var("x"), Var("y"))
        assert truth_table(expr, env)[0b11] == world_value(expr, 0b11, env) == 1

    def test_not(self):
        env = Environment(("x",))
        expr = Not(Var("x"))
        assert truth_table(expr, env)[0b0] == world_value(expr, 0b0, env) == 1

    def test_or_with_constant(self):
        env = Environment(("x", "y"))
        expr = Or(Const(0), Var("y"))
        assert truth_table(expr, env)[0b10] == world_value(expr, 0b10, env) == 0

    def test_truth_table_matches_pointwise_eval(self):
        env = Environment(("a", "b", "c"))
        expr = Or(And(Var("a"), Not(Var("c"))), Var("b"))
        table = truth_table(expr, env)
        for k in range(env.dim):
            assert table[k] == world_value(expr, k, env)

    def test_truth_table_leaves_no_reference_cycle(self):
        # A cycle would keep the 2**n index array alive until the collector runs.
        env = Environment(tuple(f"v{i}" for i in range(16)))
        expr = Or(And(Var("v0"), Not(Var("v7"))), Or(Const(1), Var("v15")))
        gc.collect()
        gc.disable()
        try:
            truth_table(expr, env)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestQRand:
    def test_zero_splits_evenly(self):
        st = make_state(["x"], [(1.0, [1, 0])])
        assert_state_close(apply_qrand(st, "x"), [(1.0, [S, S])])

    def test_one_splits_with_opposite_signs(self):
        st = make_state(["x"], [(1.0, [0, 1])])
        assert_state_close(apply_qrand(st, "x"), [(1.0, [S, -S])])

    def test_uniform_superposition_cancels_back_to_zero(self):
        st = make_state(["x"], [(1.0, [S, S])])
        assert_state_close(apply_qrand(st, "x"), [(1.0, [1, 0])])

    def test_self_inverse_on_random_states(self):
        rng = np.random.default_rng(5)
        names = ("a", "b", "c")
        for _ in range(20):
            v = rng.standard_normal(8)
            v /= np.linalg.norm(v)
            st = make_state(names, [(1.0, v)])
            twice = apply_qrand(apply_qrand(st, "b"), "b")
            np.testing.assert_allclose(twice.branches[0].amps, v, atol=1e-12)


def coin_reference(vec, env, target, signed):
    """qrand (signed) or rand_bit on each world k, reading its pair partner."""
    out = np.empty_like(vec)
    for k in range(env.dim):
        other = k ^ (1 << env.shift(target))
        zero, one = vec[min(k, other)], vec[max(k, other)]
        if not signed:
            out[k] = (zero + one) * 0.5
        elif env.bit(k, target) == 0:
            out[k] = (zero + one) * S
        else:
            out[k] = (zero - one) * S
    return out


class TestCoinKernel:
    ENV = Environment(("a", "b", "c", "d"))

    @pytest.mark.parametrize("target", ["a", "b", "c", "d"])
    def test_qrand_on_a_vector(self, target):
        v = np.random.default_rng(3).standard_normal(16)
        got = apply_comp(v, QRand(target), self.ENV, CLASSICAL_ONLY)
        np.testing.assert_array_equal(got, coin_reference(v, self.ENV, target, True))

    @pytest.mark.parametrize("target", ["a", "b", "c", "d"])
    def test_qrand_on_matrix_columns(self, target):
        m = np.random.default_rng(4).standard_normal((16, 5))
        got = apply_comp(m, QRand(target), self.ENV, CLASSICAL_ONLY)
        np.testing.assert_array_equal(got, coin_reference(m, self.ENV, target, True))

    @pytest.mark.parametrize("target", ["a", "b", "c", "d"])
    def test_rand_bit_on_probabilities(self, target):
        probs = np.random.default_rng(5).random(16)
        probs /= probs.sum()
        got = apply_comp(probs, RandBit(target), self.ENV, QUANTUM_ONLY)
        np.testing.assert_array_equal(got, coin_reference(probs, self.ENV, target, False))


class TestQNeg:
    def test_negates_amplitudes(self):
        final = run(parse("def main(x : bit):\n  qnegate()"))
        assert_state_close(final, [(1.0, [-1, 0])])

    def test_invisible_in_density(self):
        st = make_state(["x"], [(0.5, [S, S]), (0.5, [1, 0])])
        np.testing.assert_allclose(to_density(step(st, QNeg())), to_density(st), atol=1e-15)

    def test_conditioned_on_x_flips_one_side(self):
        st = make_state(["x"], [(1.0, [S, S])])
        cond = parse("def main(x : bit):\n  if x == 1:\n    qnegate()").body[0]
        assert_state_close(step(st, cond), [(1.0, [S, -S])])


class TestXorAssign:
    def test_copies_set_bit(self):
        st = make_state(["x", "y"], [(1.0, [0, 0, 1, 0])])
        assert_state_close(step(st, XorAssign("y", Var("x"))), [(1.0, [0, 0, 0, 1])])

    def test_involution_is_exact(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        st = make_state(["x", "y", "z"], [(1.0, v)])
        rhs = Or(Var("x"), Not(Var("z")))
        back = step(step(st, XorAssign("y", rhs)), XorAssign("y", rhs))
        np.testing.assert_array_equal(back.branches[0].amps, v)

    def test_acts_per_world(self):
        st = make_state(["x", "y"], [(1.0, [S, 0, S, 0])])
        assert_state_close(step(st, XorAssign("y", Var("x"))), [(1.0, [S, 0, 0, S])])


class TestIf:
    def test_sign_flip_on_selected_worlds(self):
        st = make_state(["x", "y"], [(1.0, [S, 0, S, 0])])
        cond = parse("def main(x, y : bit):\n  if x == 1:\n    qnegate()").body[0]
        assert_state_close(step(st, cond), [(1.0, [S, 0, -S, 0])])

    def test_false_condition_is_identity(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        st = make_state(["x", "y"], [(1.0, v)])
        out = step(st, If(Const(0), (QRand("x"), QNeg())))
        np.testing.assert_array_equal(out.branches[0].amps, v)

    def test_identity_oracle_column_signs(self):
        final = run(parse("def main(x : bit):\n  qrand_bit(x)\n  if x == 1:\n    qnegate()"))
        assert_state_close(final, [(1.0, [S, -S])])

    def test_body_with_xor(self):
        # if x: y ^= 1 flips y only in the x=1 worlds.
        st = make_state(["x", "y"], [(1.0, [S, 0, S, 0])])
        out = step(st, If(Var("x"), (XorAssign("y", Const(1)),)))
        assert_state_close(out, [(1.0, [S, 0, 0, S])])


class TestMeasure:
    def test_uniform_becomes_classical(self):
        st = make_state(["x"], [(1.0, [S, S])])
        assert_state_close(apply_measure(st, ["x"]), [(0.5, [1, 0]), (0.5, [0, 1])])

    def test_basis_state_is_untouched(self):
        st = make_state(["x", "y"], [(1.0, [0, 0, 1, 0])])
        assert_state_close(apply_measure(st, ["x", "y"]), [(1.0, [0, 0, 1, 0])])

    def test_partial_measurement(self):
        st = make_state(["x", "y"], [(1.0, [0.5, 0.5, 0.5, 0.5])])
        expected = [(0.5, [S, 0, S, 0]), (0.5, [0, S, 0, S])]
        assert_state_close(apply_measure(st, ["y"]), expected)

    def test_partial_measurement_matches_brute_force(self):
        st = make_state(["x", "y"], [(1.0, [0.5, 0.5, 0.5, 0.5])])
        got = apply_measure(st, ["y"])
        assert_state_close(got, brute_force_measure(st, ["y"]), tol=1e-12)

    def test_random_states_match_brute_force(self):
        rng = np.random.default_rng(21)
        names = ("a", "b", "c")
        for _ in range(20):
            v = rng.standard_normal(8)
            v /= np.linalg.norm(v)
            st = make_state(names, [(1.0, v)])
            chosen = [n for n in names if rng.random() < 0.5] or ["b"]
            assert_state_close(
                apply_measure(st, chosen), brute_force_measure(st, chosen), tol=1e-12
            )

    def test_idempotent(self):
        st = make_state(["x", "y"], [(1.0, [0.5, 0.5, 0.5, 0.5])])
        once = apply_measure(st, ["y"])
        twice = apply_measure(once, ["y"])
        assert_state_close(twice, [(b.p, b.amps) for b in once.branches])

    def test_measuring_everything_yields_basis_branches(self):
        rng = np.random.default_rng(17)
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        st = make_state(("a", "b", "c"), [(1.0, v)])
        out = apply_measure(st, ["a", "b", "c"])
        for b in out.branches:
            support = np.flatnonzero(b.amps)
            assert len(support) == 1
            assert abs(abs(b.amps[support[0]]) - 1.0) < 1e-12

    def test_zero_amplitude_outcomes_create_no_branches(self):
        st = make_state(["x", "y"], [(1.0, [S, 0, S, 0])])
        out = apply_measure(st, ["y"])
        assert len(out.branches) == 1

    def test_no_cross_branch_interference(self):
        st = make_state(["x"], [(0.5, [S, S]), (0.5, [S, -S])])
        assert_state_close(apply_qrand(st, "x"), [(0.5, [1, 0]), (0.5, [0, 1])])

    def test_empty_measurement_is_identity(self):
        st = make_state(["x"], [(1.0, [S, S])])
        assert_state_close(apply_measure(st, []), [(1.0, [S, S])])

    def test_duplicate_names_rejected(self):
        st = make_state(["x"], [(1.0, [1, 0])])
        with pytest.raises(ValueError):
            apply_measure(st, ["x", "x"])

    def test_unknown_names_rejected(self):
        st = make_state(["x"], [(1.0, [1, 0])])
        with pytest.raises(KeyError):
            apply_measure(st, ["w"])


def merge_reference(pairs, grid=2.0 ** -40):
    """Merge (p, amps) pairs whose amplitudes agree up to sign on the grid,
    written with tuples and a list scan instead of the engine's hashing."""
    merged = []
    for p, amps in pairs:
        key = tuple(int(k) for k in np.rint(np.asarray(amps) / grid))
        first = next((k for k in key if k != 0), 0)
        if first < 0:
            key = tuple(-k for k in key)
        for entry in merged:
            if entry[0] == key:
                entry[1] += p
                break
        else:
            merged.append([key, p, amps])
    return [(p, amps) for _, p, amps in merged]


def loop_program(rounds):
    return parse("def main():\n  new x\n" + "  qrand_bit(x)\n  measure(x)\n" * rounds)


class TestBranchMerge:
    def test_repeated_measurement_keeps_two_branches(self):
        final = run(loop_program(16))
        assert len(final.branches) == 2
        assert [b.p for b in final.branches] == [pytest.approx(0.5, abs=1e-12)] * 2
        np.testing.assert_allclose(np.abs(final.branches[0].amps), [1, 0], atol=1e-12)
        np.testing.assert_allclose(np.abs(final.branches[1].amps), [0, 1], atol=1e-12)

    def test_opposite_signs_merge(self):
        st = make_state(["x"], [(0.5, [0, 1]), (0.5, [0, -1])])
        assert_state_close(apply_measure(st, []), [(1.0, [0, 1])])

    def test_vectors_a_nanounit_apart_stay_separate(self):
        t = np.pi / 4 + 1e-9
        st = make_state(["x"], [(0.5, [S, S]), (0.5, [np.cos(t), np.sin(t)])])
        assert len(apply_measure(st, []).branches) == 2

    def test_first_occurrence_keeps_its_vector_and_place(self):
        a, b, c = [-1, 0, 0, 0], [0, S, -S, 0], [0, 0, 0, 1]
        neg = lambda v: [-x for x in v]
        st = make_state(["x", "y"], [(0.1, a), (0.2, b), (0.3, neg(a)), (0.15, c),
                                     (0.25, neg(b))])
        out = apply_measure(st, [])
        assert_state_close(out, [(0.4, a), (0.45, b), (0.15, c)], tol=1e-12)

    def test_split_across_parents_matches_merged_brute_force(self):
        rng = np.random.default_rng(8)
        names = ("a", "b", "c")
        for _ in range(10):
            v = rng.standard_normal(8)
            v /= np.linalg.norm(v)
            # Equal on worlds with c = 0, opposite on worlds with c = 1.
            flipped = v * np.array([1, -1] * 4)
            st = make_state(names, [(0.3, v), (0.2, flipped), (0.5, -v)])
            for chosen in (["c"], ["a", "c"], ["b", "c"]):
                got = apply_measure(st, chosen)
                expected = merge_reference(brute_force_measure(st, chosen))
                assert len(got.branches) < len(brute_force_measure(st, chosen))
                assert_state_close(got, expected, tol=1e-12)

    @pytest.mark.parametrize("source", [
        "def main():\n  new x\n" + "  qrand_bit(x)\n  qnegate()\n  measure(x)\n" * 8,
        "def main():\n  new x, y\n  qrand_bit(x)\n  measure(x)\n  qrand_bit(x)\n"
        "  y ^= x\n  measure(y)\n  qrand_bit(x)\n  measure(x)\n  return y\n",
        "def main():\n  new x, y\n  qrand_bit(x)\n  qrand_bit(y)\n  measure(x, y)\n"
        "  qrand_bit(x)\n  if y:\n    qnegate()\n  measure(x)\n  return\n",
    ])
    def test_programs_with_duplicates_match_the_density_oracle(self, source):
        p = parse(source)
        assert check_equivalence(p) <= 1e-10
        run(p, check_invariants=True)

    def test_split_over_the_byte_bound_raises_before_allocating(self, monkeypatch):
        names = [f"x{i}" for i in range(10)]
        st = make_state(names, [(1.0, np.full(1 << 10, 2.0 ** -5))])
        monkeypatch.setattr(qppl.engine, "MAX_SPLIT_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="need 8 MiB"):
                apply_measure(st, names)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_byte_bound_counts_outcomes_times_output_length(self, monkeypatch):
        st = make_state(["x", "y", "z"], [(1.0, np.full(8, 8 ** -0.5))])
        # Measuring all three bits: 8 outcomes of 8 amplitudes.
        monkeypatch.setattr(qppl.engine, "MAX_SPLIT_BYTES", 8 * 8 * 8)
        assert len(apply_measure(st, ["x", "y", "z"]).branches) == 8
        monkeypatch.setattr(qppl.engine, "MAX_SPLIT_BYTES", 8 * 8 * 8 - 1)
        with pytest.raises(CapacityError):
            apply_measure(st, ["x", "y", "z"])
        # Returning nothing: 8 outcomes of 1 amplitude, merged into one.
        monkeypatch.setattr(qppl.engine, "MAX_SPLIT_BYTES", 8 * 1 * 8)
        assert len(apply_return(st, []).branches) == 1
        monkeypatch.setattr(qppl.engine, "MAX_SPLIT_BYTES", 8 * 1 * 8 - 1)
        with pytest.raises(CapacityError):
            apply_return(st, [])


class TestNewAndReturn:
    def test_new_extends_environment(self):
        st = make_state(["x"], [(1.0, [0, 1])])
        out = extend(st, ["y"])
        assert out.env.names == ("x", "y")
        assert_state_close(out, [(1.0, [0, 0, 1, 0])])

    def test_alloc_and_return_discards(self, corpus):
        final = run(parse(corpus["alloc_return"]))
        assert final.env.names == ("y",)
        assert_state_close(final, [(1.0, [0, 1])])

    def test_return_everything_is_identity(self):
        st = make_state(["x", "y"], [(1.0, [S, 0, 0, S])])
        out = apply_return(st, ["y", "x"])
        assert out.env.names == ("x", "y")
        assert_state_close(out, [(1.0, [S, 0, 0, S])])

    def test_return_nothing_measures_everything(self):
        st = make_state(["x"], [(1.0, [S, S])])
        out = apply_return(st, [])
        assert out.env.names == ()
        # Both outcomes leave the empty state [1]; they merge into one branch.
        assert_state_close(out, [(1.0, [1])])

    def test_discarded_entangled_variable_decoheres(self):
        # (|00> + |11>)/sqrt2 with y discarded leaves an even classical mix on x.
        st = make_state(["x", "y"], [(1.0, [S, 0, 0, S])])
        out = apply_return(st, ["x"])
        assert out.env.names == ("x",)
        assert_state_close(out, [(0.5, [1, 0]), (0.5, [0, 1])])


class TestRun:
    def test_interference_program(self, corpus):
        final = run(parse(corpus["interference"]))
        assert_state_close(final, [(1.0, [0, 0, 0, 1])])

    def test_measurement_example_trace(self, corpus):
        states = []
        run(parse(corpus["measure_branching"]), observer=lambda _, s: states.append(s))
        assert_state_close(states[0], [(1.0, [1, 0])])
        assert_state_close(states[1], [(1.0, [S, S])])
        assert_state_close(states[2], [(0.5, [1, 0]), (0.5, [0, 1])])
        assert_state_close(states[3], [(0.5, [S, S]), (0.5, [S, -S])])
        assert_state_close(states[4], [(0.5, [1, 0]), (0.5, [0, 1])])

    @pytest.mark.parametrize("name,expected", [
        ("deutsch_const0", {0: 1.0}),
        ("deutsch_const1", {0: 1.0}),
        ("deutsch_identity", {1: 1.0}),
        ("deutsch_negation", {1: 1.0}),
    ])
    def test_deutsch_oracles(self, corpus, name, expected):
        dist = output_distribution(run(parse(corpus[name])))
        for k, v in expected.items():
            assert dist.get(k, 0.0) == pytest.approx(v, abs=1e-10)

    def test_norm_conservation_across_corpus(self, corpus):
        for name, src in corpus.items():
            if name == "classical_coins":
                continue
            run(parse(src), check_invariants=True)

    def test_norm_conservation_on_random_programs(self):
        for seed in range(60):
            p = random_program(seed, max_bits=5, max_statements=20)
            run(p, check_invariants=True)

    def test_classical_statement_rejected(self):
        p = parse("def main(x : bit):\n  x := rand_bit()")
        with pytest.raises(ValueError):
            run(p)

    def test_classical_statement_rejected_inside_if(self):
        p = parse("def main(x, y : bit):\n  if x:\n    if y:\n      y := 1")
        with pytest.raises(ValueError):
            run(p)

    def test_observer_sees_every_statement(self, corpus):
        labels = []
        run(parse(corpus["interference"]), observer=lambda label, _: labels.append(label))
        assert labels == [
            "",
            "qrand_bit(x)",
            "if x == 1: qnegate()",
            "qrand_bit(x)",
            "y ^= x",
            "return x, y",
        ]


class TestSplitIndex:
    def test_rows_and_columns_pack_variables_in_declaration_order(self):
        env = Environment(("a", "b", "c", "d"))
        named, other = ["d", "b"], ["a", "c"]
        index = split_index(env, named)
        assert index.shape == (4, 4)
        for r in range(4):
            for y in range(4):
                w = index[r, y]
                assert [env.bit(w, n) for n in other] == [(r >> 1) & 1, r & 1]
                assert [env.bit(w, n) for n in ("b", "d")] == [(y >> 1) & 1, y & 1]
        assert sorted(index.ravel()) == list(range(env.dim))

    def test_undeclared_names_rejected(self):
        with pytest.raises(KeyError):
            split_index(Environment(("x",)), ["w"])


class TestCompMatrix:
    def test_coin_toss_is_hadamard(self):
        m = comp_matrix([QRand("x")], Environment(("x",)))
        np.testing.assert_allclose(m, H, atol=1e-15)

    def test_and_xor_is_toffoli(self):
        body = parse("def main(x, y, z : bit):\n  z ^= x and y").body
        m = comp_matrix(body, Environment(("x", "y", "z")))
        toffoli = np.eye(8)
        toffoli[[6, 7]] = toffoli[[7, 6]]
        np.testing.assert_array_equal(m, toffoli)

    def test_negation_is_minus_identity(self):
        m = comp_matrix([QNeg()], Environment(("x", "y")))
        np.testing.assert_array_equal(m, -np.eye(4))

    def test_random_comp_sequences_are_unitary(self):
        for seed in range(80):
            p = random_comp_program(seed, seed % 4 + 1, 15)
            env = Environment(p.inputs)
            m = comp_matrix(p.body, env)
            np.testing.assert_allclose(m.T @ m, np.eye(env.dim), atol=1e-10)

    def test_capacity_cap(self):
        env = Environment(tuple(f"v{i}" for i in range(11)))
        with pytest.raises(qppl.CapacityError):
            comp_matrix([QNeg()], env)

    def test_gate_placement_matches_kronecker_structure(self):
        # First-declared variable is the most significant bit.
        env = Environment(("x", "y"))
        eye = np.eye(2)
        np.testing.assert_allclose(
            comp_matrix([QRand("x")], env), np.kron(H, eye), atol=1e-15)
        np.testing.assert_allclose(
            comp_matrix([QRand("y")], env), np.kron(eye, H), atol=1e-15)
        cnot = comp_matrix(parse("def main(x, y : bit):\n  y ^= x").body, env)
        np.testing.assert_array_equal(cnot, np.eye(4)[:, [0, 1, 3, 2]])

    def test_conditional_matrix_is_block_diagonal(self):
        env = Environment(("x", "y"))
        body = parse("def main(x, y : bit):\n  if x:\n    qrand_bit(y)").body
        expected = np.block([[np.eye(2), np.zeros((2, 2))],
                             [np.zeros((2, 2)), H]])
        np.testing.assert_allclose(comp_matrix(body, env), expected, atol=1e-15)
