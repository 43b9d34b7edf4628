import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qppl
from qppl import (
    And, Assign, CapacityError, Const, Environment, If, Not, Or, QNeg, QRand,
    RandBit, TwoLayerState, Var, XorAssign, apply_measure, apply_qrand, apply_return,
    assert_valid_state, check_equivalence, comp_matrix, extend, free_vars,
    output_distribution, parse, run, to_density, truth_table, validate,
)
from qppl.engine import CLASSICAL_ONLY, QUANTUM_ONLY, apply_comp
from qppl.syntax import MAX_NESTING
from qppl.randprog import random_comp_program, random_program
from conftest import H, RT2, assert_state_close, brute_force_measure, make_state

S = 1 / RT2


def step(state, stmt):
    """One computational statement on every branch, through the engine's kernel."""
    rows = [apply_comp(row, stmt, state.env, CLASSICAL_ONLY) for row in state.amps]
    return TwoLayerState(state.env, np.array(rows), state.probs)


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

    @pytest.mark.parametrize("target", ["x0", "x9", "x10"])
    @pytest.mark.parametrize("kind", [QRand, RandBit])
    def test_wide_vectors_and_block_columns(self, target, kind):
        # 11 bits, past the size from which a target next to the lowest bit
        # (x9) is split into lanes; vectors and the transposed rows of a block.
        env = Environment(tuple(f"x{i}" for i in range(11)))
        foreign = CLASSICAL_ONLY if kind is QRand else QUANTUM_ONLY
        rows = np.random.default_rng(9).random((3, env.dim))
        for vec in (rows[0], rows.T):
            got = apply_comp(vec, kind(target), env, foreign)
            np.testing.assert_array_equal(
                got, coin_reference(vec, env, target, kind is QRand))


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


def world_moves(stmt, k, env):
    """Where world k goes under a computational statement, as (world,
    weight) pairs, read world by world with env.bit."""
    if isinstance(stmt, (QRand, RandBit)):
        bit = 1 << env.shift(stmt.target)
        if isinstance(stmt, RandBit):
            return [(k & ~bit, 0.5), (k | bit, 0.5)]
        return [(k & ~bit, S), (k | bit, -S if env.bit(k, stmt.target) else S)]
    if isinstance(stmt, QNeg):
        return [(k, -1.0)]
    if isinstance(stmt, XorAssign):
        return [(k ^ (world_value(stmt.rhs, k, env) << env.shift(stmt.target)), 1.0)]
    if isinstance(stmt, Assign):
        bit = 1 << env.shift(stmt.target)
        return [(k & ~bit | (bit if world_value(stmt.rhs, k, env) else 0), 1.0)]
    assert isinstance(stmt, If), stmt
    moves = [(k, 1.0)]
    if world_value(stmt.cond, k, env):
        for inner in stmt.body:
            moves = [(k2, w * w2) for k1, w in moves for k2, w2 in world_moves(inner, k1, env)]
    return moves


def kernel_reference(vec, stmt, env):
    """A statement applied to a vector, or to the rows of a column stack,
    one world at a time."""
    out = np.zeros_like(vec)
    for k in range(env.dim):
        for k2, w in world_moves(stmt, k, env):
            out[k2] += w * vec[k]
    return out


NAMES = ("a", "b", "c", "d", "e", "f")


def expressions(names):
    leaves = st.sampled_from(names).map(Var) | st.sampled_from((0, 1)).map(Const)
    return st.recursive(leaves, lambda sub: st.one_of(
        sub.map(Not), st.builds(And, sub, sub), st.builds(Or, sub, sub)), max_leaves=6)


def statements(names, kinds):
    """Statements of the given leaf kinds, nested in `if` blocks. In quantum
    mode (QRand among the kinds) x ^= E keeps x out of E, as validated
    programs do."""
    expr, target = expressions(names), st.sampled_from(names)
    xor = st.builds(XorAssign, target, expr)
    if QRand in kinds:
        xor = xor.filter(lambda s: s.target not in free_vars(s.rhs))
    leaf = {
        XorAssign: xor,
        Assign: st.builds(Assign, target, expr),
        QRand: st.builds(QRand, target),
        RandBit: st.builds(RandBit, target),
        QNeg: st.just(QNeg()),
    }
    return st.recursive(st.one_of([leaf[k] for k in kinds]), lambda body: st.builds(
        If, expr, st.lists(body, min_size=1, max_size=3).map(tuple)), max_leaves=6)


def reads_and_writes_itself(names):
    """`x := E` with E reading x, or `if E:` with a body writing a variable E reads."""
    expr, target = expressions(names), st.sampled_from(names)
    op = st.sampled_from((And, Or, lambda a, b: Or(And(a, Not(b)), And(Not(a), b))))
    own = st.builds(lambda t, e, f: (t, f(Var(t), e)), target, expr, op)
    assign = own.map(lambda te: Assign(*te))
    writes = st.sampled_from((Assign, XorAssign))
    cond_writer = st.builds(lambda te, e, kind, rest: If(te[1], (kind(te[0], e),) + rest),
                            own, expr, writes, st.lists(st.builds(Assign, target, expr),
                                                        max_size=2).map(tuple))
    return assign | cond_writer


@st.composite
def kernel_cases(draw, kinds=None):
    """An environment of 1-6 bits, a statement, and a vector of weights in
    [0, 1). With no kinds, the statement reads what it writes."""
    env = Environment(NAMES[:draw(st.integers(1, 6))])
    if kinds is None:
        stmt = draw(reads_and_writes_itself(env.names))
    else:
        stmt = draw(statements(env.names, kinds))
    vec = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random(env.dim)
    return env, stmt, vec


class TestWorldKernels:
    """apply_comp against the per-world reference, on vectors and on the
    columns of np.eye."""

    @given(kernel_cases((XorAssign, QNeg, QRand)), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_quantum_statements(self, case, stacked):
        env, stmt, vec = case
        vec = np.eye(env.dim) if stacked else vec - 0.5
        got = apply_comp(vec, stmt, env, CLASSICAL_ONLY)
        np.testing.assert_allclose(got, kernel_reference(vec, stmt, env), atol=1e-12)

    @given(kernel_cases((XorAssign, Assign, RandBit)) | kernel_cases(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_classical_statements(self, case, stacked):
        env, stmt, vec = case
        vec = np.eye(env.dim) if stacked else vec
        got = apply_comp(vec, stmt, env, QUANTUM_ONLY)
        np.testing.assert_allclose(got, kernel_reference(vec, stmt, env), atol=1e-12)

    @given(kernel_cases((QNeg,)), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_negation_only_ifs_are_one_sign_table(self, case, stacked):
        # An `if` holding only qnegate() and such ifs is applied as one
        # multiply by a +-1 table; it must equal the per-world reference.
        env, stmt, vec = case
        vec = np.eye(env.dim) if stacked else vec - 0.5
        got = apply_comp(vec, stmt, env, CLASSICAL_ONLY)
        np.testing.assert_array_equal(got, kernel_reference(vec, stmt, env))

    def test_nested_negation_is_rejected_in_classical_mode(self):
        env = Environment(("a", "b"))
        stmt = If(Var("a"), (If(Not(Var("b")), (QNeg(),)), QNeg()))
        with pytest.raises(ValueError):
            apply_comp(np.full(4, 0.25), stmt, env, QUANTUM_ONLY)

    @pytest.mark.parametrize("source", [
        "x10 ^= x9 and not x3",
        "x9 ^= x10 or x0",
        "if x10 == x3:\n    qnegate()\n    x8 ^= x9",
        "if x0 and not x10:\n    x1 ^= x9",
        "if x10 == x3:\n    qnegate()\n    if x9 or x0:\n      qnegate()\n    qnegate()",
    ])
    def test_tables_on_the_low_order_bits_of_a_wide_state(self, source):
        names = tuple(f"x{i}" for i in range(11))
        env = Environment(names)
        stmt = parse(f"def main({', '.join(names)} : bit):\n  {source}\n").body[0]
        vec = np.random.default_rng(6).standard_normal(env.dim)
        got = apply_comp(vec, stmt, env, CLASSICAL_ONLY)
        np.testing.assert_array_equal(got, kernel_reference(vec, stmt, env))

    @pytest.mark.parametrize("source", [
        "x10 := x10 and x2 or x9", "x9 ^= x9 or x10", "if x10:\n    x10 := x3",
    ])
    def test_classical_writes_on_the_low_order_bits_of_a_wide_state(self, source):
        names = tuple(f"x{i}" for i in range(11))
        env = Environment(names)
        stmt = parse(f"def main({', '.join(names)} : bit):\n  {source}\n").body[0]
        probs = np.random.default_rng(7).random(env.dim)
        got = apply_comp(probs, stmt, env, QUANTUM_ONLY)
        np.testing.assert_allclose(got, kernel_reference(probs, stmt, env), atol=1e-15)

    def test_truth_table_on_a_wide_state(self):
        env = Environment(tuple(f"x{i}" for i in range(11)))
        expr = Or(And(Var("x10"), Not(Var("x2"))), Var("x7"))
        table = truth_table(expr, env)
        assert table.dtype == np.int64 and table.shape == (env.dim,)
        assert list(table) == [world_value(expr, k, env) for k in range(env.dim)]


def counted(monkeypatch, module, name):
    """Count the calls of a module-level function, recursive ones included."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(None)
        return real(*args)
    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestComparisonChains:
    # `a == b` desugars to a tree holding a and b twice each, so a chain of
    # k comparisons has about 2**k leaves but only O(k) distinct nodes.
    K = MAX_NESTING // 4  # each `==` adds four levels
    TERMS = [("y", "z", "w")[i % 3] for i in range(K + 1)]

    def chain_value(self, k, env):
        value = env.bit(k, self.TERMS[0])
        for term in self.TERMS[1:]:
            value = int(value == env.bit(k, term))
        return value

    def program(self):
        return parse("def main(x, y, z, w : bit):\n  x ^= " + " == ".join(self.TERMS) + "\n")

    def test_longest_chain_is_at_the_nesting_limit(self):
        self.program()
        longer = " == ".join(self.TERMS + ["y"])
        with pytest.raises(qppl.ParseError):
            parse(f"def main(x, y, z, w : bit):\n  x ^= {longer}\n")

    def test_truth_table_visits_each_node_once(self, monkeypatch):
        stmt = self.program().body[0]
        env = Environment(("x", "y", "z", "w"))
        calls = counted(monkeypatch, qppl.engine, "_table")
        table = truth_table(stmt.rhs, env)
        assert len(calls) <= 10 * (self.K + 1)
        assert list(table) == [self.chain_value(k, env) for k in range(env.dim)]
        vec = np.random.default_rng(2).standard_normal(env.dim)
        expected = np.empty_like(vec)
        for k in range(env.dim):
            expected[k ^ (self.chain_value(k, env) << env.shift("x"))] = vec[k]
        np.testing.assert_array_equal(apply_comp(vec, stmt, env, CLASSICAL_ONLY), expected)

    def test_free_vars_visits_each_node_once(self, monkeypatch):
        p = self.program()
        calls = counted(monkeypatch, qppl.syntax, "_free_vars")
        assert free_vars(p.body[0].rhs) == {"y", "z", "w"}
        assert len(calls) <= 10 * (self.K + 1)
        calls.clear()
        assert validate(p) == []  # reads the free variables a few times
        assert len(calls) <= 40 * (self.K + 1)

    def test_undeclared_last_term_is_located_in_linear_time(self, monkeypatch):
        line = "  x ^= " + " == ".join(self.TERMS[:-1] + ["q"])
        p = parse("def main(x, y, z, w : bit):\n" + line + "\n")
        calls = counted(monkeypatch, qppl.validator, "_var_loc")
        (diag,) = validate(p)
        assert (diag.code, diag.line, diag.col) == ("UNDECLARED_VARIABLE", 2, len(line))
        assert len(calls) <= 10 * (self.K + 1)


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
        run(p, observer=lambda _, s: assert_valid_state(s))

    def test_split_over_the_byte_bound_raises_before_allocating(self, monkeypatch):
        names = [f"x{i}" for i in range(10)]
        st = make_state(names, [(1.0, np.full(1 << 10, 2.0 ** -5))])
        monkeypatch.setattr(qppl.engine, "MAX_BLOCK_BYTES", 1 << 20)
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
        monkeypatch.setattr(qppl.engine, "MAX_BLOCK_BYTES", 8 * 8 * 8)
        assert len(apply_measure(st, ["x", "y", "z"]).branches) == 8
        monkeypatch.setattr(qppl.engine, "MAX_BLOCK_BYTES", 8 * 8 * 8 - 1)
        with pytest.raises(CapacityError):
            apply_measure(st, ["x", "y", "z"])
        # Returning nothing: 8 outcomes of 1 amplitude, merged into one.
        monkeypatch.setattr(qppl.engine, "MAX_BLOCK_BYTES", 8 * 1 * 8)
        assert len(apply_return(st, []).branches) == 1
        monkeypatch.setattr(qppl.engine, "MAX_BLOCK_BYTES", 8 * 1 * 8 - 1)
        with pytest.raises(CapacityError):
            apply_return(st, [])


class TestNewAndReturn:
    def test_new_extends_environment(self):
        st = make_state(["x"], [(1.0, [0, 1])])
        out = extend(st, ["y"])
        assert out.env.names == ("x", "y")
        assert_state_close(out, [(1.0, [0, 0, 1, 0])])

    def test_new_over_the_byte_bound_raises_before_allocating(self):
        # 256 measured branches of 8 bits, then 16 more bits: 32 GiB.
        xs = ", ".join(f"x{i}" for i in range(8))
        coins = "".join(f"  qrand_bit(x{i})\n" for i in range(8))
        ys = ", ".join(f"y{i}" for i in range(16))
        p = parse(f"def main():\n  new {xs}\n{coins}  measure({xs})\n  new {ys}\n")
        assert not qppl.has_errors(validate(p))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="need 32768 MiB"):
                run(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_new_is_bounded_by_the_same_budget_as_a_split(self, monkeypatch):
        st = make_state(["x"], [(0.5, [1, 0]), (0.5, [0, 1])])
        monkeypatch.setattr(qppl.engine, "MAX_BLOCK_BYTES", 2 * 8 * 8)
        assert extend(st, ["y", "z"]).amps.shape == (2, 8)
        with pytest.raises(CapacityError):
            extend(st, ["y", "z", "w"])

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

    def test_return_nothing_from_a_signed_uniform_state_builds_one_branch(self):
        # 65536 outcomes of one amplitude each, all +-1: they merge into one
        # branch, and the split's peak stays within 32 times the 512 KiB input.
        names = [f"v{i}" for i in range(16)]
        signs = np.random.default_rng(12).choice([-1.0, 1.0], 1 << 16)
        signs[0] = 1.0
        st = make_state(names, [(1.0, signs * 2.0 ** -8)])
        tracemalloc.start()
        try:
            out = apply_return(st, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.env.names == ()
        assert_state_close(out, [(1.0, [1.0])], tol=1e-12)
        assert peak <= 32 * st.amps.nbytes

    def test_outcomes_equal_up_to_sign_within_and_across_branches(self):
        # Every row of u over (a, b) times a signed scale over c: within a
        # branch all outcomes are +-u, and the second branch repeats them.
        rng = np.random.default_rng(11)
        names = ("a", "b", "c")
        env = Environment(names)
        for _ in range(10):
            u = rng.standard_normal(4)
            v = np.array([u[(k >> 1)] * (1 if k & 1 else -2) for k in range(8)])
            v /= np.linalg.norm(v)
            w = rng.standard_normal(8)
            w /= np.linalg.norm(w)
            st = make_state(names, [(0.3, v), (0.2, w), (0.5, -v)])
            for kept in (["a", "b"], ["a"], []):
                def rest(k):
                    return [env.bit(k, n) for n in names if n not in kept]
                expected = []
                for p, amps in brute_force_measure(st, [n for n in names if n not in kept]):
                    r = rest(int(np.flatnonzero(amps)[0]))
                    expected.append((p, [amps[k] for k in range(env.dim) if rest(k) == r]))
                got = apply_return(st, kept)
                assert len(got.branches) < len(expected)
                assert_state_close(got, merge_reference(expected), tol=1e-12)

    def test_discarded_entangled_variable_decoheres(self):
        # (|00> + |11>)/sqrt2 with y discarded leaves an even classical mix on x.
        st = make_state(["x", "y"], [(1.0, [S, 0, 0, S])])
        out = apply_return(st, ["x"])
        assert out.env.names == ("x",)
        assert_state_close(out, [(0.5, [1, 0]), (0.5, [0, 1])])


def qmq_program(n):
    """qrand every bit, measure every bit, qrand every bit: 2**n distinct branches."""
    names = [f"x{i}" for i in range(n)]
    coins = "".join(f"  qrand_bit({v})\n" for v in names)
    return parse(f"def main():\n  new {', '.join(names)}\n{coins}"
                 f"  measure({', '.join(names)})\n{coins}")


def snapshot(state):
    return [(b.p, b.amps.copy()) for b in state.branches]


class TestBlockStore:
    """A run holds its branches as one (B, 2**n) block."""

    def test_final_branches_are_rows_of_one_block(self):
        final = run(qmq_program(5))
        rows = [b.amps for b in final.branches]
        assert len(rows) == 32
        assert all(r.flags.c_contiguous and r.base is rows[0].base for r in rows)
        assert rows[0].base.size == 32 * 32

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_chunked_runs_equal_whole_block_runs(self, seed):
        # With a chunk of a few entries, statements and splits go a few rows
        # at a time, merges reach back across chunks, and observed blocks
        # are copied rather than written in place: all of it must change
        # nothing.
        p = random_program(seed, max_bits=5, max_statements=25)
        whole, seen = run(p), []
        real = qppl.state._CHUNK
        qppl.state._CHUNK = 4
        try:
            chunked = run(p)
            observed = run(p, observer=lambda _, s: seen.append((s, snapshot(s))))
        finally:
            qppl.state._CHUNK = real
        for got in (chunked, observed):
            assert got.env == whole.env
            assert [b.p for b in got.branches] == [b.p for b in whole.branches]
            for a, b in zip(got.branches, whole.branches):
                np.testing.assert_array_equal(a.amps, b.amps)
        for state, before in seen:  # later statements left every observed state alone
            assert [(b.p, list(b.amps)) for b in state.branches] == [
                (p_, list(a)) for p_, a in before]

    def test_hash_collisions_never_merge_different_branches(self, monkeypatch):
        rng = np.random.default_rng(21)
        v, w = rng.standard_normal(8), rng.standard_normal(8)
        v, w = v / np.linalg.norm(v), w / np.linalg.norm(w)
        st_ = make_state(("a", "b", "c"), [(0.2, v), (0.3, w), (0.1, -v), (0.4, -w)])
        expected = merge_reference(brute_force_measure(st_, ["c"]))
        # One row per chunk, so every match goes through the hash, and
        # every row hashes alike: only rows equal to the first outcome may
        # join it, and the ensemble is unchanged.
        monkeypatch.setattr(qppl.state, "_CHUNK", 4)
        monkeypatch.setattr(qppl.engine, "hash", lambda _: 0, raising=False)
        got = apply_measure(st_, ["c"])
        assert len(expected) < len(got.branches) <= len(brute_force_measure(st_, ["c"]))
        np.testing.assert_allclose(to_density(got), to_density(make_state(
            ("a", "b", "c"), expected)), atol=1e-12)

    def test_peak_memory_of_a_run_stays_near_one_block(self):
        # qrand all, measure all, qrand all at 10 bits ends with 1024
        # branches of 1024 amplitudes (8 MiB). A run holds one block and a
        # chunk; a Branch list beside a stacked copy would hold two or more.
        p = qmq_program(10)
        tracemalloc.start()
        try:
            final = run(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = len(final.branches) * final.env.dim * 8
        assert len(final.branches) == 1024 and block == 8 << 20
        assert peak <= 1.5 * block

    def test_peak_memory_of_to_density_is_the_matrix_and_a_chunk(self):
        # 2048 branches of 2048 amplitudes (32 MiB) give a 32 MiB matrix;
        # weighting the whole block before the product would hold a second
        # 32 MiB block. Rows of the matrix go a chunk at a time instead.
        final = run(qmq_program(11))
        tracemalloc.start()
        try:
            rho = to_density(final)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert final.amps.shape == (2048, 2048) and rho.nbytes == 32 << 20
        assert peak < 40 << 20
        whole = (final.amps.T * final.probs) @ final.amps
        assert np.max(np.abs(rho - whole)) <= 1e-15

    def test_peak_memory_of_measuring_every_bit_of_many_branches(self):
        # The second measurement splits 1024 one-world branches of 10 bits
        # by all 10 bits: the old block and the new one, 8 MiB each, and a
        # chunk. Nothing may be kept per (branch, value) pair: a dense mass
        # table of 1024 x 1024 would be a third block.
        names = ", ".join(f"x{i}" for i in range(10))
        coins = "".join(f"  qrand_bit(x{i})\n" for i in range(10))
        p = parse(f"def main():\n  new {names}\n{coins}  measure({names})\n  measure({names})\n")
        tracemalloc.start()
        try:
            final = run(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = len(final.branches) * final.env.dim * 8
        assert block == 8 << 20
        assert peak <= 2.25 * block


class TestInputsUnchanged:
    """Public calls return new states and leave the one they were given as
    it was, also when a statement goes a chunk of rows at a time."""

    @pytest.mark.parametrize("chunk", [None, 4])
    @pytest.mark.parametrize("call", [
        lambda st: apply_qrand(st, "b"),
        lambda st: apply_measure(st, ["a", "c"]),
        lambda st: apply_return(st, ["b"]),
        lambda st: extend(st, ["d"]),
    ], ids=["qrand", "measure", "return", "extend"])
    def test_input_state_is_left_alone(self, monkeypatch, call, chunk):
        if chunk:
            monkeypatch.setattr(qppl.state, "_CHUNK", chunk)
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((3, 8))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        st = make_state(("a", "b", "c"), list(zip([0.2, 0.3, 0.5], rows)))
        amps, probs = st.amps.copy(), st.probs.copy()
        out = call(st)
        assert_valid_state(out)
        assert np.array_equal(st.amps, amps) and np.array_equal(st.probs, probs)


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
            run(parse(src), observer=lambda _, s: assert_valid_state(s))

    def test_norm_conservation_on_random_programs(self):
        for seed in range(60):
            p = random_program(seed, max_bits=5, max_statements=20)
            run(p, observer=lambda _, s: assert_valid_state(s))

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
