import functools
import gc
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qppl
from qppl import (
    And, Assign, CapacityError, Const, Environment, If, Not, Or, QNeg, QRand,
    RandBit, TwoLayerState, Var, Xor, XorAssign, apply_measure, apply_qrand, apply_return,
    assert_valid_state, check_equivalence, comp_matrix, extend, free_vars,
    output_distribution, parse, run, to_density, truth_table, validate,
)
from qppl import engine
from qppl.engine import apply_comp
from qppl.syntax import CLASSICAL_ONLY, MAX_NESTING, QUANTUM_ONLY, statement_source
from qppl.randprog import random_classical_program, random_comp_program, random_program
from conftest import (
    H, RT2, assert_state_close, bit_value, brute_force_measure, exact_weights, make_state,
)

S = 1 / RT2


def step(state, stmt):
    """One computational statement on every branch, through the engine's kernel."""
    rows = [apply_comp(row.copy(), stmt, state.env, CLASSICAL_ONLY) for row in state.amps]
    return TwoLayerState(state.env, np.array(rows), state.probs)


def world_value(e, k, env):
    """An expression's value in world k, its bits read with env.bit."""
    return bit_value(e, {name: env.bit(k, name) for name in env.names})


def flat_table(e, env):
    """truth_table broadcast to every world: entry k is the value in world k."""
    return np.broadcast_to(truth_table(e, env), (2,) * env.n_bits).ravel()


def expressions_of(p):
    """Each right-hand side and condition of a program, at any depth, with
    the environment live at its statement."""
    env = Environment(()).extended(p.inputs)
    todo = list(p.body)[::-1]
    while todo:
        s = todo.pop()
        if isinstance(s, qppl.New):
            env = env.extended(s.names)
        elif isinstance(s, If):
            yield s.cond, env
            todo.extend(s.body[::-1])
        elif isinstance(s, (XorAssign, Assign)):
            yield s.rhs, env


class TestEvalExpr:
    """truth_table against the per-world evaluation above."""

    def test_and(self):
        env = Environment(("x", "y"))
        expr = And(Var("x"), Var("y"))
        assert flat_table(expr, env)[0b11] == world_value(expr, 0b11, env) == 1

    def test_not(self):
        env = Environment(("x",))
        expr = Not(Var("x"))
        assert flat_table(expr, env)[0b0] == world_value(expr, 0b0, env) == 1

    def test_or_with_constant(self):
        env = Environment(("x", "y"))
        expr = Or(Const(0), Var("y"))
        assert flat_table(expr, env)[0b10] == world_value(expr, 0b10, env) == 0

    def test_truth_table_matches_pointwise_eval(self):
        env = Environment(("a", "b", "c"))
        expr = Or(And(Var("a"), Not(Var("c"))), Var("b"))
        table = flat_table(expr, env)
        for k in range(env.dim):
            assert table[k] == world_value(expr, k, env)

    def test_every_table_of_the_corpus_and_of_random_programs(self, corpus):
        # Broadcast to every world, the table is the flat 0/1 table of the
        # per-world evaluation; it holds only its 2**|FV| entries.
        programs = [parse(source) for source in corpus.values()]
        programs += [random_program(seed) for seed in range(200)]
        cases = [case for p in programs for case in expressions_of(p)]
        assert len(cases) > 1000
        for expr, env in cases:
            table = truth_table(expr, env)
            assert table.dtype == bool and table.size == 1 << len(free_vars(expr))
            expected = [world_value(expr, k, env) for k in range(env.dim)]
            assert flat_table(expr, env).astype(np.int64).tolist() == expected

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
    """qrand (signed) or rand_bit on each world k, reading its pair partner,
    in a vector or in each row of a batch."""
    out = np.empty_like(vec)
    for k in range(env.dim):
        other = k ^ (1 << env.shift(target))
        zero, one = vec[..., min(k, other)], vec[..., max(k, other)]
        if not signed:
            out[..., k] = (zero + one) * 0.5
        elif env.bit(k, target) == 0:
            out[..., k] = (zero + one) * S
        else:
            out[..., k] = (zero - one) * S
    return out


def pair_formula(vec, shift, signed):
    """Each world's coin value from its pair, read by fancy indexing: with a
    the pair's world whose target bit is 0 and b the other, (a + b)·√½ and
    (a − b)·√½ signed, (a + b)·½ unsigned."""
    k, bit = np.arange(vec.shape[-1]), 1 << shift
    a, b = vec[..., k & ~bit], vec[..., k | bit]
    return np.where(k & bit, a - b, a + b) * S if signed else (a + b) * 0.5


class TestCoinKernel:
    ENV = Environment(("a", "b", "c", "d"))

    @pytest.mark.parametrize("target", ["a", "b", "c", "d"])
    def test_qrand_on_a_vector(self, target):
        v = np.random.default_rng(3).standard_normal(16)
        got = apply_comp(v.copy(), QRand(target), self.ENV, CLASSICAL_ONLY)
        np.testing.assert_array_equal(got, coin_reference(v, self.ENV, target, True))

    @pytest.mark.parametrize("target", ["a", "b", "c", "d"])
    def test_qrand_on_matrix_rows(self, target):
        m = np.random.default_rng(4).standard_normal((5, 16))
        got = apply_comp(m.copy(), QRand(target), self.ENV, CLASSICAL_ONLY)
        np.testing.assert_array_equal(got, coin_reference(m, self.ENV, target, True))

    @pytest.mark.parametrize("target", ["a", "b", "c", "d"])
    def test_rand_bit_on_probabilities(self, target):
        probs = np.random.default_rng(5).random(16)
        probs /= probs.sum()
        got = apply_comp(probs.copy(), RandBit(target), self.ENV, QUANTUM_ONLY)
        np.testing.assert_array_equal(got, coin_reference(probs, self.ENV, target, False))

    @pytest.mark.parametrize("target", ["x0", "x9", "x10"])
    @pytest.mark.parametrize("kind", [QRand, RandBit])
    def test_wide_vectors_and_block_rows(self, target, kind):
        # 11 bits, with targets near the lowest bit (x9, x10), whose rows of
        # eight worlds go through one product, and at the top (x0), whose
        # pairs do; a vector and the rows of a block.
        env = Environment(tuple(f"x{i}" for i in range(11)))
        foreign = CLASSICAL_ONLY if kind is QRand else QUANTUM_ONLY
        rows = np.random.default_rng(9).random((3, env.dim))
        for vec in (rows[0], rows):
            got = apply_comp(vec.copy(), kind(target), env, foreign)
            np.testing.assert_array_equal(
                got, coin_reference(vec, env, target, kind is QRand))

    @pytest.mark.parametrize("n_bits", range(1, 13))
    def test_every_target_is_the_pair_formula_bit_for_bit(self, monkeypatch, n_bits):
        # Both coins on a row and on a batch of three, at every target, with
        # state._CHUNK at its default, at half a row and at 100, so that a
        # wide vector goes in pieces and its last piece is smaller than the
        # others. The inputs hold zeros of both signs.
        env = Environment(tuple(f"x{i}" for i in range(n_bits)))
        rows = np.random.default_rng(n_bits).standard_normal((3, env.dim))
        rows[rows < -1.0] = 0.0
        rows[rows > 1.0] = -0.0
        for chunk in (qppl.state._CHUNK, env.dim // 2, 100):
            monkeypatch.setattr(qppl.state, "_CHUNK", chunk)
            for vec, name in itertools.product((rows[0], rows), env.names):
                for kind, foreign in ((QRand, CLASSICAL_ONLY), (RandBit, QUANTUM_ONLY)):
                    got = apply_comp(vec.copy(), kind(name), env, foreign)
                    assert np.array_equal(got, pair_formula(vec, env.shift(name), kind is QRand))


def coin_groups(n_bits):
    """Every set of target shifts within one aligned group of four bits,
    then every shift at once, which is one group per four bits."""
    for low in range(0, n_bits, 4):
        bits = range(low, min(low + 4, n_bits))
        for k in range(1, len(bits) + 1):
            yield from itertools.combinations(bits, k)
    yield tuple(range(n_bits))


def bernstein_vazirani(secret):
    """Bernstein-Vazirani on len(secret) bits, as CI builds it: the coins on
    y and every x are one run, the oracle is `y ^= xi`, and the output is
    the secret with probability 1."""
    xs = [f"x{i}" for i in range(len(secret))]
    coins = "".join(f"  qrand_bit({x})\n" for x in xs)
    oracle = "".join(f"  y ^= {x}\n" for x, bit in zip(xs, secret) if bit == "1")
    return parse(f"def main():\n  new {', '.join(xs)}, y\n  y ^= 1\n  qrand_bit(y)\n{coins}"
                 f"{oracle}{coins}  measure(y)\n  return {', '.join(xs)}")


class TestCoinFusion:
    """An unobserved run applies each run of consecutive coins of its mode's
    kind on distinct targets as one step (engine._CoinRun): one product per
    aligned group of four bits. Observed runs, apply_qrand and comp_matrix
    go one coin at a time. A group sums in another order than its coins
    one at a time, so signed amplitudes may differ in the last bits;
    classical probabilities are dyadic, their sums exact."""

    @pytest.mark.parametrize("n_bits", range(1, 13))
    def test_a_group_is_its_coins_one_at_a_time(self, n_bits):
        # Both coin kinds, on a row and on a batch of three; probabilities
        # are multiples of 2**-24, as a classical run's are.
        env = Environment(tuple(f"x{i}" for i in range(n_bits)))
        rng = np.random.default_rng(n_bits)
        amplitudes = rng.standard_normal((3, env.dim))
        probabilities = rng.integers(0, 1 << 20, (3, env.dim)) * 2.0 ** -24
        for shifts in coin_groups(n_bits):
            targets = tuple(env.names[n_bits - 1 - s] for s in shifts)
            for kind, rows, foreign in ((QRand, amplitudes, CLASSICAL_ONLY),
                                        (RandBit, probabilities, QUANTUM_ONLY)):
                for vec in (rows[0], rows):
                    fused = apply_comp(vec.copy(), engine._CoinRun(targets, kind is QRand), env,
                                       foreign)
                    alone = vec.copy()
                    for target in targets:
                        apply_comp(alone, kind(target), env, foreign)
                    if kind is QRand:
                        np.testing.assert_allclose(fused, alone, rtol=0, atol=1e-13)
                    else:
                        assert np.array_equal(fused, alone), shifts

    @pytest.mark.parametrize("n_bits", [3, 4, 5, 9, 14])
    def test_a_group_is_independent_of_chunks_and_batches(self, monkeypatch, n_bits):
        # A batch of three rows gives what each row gives alone, bit for
        # bit, and so do blocks cut into chunks of one row, of pieces of a
        # row, and of a row and a half.
        env = Environment(tuple(f"x{i}" for i in range(n_bits)))
        rows = np.random.default_rng(n_bits).standard_normal((3, env.dim))
        for shifts in coin_groups(n_bits):
            stmt = engine._CoinRun(tuple(env.names[n_bits - 1 - s] for s in shifts), True)
            alone = np.array([apply_comp(row.copy(), stmt, env, CLASSICAL_ONLY) for row in rows])
            assert np.array_equal(apply_comp(rows.copy(), stmt, env, CLASSICAL_ONLY), alone)
            for chunk in (4, 100, env.dim * 3 // 2):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(qppl.state, "_CHUNK", chunk)
                    got = engine._step(TwoLayerState(env, rows.copy(), np.full(3, 1 / 3)), [stmt],
                                       True)
                assert np.array_equal(got.amps, alone), (shifts, chunk)

    def test_runs_of_coins_are_grouped_in_order(self):
        p = parse("def main(a, b, c : bit):\n  qrand_bit(a)\n  qrand_bit(b)\n  qrand_bit(a)\n"
                  "  qrand_bit(c)\n  qnegate()\n  qrand_bit(b)\n  b := rand_bit()\n")
        env = Environment(p.inputs)
        (steps,) = engine._plan(p.body, env, QRand)
        assert steps[:2] == [engine._CoinRun(("a", "b"), True), engine._CoinRun(("a", "c"), True)]
        assert steps[2:] == list(p.body[4:])
        assert engine._plan(p.body, env, RandBit) == [list(p.body)]

    def test_an_observed_run_keeps_every_statement(self, monkeypatch):
        # Coins and affine statements alike reach the step one at a time;
        # an unobserved run's one stretch reaches it as one list of steps.
        p = parse("def main(a, b, c : bit):\n  qrand_bit(a)\n  qrand_bit(b)\n  c ^= a\n"
                  "  if c:\n    qnegate()\n  qnegate()\n  c ^= a\n")
        seen, real = [], engine._step
        monkeypatch.setattr(engine, "_step", lambda st_, steps, in_place: (
            seen.append(steps), real(st_, steps, in_place))[1])
        run(p, observer=lambda *_: None)
        assert seen == [[stmt] for stmt in p.body]
        seen.clear()
        run(p)
        assert seen == [[engine._CoinRun(("a", "b"), True), *p.body[2:]]]

    def test_every_product_is_capped(self, monkeypatch):
        # OpenBLAS may split a product of more multiply-adds across threads,
        # which made groups of four coins on 16 bits 11x slower on two
        # threads. Every product the coin kernel makes on a 16- and a 20-bit
        # row, by a single coin at each target and by each run of all
        # coins, is at most 2**16 multiply-adds; an item of a batched
        # np.matmul is one product.
        sizes = []

        def counted(real):
            def product(a, b, **kw):
                sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
                return real(a, b, **kw)
            return product
        monkeypatch.setattr(np, "matmul", counted(np.matmul))
        monkeypatch.setattr(np, "dot", counted(np.dot))
        for n_bits in (16, 20):
            env = Environment(tuple(f"x{i}" for i in range(n_bits)))
            vec = np.random.default_rng(n_bits).standard_normal(env.dim)
            for kind, foreign in ((QRand, CLASSICAL_ONLY), (RandBit, QUANTUM_ONLY)):
                for name in env.names:
                    apply_comp(vec, kind(name), env, foreign)
                apply_comp(vec, engine._CoinRun(env.names, kind is QRand), env, foreign)
        assert len(sizes) > 100 and max(sizes) <= 1 << 16

    def test_unobserved_runs_are_observed_runs(self, corpus):
        # Observed runs go one coin at a time: within 1e-13 by weights().
        programs = [parse(src) for name, src in corpus.items() if name != "classical_coins"]
        programs += [random_program(s) for s in range(500)]
        programs += [bernstein_vazirani("1011001110001101")]
        for p in programs:
            np.testing.assert_allclose(run(p).weights(), run(p, observer=lambda *_: None).weights(),
                                       rtol=0, atol=1e-13)
        final = run(programs[-1])
        assert len(final.branches) == 1 and final.weights()[0b1011001110001101] == 1.0

    def test_unobserved_classical_runs_are_exact(self, corpus):
        programs = [parse(corpus["classical_coins"])]
        programs += [random_classical_program(s) for s in range(500)]
        for p in programs:
            fused, coinwise = qppl.run_classical(p), qppl.run_classical(p, observer=lambda *_: None)
            assert np.array_equal(fused.probs, coinwise.probs)

    def test_a_run_is_independent_of_the_blas_thread_count(self):
        # No product is big enough for OpenBLAS to split it across threads,
        # so a child process on one BLAS thread writes the same bytes.
        xs = [f"x{i}" for i in range(18)]
        coins = "".join(f"  qrand_bit({x})\n" for x in xs)
        chain = "".join(f"  {xs[i + 2]} ^= {xs[i]} and {xs[i + 1]}\n" for i in range(16))
        source = f"def main({', '.join(xs)} : bit):\n{coins}{chain}{coins}"
        code = ("import hashlib, sys, qppl\n"
                "print(hashlib.sha256(qppl.run(qppl.parse(sys.stdin.read())).amps).hexdigest())")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(qppl.__file__)))
        child = subprocess.run([sys.executable, "-c", code], input=source, env=env,
                               capture_output=True, text=True, timeout=120, check=True)
        assert child.stdout.strip() == hashlib.sha256(run(parse(source)).amps).hexdigest()

    @pytest.mark.parametrize("mode, source", [
        ("quantum", "  x := rand_bit()\n  y := rand_bit()\n"),
        ("classical", "  qrand_bit(x)\n  qrand_bit(y)\n"),
    ])
    def test_a_run_of_the_other_modes_coins_is_refused(self, mode, source):
        p = parse("def main(x, y : bit):\n" + source)
        with pytest.raises(ValueError, match="statement of the other mode"):
            (run if mode == "quantum" else qppl.run_classical)(p)


def affine_body(n_bits, lines):
    """The statements of ``lines`` over x0 ... x{n_bits - 1}, and their environment."""
    xs = [f"x{i}" for i in range(n_bits)]
    p = parse(f"def main({', '.join(xs)} : bit):\n" + "".join(f"  {line}\n" for line in lines))
    return p.body, Environment(tuple(xs))


def bv_middle(n_bits):
    """A Bernstein-Vazirani middle, as `dense` has it: the XOR chain, parity
    `if`s of negations and a global sign, then the chain undone."""
    chain = [f"x{i} ^= x{i + 1}" for i in range(n_bits - 2, -1, -1)]
    oracle = [f"if x{i} ^ x{(i * 5 + 3) % n_bits}:\n    qnegate()" for i in range(0, n_bits, 2)]
    return chain + oracle + ["qnegate()"] + chain[::-1]


AFFINE_RUNS = {
    # `if`s read bits the run wrote before them
    "reads-written": ["x1 ^= x0", "if x1:\n    qnegate()", "x0 ^= x2",
                      "if x0 ^ x1:\n    qnegate()", "x0 ^= x2", "x1 ^= x0"],
    # `==`, `!=`, `not` and constants, in XORs and conditions
    "comparisons": ["x2 ^= x0 == 0", "if x1 != x4:\n    qnegate()", "if not x0:\n    qnegate()",
                    "if 1:\n    qnegate()", "x2 ^= x0 == 0", "x3 ^= 1",
                    "if x3 == x2:\n    qnegate()\n    qnegate()\n    qnegate()", "x3 ^= 1"],
    # a linear part that is not the identity: the XORs are replayed
    "moves": ["x0 ^= x1", "x1 ^= 1", "if x0:\n    qnegate()", "x3 ^= x0 ^ x2",
              "if x3 ^ x1 ^ 1:\n    qnegate()"],
    # statements that are not affine cut the run in three stretches, and
    # the middle one is a lone statement
    "cut": ["x0 ^= x1", "x3 ^= 1", "x2 ^= x0 and x1", "if x4:\n    qnegate()",
            "if x0 or x1:\n    qnegate()", "x3 ^= x2", "qnegate()"],
    # the phase is a global sign, and the XORs cancel
    "global-sign": ["qnegate()", "x0 ^= x1 ^ 1", "if 1 ^ 1:\n    qnegate()", "x0 ^= x1 ^ 1"],
    # signs and XORs all cancel
    "cancel": ["x0 ^= x1", "qnegate()", "if x2 ^ 1:\n    qnegate()", "if not x2:\n    qnegate()",
               "qnegate()", "x0 ^= x1"],
    "bv": bv_middle(4),
}
# Classical runs: `x := F` is affine when it is a bijection, `x ^= E` reads
# as `x := x ^ E`, and `if C: x := not x` with x outside C is `x ^= C`.
CLASSICAL_RUNS = {
    # the prefix-parity chain, with constants and comparisons
    "chain": ["x1 := x1 ^ x0", "x2 := x2 ^ x1", "x3 := not x3 ^ x2", "x0 ^= x4 == 1",
              "x4 := x4 == x3", "x2 ^= 1"],
    # folds, on an affine condition (in the stretch) and not (a swap of its
    # own), and ifs that are no fold: x in C, and a body of two statements
    "folds": ["x0 := x0 ^ x1", "if x1 ^ x2:\n    x0 := not x0", "if x1 and x2:\n    x3 := not x3",
              "x4 := x4 ^ x0", "if x0:\n    x0 := not x0", "x1 := x1 ^ x3",
              "if x2:\n    x1 := not x1\n    x3 := not x3", "x4 := x4 ^ 1"],
    # writes that are not bijections cut the run, and the last stretch is
    # a lone statement
    "merges": ["x1 := x1 ^ x0", "x3 := not x3", "x1 := x2", "x3 := x3 ^ x0 ^ x3", "x2 := not x2",
               "x4 := x4 ^ x2", "x4 ^= x4 ^ x1", "x0 := x0 and x4", "x3 := x3 ^ 1"],
}


def destinations(body, env):
    """Where a run of affine statements sends each world, one world at a time."""
    worlds = np.arange(env.dim)
    for stmt in body:
        worlds = np.array([world_moves(stmt, k, env)[0][0] for k in worlds])
    return worlds


def stretch(body, env, coin=QRand):
    """_plan's list of kernel steps for a body of computational statements;
    [] if they cancel."""
    plan = engine._plan(body, env, coin)
    assert len(plan) <= 1
    return plan[0] if plan else []


def through(steps, vec, env, foreign):
    """Each kernel step on the vector in turn, in place, as _step applies a chunk's."""
    for step in steps:
        apply_comp(vec, step, env, foreign)
    return vec


class TestAffineRun:
    """_plan applies each run of two or more consecutive top-level affine
    statements of an unobserved run on an environment of 2**9 worlds or
    more as one step: statements whose expressions use only not, ^, ==,
    != and constants, whose writes are bijections and whose `if`s hold an
    odd number of negations (or, classical, only `x := not x`). The step
    is one pass of signs (engine._SignPass), then one permutation unless
    every variable ends at its own bit. Signs of ±1 and moves are exact,
    so the step gives its statements' result one at a time bit for bit."""

    @pytest.mark.parametrize("name", AFFINE_RUNS)
    @pytest.mark.parametrize("n_bits", [5, 6, 11])
    def test_a_run_is_its_statements_one_at_a_time(self, monkeypatch, name, n_bits):
        # With _SUB_BLOCK_MIN at 0, so that every run is planned as sign
        # passes, on a row and a batch of three, and through _step with
        # state._CHUNK at its default and cut smaller than a row. The inputs
        # hold zeros of both signs.
        body, env = affine_body(n_bits, AFFINE_RUNS[name])
        monkeypatch.setattr(engine, "_SUB_BLOCK_MIN", 0)
        steps = stretch(body, env)
        rows = np.random.default_rng(n_bits).standard_normal((3, env.dim))
        rows[rows < -1.0] = 0.0
        rows[rows > 1.0] = -0.0
        alone = through(body, rows.copy(), env, CLASSICAL_ONLY)
        for vec, want in ((rows[0], alone[0]), (rows, alone)):
            got = through(steps, vec.copy(), env, CLASSICAL_ONLY)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        if not steps:  # a run that cancels is no step: _step never sees it
            return
        for chunk in (qppl.state._CHUNK, 4, 3 * env.dim // 2):
            monkeypatch.setattr(qppl.state, "_CHUNK", chunk)
            got = engine._step(TwoLayerState(env, rows.copy(), np.full(3, 1 / 3)), steps, True)
            assert np.array_equal(got.amps, alone), chunk

    @pytest.mark.parametrize("name", CLASSICAL_RUNS)
    @pytest.mark.parametrize("n_bits", [5, 6, 11])
    def test_a_classical_run_is_its_statements_one_at_a_time(self, monkeypatch, name, n_bits):
        # With _SUB_BLOCK_MIN at 0, on a row and a batch of three, with
        # state._CHUNK at its default and at 4, so that the moves go a few
        # entries of the index at a time, and through the classical step.
        body, env = affine_body(n_bits, CLASSICAL_RUNS[name])
        monkeypatch.setattr(engine, "_SUB_BLOCK_MIN", 0)
        steps = stretch(body, env, RandBit)
        rows = np.random.default_rng(n_bits).random((3, env.dim))
        alone = through(body, rows.copy(), env, QUANTUM_ONLY)
        for chunk in (qppl.state._CHUNK, 4):
            monkeypatch.setattr(qppl.state, "_CHUNK", chunk)
            for vec, want in ((rows[0], alone[0]), (rows, alone)):
                assert np.array_equal(through(steps, vec.copy(), env, QUANTUM_ONLY), want)
            got = engine._classical_step(qppl.ClassicalState(env, rows[0].copy()), steps, True)
            assert np.array_equal(got.probs, alone[0]), chunk

    def test_the_steps_of_each_run(self, monkeypatch):
        monkeypatch.setattr(engine, "_SUB_BLOCK_MIN", 0)

        def steps(lines, quantum=True):
            return stretch(*affine_body(5, lines), QRand if quantum else RandBit)

        def kinds(lines, quantum=True):
            return [(step.high is not None, step.low is not None, step.moves is not None)
                    if type(step) is engine._SignPass else statement_source(step)
                    for step in steps(lines, quantum)]
        # Of 5 bits, x0 to x2 index the high half table and x3, x4 the low.
        assert kinds(AFFINE_RUNS["reads-written"]) == [(True, False, False)]  # x0 ^ x2
        assert kinds(AFFINE_RUNS["comparisons"]) == [(True, True, False)]  # x0 ^ ... ^ x4
        assert kinds(AFFINE_RUNS["moves"]) == [(True, True, True)]  # x1 ^ x2 ^ x3
        assert kinds(AFFINE_RUNS["cut"]) == [
            (False, False, True), "x2 ^= x0 and x1", "if x4: qnegate()",
            "if x0 or x1: qnegate()", (True, False, True)]
        assert kinds(AFFINE_RUNS["cancel"]) == []
        assert kinds(bv_middle(5)) == [(True, True, False)]  # x0 ^ x1 ^ x3 ^ 1
        (step,) = steps(bv_middle(5))
        assert step.high.tolist() == [-1.0, -1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0]
        assert step.low.tolist() == [1.0, 1.0, -1.0, -1.0]
        (step,) = steps(AFFINE_RUNS["global-sign"])
        assert step.high.tolist() == [-1.0] * 8 and step.low is None and step.moves is None
        # Classical runs move worlds and never sign them; a fold is `x ^= C`,
        # alone when C is not affine.
        assert kinds(CLASSICAL_RUNS["chain"], False) == [(False, False, True)]
        assert kinds(CLASSICAL_RUNS["folds"], False) == [
            (False, False, True), "x3 ^= x1 and x2", "x4 := x4 ^ x0", "if x0: x0 := not x0",
            "x1 := x1 ^ x3", "if x2: x1 := not x1; x3 := not x3", "x4 := x4 ^ 1"]
        assert kinds(CLASSICAL_RUNS["merges"], False) == [
            (False, False, True), "x1 := x2", "x3 := x3 ^ x0 ^ x3", (False, False, True),
            "x4 ^= x4 ^ x1", "x0 := x0 and x4", "x3 := x3 ^ 1"]
        # In quantum mode no `:=` and no fold is affine: the kernel refuses
        # them, one at a time.
        assert kinds(["x1 := x1 ^ x0", "if x1:\n    x2 := not x2"]) == [
            "x1 := x1 ^ x0", "if x1: x2 := not x2"]

    @pytest.mark.parametrize("lines, quantum", [
        (AFFINE_RUNS["moves"], True), (["x1 ^= 1", "x3 ^= x1 ^ x4", "x0 ^= x3 == x2"], True),
        (CLASSICAL_RUNS["chain"], False),
        (["x1 ^= 1", "x3 := x3 ^ x1 ^ x4", "if x3 ^ 1:\n    x0 := not x0"], False),
    ])
    def test_the_destinations_are_the_statements_world_by_world(self, monkeypatch, lines,
                                                                quantum):
        # A stretch's two half tables send world k where its statements
        # send it, constants included.
        monkeypatch.setattr(engine, "_SUB_BLOCK_MIN", 0)
        body, env = affine_body(5, lines)
        (step,) = stretch(body, env, QRand if quantum else RandBit)
        high, low = step.moves
        k = np.arange(env.dim)
        assert np.array_equal(high[k >> 2] ^ low[k & 3], destinations(body, env))

    def test_a_narrow_environment_keeps_its_statements(self, monkeypatch):
        # Under _SUB_BLOCK_MIN worlds no run is analysed: `sweep`'s programs
        # of at most 5 bits keep the cost of their statements.
        body, env = affine_body(5, AFFINE_RUNS["moves"])
        monkeypatch.setattr(engine, "_form", None)
        assert stretch(body, env) == list(body)

    @pytest.mark.parametrize("n_bits, analysed", [(8, False), (9, True)])
    def test_a_run_is_analysed_from_sub_block_min_worlds(self, monkeypatch, n_bits, analysed):
        # engine._SUB_BLOCK_MIN is 2**9 worlds, however many rows a block has.
        body, env = affine_body(n_bits, AFFINE_RUNS["moves"])
        vec = np.random.default_rng(n_bits).standard_normal((3, env.dim))
        want = through(body, vec.copy(), env, CLASSICAL_ONLY)
        steps = stretch(body, env)
        assert [type(step) for step in steps] == (
            [engine._SignPass] if analysed else [type(stmt) for stmt in body])
        got = engine._step(TwoLayerState(env, vec, np.full(3, 1 / 3)), steps, True)
        assert np.array_equal(got.amps, want)

    def test_runs_are_planned_in_both_modes(self, monkeypatch):
        # Each mode's own coins make runs, and its own affine statements
        # stretches; a lone affine statement, and every statement on a
        # narrow environment, is itself.
        p = parse("def main(a, b, c : bit):\n  qrand_bit(a)\n  b ^= a\n  qnegate()\n"
                  "  if a:\n    qnegate()\n    qnegate()\n  c ^= b\n  qrand_bit(c)\n  c ^= a\n"
                  "  if b == 0:\n    qnegate()\n  b ^= a and c\n")
        env = Environment(p.inputs)
        assert engine._plan(p.body, env, QRand) == engine._plan(p.body, env, RandBit) == [
            list(p.body)]
        monkeypatch.setattr(engine, "_SUB_BLOCK_MIN", 0)
        (steps,) = engine._plan(p.body, env, QRand)
        assert [type(step) for step in steps] == [
            QRand, engine._SignPass, If, XorAssign, QRand, engine._SignPass, XorAssign]
        assert engine._plan(p.body, env, RandBit) == [list(p.body)]
        p = parse("def main(a, b, c : bit):\n  a := rand_bit()\n  b := rand_bit()\n  b := b ^ a\n"
                  "  if a and b:\n    c := not c\n  c := a or b\n  a := rand_bit()\n  c ^= a\n")
        assert engine._plan(p.body, env, RandBit) == [[
            engine._CoinRun(("a", "b"), False), p.body[2], XorAssign("c", p.body[3].cond),
            *p.body[4:]]]
        monkeypatch.setattr(engine, "_SUB_BLOCK_MIN", 1 << 9)
        assert engine._plan(p.body, env, RandBit) == [[engine._CoinRun(("a", "b"), False),
                                                       *p.body[2:]]]

    @pytest.mark.parametrize("threshold", [None, 0], ids=["shipped", "every-environment"])
    def test_new_and_measure_cut_stretches(self, monkeypatch, threshold):
        # 8 input bits (2**8 worlds), then `new y` (2**9): each side of the
        # `new` and of the `measure` is planned with its own environment,
        # and the run is bit for bit the observed one, whose statements go
        # one at a time. Its coins are single, so no group sums them.
        if threshold is not None:
            monkeypatch.setattr(engine, "_SUB_BLOCK_MIN", threshold)
        xs = ", ".join(f"x{i}" for i in range(8))
        p = parse(f"def main({xs} : bit):\n  qrand_bit(x0)\n  x1 ^= x0\n  x2 ^= x1\n"
                  "  if x2:\n    qnegate()\n  new y\n  qrand_bit(y)\n  y ^= x2\n  x3 ^= y\n"
                  "  if y ^ x3:\n    qnegate()\n  qnegate()\n  measure(x0)\n  x4 ^= x1\n"
                  "  x5 ^= x4 ^ y\n  if x5:\n    qnegate()\n")
        plan = engine._plan(p.body, Environment(p.inputs), QRand)
        first = [QRand, engine._SignPass] if threshold == 0 else [QRand, XorAssign, XorAssign, If]
        assert [[type(step) for step in steps] for steps in plan] == [
            first, [qppl.New], [QRand, engine._SignPass], [qppl.Measure], [engine._SignPass]]
        final, observed = run(p), run(p, observer=lambda *_: None)
        assert np.array_equal(final.amps, observed.amps)
        assert np.array_equal(final.probs, observed.probs)

    def test_the_coins_around_a_cancelled_run_stay_apart(self, monkeypatch):
        # A run that cancels is no step, but the coins on either side of it
        # are not consecutive, so they are not one group: a group would
        # sum them in another order, as in random_program(157).
        body, env = affine_body(3, ["qrand_bit(x0)", "qnegate()", "qnegate()", "qrand_bit(x1)"])
        p = random_program(157)
        want = run(p)
        monkeypatch.setattr(engine, "_SUB_BLOCK_MIN", 0)
        assert stretch(body, env) == [body[0], body[3]]
        got = run(p)
        assert np.array_equal(got.amps, want.amps) and np.array_equal(got.probs, want.probs)

    @pytest.mark.parametrize("chunk", [None, 2048, 1024, 100])
    def test_a_block_of_several_chunks_goes_through_one_stretch(self, monkeypatch, chunk):
        # Three rows of 10 bits through coin runs, a sign pass that moves
        # worlds and a swap: in one chunk; two rows, then one; a row a
        # chunk; and a row in pieces. Each chunk goes through every step,
        # bit for bit as each row alone.
        body, env = affine_body(10, ["qrand_bit(x0)", "qrand_bit(x5)", "qrand_bit(x9)",
                                     "x1 ^= x0", "if x1 ^ x9:\n    qnegate()", "x9 ^= 1",
                                     "x3 ^= x0 and x9", "qrand_bit(x1)", "qrand_bit(x3)"])
        steps = stretch(body, env)
        assert [type(step) for step in steps] == [
            engine._CoinRun, engine._SignPass, XorAssign, engine._CoinRun]
        rows = np.random.default_rng(10).standard_normal((3, env.dim))
        alone = [engine._step(TwoLayerState(env, row[None].copy(), np.ones(1)), steps, True).amps
                 for row in rows]
        if chunk:
            monkeypatch.setattr(qppl.state, "_CHUNK", chunk)
        got = engine._step(TwoLayerState(env, rows, np.full(3, 1 / 3)), steps, True)
        assert got.amps is rows and np.array_equal(got.amps, np.concatenate(alone))

    def test_programs_are_bit_identical_when_every_vector_takes_the_sign_pass(self, corpus):
        # The corpus, random programs of both modes and Bernstein-Vazirani,
        # whose oracle `y ^= xi` is a run that moves worlds.
        programs = [parse(src) for name, src in corpus.items() if name != "classical_coins"]
        programs += [random_program(s) for s in range(300)]
        programs += [bernstein_vazirani("1011001110001101")]
        classical = [parse(corpus["classical_coins"])]
        classical += [random_classical_program(s) for s in range(300)]
        want = [run(p) for p in programs]
        want_classical = [qppl.run_classical(p).probs for p in classical]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_SUB_BLOCK_MIN", 0)
            got = [run(p) for p in programs]
            got_classical = [qppl.run_classical(p).probs for p in classical]
        for a, b in zip(want, got):
            assert np.array_equal(a.amps, b.amps) and np.array_equal(a.probs, b.probs)
        for a, b in zip(want_classical, got_classical):
            assert np.array_equal(a, b)

    def test_a_bv_middle_holds_no_second_block(self):
        # On one 18-bit branch the sign pass multiplies the block in place:
        # beside it the run holds its two tables of 2**9 signs, and no more
        # than a chunk, so no index and no second block of 2 MiB.
        body, env = affine_body(18, bv_middle(18))
        st_ = TwoLayerState(env, np.random.default_rng(18).standard_normal((1, env.dim)),
                            np.ones(1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            steps = stretch(body, env)
            engine._step(st_, steps, True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        (step,) = steps
        tables = step.high.nbytes + step.low.nbytes
        assert step.moves is None and tables == 2 * 8 << 9
        assert peak <= tables + qppl.state._CHUNK * 8

    def test_a_classical_chain_holds_a_copy_and_a_chunk_of_index(self):
        # On an 18-bit distribution (2 MiB) the prefix-parity chain is one
        # stretch that moves worlds: beside the block it holds one copy of
        # it, its two tables of 2**9 destinations and a chunk of index, and
        # numpy's buffers while it builds that chunk (66 KB on numpy 2.4).
        body, env = affine_body(18, [f"x{i} := x{i} ^ x{i - 1}" for i in range(1, 18)])
        state = qppl.ClassicalState(env, np.random.default_rng(18).random(env.dim))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            steps = stretch(body, env, RandBit)
            engine._classical_step(state, steps, True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        (step,) = steps
        tables = sum(table.nbytes for table in step.moves)
        assert step.high is None and step.low is None and tables == 2 * 8 << 9
        assert peak <= state.probs.nbytes + tables + qppl.state._CHUNK * 8 + (72 << 10)


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
    """A statement applied to a vector, or to each row of a batch, one world
    at a time."""
    out = np.zeros_like(vec)
    for k in range(env.dim):
        for k2, w in world_moves(stmt, k, env):
            out[..., k2] += w * vec[..., k]
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


def literals(names):
    """x, not x, x == 0 and x == 1, as the parser builds them."""
    forms = (lambda v: v, Not, lambda v: Not(Xor(v, Const(0))), lambda v: Not(Xor(v, Const(1))))
    return st.builds(lambda name, form: form(Var(name)), st.sampled_from(names),
                     st.sampled_from(forms))


def conjunctions(names):
    """Conjunctions of literals, which may repeat or contradict each other,
    and the constant 1: conditions that hold on one assignment of the
    variables they read, or on none."""
    conjunctions = st.lists(literals(names), min_size=1, max_size=4).map(
        lambda ls: functools.reduce(And, ls))
    return st.just(Const(1)) | conjunctions


@st.composite
def conjunction_cases(draw, quantum):
    """An environment of 1-6 bits, a statement on conjunctions of literals,
    and a vector of weights in [0, 1).

    Quantum: x ^= C with x outside C, and if C: bodies of qnegate() and
    such ifs. Classical: x ^= C, x := x ^ C, x := 0 or 1, x := x and C, and
    if C: with one of those, or with a write of a variable C reads (an if
    whose condition its body changes must still run on a mask). One
    statement per body, as two merges would sum four worlds in another
    order than the reference does.
    """
    env = Environment(NAMES[:draw(st.integers(1, 6))])
    names, target = env.names, st.sampled_from(env.names)
    cond = conjunctions(names)
    if quantum:
        xor = st.builds(XorAssign, target, cond).filter(
            lambda s: s.target not in free_vars(s.rhs))
        negations = st.recursive(st.just(QNeg()), lambda body: st.builds(
            If, cond, st.lists(body, min_size=1, max_size=3).map(tuple)), max_leaves=5)
        stmt = draw(xor | negations.filter(lambda s: isinstance(s, If)))
    else:
        leaf = (st.builds(XorAssign, target, cond)
                | st.builds(lambda x, c: Assign(x, Xor(Var(x), c)), target, cond)
                | st.builds(Assign, target, st.sampled_from((Const(0), Const(1))))
                | st.builds(lambda x, c: Assign(x, And(Var(x), c)), target, cond))
        writes_cond = st.builds(
            lambda c, x, v: If(c, (Assign(sorted(free_vars(c) or {x})[0], v),)),
            cond, target, st.sampled_from((Const(0), Const(1))))
        stmt = draw(leaf | st.builds(lambda c, s: If(c, (s,)), cond, leaf) | writes_cond)
    vec = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random(env.dim)
    return env, stmt, vec


def whole_and_in_pieces(apply):
    """apply() with state._CHUNK at 4, so that a swap of a longer vector goes
    in pieces of 4 entries, then at its default, where it is one np.where."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qppl.state, "_CHUNK", 4)
        first = apply()
    return first, apply()


STACKS = ("vector", "eye", "block")


def stacked(vec, env, stack):
    """The vector; or the rows of np.eye; or a block of three rows, as _step
    passes a chunk of a block to apply_comp."""
    if stack == "vector":
        return vec
    if stack == "eye":
        return np.eye(env.dim)
    return np.stack([vec, vec[::-1], vec * 0.5])


class TestWorldKernels:
    """apply_comp against the per-world reference, on vectors and on the
    rows of np.eye."""

    @given(kernel_cases((XorAssign, QNeg, QRand)), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_quantum_statements(self, case, stacked):
        env, stmt, vec = case
        vec = np.eye(env.dim) if stacked else vec - 0.5
        got = apply_comp(vec.copy(), stmt, env, CLASSICAL_ONLY)
        np.testing.assert_allclose(got, kernel_reference(vec, stmt, env), atol=1e-12)

    @given(kernel_cases((XorAssign, Assign, RandBit)) | kernel_cases(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_classical_statements(self, case, stacked):
        env, stmt, vec = case
        vec = np.eye(env.dim) if stacked else vec
        got = apply_comp(vec.copy(), stmt, env, QUANTUM_ONLY)
        np.testing.assert_allclose(got, kernel_reference(vec, stmt, env), atol=1e-12)

    @given(kernel_cases((QNeg,)), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_negation_only_ifs_are_exact(self, case, stacked):
        # An `if` of an odd number of qnegate() alone is one multiply by a
        # +-1 table, and one that holds such ifs runs its body on a mask; both
        # must equal the per-world reference bit for bit.
        env, stmt, vec = case
        vec = np.eye(env.dim) if stacked else vec - 0.5
        got = apply_comp(vec.copy(), stmt, env, CLASSICAL_ONLY)
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
        got = apply_comp(vec.copy(), stmt, env, CLASSICAL_ONLY)
        np.testing.assert_array_equal(got, kernel_reference(vec, stmt, env))

    @pytest.mark.parametrize("source", [
        "x10 := x10 and x2 or x9", "x9 ^= x9 or x10", "if x10:\n    x10 := x3",
    ])
    def test_classical_writes_on_the_low_order_bits_of_a_wide_state(self, source):
        names = tuple(f"x{i}" for i in range(11))
        env = Environment(names)
        stmt = parse(f"def main({', '.join(names)} : bit):\n  {source}\n").body[0]
        probs = np.random.default_rng(7).random(env.dim)
        got = apply_comp(probs.copy(), stmt, env, QUANTUM_ONLY)
        np.testing.assert_allclose(got, kernel_reference(probs, stmt, env), atol=1e-15)

    def test_truth_table_on_a_wide_state(self):
        env = Environment(tuple(f"x{i}" for i in range(11)))
        expr = Or(And(Var("x10"), Not(Var("x2"))), Var("x7"))
        table = truth_table(expr, env)
        assert table.dtype == bool and table.size == 1 << 3  # x2, x7 and x10
        assert table.shape == tuple(2 if i in (2, 7, 10) else 1 for i in range(11))
        assert list(flat_table(expr, env)) == [world_value(expr, k, env) for k in range(env.dim)]

    @given(conjunction_cases(quantum=True), st.sampled_from(STACKS))
    @example((Environment(("a", "b", "c", "d")),  # pieces that fix a and c, above and below b
              XorAssign("b", And(Var("a"), Not(Var("c")))), np.arange(16) / 16), "vector")
    @settings(max_examples=150, deadline=None)
    def test_quantum_statements_whole_and_in_pieces(self, case, stack):
        env, stmt, vec = case
        vec = stacked(vec - 0.5, env, stack)
        expected = kernel_reference(vec, stmt, env)
        for got in whole_and_in_pieces(lambda: apply_comp(vec.copy(), stmt, env, CLASSICAL_ONLY)):
            np.testing.assert_array_equal(got, expected)

    @given(conjunction_cases(quantum=False), st.sampled_from(STACKS))
    @settings(max_examples=150, deadline=None)
    def test_classical_statements_whole_and_in_pieces(self, case, stack):
        env, stmt, vec = case
        vec = stacked(vec, env, stack)
        expected = kernel_reference(vec, stmt, env)
        for got in whole_and_in_pieces(lambda: apply_comp(vec.copy(), stmt, env, QUANTUM_ONLY)):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("target", ["x0", "x3", "x7"])  # the top, a middle and the bottom bit
    @pytest.mark.parametrize("classical", [False, True], ids=["quantum", "classical"])
    def test_a_swap_of_more_than_a_chunk_goes_in_pieces(self, monkeypatch, target, classical):
        # With state._CHUNK at 16 a piece keeps 4 of the 8 world axes, the
        # target's among them, and fixes the others: those above the target
        # first, then those below it, so x3's pieces fix x0 to x2 and x4.
        # Three branches go through _step a row at a time; a distribution
        # goes whole.
        names = tuple(f"x{i}" for i in range(8))
        env = Environment(names)
        others = [n for n in names if n != target]
        monkeypatch.setattr(qppl.state, "_CHUNK", 16)
        halves, copyto = [], np.copyto
        monkeypatch.setattr(np, "copyto", lambda dst, src, **kw: (
            halves.append(dst.size), copyto(dst, src, **kw))[1])
        rng = np.random.default_rng(8)
        for source in (f"{target} ^= {others[0]} and not {others[-1]}",
                       f"{target} ^= {others[2]} ^ {others[3]}", f"{target} ^= 1"):
            stmt = parse(f"def main({', '.join(names)} : bit):\n  {source}\n").body[0]
            if classical:
                probs = rng.random(env.dim)
                got = engine._classical_step(qppl.ClassicalState(env, probs.copy()), [stmt],
                                             True)
                np.testing.assert_array_equal(got.probs, kernel_reference(probs, stmt, env))
            else:
                amps = rng.standard_normal((3, env.dim))
                got = engine._step(TwoLayerState(env, amps.copy(), np.full(3, 1 / 3)), [stmt],
                                   True)
                np.testing.assert_array_equal(got.amps, kernel_reference(amps, stmt, env))
        # Each half of a piece is written once: 16 pieces a row.
        assert halves == [8] * (3 * 16 * 2 * (1 if classical else 3))

    @pytest.mark.parametrize("target", ["x0", "x3", "x7"])  # the top, a middle and the bottom bit
    def test_a_merge_of_more_than_a_chunk_goes_in_pieces(self, monkeypatch, target):
        # A merge goes in a swap's pieces: with state._CHUNK at 16 an 8-bit
        # distribution is 16 pieces of 16 entries, and each piece's worlds
        # move across the target's axis within the piece. The last two
        # writes read their target, so they merge too.
        names = tuple(f"x{i}" for i in range(8))
        env = Environment(names)
        others = [n for n in names if n != target]
        monkeypatch.setattr(qppl.state, "_CHUNK", 16)
        sizes, pieces = [], engine._pieces

        def spy(worlds, move, pos):
            for piece, where in pieces(worlds, move, pos):
                sizes.append(piece.size)
                yield piece, where
        monkeypatch.setattr(engine, "_pieces", spy)
        rng = np.random.default_rng(8)
        sources = (f"{target} := {others[0]} or not {others[-1]}", f"{target} := 0",
                   f"{target} := {target} and {others[2]}", f"{target} ^= {target} and {others[3]}")
        for source in sources:
            stmt = parse(f"def main({', '.join(names)} : bit):\n  {source}\n").body[0]
            probs = rng.random(env.dim)
            got = engine._classical_step(qppl.ClassicalState(env, probs.copy()), [stmt], True)
            np.testing.assert_array_equal(got.probs, kernel_reference(probs, stmt, env))
        assert sizes == [16] * (16 * len(sources))

    @pytest.mark.parametrize("vec", [np.array([-0.5]), np.eye(1)])
    def test_a_statement_on_no_bits(self, monkeypatch, vec):
        # With no variables there is one world: `if 1: qnegate()` negates
        # it, alone and as the sign of a run of three negations.
        monkeypatch.setattr(engine, "_SUB_BLOCK_MIN", 0)
        stmt, env = If(Const(1), (QNeg(),)), Environment(())
        (step,) = stretch((stmt, QNeg(), QNeg()), env)
        assert step.high.tolist() == [-1.0] and step.low is None and step.moves is None
        for each in (stmt, step):
            np.testing.assert_array_equal(apply_comp(vec.copy(), each, env, CLASSICAL_ONLY), -vec)

    @pytest.mark.parametrize("source, bijection", [
        ("a := a ^ b", True), ("a := not b ^ not a", True), ("a := a ^ b ^ c", True),
        ("a := 0", False), ("a := 1", False), ("a := a and not c", False),
        ("b ^= b and a", False), ("a := a or b", False), ("a := b", False),
    ])
    def test_classical_writes_that_are_bijections_join_a_stretch(self, monkeypatch, source,
                                                                 bijection):
        # x := F with F = x ^ G moves worlds one to one: followed by
        # c := c ^ b, it makes one stretch of moves. A write that merges
        # worlds, as x := 0 does, is a step of its own, on the merge path,
        # and leaves c := c ^ b a lone statement. Alone or in the run, the
        # result is exactly the reference's.
        env = Environment(("a", "b", "c"))
        body = parse(f"def main(a, b, c : bit):\n  {source}\n  c := c ^ b\n").body
        monkeypatch.setattr(engine, "_SUB_BLOCK_MIN", 0)
        steps = stretch(body, env, RandBit)
        assert [type(step) for step in steps] == (
            [engine._SignPass] if bijection else [type(body[0]), Assign])
        probs = np.random.default_rng(3).random(env.dim)
        want = kernel_reference(probs, body[0], env)
        np.testing.assert_array_equal(apply_comp(probs.copy(), body[0], env, QUANTUM_ONLY), want)
        np.testing.assert_array_equal(through(steps, probs.copy(), env, QUANTUM_ONLY),
                                      kernel_reference(want, body[1], env))

    @pytest.mark.parametrize("n_bits, chunk", [(15, None), (3, 16)])
    @pytest.mark.parametrize("source", [
        "x1 ^= x0 and not {last}", "{last} ^= x0 == 0", "if x2 and {last}:\n    qnegate()",
        "if not x1:\n    if x0 and x2 and {last}:\n      qnegate()",
    ])
    def test_a_block_of_several_chunks_is_written_in_place(self, monkeypatch, n_bits, chunk,
                                                           source):
        # Three branches are more than state._CHUNK entries, so _step writes
        # the block back in place a chunk of rows at a time: two rows, then
        # one.
        names = tuple(f"x{i}" for i in range(n_bits))
        env = Environment(names)
        source = source.format(last=names[-1])
        stmt = parse(f"def main({', '.join(names)} : bit):\n  {source}\n").body[0]
        amps = np.random.default_rng(n_bits).standard_normal((3, env.dim))
        state = TwoLayerState(env, amps.copy(), np.full(3, 1 / 3))
        if chunk:
            monkeypatch.setattr(qppl.state, "_CHUNK", chunk)
        assert len(qppl.state._chunks(3, env.dim)) == 2
        got = engine._step(state, [stmt], in_place=True)
        assert got.amps is state.amps
        # The statement's map, by world index: where each world goes and its sign.
        k = np.arange(env.dim)
        bit = {n: (k >> env.shift(n)) & 1 for n in names}
        last = bit[names[-1]]
        if isinstance(stmt, XorAssign):
            cond = bit["x0"] & (1 - last) if stmt.target == "x1" else 1 - bit["x0"]
            expected = np.empty_like(amps)
            expected[:, k ^ (cond << env.shift(stmt.target))] = amps
        else:
            cond = bit["x2"] & last
            if "not x1" in source:
                cond = (1 - bit["x1"]) & bit["x0"] & cond
            expected = amps * np.where(cond, -1.0, 1.0)
        np.testing.assert_array_equal(got.amps, expected)


# Statements of every kernel path, on a target x, with a and b the two
# lowest-order other variables and h the highest-order one.
QUANTUM_FORMS = (
    "qrand_bit({x})",
    "{x} ^= {a} and {b}",  # a swap on the low bits
    "{x} ^= not {a}",
    "{x} ^= {h}",
    "{x} ^= {rest}",  # a swap of one world pair in each row
    "{x} ^= {a} ^ {b}",
    "if {x}:\n    qnegate()",  # a table of signs
    "if {a} and {b}:\n    qnegate()",
    "if not {h}:\n    qnegate()",
    "if {x} == {a}:\n    qnegate()",  # a table of signs
    "if {a} and not {x}:\n    qrand_bit({b})\n    {b} ^= {x}\n    qnegate()",  # a mask
    "if {a}:\n    if {x} == {b}:\n      qnegate()\n    qnegate()",  # a mask around signs
    "qnegate()",
)
CLASSICAL_FORMS = (
    "{x} := rand_bit()",
    "{x} ^= {a} and {b}",
    "{x} := {x} ^ {a}",  # a bijection, alone: the merge path
    "{x} := 0",  # a merge
    "{x} := {a} or {b}",
    "if {a} and {b}:\n    {x} := not {x}",  # a mask, alone: in an affine run, a swap
)


def statements_on_every_target(names, forms):
    """Each form on each target, as a parsed statement."""
    header = f"def main({', '.join(names)} : bit):\n  "
    for x in names:
        others = [n for n in names if n != x]
        for form in forms:
            source = form.format(x=x, a=others[-1], b=others[-2], h=others[0],
                                 rest=" and ".join(others))
            yield parse(header + source + "\n").body[0]


def step_both_ways(state, stmt, classical):
    """The statement on a copy (in_place=False), which must leave the state
    as it was, then in place, which must write the state's own array and
    give the same numbers; returns that array."""
    step = engine._classical_step if classical else engine._step
    numbers = (lambda s: s.probs) if classical else (lambda s: s.amps)
    before = numbers(state).copy()
    copied = step(state, [stmt], False)
    assert numbers(copied) is not numbers(state)
    assert np.array_equal(numbers(state), before)
    got = step(state, [stmt], True)
    assert numbers(got) is numbers(state)
    np.testing.assert_array_equal(numbers(got), numbers(copied))
    return numbers(got)


class TestInPlace:
    """A statement in place and on a copy gives the same numbers, bit for
    bit, and with state._CHUNK patched small, so that vectors go in pieces
    and chunks and a swap of a long row goes in pieces, it gives them too."""

    @pytest.mark.parametrize("n_bits", [9, 10, 11, 12])
    @pytest.mark.parametrize("classical", [False, True], ids=["quantum", "classical"])
    def test_one_row_at_every_target_shift(self, n_bits, classical):
        names = tuple(f"x{i}" for i in range(n_bits))
        env = Environment(names)
        rng = np.random.default_rng(n_bits)
        for stmt in statements_on_every_target(names, CLASSICAL_FORMS if classical
                                               else QUANTUM_FORMS):
            vec = rng.random(env.dim)
            results = []
            for chunk in (None, 64):
                with pytest.MonkeyPatch.context() as mp:
                    if chunk:
                        mp.setattr(qppl.state, "_CHUNK", chunk)
                    state = (qppl.ClassicalState(env, vec.copy()) if classical
                             else TwoLayerState(env, vec[None].copy(), np.ones(1)))
                    results.append(step_both_ways(state, stmt, classical).reshape(-1))
            np.testing.assert_array_equal(results[1], results[0])
            if n_bits == 9:
                np.testing.assert_allclose(results[0], kernel_reference(vec, stmt, env),
                                           atol=1e-12)

    @pytest.mark.parametrize("n_bits, chunk", [(4, None), (4, 16), (10, None), (10, 2048),
                                               (10, 1024), (10, 100)])
    def test_blocks_of_several_rows(self, n_bits, chunk):
        # Three rows: one chunk; two rows and then one; a row a chunk; a row
        # in pieces of 64 entries.
        names = tuple(f"x{i}" for i in range(n_bits))
        env = Environment(names)
        rng = np.random.default_rng(n_bits)
        for stmt in statements_on_every_target(names, QUANTUM_FORMS):
            rows = rng.standard_normal((3, env.dim))
            whole = step_both_ways(TwoLayerState(env, rows.copy(), np.full(3, 1 / 3)), stmt,
                                   classical=False)
            with pytest.MonkeyPatch.context() as mp:
                if chunk:
                    mp.setattr(qppl.state, "_CHUNK", chunk)
                got = step_both_ways(TwoLayerState(env, rows.copy(), np.full(3, 1 / 3)), stmt,
                                     classical=False)
            np.testing.assert_array_equal(got, whole)


class TestBatches:
    """apply_comp reads the worlds on the last axis and treats any leading
    axes as independent rows: a batch gives, bit for bit, what each of its
    rows gives alone as a 1-D vector."""

    @pytest.mark.parametrize("n_bits", [4, 8, 10])
    @pytest.mark.parametrize("classical", [False, True], ids=["quantum", "classical"])
    def test_a_batch_is_its_rows(self, n_bits, classical):
        names = tuple(f"x{i}" for i in range(n_bits))
        env = Environment(names)
        forms, foreign = ((CLASSICAL_FORMS, QUANTUM_ONLY) if classical
                          else (QUANTUM_FORMS, CLASSICAL_ONLY))
        rng = np.random.default_rng(n_bits)
        for stmt in statements_on_every_target(names, forms):
            rows = rng.random((3, env.dim)) - (0.0 if classical else 0.5)
            alone = np.array([apply_comp(row.copy(), stmt, env, foreign) for row in rows])
            np.testing.assert_array_equal(apply_comp(rows.copy(), stmt, env, foreign), alone)
            for row, expected in zip(rows, alone):
                got = apply_comp(row[None].copy(), stmt, env, foreign)
                assert got.shape == (1, env.dim)
                np.testing.assert_array_equal(got[0], expected)

    @pytest.mark.parametrize("n_bits, chunk", [(4, 16), (4, 32), (10, 2048), (10, 64)])
    def test_a_block_in_several_chunks_is_its_rows(self, n_bits, chunk):
        # _step hands the kernel a chunk of rows at a time: one row, two
        # rows and then one, or one row in pieces of 64 entries.
        names = tuple(f"x{i}" for i in range(n_bits))
        env = Environment(names)
        rng = np.random.default_rng(n_bits)
        for stmt in statements_on_every_target(names, QUANTUM_FORMS):
            rows = rng.standard_normal((3, env.dim))
            alone = np.array([apply_comp(row.copy(), stmt, env, CLASSICAL_ONLY) for row in rows])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qppl.state, "_CHUNK", chunk)
                assert len(qppl.state._chunks(3, env.dim)) > 1
                got = engine._step(TwoLayerState(env, rows, np.full(3, 1 / 3)), [stmt], True)
            assert got.amps is rows
            np.testing.assert_array_equal(got.amps, alone)


def counted(monkeypatch, module, name):
    """Count the calls of a module-level function, recursive ones included.

    A module that imported the function by name keeps the real one, so its
    own calls are not counted; the recursive calls are.
    """
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(None)
        return real(*args)
    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestComparisonChains:
    # `a == b` parses to Not(Xor(a, b)), so a chain of k comparisons is a
    # tree of 3k + 1 nodes.
    K = MAX_NESTING // 2  # each `==` adds two levels
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
        calls = counted(monkeypatch, qppl.syntax, "fold")
        table = flat_table(stmt.rhs, env)
        assert self.K < len(calls) <= 10 * (self.K + 1)
        assert list(table) == [self.chain_value(k, env) for k in range(env.dim)]
        vec = np.random.default_rng(2).standard_normal(env.dim)
        expected = np.empty_like(vec)
        for k in range(env.dim):
            expected[k ^ (self.chain_value(k, env) << env.shift("x"))] = vec[k]
        np.testing.assert_array_equal(apply_comp(vec, stmt, env, CLASSICAL_ONLY), expected)

    def test_free_vars_visits_each_node_once(self, monkeypatch):
        p = self.program()
        calls = counted(monkeypatch, qppl.syntax, "fold")
        assert free_vars(p.body[0].rhs) == {"y", "z", "w"}
        assert self.K < len(calls) <= 10 * (self.K + 1)
        calls.clear()
        assert validate(p) == []  # reads the free variables a few times
        assert self.K < len(calls) <= 40 * (self.K + 1)

    def test_undeclared_last_term_is_located_in_linear_time(self, monkeypatch):
        line = "  x ^= " + " == ".join(self.TERMS[:-1] + ["q"])
        p = parse("def main(x, y, z, w : bit):\n" + line + "\n")
        calls = counted(monkeypatch, qppl.syntax, "fold")
        (diag,) = validate(p)
        assert (diag.code, diag.line, diag.col) == ("UNDECLARED_VARIABLE", 2, len(line))
        assert self.K < len(calls) <= 10 * (self.K + 1)

    @pytest.mark.parametrize("walk", [
        free_vars,
        lambda e: truth_table(e, Environment(("x", "y"))),
        lambda e: validate(qppl.Program(("x", "y"), (XorAssign("x", e),))),
    ], ids=["free_vars", "truth_table", "validate"])
    def test_non_expression_node_is_a_type_error(self, walk):
        shared = Or(Var("y"), QNeg())
        with pytest.raises(TypeError, match="not an expression"):
            walk(And(shared, Not(shared)))


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

    @pytest.mark.parametrize("mode", ["quantum", "classical"])
    def test_duplicate_return_names_rejected(self, mode):
        # Parsed, not validated: the validator would report DUPLICATE_RETURN first.
        p = parse("def main(x, y : bit):\n  return x, x")
        with pytest.raises(ValueError, match=r"repeated: \['x'\]"):
            (run if mode == "quantum" else qppl.run_classical)(p)

    def test_unknown_names_rejected(self):
        st = make_state(["x"], [(1.0, [1, 0])])
        with pytest.raises(KeyError):
            apply_measure(st, ["w"])


class TestExactReferee:
    """The final weights of both modes against ``exact_weights``, the
    world-at-a-time exact semantics: within 1e-12 on every world, and
    nonzero on exactly the worlds whose exact weight is, so no roundoff
    world is printed and no real one is dropped."""

    def check(self, program, classical, what):
        final = (qppl.run_classical if classical else run)(program)
        names, exact = exact_weights(program, classical)
        assert final.env.names == names, what
        weights, exact = final.weights(), np.array([float(w) for w in exact])
        gap = np.abs(weights - exact)
        assert gap.max() <= 1e-12, (what, gap.max())
        assert np.array_equal(weights != 0, exact != 0), what

    def test_corpus(self, corpus):
        for name, src in corpus.items():
            self.check(parse(src), name == "classical_coins", name)

    def test_random_quantum(self):
        for s in range(2000):
            self.check(random_program(s), False, s)

    def test_random_classical(self):
        for s in range(500):
            self.check(random_classical_program(s), True, s)


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
            with pytest.raises(CapacityError, match="need 9 MiB"):
                apply_measure(st, names)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_byte_bound_counts_merged_branches_times_output_length(self, monkeypatch):
        st = make_state(["x", "y", "z"], [(1.0, np.full(8, 8 ** -0.5))])
        # Each branch counts its amplitudes and the split's bookkeeping for it.
        head = qppl.engine._HEAD_BYTES
        # Measuring all three bits: 8 branches of 8 amplitudes.
        monkeypatch.setattr(qppl.engine, "MAX_BLOCK_BYTES", 8 * (8 * 8 + head))
        assert len(apply_measure(st, ["x", "y", "z"]).branches) == 8
        monkeypatch.setattr(qppl.engine, "MAX_BLOCK_BYTES", 8 * (8 * 8 + head) - 1)
        with pytest.raises(CapacityError):
            apply_measure(st, ["x", "y", "z"])
        # Returning nothing: 8 outcomes of 1 amplitude merge into 1 branch.
        monkeypatch.setattr(qppl.engine, "MAX_BLOCK_BYTES", 1 * (1 * 8 + head))
        assert len(apply_return(st, []).branches) == 1
        monkeypatch.setattr(qppl.engine, "MAX_BLOCK_BYTES", 1 * (1 * 8 + head) - 1)
        with pytest.raises(CapacityError):
            apply_return(st, [])

    @pytest.mark.parametrize("chunk", [None, 256])
    def test_a_split_that_merges_under_the_byte_bound_runs(self, monkeypatch, chunk):
        # qrand, measure, qrand and measure every bit of 6: the second
        # measurement has 4096 outcomes of 64 amplitudes (2 MiB), which
        # merge into 64 branches (32 KiB). The bound counts the 64.
        names = ", ".join(f"x{i}" for i in range(6))
        coins = "".join(f"  qrand_bit(x{i})\n" for i in range(6))
        p = parse(f"def main():\n  new {names}\n" + f"{coins}  measure({names})\n" * 2)
        whole = run(p)
        if chunk:
            monkeypatch.setattr(qppl.state, "_CHUNK", chunk)
        monkeypatch.setattr(qppl.engine, "MAX_BLOCK_BYTES", 64 << 10)
        bounded = run(p)
        assert bounded.amps.shape == (64, 64)
        assert np.array_equal(bounded.amps, whole.amps)
        assert np.array_equal(bounded.probs, whole.probs)


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
        # nothing. An unobserved run applies a run of coins as one product
        # per group of four bits and an observed run one coin at a time, so
        # those two are held to each other's weights() alone.
        p = random_program(seed, max_bits=5, max_statements=25)
        whole, whole_observed, seen = run(p), run(p, observer=lambda *_: None), []
        real = qppl.state._CHUNK
        qppl.state._CHUNK = 4
        try:
            chunked = run(p)
            observed = run(p, observer=lambda _, s: seen.append((s, snapshot(s))))
        finally:
            qppl.state._CHUNK = real
        for got, expected in ((chunked, whole), (observed, whole_observed)):
            assert got.env == expected.env
            assert [b.p for b in got.branches] == [b.p for b in expected.branches]
            for a, b in zip(got.branches, expected.branches):
                np.testing.assert_array_equal(a.amps, b.amps)
        np.testing.assert_allclose(observed.weights(), chunked.weights(), rtol=0, atol=1e-13)
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

    def test_peak_memory_of_a_one_branch_run_stays_under_two_blocks(self):
        # One branch of 18 bits (2 MiB): qrand every bit, the
        # x{i+2} ^= x{i} and x{i+1} chain, then if x{i} == x{i+5}: qnegate().
        # Unobserved, each statement writes the block with at most a chunk
        # beside it, and a swap half a piece of at most a chunk; a new
        # vector built beside the old one would peak at two blocks.
        n = 18
        xs = [f"x{i}" for i in range(n)]
        body = [f"new {', '.join(xs)}", *(f"qrand_bit({x})" for x in xs),
                *(f"x{i + 2} ^= x{i} and x{i + 1}" for i in range(n - 2)),
                *(f"if x{i} == x{(i + 5) % n}:\n    qnegate()" for i in range(n - 1))]
        p = parse("def main():\n" + "".join(f"  {line}\n" for line in body))
        tracemalloc.start()
        try:
            final = run(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert final.amps.shape == (1, 1 << n)
        assert peak < 1.6 * final.amps.nbytes

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


@st.composite
def budget_programs(draw):
    """Programs that press on the block budget: up to 16 bits, a qrand on
    each, some sign patterns ``if xi and not xj: qnegate()``, so that a
    measurement leaves many distinct branches, a measurement of all or some
    of the bits, maybe a ``new`` after it with qrands on some of the new
    bits, and maybe a return."""
    xs = [f"x{i}" for i in range(draw(st.integers(1, 16)))]
    ys = [f"y{i}" for i in range(draw(st.integers(0, 16 - len(xs))))]
    measured = draw(st.just(xs) | st.lists(st.sampled_from(xs), min_size=1, unique=True))
    signs = draw(st.lists(st.tuples(st.sampled_from(xs), st.sampled_from(xs)), max_size=4))
    body = [f"new {', '.join(xs)}", *(f"qrand_bit({x})" for x in xs),
            *(f"if {xi} and not {xj}:\n    qnegate()" for xi, xj in signs),
            f"measure({', '.join(measured)})"]
    if ys:
        body += [f"new {', '.join(ys)}",
                 *(f"qrand_bit({y})" for y in ys[:draw(st.integers(0, len(ys)))])]
    returns = draw(st.none() | st.lists(st.sampled_from(xs + ys), unique=True))
    if returns is not None:
        body.append(("return " + ", ".join(returns)).rstrip())
    return "def main():\n" + "".join(f"  {line}\n" for line in body)


XS13, XS16 = (", ".join(f"x{i}" for i in range(n)) for n in (13, 16))
COINS13, COINS16 = ("".join(f"  qrand_bit(x{i})\n" for i in range(n)) for n in (13, 16))
# Four branches of 15 bits fill the 1 MiB budget, and returning every bit
# copies them: a split that held every outcome's numbers and keys until its
# build peaked at 4.5 MiB here.
WIDE_RETURN = (f"def main():\n  new {XS13}\n{COINS13}  measure(x0, x1)\n  new y0, y1\n"
               f"  qrand_bit(y0)\n  qrand_bit(y1)\n  return {XS13}, y0, y1\n")
# Two branches of 16 bits, each 65,536 outcomes of one amplitude when
# nothing is returned: a split that unravelled every outcome's value into
# 16 index arrays and kept per-outcome lists peaked at 14.8 MiB here.
RETURN_NOTHING = f"def main():\n  new {XS16}\n{COINS16}  measure(x0)\n  return\n"
# One branch of 16 bits, every world nonzero: printed through a dict of
# every world, its distribution peaked at 7.6 MiB.
UNIFORM16 = f"def main():\n  new {XS16}\n{COINS16}"
# Measuring every bit of that branch gives 65,536 distinct outcomes, so it
# is refused: a split that built each outcome's numbers before its check
# peaked at 4.0 MiB here.
MEASURE_EVERY16 = f"{UNIFORM16}  measure({XS16})\n"


class TestMemoryBudget:
    @given(budget_programs())
    @example(WIDE_RETURN)
    @example(RETURN_NOTHING)
    @example(UNIFORM16)
    @example(MEASURE_EVERY16)
    @settings(max_examples=300, deadline=None)
    def test_a_run_is_refused_or_stays_within_four_budgets(self, source):
        # With a 1 MiB budget a run holds at most a few blocks and chunks,
        # also while it prints its distribution and draws 5 shots from the
        # weights, or up to where it raises CapacityError: an allocation
        # that skips the check shows as a peak over the bound.
        p = parse(source)
        assert not qppl.has_errors(validate(p))
        budget, real = 1 << 20, qppl.engine.MAX_BLOCK_BYTES
        qppl.engine.MAX_BLOCK_BYTES = budget
        tracemalloc.start()
        try:
            final = run(p)
            n_bits = final.env.n_bits
            with open(os.devnull, "w", encoding="utf-8") as sink:
                qppl.state.write_distribution(final.weights(), sink)
                for outcome in qppl.state.sample(final.weights(), 1, 5):
                    sink.write(qppl.basis_label(outcome, n_bits) + "\n")
        except CapacityError:
            pass  # refused: the peak up to the refusal is bounded all the same
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            qppl.engine.MAX_BLOCK_BYTES = real
        assert peak < 4 * budget

    @pytest.mark.parametrize("source", [WIDE_RETURN, RETURN_NOTHING, UNIFORM16],
                             ids=["wide_return", "return_nothing", "uniform16"])
    def test_trace_and_dump_stay_within_four_budgets(self, monkeypatch, source):
        # The --trace writer prints every state of the run, each a copy of
        # the block, as no state an observer saw is written again; then the
        # --dump-state writer writes the last state as JSON. With a 1 MiB
        # budget both hold at most a few blocks and chunks, counted up to
        # the return that the first two runs are refused at, where their
        # last state has four and two wide branches.
        monkeypatch.setattr(qppl.engine, "MAX_BLOCK_BYTES", 1 << 20)
        p, last = parse(source), []

        def observer(label, st_):
            qppl.state.write_trace(label, st_, sink)
            last[:] = [st_]
        tracemalloc.start()
        try:
            with open(os.devnull, "w", encoding="utf-8") as sink:
                try:
                    run(p, observer=observer)
                except CapacityError:
                    assert source is not UNIFORM16
                qppl.state_to_json(last.pop(), sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @pytest.mark.parametrize("source, classical, bits, copies, chunks, slack", [
        ("x5 ^= x1 and x2", False, 18, 0, 1, 16),  # a swap, half a piece at a time
        ("x17 ^= x15 and x16", False, 18, 0, 1, 16),  # a swap whose mask _mask widens
        ("if x1 and x2:\n    qnegate()", False, 18, 0, 1, 16),  # a table of signs
        ("x5 := x1 or x2", True, 18, 0, 2, 96),  # a merge, a piece at a time
        ("x5 := x1 or x2", True, 20, 0, 2, 96),
        ("if x1 and x2:\n    x5 ^= x3\n    qnegate()", False, 18, 1, 1, 16),  # a masked copy
    ], ids=["xor", "xor_low", "negations", "assign", "assign20", "if"])
    def test_a_statement_on_a_row_wider_than_a_chunk(self, source, classical, bits, copies,
                                                     chunks, slack):
        # One 18-bit row (2 MiB) is four chunks, but _step hands the kernel
        # a whole row: beside it `x ^= E` and an `if` of negations hold at
        # most a chunk, `x := E` two, whatever the row's width (a piece's
        # moved worlds, and the last piece's until the next one's are
        # built), and any other `if` one copy of the row and a chunk.
        # Tables and numpy's buffers take the slack in KiB.
        xs = [f"x{i}" for i in range(bits)]
        stmt = parse(f"def main({', '.join(xs)} : bit):\n  {source}\n").body[0]
        env = Environment(tuple(xs))
        row = np.random.default_rng(18).random(env.dim)
        state = (qppl.ClassicalState(env, row) if classical
                 else TwoLayerState(env, row[None], np.ones(1)))
        step = engine._classical_step if classical else engine._step
        step(state, [stmt], True)  # the truth tables, which are cached, are built
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step(state, [stmt], True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= copies * row.nbytes + chunks * qppl.state._CHUNK * 8 + (slack << 10)

    def test_many_narrow_heads_are_refused_within_four_budgets(self, monkeypatch):
        # Returning x0 from two random 16-bit branches gives 65,536 distinct
        # heads of two amplitudes: 1 MiB of rows, but several MiB of hash
        # entries and head arrays. Counting only the rows, the split ran to
        # the end and peaked at 18.7 MiB.
        env = Environment(tuple(f"x{i}" for i in range(16)))
        rows = np.random.default_rng(16).standard_normal((2, env.dim))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        st_ = TwoLayerState(env, rows, np.array([0.5, 0.5]))
        budget = 1 << 20
        monkeypatch.setattr(qppl.engine, "MAX_BLOCK_BYTES", budget)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="^6553 branches of 2 amplitudes need 2 MiB, "
                                                     "over the 1 MiB limit$"):
                apply_return(st_, ["x0"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * budget


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


    @pytest.mark.parametrize("target", ["x0", "x7", "x8", "x9"])
    def test_qrand_leaves_a_wide_branch_alone(self, target):
        # One row of 10 bits, with targets in the pair view (x0) and in rows
        # of the row matrix (x7, x8, x9): the coin writes a copy, never the
        # given block.
        env = Environment(tuple(f"x{i}" for i in range(10)))
        row = np.random.default_rng(10).standard_normal(env.dim)
        st = TwoLayerState(env, (row / np.linalg.norm(row))[None], np.ones(1))
        amps = st.amps.copy()
        out = apply_qrand(st, target)
        assert_valid_state(out)
        assert np.array_equal(st.amps, amps) and out.amps is not st.amps


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
