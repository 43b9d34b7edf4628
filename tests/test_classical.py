import numpy as np
import pytest

import qppl
from qppl import (
    CLASSICAL, Const, Environment, Program, XorAssign, parse, run, run_classical, validate,
)
from qppl.engine import apply_comp
from qppl.syntax import QUANTUM_ONLY
from qppl.randprog import random_classical_program


class TestRunClassical:
    def test_two_coins_then_copy(self, corpus):
        final = run_classical(parse(corpus["classical_coins"]))
        dist = final.distribution()
        assert dist[0b00] == pytest.approx(0.5, abs=1e-12)
        assert dist[0b11] == pytest.approx(0.5, abs=1e-12)
        assert set(dist) == {0b00, 0b11}

    def test_single_coin(self):
        final = run_classical(parse("def main(x : bit):\n  x := rand_bit()"))
        assert final.distribution() == pytest.approx({0: 0.5, 1: 0.5})

    def test_copy_merges_worlds(self):
        # y := x on {00: 1/2, 10: 1/2} gives {00: 1/2, 11: 1/2}.
        env = Environment(("x", "y"))
        probs = np.array([0.5, 0.0, 0.5, 0.0])
        stmt = parse("def main(x, y : bit):\n  y := x").body[0]
        out = apply_comp(probs, stmt, env, QUANTUM_ONLY)
        np.testing.assert_allclose(out, [0.5, 0.0, 0.0, 0.5])

    def test_overwrite_discards_history(self):
        final = run_classical(
            parse("def main(x : bit):\n  x := rand_bit()\n  x := 0")
        )
        assert final.distribution() == pytest.approx({0: 1.0})

    def test_conditional_assignment(self):
        src = "def main(x, y : bit):\n  x := rand_bit()\n  if x:\n    y := 1"
        dist = run_classical(parse(src)).distribution()
        assert dist == pytest.approx({0b00: 0.5, 0b11: 0.5})

    def test_return_marginalizes(self):
        src = "def main(x, y : bit):\n  x := rand_bit()\n  y := x\n  return y"
        final = run_classical(parse(src))
        assert final.env.names == ("y",)
        assert final.distribution() == pytest.approx({0: 0.5, 1: 0.5})

    def test_return_sums_out_the_discarded_bits(self):
        returned = 0
        for seed in range(60):
            p = random_classical_program(seed, max_bits=5, max_statements=20)
            seen = []
            final = run_classical(p, observer=lambda _, st: seen.append(st))
            if p.returns is None:
                continue
            returned += 1
            before = seen[-2]
            expected = np.zeros(final.env.dim)
            for k in range(before.env.dim):
                y = 0
                for name in final.env.names:
                    y = (y << 1) | before.env.bit(k, name)
                expected[y] += before.probs[k]
            np.testing.assert_allclose(final.probs, expected, rtol=0, atol=1e-15)
        assert returned > 20

    def test_xor_reading_its_own_target(self):
        # Classical mode lets x ^= E read x: x becomes x xor E, so with x = 1
        # it is cleared exactly where y holds.
        src = "def main(x, y : bit):\n  x := 1\n  y := rand_bit()\n  x ^= x and y"
        assert run_classical(parse(src)).distribution() == pytest.approx({0b01: 0.5, 0b10: 0.5})

    def test_quantum_statement_raises(self):
        with pytest.raises(ValueError):
            run_classical(parse("def main(x : bit):\n  qrand_bit(x)"))

    def test_quantum_statement_inside_if_raises(self):
        with pytest.raises(ValueError):
            run_classical(parse("def main(x : bit):\n  if x:\n    qnegate()"))

    def test_measure_raises(self):
        with pytest.raises(ValueError):
            run_classical(parse("def main(x : bit):\n  measure(x)"))


class TestStochasticity:
    def test_statement_matrices_are_column_stochastic(self):
        env = Environment(("a", "b", "c"))
        snippets = [
            "a := b",
            "a := rand_bit()",
            "a ^= b or c",
            "a ^= a",
            "a ^= a or b",
            "a := not a and c",
            "if a and b:\n    c := rand_bit()",
            "if not a:\n    b := c\n    c := 1",
            "if a:\n    a := b",
        ]
        for snippet in snippets:
            src = "def main(a, b, c : bit):\n  " + snippet.replace("\n", "\n  ")
            stmt = parse(src).body[0]
            m = apply_comp(np.eye(env.dim), stmt, env, QUANTUM_ONLY).T
            assert np.all(m >= 0), snippet
            np.testing.assert_allclose(m.sum(axis=0), np.ones(env.dim), atol=1e-12)

    def test_random_programs_conserve_total_probability(self):
        for seed in range(60):
            p = random_classical_program(seed, max_bits=5, max_statements=20)
            assert not qppl.has_errors(validate(p, CLASSICAL)), seed
            final = run_classical(p)
            assert final.probs.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(final.probs >= -1e-15)


class TestTraceObserver:
    def test_observer_sees_distributions(self, corpus):
        seen = []
        run_classical(parse(corpus["classical_coins"]),
                      observer=lambda label, st: seen.append((label, st.probs.copy())))
        assert seen[0][0] == ""
        np.testing.assert_allclose(seen[0][1], [1, 0, 0, 0])
        np.testing.assert_allclose(seen[1][1], [0.5, 0, 0.5, 0])
        np.testing.assert_allclose(seen[2][1], [0.5, 0, 0.5, 0])
        np.testing.assert_allclose(seen[3][1], [0.5, 0, 0, 0.5])
        assert seen[-1][0] == "return x, y"


class TestBothModes:
    """``run`` and ``run_classical`` share one run loop, so they keep one contract."""

    SOURCE = ("def main(x, y, z : bit):\n  x ^= 1\n  if x:\n    y ^= not z\n"
              "  z ^= x and y\n  return y, z")

    @pytest.mark.parametrize("run_mode", [run, run_classical])
    def test_returning_a_name_that_is_not_live_raises(self, run_mode):
        body = (XorAssign("x", Const(1)),)
        with pytest.raises(KeyError, match="variable 'zz' is not live"):
            run_mode(Program(("x",), body, ("x", "zz")))

    def test_observer_labels_agree_and_observed_states_stay_unwritten(self):
        p = parse(self.SOURCE)
        assert not validate(p) and not validate(p, CLASSICAL)
        labels = {}
        for run_mode in (run, run_classical):
            seen = []

            def observe(label, st):
                arrays = [st.probs] + ([st.amps] if run_mode is run else [])
                seen.append((label, arrays, [a.copy() for a in arrays]))

            run_mode(p, observer=observe)
            labels[run_mode] = [label for label, _, _ in seen]
            for label, arrays, copies in seen:
                for a, copy in zip(arrays, copies):
                    np.testing.assert_array_equal(a, copy, err_msg=label)
        assert labels[run] == labels[run_classical] == [
            "", "x ^= 1", "if x: y ^= not z", "z ^= x and y", "return y, z"]
