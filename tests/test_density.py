import itertools
import tracemalloc

import numpy as np
import pytest

import qppl
from qppl import (
    Environment, New, Program, check_equivalence, comp_matrix, parse, run_density,
    to_density, validate,
)
from qppl.randprog import random_program
from conftest import H, make_state

S = float(1 / np.sqrt(2))


class TestRunDensity:
    def test_single_coin_toss(self):
        rho = run_density(parse("def main(x : bit):\n  qrand_bit(x)"))
        np.testing.assert_allclose(rho, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_measurement_kills_off_diagonals(self):
        rho = run_density(parse("def main(x : bit):\n  qrand_bit(x)\n  measure(x)"))
        np.testing.assert_allclose(rho, np.diag([0.5, 0.5]), atol=1e-15)

    def test_interference_program_is_pure(self, corpus):
        rho = run_density(parse(corpus["interference"]))
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-10)

    def test_capacity_cap(self):
        p = Program(tuple(f"v{i}" for i in range(11)), ())
        with pytest.raises(qppl.CapacityError):
            run_density(p)

    def test_cap_is_read_from_the_engine(self, monkeypatch):
        # The oracle reads the engine's one cap, so a lowered cap refuses the
        # program with the up-front check's message, before any matrix is
        # built, rather than where comp_matrix meets it.
        monkeypatch.setattr(qppl.engine, "COMP_MATRIX_MAX_BITS", 4)
        p = parse("def main(a, b, c, d : bit):\n  qrand_bit(a)\n  new e\n  e ^= a")
        with pytest.raises(qppl.CapacityError) as err:
            run_density(p)
        assert str(err.value) == "density semantics supports at most 4 bits"

    def test_equivalence_check_raises_before_building_a_density_matrix(self):
        # The engine's 12-bit state as a density matrix would be 128 MiB.
        names = ", ".join(f"v{i}" for i in range(12))
        p = parse(f"def main({names} : bit):\n  qrand_bit(v0)\n")
        tracemalloc.start()
        try:
            with pytest.raises(qppl.CapacityError):
                check_equivalence(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestWellFormedness:
    def _check(self, rho):
        np.testing.assert_allclose(rho, rho.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-10)

    def test_after_every_statement_of_the_corpus(self, corpus):
        for name, src in corpus.items():
            if name == "classical_coins":
                continue
            p = parse(src)
            for k in range(len(p.body) + 1):
                self._check(run_density(Program(p.inputs, p.body[:k])))
            self._check(run_density(p))

    def test_after_every_statement_of_random_programs(self):
        for seed in range(0, 40, 4):
            p = random_program(seed, max_bits=4, max_statements=12)
            for k in range(len(p.body) + 1):
                self._check(run_density(Program(p.inputs, p.body[:k])))


class TestEquivalence:
    def test_interference_program(self, corpus):
        assert check_equivalence(parse(corpus["interference"])) <= 1e-10

    def test_measurement_example(self, corpus):
        assert check_equivalence(parse(corpus["measure_branching"])) <= 1e-10

    def test_whole_corpus(self, corpus):
        for name, src in corpus.items():
            if name == "classical_coins":
                continue
            assert check_equivalence(parse(src)) <= 1e-10, name

    def test_random_program_sample(self):
        for seed in range(50):
            p = random_program(seed, max_bits=5, max_statements=25)
            assert not qppl.has_errors(validate(p)), seed
            assert check_equivalence(p) <= 1e-10, seed

    def test_returns_of_more_than_5_bits_that_drop_a_high_bit(self):
        # The programs above have at most 5 bits. Here a return of 6 to 9
        # bits drops a bit above one it keeps, so the oracle's partial trace
        # sums over axes of a wide tensor that are not its lowest.
        checked = 0
        for seed in itertools.count():
            p = random_program(seed, max_bits=9)
            names = p.inputs + tuple(n for s in p.body if isinstance(s, New) for n in s.names)
            if p.returns is None or len(names) <= 5:
                continue
            kept = [name in p.returns for name in names]
            if kept != sorted(kept, reverse=True):
                assert check_equivalence(p) <= 1e-10, seed
                checked += 1
                if checked == 20:
                    break


class TestEnsembleConflation:
    def test_distinct_ensembles_same_density(self):
        classical_mix = make_state(["x"], [(0.5, [1, 0]), (0.5, [0, 1])])
        sign_mix = make_state(["x"], [(0.5, [S, S]), (0.5, [S, -S])])
        a = to_density(classical_mix)
        b = to_density(sign_mix)
        np.testing.assert_allclose(a, np.diag([0.5, 0.5]), atol=1e-15)
        np.testing.assert_allclose(a, b, atol=1e-15)
        # The two-layer states themselves are distinguishable records.
        assert not np.allclose(classical_mix.branches[0].amps,
                               sign_mix.branches[0].amps)


class TestUniversalGateWitnesses:
    def test_toffoli_is_exact(self):
        body = parse("def main(x, y, z : bit):\n  z ^= x and y").body
        m = comp_matrix(body, Environment(("x", "y", "z")))
        toffoli = np.eye(8)
        toffoli[[6, 7]] = toffoli[[7, 6]]
        np.testing.assert_array_equal(m, toffoli)

    def test_hadamard_within_1e15(self):
        m = comp_matrix(parse("def main(x : bit):\n  qrand_bit(x)").body,
                        Environment(("x",)))
        assert np.max(np.abs(m - H)) <= 1e-15


class TestGenerator:
    def test_emits_validator_clean_programs(self):
        for seed in range(100):
            p = random_program(seed, max_bits=5, max_statements=30)
            assert not qppl.has_errors(validate(p)), (seed, validate(p))

    def test_seed_determinism(self):
        assert random_program(123) == random_program(123)
        assert random_program(123) != random_program(124)
