import ast
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qppl
from qppl import cli
from qppl.randprog import random_classical_program, random_program


# The environment of a `python -m qppl.cli` child: this checkout's package.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(qppl.__file__).resolve().parent.parent))


@pytest.fixture
def invoke(capsys):
    def _invoke(*args):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _invoke


class TestRunDistribution:
    def test_deutsch_constant_oracle(self, invoke):
        code, out, _ = invoke("run", "deutsch_const0", "--dist")
        assert code == 0
        assert out == "0: 1.000000\n"

    def test_interference_program(self, invoke):
        code, out, _ = invoke("run", "interference", "--dist")
        assert code == 0
        assert out == "11: 1.000000\n"

    def test_dist_is_the_default(self, invoke):
        _, out_default, _ = invoke("run", "interference")
        _, out_dist, _ = invoke("run", "interference", "--dist")
        assert out_default == out_dist

    def test_no_roundoff_world_is_printed(self, invoke, tmp_path):
        # World 1 of this program has exact weight 0, which roundoff left at
        # about 1e-33; it printed as `1: 0.000000`.
        path = tmp_path / "roundoff.qppl"
        path.write_text(qppl.unparse(random_program(92)), encoding="utf-8")
        assert invoke("run", str(path), "--dist") == (0, "0: 1.000000\n", "")

    def test_classical_mode(self, invoke):
        code, out, _ = invoke("run", "classical_coins", "--mode", "classical")
        assert code == 0
        assert out == "00: 0.500000\n11: 0.500000\n"

    def test_accepts_filesystem_paths(self, invoke, tmp_path):
        path = tmp_path / "prog.qppl"
        path.write_text("def main(x : bit):\n  qrand_bit(x)\n", encoding="utf-8")
        code, out, _ = invoke("run", str(path))
        assert code == 0
        assert out == "0: 0.500000\n1: 0.500000\n"


def uniform_state(mode: str, n_bits: int):
    """Every world of n_bits equally likely, as a state of the given mode."""
    env = qppl.Environment(tuple(f"x{i}" for i in range(n_bits)))
    if mode == "classical":
        return qppl.ClassicalState(env, np.full(env.dim, 1.0 / env.dim))
    return qppl.TwoLayerState(env, np.full((1, env.dim), 2.0 ** (-n_bits / 2)), np.ones(1))


class TestOutputMemory:
    # `qppl run` prints and samples from one vector of weights. At 18 bits
    # that row is 2 MiB; through a dict of every world, the distribution
    # peaked at 14.2 rows and 5 shots at 15.4. Handing rng.choice the
    # probabilities, which builds their cumulative sum beside them, 5 shots
    # peaked at 4.3 rows; with one cumulative sum, at 3.4.
    @pytest.mark.parametrize("mode", ["quantum", "classical"])
    @pytest.mark.parametrize("output,rows", [("dist", 1.5), ("shots", 4.0)])
    def test_output_path_holds_a_few_rows_of_weights(self, mode, output, rows):
        st_ = uniform_state(mode, 18)
        with open(os.devnull, "w", encoding="utf-8") as sink:
            tracemalloc.start()
            try:
                if output == "dist":
                    qppl.state.write_distribution(st_.weights(), sink)
                else:
                    for outcome in qppl.state.sample(st_.weights(), 1, 5):
                        sink.write(qppl.basis_label(outcome, 18) + "\n")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < rows * st_.env.dim * 8

    def test_a_dump_holds_one_block(self, tmp_path):
        # 20 coins make one uniform branch, an 8 MiB block. --dump-state
        # writes it a chunk of a row at a time and builds no weight vector,
        # which took the peak to 2.03 blocks.
        path = tmp_path / "coins.qppl"
        xs = [f"x{i}" for i in range(20)]
        path.write_text("def main(" + ", ".join(xs) + " : bit):\n"
                        + "".join(f"  qrand_bit({x})\n" for x in xs), encoding="utf-8")
        tracemalloc.start()
        try:
            code = cli.main(["run", str(path), "--dump-state", os.devnull])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1.5 * (8 << 20)

    @pytest.mark.parametrize("args", [
        ("interference", "--trace"), ("classical_coins", "--mode", "classical", "--trace"),
        ("measure_branching", "--dump-state"),
        ("classical_coins", "--mode", "classical", "--dump-state"), ("interference", "--oracle"),
    ])
    def test_a_run_that_prints_no_distribution_builds_no_weights(self, invoke, monkeypatch,
                                                                  tmp_path, args):
        dump = tmp_path / "state.json"
        argv = ["run", *args] + ([str(dump)] if args[-1] == "--dump-state" else [])
        code, expected, _ = invoke(*argv)
        dumped = dump.read_bytes() if dump.exists() else None

        def refuse(_state):
            raise AssertionError("weights() called")

        monkeypatch.setattr(qppl.TwoLayerState, "weights", refuse)
        monkeypatch.setattr(qppl.ClassicalState, "weights", refuse)
        assert code == 0
        code, out, _ = invoke(*argv)
        assert code == 0 and out == expected
        assert (dump.read_bytes() if dump.exists() else None) == dumped

    @pytest.mark.parametrize("n_bits,weights", [
        (0, [1.0]), (1, [0.25, 0.75]), (3, [0.0, 0.25, 0.0, 0.125, 0.125, 0.0, 0.0, 0.5]),
        (12, np.eye(1, 4096, 2893)[0] * 0.5 + np.eye(1, 4096, 6)[0] * 0.5)])
    def test_distribution_does_not_depend_on_the_chunking(self, monkeypatch, n_bits, weights):
        # The label width comes from the vector's length, 2**n_bits.
        weights = np.array(weights)
        whole = "".join(f"{qppl.basis_label(int(k), n_bits)}: {weights[k]:.6f}\n"
                        for k in np.flatnonzero(weights))
        for chunk in (1, 3, 8):
            monkeypatch.setattr(qppl.state, "_TEXT_CHUNK", chunk)
            out = io.StringIO()
            qppl.state.write_distribution(weights, out)
            assert out.getvalue() == whole


class TestShots:
    def test_deterministic_program(self, invoke):
        code, out, _ = invoke("run", "interference", "--shots", "100", "--seed", "7")
        assert code == 0
        assert out == "11\n" * 100

    def test_seeded_outputs_are_byte_identical(self, invoke):
        first = invoke("run", "measure_branching", "--shots", "20", "--seed", "5")
        second = invoke("run", "measure_branching", "--shots", "20", "--seed", "5")
        assert first == second

    def test_golden_sequence(self):
        # Frozen once from seed 123; guards the sampling stream.
        draws = qppl.state.sample(np.array([0.5, 0.5]), 123, 10)
        assert list(draws) == [1, 0, 0, 0, 0, 1, 1, 0, 1, 1]

    def test_draws_do_not_depend_on_the_chunking(self, monkeypatch):
        weights = np.array([0.1, 0.0, 0.3, 0.0, 0.0, 0.6])
        rng = np.random.default_rng(8)
        expected = [(0, 2, 5)[i] for i in rng.choice(3, size=50, p=[0.1, 0.3, 0.6])]
        monkeypatch.setattr(qppl.state, "_CHUNK", 7)
        assert list(qppl.state.sample(weights, 8, 50)) == expected

    @pytest.mark.parametrize("shots", [0, 1, 1000, 65536, 65537])
    @pytest.mark.parametrize("seed", [0, 123])
    def test_draws_are_those_of_rng_choice(self, seed, shots):
        # sample builds Generator.choice's cumulative sum once and searches
        # it; choice, given the probabilities, rebuilds it on every call.
        # Weights with zeros, a point mass, and a row of 2^16 worlds.
        rng = np.random.default_rng(16)
        skewed = rng.random(1 << 16) ** 3
        skewed[rng.random(1 << 16) < 0.3] = 0.0
        cases = [np.array([0.1, 0.0, 0.3, 0.0, 0.0, 0.6]), np.eye(1, 1024, 777)[0],
                 skewed / skewed.sum()]
        for weights in cases:
            keys = np.flatnonzero(weights)
            probs = weights[keys] / weights[keys].sum()
            draws = np.random.default_rng(seed)
            expected = []
            for start in range(0, shots, qppl.state._CHUNK):
                size = min(qppl.state._CHUNK, shots - start)
                expected += keys[draws.choice(len(keys), size=size, p=probs)].tolist()
            assert list(qppl.state.sample(weights, seed, shots)) == expected

    @pytest.mark.parametrize("n_bits", [0, 1, 3, 12])
    def test_each_shot_is_its_draw_as_basis_label_writes_it(self, invoke, tmp_path, n_bits):
        # The lines are written from one format field per run, not by
        # basis_label; they must read as it does, a line a draw, in order.
        path = tmp_path / "coins.qppl"
        xs = [f"x{i}" for i in range(max(n_bits, 3))]
        path.write_text("def main():\n  new " + ", ".join(xs) + "\n"
                        + "".join(f"  qrand_bit({x})\n" for x in xs)
                        + "  return " + ", ".join(xs[:n_bits]) + "\n", encoding="utf-8")
        code, out, _ = invoke("run", str(path), "--shots", "5000", "--seed", "3")
        final = qppl.run(qppl.parse(path.read_text(encoding="utf-8")))
        assert code == 0
        assert out == "".join(qppl.basis_label(k, n_bits) + "\n"
                              for k in qppl.state.sample(final.weights(), 3, 5000))

    def test_classical_shots_are_the_draws_of_the_classical_run(self, invoke):
        code, out, _ = invoke("run", "classical_coins", "--mode", "classical",
                              "--shots", "200", "--seed", "4")
        final = qppl.run_classical(qppl.parse(qppl.bundled_programs()["classical_coins"]))
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 200 and set(lines) <= {"00", "11"}
        assert lines == [qppl.basis_label(k, final.env.n_bits)
                         for k in qppl.state.sample(final.weights(), 4, 200)]

    def test_shots_are_drawn_lazily(self):
        # All 10**15 draws at once would need petabytes.
        shots = qppl.state.sample(np.array([0.5, 0.5]), 0, 10**15)
        assert len(list(itertools.islice(shots, 10))) == 10

    @pytest.mark.parametrize("flags", [["--shots", "-1"], ["--shots", "3", "--seed", "-3"]])
    def test_negative_numbers_are_usage_errors(self, invoke, flags):
        code, out, err = invoke("run", "interference", *flags)
        assert code == 2
        assert out == ""
        assert "must be non-negative" in err and "Traceback" not in err

    def test_closed_stdout_ends_the_run_without_a_traceback(self):
        # A million shots overfill the pipe, so the run is still writing
        # when the reader goes away after two lines, as `| head -2` does.
        proc = subprocess.Popen(
            [sys.executable, "-m", "qppl.cli", "run", "measure_branching", "--shots", "1000000"],
            env=CHILD_ENV, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            lines = [proc.stdout.readline() for _ in range(2)]
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert all(line.strip() in ("0", "1") for line in lines)
        assert "Traceback" not in err and "Exception ignored" not in err
        assert proc.returncode == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("args", [
        ("run", "interference"), ("run", "interference", "--trace"), ("examples",),
    ])
    def test_unwritable_stdout_ends_the_run_with_one_error_line(self, args):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "qppl.cli", *args],
                                  env=CHILD_ENV, stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        (line,) = proc.stderr.splitlines()  # no traceback, no "Exception ignored"
        assert proc.returncode == 1 and line.startswith("error: cannot write output: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_unwritable_stdout_is_reported_when_the_run_exits_early(self, tmp_path):
        # The trace waits in a large buffer, as it does on a regular file on
        # a full disk, when the dump fails and ends the run with exit 1.
        dump = str(tmp_path / "missing" / "state.json")
        err = io.StringIO()
        with open("/dev/full", "w", buffering=1 << 20) as full:
            with redirect_stdout(full), redirect_stderr(err):
                code = cli.main(["run", "interference", "--trace", "--dump-state", dump])
        assert code == 1
        assert err.getvalue().splitlines() == [
            f"error: cannot write {dump}: No such file or directory",
            "error: cannot write output: No space left on device"]

    def test_point_distribution_sampling(self):
        for seed in (0, 1, 99):
            assert list(qppl.state.sample(np.array([1.0]), seed, 5)) == [0, 0, 0, 0, 0]

    @pytest.mark.parametrize("n_inputs", [0, 1, 3, 12])
    def test_zero_bit_outcomes_render_as_parens(self, invoke, tmp_path, n_inputs):
        # Every input is discarded, so each outcome is the one 0-bit world.
        path = tmp_path / "empty.qppl"
        xs = [f"x{i}" for i in range(n_inputs)]
        path.write_text(f"def main({', '.join(xs)}{' : bit' if xs else ''}):\n"
                        + "".join(f"  qrand_bit({x})\n" for x in xs) + "  return\n",
                        encoding="utf-8")
        code, out, _ = invoke("run", str(path), "--shots", "3", "--seed", "1")
        assert code == 0
        assert out == "()\n()\n()\n" == (qppl.basis_label(0, 0) + "\n") * 3


class TestTrace:
    def test_interference_rows(self, invoke):
        code, out, _ = invoke("run", "interference", "--trace", "--dist")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "def main(x, y : bit):"
        assert "  p=1: 0.707107|00⟩ + 0.707107|10⟩" in lines
        assert "  p=1: 0.707107|00⟩ + -0.707107|10⟩" in lines
        assert lines[-1] == "11: 1.000000"

    def test_classical_trace_shows_weights(self, invoke):
        code, out, _ = invoke("run", "classical_coins", "--mode", "classical", "--trace")
        assert code == 0
        assert "  0.5|00⟩ + 0.5|10⟩" in out.splitlines()
        assert "  0.5|00⟩ + 0.5|11⟩" in out.splitlines()

    def test_branch_weights_after_measurement(self, invoke):
        _, out, _ = invoke("run", "measure_branching", "--trace")
        assert "  p=0.5: 0.707107|0⟩ + 0.707107|1⟩" in out.splitlines()
        assert "  p=0.5: 0.707107|0⟩ + -0.707107|1⟩" in out.splitlines()

    def test_a_wide_branch_is_written_a_chunk_at_a_time(self):
        # One uniform branch of 16 bits (a 512 KiB block) prints a line of
        # about 2 million characters; joined whole, as a str with "⟩" in it,
        # it would take about 4 MiB.
        st_ = qppl.TwoLayerState(qppl.Environment(tuple(f"v{i}" for i in range(16))),
                                 np.full((1, 1 << 16), 2.0 ** -8), np.ones(1))
        with open(os.devnull, "w", encoding="utf-8") as sink:
            tracemalloc.start()
            try:
                qppl.state.write_trace("qrand_bit(v0)", st_, sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 << 20

    @pytest.mark.parametrize("vec", [[0.0] * 8, [0.0, 0.5, 0.0, 0.0, 0.25, -0.25, 0.0, 1.0],
                                     [0.0] * 7 + [1.0], [-1.0], [0.0, 1.0],
                                     np.eye(1, 4096, 2893)[0] - np.eye(1, 4096, 5)[0]])
    def test_kets_do_not_depend_on_the_chunking(self, monkeypatch, vec):
        # The label width comes from the vector's length: 1, 2, 8 or 4,096 worlds.
        vec = np.array(vec)
        n_bits = int(np.log2(len(vec)))
        whole = "  p=1: " + " + ".join(f"{vec[k]:.6g}|{qppl.basis_label(int(k), n_bits)}⟩"
                                       for k in np.flatnonzero(vec)) + "\n"
        for chunk in (1, 3, 8):
            monkeypatch.setattr(qppl.state, "_TEXT_CHUNK", chunk)
            out = io.StringIO()
            qppl.state.write_kets("  p=1: ", vec, out)
            assert out.getvalue() == whole


class TestOracle:
    def test_prints_small_deviation_for_whole_corpus(self, invoke, corpus):
        for name in corpus:
            if name == "classical_coins":
                continue
            code, out, _ = invoke("run", name, "--oracle")
            assert code == 0
            line = next(l for l in out.splitlines() if l.startswith("oracle deviation:"))
            assert float(line.split(":")[1]) <= 1e-10

    @pytest.mark.parametrize("flags", [[], ["--trace"]])
    def test_the_deviation_is_of_the_printed_run(self, invoke, monkeypatch, flags):
        # The oracle compares against the run whose trace and distribution
        # are printed; a second engine run could differ from it unseen.
        real, calls = qppl.engine.run, []
        monkeypatch.setattr(qppl.engine, "run",
                            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        code, out, _ = invoke("run", "interference", "--oracle", *flags)
        assert code == 0
        assert out.splitlines()[-1].startswith("oracle deviation: ")
        assert len(calls) == 1

    def test_rejected_in_classical_mode(self, invoke):
        code, _, err = invoke("run", "classical_coins", "--mode", "classical", "--oracle")
        assert code == 2
        assert "quantum" in err


class TestDumpState:
    def test_json_schema_round_trips(self, invoke, tmp_path):
        out_path = tmp_path / "state.json"
        code, _, _ = invoke("run", "measure_branching", "--dump-state", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["vars"] == ["x"]
        assert [round(b["p"], 6) for b in payload["branches"]] == [0.5, 0.5]
        restored = qppl.state_from_json(out_path.read_text(encoding="utf-8"))
        assert restored.env.names == ("x",)

    def test_classical_dump_round_trips(self, invoke, tmp_path):
        out_path = tmp_path / "state.json"
        code, _, _ = invoke("run", "classical_coins", "--mode", "classical",
                            "--dump-state", str(out_path))
        assert code == 0
        restored = qppl.state_from_json(out_path.read_text(encoding="utf-8"))
        final = qppl.run_classical(qppl.parse(qppl.bundled_programs()["classical_coins"]))
        assert isinstance(restored, qppl.ClassicalState)
        assert restored.env == final.env and np.array_equal(restored.probs, final.probs)

    def test_empty_path_is_an_error(self, invoke):
        code, out, err = invoke("run", "interference", "--dump-state", "")
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write : ")


class TestCheckAndErrors:
    def test_valid_program_exits_zero(self, invoke):
        code, out, err = invoke("check", "interference")
        assert (code, out, err) == (0, "", "")

    def test_invalid_program_exits_one_with_diagnostics(self, invoke, tmp_path):
        path = tmp_path / "bad.qppl"
        path.write_text("def main(x : bit):\n  x ^= x\n", encoding="utf-8")
        code, out, err = invoke("check", str(path))
        assert code == 1
        assert err.startswith(f"{path}:2:3: error[XOR_SELF_REFERENCE]")  # the path as typed
        assert out == ""

    def test_syntax_error_exits_one(self, invoke, tmp_path):
        path = tmp_path / "bad.qppl"
        path.write_text("def main(x : bit):\n\tqneg()\n", encoding="utf-8")
        code, _, err = invoke("check", str(path))
        assert code == 1
        assert err.startswith(f"{path}:2:1: error[SYNTAX]")  # the path as typed

    def test_byte_order_mark_is_not_part_of_the_source(self, invoke, tmp_path):
        path = tmp_path / "bom.qppl"
        path.write_bytes(b"\xef\xbb\xbf" + qppl.bundled_programs()["interference"].encode())
        assert invoke("check", str(path)) == (0, "", "")
        assert invoke("run", str(path)) == (0, "11: 1.000000\n", "")

    def test_quantum_file_fails_classical_check(self, invoke):
        code, _, err = invoke("check", "interference", "--mode", "classical")
        assert code == 1
        assert "QUANTUM_STATEMENT" in err

    def test_missing_file_exits_one(self, invoke):
        code, _, err = invoke("run", "no_such_program")
        assert code == 1
        assert "no such file" in err

    def test_capacity_error_exits_two(self, invoke, tmp_path):
        names = ", ".join(f"v{i}" for i in range(25))
        path = tmp_path / "big.qppl"
        path.write_text(f"def main():\n  new {names}\n", encoding="utf-8")
        code, _, err = invoke("run", str(path))
        assert code == 2
        assert "capacity" in err

    @pytest.mark.parametrize("rhs", ["not " * 5000 + "y", "(" * 3000 + "y" + ")" * 3000])
    def test_deep_nesting_is_a_syntax_error(self, invoke, tmp_path, rhs):
        path = tmp_path / "deep.qppl"
        path.write_text(f"def main(x, y : bit):\n  x ^= {rhs}\n", encoding="utf-8")
        for command in ("check", "run"):
            code, out, err = invoke(command, str(path))
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and ":2:" in err and "error[SYNTAX]" in err
            assert "nested deeper than" in err

    def test_split_over_the_memory_bound_exits_two(self, invoke, tmp_path):
        names = ", ".join(f"v{i}" for i in range(14))
        coins = "".join(f"  qrand_bit(v{i})\n" for i in range(14))
        path = tmp_path / "wide.qppl"
        path.write_text(f"def main():\n  new {names}\n{coins}  measure({names})\n{coins}",
                        encoding="utf-8")
        code, out, err = invoke("run", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: 16384 branches") and "MiB" in err

    def test_new_over_the_memory_bound_exits_two(self, invoke, tmp_path):
        # 256 measured branches of 8 bits, then 16 more bits: a 32 GiB block.
        names = ", ".join(f"x{i}" for i in range(8))
        coins = "".join(f"  qrand_bit(x{i})\n" for i in range(8))
        wide = ", ".join(f"y{i}" for i in range(16))
        path = tmp_path / "wide.qppl"
        path.write_text(f"def main():\n  new {names}\n{coins}  measure({names})\n"
                        f"  new {wide}\n", encoding="utf-8")
        code, out, err = invoke("run", str(path))
        assert code == 2 and out == ""
        assert "error: 256 branches of 16777216 amplitudes need 32768 MiB" in err

    def test_oracle_over_its_bit_cap_exits_two(self, invoke, tmp_path):
        names = ", ".join(f"v{i}" for i in range(12))
        path = tmp_path / "wide.qppl"
        path.write_text(f"def main({names} : bit):\n  qrand_bit(v0)\n", encoding="utf-8")
        code, out, err = invoke("run", str(path), "--oracle")
        assert code == 2 and out == ""
        assert err.startswith("error: density semantics supports at most 10 bits")

    def test_warnings_do_not_fail_the_run(self, invoke):
        code, out, err = invoke("run", "alloc_return", "--dist")
        assert code == 0
        assert out == "1: 1.000000\n"
        assert err.startswith("alloc_return.qppl:5:3: warning[UNUSED_VARIABLE]")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_a_diagnostic_that_stderr_cannot_take_is_dropped(self, tmp_path):
        # The warning is lost and the run goes on; an error still fails the run.
        bad = tmp_path / "bad.qppl"
        bad.write_text("def main(x : bit):\n  x ^= x\n", encoding="utf-8")
        for args, code, out in [(["run", "alloc_return"], 0, "1: 1.000000\n"),
                                (["check", "alloc_return"], 0, ""), (["run", str(bad)], 1, "")]:
            with open("/dev/full", "w") as full:
                proc = subprocess.run([sys.executable, "-m", "qppl.cli", *args], env=CHILD_ENV,
                                      stdout=subprocess.PIPE, stderr=full, text=True, timeout=60)
            assert (proc.returncode, proc.stdout) == (code, out), args

    @pytest.mark.parametrize("mode", ["quantum", "classical"])
    @pytest.mark.parametrize("reach", ["inputs", "new"])
    def test_check_and_run_agree_on_capacity(self, invoke, tmp_path, monkeypatch, mode, reach):
        # Both commands read the one limit, so a small one stands for it.
        monkeypatch.setattr(qppl.validator, "MAX_LIVE_BITS", 3)
        coin = "  x0 := rand_bit()\n" if mode == "classical" else "  qrand_bit(x0)\n"
        for n in (3, 4):
            names = ", ".join(f"x{i}" for i in range(n))
            head = f"def main({names} : bit):\n" if reach == "inputs" else \
                f"def main():\n  new {names}\n"
            path = tmp_path / f"bits{n}.qppl"
            path.write_text(head + coin, encoding="utf-8")
            code, _, err = invoke("check", str(path), "--mode", mode)
            assert (code, err) == invoke("run", str(path), "--mode", mode)[::2]
            if reach == "new" and mode == "classical":
                assert code == 1 and "error[QUANTUM_STATEMENT]: new" in err
            elif n == 3:
                assert (code, err) == (0, "")
            else:
                assert (code, err) == (2, "error: 4 live bits exceed the 3-bit capacity limit\n")

    def test_classical_capacity_error_exits_two(self, invoke, tmp_path):
        names = ", ".join(f"v{i}" for i in range(25))
        path = tmp_path / "big.qppl"
        path.write_text(f"def main({names} : bit):\n  v0 := rand_bit()\n", encoding="utf-8")
        code, out, err = invoke("run", str(path), "--mode", "classical")
        assert code == 2 and out == ""
        assert "capacity" in err

    @pytest.mark.parametrize("content", [b"\x80\x81 not text", None])
    def test_unreadable_source_exits_one(self, invoke, tmp_path, content):
        path = tmp_path / "prog.qppl"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code, out, err = invoke("run", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read") and "Traceback" not in err

    def test_unwritable_dump_exits_one(self, invoke, tmp_path):
        target = tmp_path / "missing" / "state.json"
        code, _, err = invoke("run", "interference", "--dump-state", str(target))
        assert code == 1
        assert err.startswith(f"error: cannot write {target}")


GOLDEN = Path(__file__).with_name("golden")


class TestGolden:
    # Recorded before the engine held a run's branches as one block, with
    # `qppl run NAME --trace --dump-state NAME.state.json > NAME.trace.txt`:
    # branch order, merging and every printed digit must stay the same.
    # classical_coins was recorded with `--mode classical` before the two
    # modes shared one run loop and one trace printer.
    @pytest.mark.parametrize("name", sorted(
        p.name.removesuffix(".trace.txt") for p in GOLDEN.glob("*.trace.txt")))
    def test_trace_and_dump_match_byte_for_byte(self, invoke, tmp_path, name):
        dump = tmp_path / "state.json"
        mode = "classical" if name == "classical_coins" else "quantum"
        code, out, _ = invoke("run", name, "--mode", mode, "--trace", "--dump-state", str(dump))
        assert code == 0
        assert out == (GOLDEN / f"{name}.trace.txt").read_text(encoding="utf-8")
        assert dump.read_bytes() == (GOLDEN / f"{name}.state.json").read_bytes()


class TestExamples:
    def test_lists_all_bundled_programs(self, invoke, corpus):
        code, out, _ = invoke("examples")
        assert code == 0
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == sorted(corpus)


class TestCliModule:
    def test_cli_imports_no_numpy_and_reads_no_private_name_of_qppl(self):
        # The text of a state is written by qppl.state; the front end only
        # parses arguments, loads, dispatches and picks exit codes.
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "numpy" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "numpy"
                assert all(not a.name.startswith("_") for a in node.names)
                if node.level and node.module is None:
                    modules |= {a.asname or a.name for a in node.names}
        assert {"engine", "state_mod", "syntax"} <= modules
        private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules and node.attr.startswith("_")]
        assert private == []


class TestImport:
    def test_import_qppl_leaves_cli_unloaded(self):
        code = "import sys, qppl; qppl.bundled_programs(); assert 'qppl.cli' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=CHILD_ENV, check=True, timeout=60)


CLI_TOKENS = [
    "def main(x, y : bit):\n", "def main():\n", "  ", "\n", "x", "y", "z", "new x\n",
    "new z\n", "qrand_bit(x)\n", "qrand_bit(y)\n", "qnegate()\n", "measure(x)\n",
    "measure(x, y)\n", "if x == y:\n", "if not y:\n", "x ^= y\n", "y ^= x and z\n",
    "x := rand_bit()\n", "y := x\n", "return x\n", "return\n", "return y, x\n", ":",
    "(", ")", "^", "\t",
]
cli_sources = st.one_of(
    st.integers(0, 10_000).map(lambda seed: qppl.unparse(random_program(seed)).encode()),
    st.integers(0, 10_000).map(
        lambda seed: qppl.unparse(random_classical_program(seed)).encode()),
    st.sampled_from(sorted(qppl.bundled_programs().values())).map(str.encode),
    st.lists(st.sampled_from(CLI_TOKENS), max_size=30).map(lambda t: "".join(t).encode()),
    st.text(max_size=120).map(str.encode),
    st.binary(max_size=60),
)
cli_flags = st.lists(st.one_of(
    st.sampled_from([["--trace"], ["--dist"], ["--oracle"], ["--mode", "classical"],
                     ["--mode", "quantum"], ["--mode", "bogus"], ["--bogus"]]),
    st.tuples(st.sampled_from(["--shots", "--seed"]), st.integers(-3, 40)).map(
        lambda t: [t[0], str(t[1])]),
    st.sampled_from([["--shots", "many"], ["--dump-state", "{tmp}/state.json"],
                     ["--dump-state", "{tmp}/missing/state.json"], ["--dump-state", "{tmp}"]]),
), max_size=4)


STREAMS = ["closed", "full", "pipe"]


class TestCliProperty:
    @given(source=cli_sources, command=st.sampled_from(["run", "check"]), flags=cli_flags,
           target=st.sampled_from(["file", "directory", "missing"]))
    @settings(max_examples=200, deadline=None)
    def test_any_input_exits_0_1_or_2_without_a_traceback(self, source, command, flags,
                                                          target):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prog.qppl"
            path.write_bytes(source)
            file_arg = {"file": str(path), "directory": tmp,
                        "missing": str(Path(tmp) / "absent.qppl")}[target]
            argv = [command, file_arg] + [f.format(tmp=tmp) for flag in flags for f in flag]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @given(source=cli_sources, command=st.sampled_from(["run", "check"]), flags=cli_flags,
           stdout=st.sampled_from(STREAMS), stderr=st.sampled_from(STREAMS))
    @settings(max_examples=30, deadline=None)
    def test_any_output_streams_exit_0_1_or_2_without_a_traceback(self, source, command, flags,
                                                                  stdout, stderr):
        # A child whose stdout and stderr are each closed, full or a pipe,
        # against the same run in process with both streams working.
        with tempfile.TemporaryDirectory() as tmp, open("/dev/full", "w") as full:
            path = Path(tmp) / "prog.qppl"
            path.write_bytes(source)
            argv = [command, str(path)] + [f.format(tmp=tmp) for flag in flags for f in flag]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            closed = [fd for fd, kind in ((1, stdout), (2, stderr)) if kind == "closed"]
            target = {"closed": subprocess.DEVNULL, "full": full, "pipe": subprocess.PIPE}
            proc = subprocess.run([sys.executable, "-m", "qppl.cli", *argv], env=CHILD_ENV,
                                  stdout=target[stdout], stderr=target[stderr], text=True,
                                  preexec_fn=lambda: [os.close(fd) for fd in closed], timeout=60)
        assert proc.returncode in (0, 1, 2), (argv, stdout, stderr, proc.stderr)
        if stderr == "pipe":
            assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        if stdout == "pipe":
            assert (proc.returncode, proc.stdout) == (code, out.getvalue()), (argv, stderr)
        else:  # output that stdout cannot take fails the run; a closed stdout takes it all
            failed = stdout == "full" and out.getvalue()
            assert proc.returncode == (1 if failed else code), (argv, stdout, stderr)
