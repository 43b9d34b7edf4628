import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qppl
from qppl import cli
from qppl.randprog import random_classical_program, random_program


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
        assert list(cli.sample({0: 0.5, 1: 0.5}, 123, 10)) == [1, 0, 0, 0, 0, 1, 1, 0, 1, 1]

    def test_draws_do_not_depend_on_the_chunking(self, monkeypatch):
        dist = {0: 0.1, 2: 0.3, 5: 0.6}
        rng = np.random.default_rng(8)
        expected = [(0, 2, 5)[i] for i in rng.choice(3, size=50, p=[0.1, 0.3, 0.6])]
        monkeypatch.setattr(cli, "SAMPLE_CHUNK", 7)
        assert list(cli.sample(dist, 8, 50)) == expected

    def test_shots_are_drawn_lazily(self):
        # All 10**15 draws at once would need petabytes.
        assert len(list(itertools.islice(cli.sample({0: 0.5, 1: 0.5}, 0, 10**15), 10))) == 10

    @pytest.mark.parametrize("flags", [["--shots", "-1"], ["--shots", "3", "--seed", "-3"]])
    def test_negative_numbers_are_usage_errors(self, invoke, flags):
        code, out, err = invoke("run", "interference", *flags)
        assert code == 2
        assert out == ""
        assert "must be non-negative" in err and "Traceback" not in err

    def test_closed_stdout_ends_the_run_without_a_traceback(self):
        # A million shots overfill the pipe, so the run is still writing
        # when the reader goes away after two lines, as `| head -2` does.
        src = str(Path(qppl.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "qppl.cli", "run", "measure_branching", "--shots", "1000000"],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
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

    def test_point_distribution_sampling(self):
        for seed in (0, 1, 99):
            assert list(cli.sample({0: 1.0}, seed, 5)) == [0, 0, 0, 0, 0]

    def test_zero_bit_outcomes_render_as_parens(self, invoke, tmp_path):
        path = tmp_path / "empty.qppl"
        path.write_text("def main(x : bit):\n  qrand_bit(x)\n  return\n", encoding="utf-8")
        code, out, _ = invoke("run", str(path), "--shots", "3", "--seed", "1")
        assert code == 0
        assert out == "()\n()\n()\n"


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


class TestOracle:
    def test_prints_small_deviation_for_whole_corpus(self, invoke, corpus):
        for name in corpus:
            if name == "classical_coins":
                continue
            code, out, _ = invoke("run", name, "--oracle")
            assert code == 0
            line = next(l for l in out.splitlines() if l.startswith("oracle deviation:"))
            assert float(line.split(":")[1]) <= 1e-10

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


class TestCheckAndErrors:
    def test_valid_program_exits_zero(self, invoke):
        code, out, err = invoke("check", "interference")
        assert (code, out, err) == (0, "", "")

    def test_invalid_program_exits_one_with_diagnostics(self, invoke, tmp_path):
        path = tmp_path / "bad.qppl"
        path.write_text("def main(x : bit):\n  x ^= x\n", encoding="utf-8")
        code, out, err = invoke("check", str(path))
        assert code == 1
        assert "error[XOR_SELF_REFERENCE]" in err
        assert out == ""

    def test_syntax_error_exits_one(self, invoke, tmp_path):
        path = tmp_path / "bad.qppl"
        path.write_text("def main(x : bit):\n\tqneg()\n", encoding="utf-8")
        code, _, err = invoke("check", str(path))
        assert code == 1
        assert "error[SYNTAX]" in err and "2:" in err

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
        assert "warning[UNUSED_VARIABLE]" in err


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
    @pytest.mark.parametrize("name", sorted(
        p.name.removesuffix(".trace.txt") for p in GOLDEN.glob("*.trace.txt")))
    def test_trace_and_dump_match_byte_for_byte(self, invoke, tmp_path, name):
        dump = tmp_path / "state.json"
        code, out, _ = invoke("run", name, "--trace", "--dump-state", str(dump))
        assert code == 0
        assert out == (GOLDEN / f"{name}.trace.txt").read_text(encoding="utf-8")
        assert dump.read_bytes() == (GOLDEN / f"{name}.state.json").read_bytes()


class TestExamples:
    def test_lists_all_bundled_programs(self, invoke, corpus):
        code, out, _ = invoke("examples")
        assert code == 0
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == sorted(corpus)


class TestImport:
    def test_import_qppl_leaves_cli_unloaded(self):
        src = str(Path(qppl.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, qppl; qppl.bundled_programs(); assert 'qppl.cli' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


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
