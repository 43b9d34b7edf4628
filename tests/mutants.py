"""The mutant gate: every mutant of a fixed catalogue must fail tier-1.

A mutant is a one-site edit to ``src/qppl`` that changes what the program
does, given as a (file, old text, new text) triple (DeMillo, Lipton &
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978). For
each mutant this script copies ``src``, ``tests`` and ``pyproject.toml`` to
a temporary directory, applies the edit there, and runs the tier-1 suite
with ``-x``: the run must fail. It prints the test that killed each mutant,
and exits 1 if one survived or its old text no longer occurs exactly once.
The checkout itself is never written. pytest does not collect this file.

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (file under src/qppl, old text, new text). Each mutant changes
# behaviour; an edit that gives the same program (widening _mask by one
# axis builds the same table) is no mutant and stays out.
MUTANTS = {
    "coin-sign-row": (  # the coin's matrix [[1, 1], [-1, 1]]
        "engine.py", "[[1.0, 1.0], [1.0, -1.0 if signed else 1.0]]",
        "[[1.0, 1.0], [-1.0 if signed else 1.0, 1.0]]"),
    "coin-kron-order": (  # a fused group's kron factors low bit to high
        "engine.py", "for bit in reversed(range(lo, lo + bits)):", "for bit in range(lo, lo + bits):"),
    "coin-group-scale": (  # an even group of coins scales by one ½ too few
        "engine.py", "-(c // 2) * (1 if signed else 2)", "-((c - 1) // 2) * (1 if signed else 2)"),
    "exchange-copy": (  # a piece's half at 1 is written from the half at 0 already swapped
        "engine.py", "np.copyto(one, kept, where=where)", "np.copyto(one, zero, where=where)"),
    "exchange-after-mask": (  # the swap test reads the widened mask: low targets merge
        "engine.py", "swap, move = move.shape[pos] == 1, _mask(move)",
        "move = _mask(move)\n    swap = move.shape[pos] == 1"),
    "sign-table": (  # the sign table negates nothing
        "engine.py", "worlds *= _mask(np.where(table, -1.0, 1.0))",
        "worlds *= _mask(np.where(table, 1.0, 1.0))"),
    "negation-count": (  # an even number of negations negates too
        "engine.py", "len(stmt.body) % 2 == 1 and", "len(stmt.body) and"),
    "by-value-axes": (  # the other bits of the split's view in reverse order
        "engine.py", "[1 + i for i in range(env.n_bits) if i not in named]",
        "[1 + i for i in reversed(range(env.n_bits)) if i not in named]"),
    "heads-collision": (  # an outcome whose hash matches a head joins it unchecked
        "engine.py", "            head[i] = -1\n", "            head[i] = head[i]\n"),
    "oracle-einsum": (  # the partial trace keeps the column bits reversed
        "density.py", "[*kept, *(n + q for q in kept)]",
        "[*kept, *(n + q for q in reversed(kept))]"),
    "validator-dialect": (  # the dialect table is looked up by node, never found
        "validator.py", "self.foreign.get(type(s))", "self.foreign.get(s)"),
    "extend-embedding": (  # new bits are placed at the high-order end
        "engine.py", "amps[:, ::1 << len(new_names)] = state.amps",
        "amps[:, :state.amps.shape[1]] = state.amps"),
    "label-width": (  # labels one bit wider than the vector's worlds
        "state.py", "n_worlds.bit_length() - 1", "n_worlds.bit_length()"),
    "binary-precedence": (  # `or` binds tighter than `and`
        "syntax.py", 'Or: (1, "or"), And: (2, "and")', 'Or: (2, "or"), And: (1, "and")'),
    "environment-distinct": (  # repeated names pass
        "state.py", "if len(set(self.names)) != len(self.names):",
        "if len(set(self.names)) > len(self.names):"),
    "if-body-rule": (  # `new` parses inside an `if` body
        "syntax.py", 'head[1] in ("return", "measure", "new")', 'head[1] in ("return", "measure")'),
    "classical-return-axes": (  # the classical return sums over the kept bits
        "engine.py", "enumerate(env.names) if n not in kept)", "enumerate(env.names) if n in kept)"),
    "coin-product-cap": (  # products big enough for OpenBLAS to split across threads
        "engine.py", "_PRODUCT = 1 << 16", "_PRODUCT = 1 << 26"),
    # The planner: each run of affine statements becomes one sign pass.
    "affine-phase-constant": (  # a sign pass's phase loses its constant
        "engine.py", "n - half, phase & 1)", "n - half, 0)"),
    "affine-low-table": (  # the low half table is built from the high half's mask
        "engine.py", "_signs(mask & ((1 << half) - 1), half, 0)", "_signs(mask >> half, half, 0)"),
    "affine-identity": (  # no sign pass moves worlds, whether or not its run is the identity
        "engine.py", "moves = None if values == start else", "moves = None if True else"),
    "affine-destination-constant": (  # the destinations lose the forms' constants
        "engine.py", "_span(images[n // 2:], constant)", "_span(images[n // 2:], 0)"),
    "affine-bijection": (  # every affine write counts as a bijection
        "engine.py", "form >> n + 1 == (kind is Assign)", "True"),
    "fold-free-vars": (  # `if C: x := not x` folds also when C reads x
        "engine.py", " and inner.target not in free_vars(stmt.cond))", ")"),
    "plan-env-before-new": (  # a stretch after `new` is planned on the environment before it
        "engine.py", "env = env.extended(stmt.names)", "env.extended(stmt.names)"),
    "plan-coins-across-run": (  # coins join across a run of affine statements that cancels
        "engine.py", "kind is coin and not run and steps", "kind is coin and steps"),
    "step-first-chunk": (  # only a block's first chunk goes through a stretch's steps
        "engine.py", "for c in _chunks(*out.shape):", "for c in _chunks(*out.shape)[:1]:"),
}


def run_mutant(file: str, old: str, new: str) -> tuple[bool, str]:
    """Apply one mutant to a copy and run tier-1 with -x there: (killed,
    the test that failed first, or why the mutant counts as not killed)."""
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = Path(tmp, "src", "qppl", file)
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return False, f"old text occurs {text.count(old)} times in {file}"
        path.write_text(text.replace(old, new), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider"],
            cwd=tmp, env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True)
    # "FAILED <test id> - <reason>"; a parametrized id may hold spaces.
    failed = [line[len("FAILED "):].split(" - ")[0] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    if proc.returncode == 1 and failed:
        return True, failed[0]
    return False, f"pytest exited {proc.returncode}: " + (proc.stdout.strip().splitlines()
                                                         or ["no output"])[-1]


def main() -> int:
    survivors = []
    for name, mutant in MUTANTS.items():
        start = time.perf_counter()
        killed, what = run_mutant(*mutant)
        print(f"{name:22} {'killed by' if killed else 'NOT KILLED:'} {what} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
        if not killed:
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
