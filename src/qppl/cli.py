"""Command-line front end.

Subcommands:
    run FILE        execute a program and print its output distribution,
                    samples, trace, state dump, or cross-check deviation
    check FILE      validate only; exit 0 if clean, 1 otherwise
    examples        list the bundled example programs

FILE may be a path or the name of a bundled example. Exit codes: 0 on
success; 1 on syntax or validation errors (diagnostics go to stderr), on
files that cannot be read or written, and when stdout is closed before
all output is written; 2 on capacity errors and usage errors. Output for
a fixed (file, flags, seed) is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import density, engine, state as state_mod, syntax, validator


def _nonzero(vec: np.ndarray) -> Iterator[list[int]]:
    """The ascending indices of a vector's nonzero entries, a list per text chunk."""
    for start in range(0, len(vec), state_mod._TEXT_CHUNK):
        yield (np.flatnonzero(vec[start:start + state_mod._TEXT_CHUNK]) + start).tolist()


def _write_kets(prefix: str, vec: np.ndarray, n_bits: int, out):
    """Write the prefix and the nonzero entries of a world vector as kets, one line."""
    ket = "{1:.6g}|" + state_mod._label_field(n_bits) + "⟩"
    kets = (" + ".join(map(ket.format, ks, vec[ks].tolist())) for ks in _nonzero(vec) if ks)
    out.write(prefix + next(kets, ""))
    for text in kets:
        out.write(" + " + text)
    out.write("\n")


def _print_trace(label: str, st: state_mod.TwoLayerState | state_mod.ClassicalState, out):
    """The statement's text, then a line of kets per branch, or of weights if classical."""
    if label:
        print(label, file=out)
    if isinstance(st, state_mod.ClassicalState):
        _write_kets("  ", st.probs, st.env.n_bits, out)
    else:
        for p, amps in zip(st.probs.tolist(), st.amps):
            _write_kets(f"  p={p:.6g}: ", amps, st.env.n_bits, out)


def _print_distribution(weights: np.ndarray, n_bits: int, out):
    """Write a line per nonzero world, its label and weight, a text chunk at a time."""
    line = state_mod._label_field(n_bits) + ": {1:.6f}\n"
    for ks in _nonzero(weights):
        out.write("".join(map(line.format, ks, weights[ks].tolist())))


def sample(weights: np.ndarray, seed: int, shots: int) -> Iterator[int]:
    """Yield shots i.i.d. worlds drawn from a weight vector: Generator.choice's
    draws, its cumulative sum built once, one uniform number a draw."""
    keys = np.flatnonzero(weights)
    cdf = weights[keys]
    cdf /= cdf.sum()
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    for start in range(0, shots, state_mod._CHUNK):
        size = min(state_mod._CHUNK, shots - start)
        yield from keys[cdf.searchsorted(rng.random(size), side="right")].tolist()


def _resolve_source(file_arg: str) -> tuple[str, str]:
    path = Path(file_arg)
    if path.exists():
        try:
            return path.name, path.read_text(encoding="utf-8-sig")  # drops a byte-order mark
        except (OSError, UnicodeDecodeError) as exc:
            raise OSError(f"cannot read {file_arg}: {exc}") from None
    bundled = syntax.bundled_programs()
    name = file_arg.removesuffix(".qppl")
    if name in bundled:
        return name + ".qppl", bundled[name]
    raise FileNotFoundError(f"no such file or bundled example: {file_arg}")


def _load_program(file_arg: str, mode: str):
    """Parse and validate; returns (filename, program) or exits with code 1."""
    try:
        filename, source = _resolve_source(file_arg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    try:
        program = syntax.parse(source)
    except syntax.ParseError as exc:
        print(f"{file_arg}:{exc.line}:{exc.col}: error[SYNTAX]: {exc.message}",
              file=sys.stderr)
        raise SystemExit(1)
    diags = validator.validate(program, mode)
    for d in diags:
        print(d.render(filename), file=sys.stderr)
    if validator.has_errors(diags):
        raise SystemExit(1)
    return filename, program


def _dump(path: str, final):
    """Write the --dump-state file, a chunk at a time, or exit with code 1
    if it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as out:
            state_mod.state_to_json(final, out)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_run(args) -> int:
    _, program = _load_program(args.file, args.mode)
    run = engine.run if args.mode == validator.QUANTUM else engine.run_classical
    observer = None
    if args.trace:
        print(syntax.unparse(program).splitlines()[0])
        observer = lambda label, st: _print_trace(label, st, sys.stdout)
    try:
        final = run(program, observer=observer)
        if args.dump_state:
            _dump(args.dump_state, final)
        if args.oracle:
            print(f"oracle deviation: {density.check_equivalence(program):.3e}")
    except state_mod.CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    weights, n_bits = final.weights(), final.env.n_bits
    if args.shots is not None:  # one write a line, not print's several
        label = state_mod._label_field(n_bits) + "\n"
        sys.stdout.writelines(map(label.format, sample(weights, args.seed, args.shots)))
    elif args.dist or not (args.trace or args.dump_state or args.oracle):
        _print_distribution(weights, n_bits, sys.stdout)
    return 0


def _cmd_check(args) -> int:
    _load_program(args.file, args.mode)
    return 0


def _cmd_examples(_args) -> int:
    for name, source in syntax.bundled_programs().items():
        first = source.splitlines()[0].lstrip("# ").strip() if source else ""
        print(f"{name:24} {first}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qppl", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    program = argparse.ArgumentParser(add_help=False)  # what run and check both take
    program.add_argument("file", help="path to a .qppl file or a bundled example name")
    program.add_argument("--mode", choices=[validator.QUANTUM, validator.CLASSICAL],
                         default=validator.QUANTUM)
    run_p = sub.add_parser("run", parents=[program], help="execute a program")
    run_p.add_argument("--trace", action="store_true",
                       help="print the state after every statement")
    run_p.add_argument("--dist", action="store_true",
                       help="print the exact output distribution (default)")
    run_p.add_argument("--dump-state", metavar="OUT.json",
                       help="write the final state as JSON")
    run_p.add_argument("--oracle", action="store_true",
                       help="also run the density-matrix semantics and print the deviation")
    run_p.add_argument("--shots", type=int, metavar="N",
                       help="print N sampled outcomes instead of the distribution")
    run_p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    run_p.set_defaults(func=_cmd_run)

    check_p = sub.add_parser("check", parents=[program],
                             help="validate a program without running it")
    check_p.set_defaults(func=_cmd_check)

    ex_p = sub.add_parser("examples", help="list bundled example programs")
    ex_p.set_defaults(func=_cmd_examples)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "oracle", False) and args.mode != validator.QUANTUM:
        parser.error("--oracle requires quantum mode")
    for flag in ("shots", "seed"):
        if (getattr(args, flag, None) or 0) < 0:
            parser.error(f"--{flag} must be non-negative")
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `head` does. Point stdout at
        # devnull so the flush at exit meets no closed pipe either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
