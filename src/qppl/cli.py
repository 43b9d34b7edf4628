"""Command-line front end: arguments, loading, exit codes and dispatch.

Subcommands:
    run FILE        execute a program and print its output distribution,
                    samples, trace, state dump, or cross-check deviation
    check FILE      validate only; exit 0 if clean, 1 on errors, 2 if the
                    program makes more bits live than a run holds
    examples        list the bundled example programs

FILE may be a path or the name of a bundled example. Exit codes: 0 on
success; 1 on syntax or validation errors (diagnostics go to stderr), on
files that cannot be read or written, and when stdout fails or is closed
before all output is written; 2 on capacity errors and usage errors.
A diagnostic that stderr cannot take is dropped, and the exit code stays
what it would be. Output for a fixed (file, flags, seed) is byte-identical
across runs; ``state`` writes the text of every state in it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import density, engine, state as state_mod, syntax, validator


def _report(line: str):
    """Print a line to stderr, or drop it if stderr cannot take it."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _resolve_source(file_arg: str) -> tuple[str, str]:
    path = Path(file_arg)
    if path.exists():
        try:
            return file_arg, path.read_text(encoding="utf-8-sig")  # drops a byte-order mark
        except (OSError, UnicodeDecodeError) as exc:
            raise OSError(f"cannot read {file_arg}: {exc}") from None
    bundled = syntax.bundled_programs()
    name = file_arg.removesuffix(".qppl")
    if name in bundled:
        return name + ".qppl", bundled[name]
    raise FileNotFoundError(f"no such file or bundled example: {file_arg}")


def _load_program(file_arg: str, mode: str):
    """Parse and validate; returns the program, or exits with code 1 on
    errors and with code 2, as a run refuses it, on a capacity error alone."""
    try:
        filename, source = _resolve_source(file_arg)
    except OSError as exc:
        _report(f"error: {exc}")
        raise SystemExit(1)
    try:
        program = syntax.parse(source)
        diags = validator.validate(program, mode)
    except syntax.ParseError as exc:
        diags = [validator.Diagnostic("error", "SYNTAX", exc.message, exc.line, exc.col)]
    capacity = [d for d in diags if d.code == "CAPACITY"]
    diags = [d for d in diags if d.code != "CAPACITY"]
    for d in diags:
        _report(d.render(filename))
    if validator.has_errors(diags):
        raise SystemExit(1)
    if capacity:
        _report(f"error: {capacity[0].message}")
        raise SystemExit(2)
    return program


def _dump(path: str, final):
    """Write the --dump-state file, or exit with code 1 if it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as out:
            state_mod.state_to_json(final, out)
    except OSError as exc:
        _report(f"error: cannot write {path}: {exc.strerror or exc}")
        raise SystemExit(1)


def _cmd_run(args) -> int:
    program = _load_program(args.file, args.mode)
    run = engine.run if args.mode == validator.QUANTUM else engine.run_classical
    observer = None
    if args.trace:
        print(syntax.unparse(program).splitlines()[0])
        observer = lambda label, st: state_mod.write_trace(label, st, sys.stdout)
    try:
        final = run(program, observer=observer)
        if args.dump_state is not None:
            _dump(args.dump_state, final)
        if args.oracle:
            print(f"oracle deviation: {density.check_equivalence(program, final):.3e}")
    except state_mod.CapacityError as exc:
        _report(f"error: {exc}")
        return 2
    if args.shots is not None:
        state_mod.write_shots(final.weights(), args.seed, args.shots, sys.stdout)
    elif args.dist or not (args.trace or args.dump_state is not None or args.oracle):
        state_mod.write_distribution(final.weights(), sys.stdout)
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

    sub.add_parser("check", parents=[program],
                   help="validate a program without running it").set_defaults(func=_cmd_check)
    sub.add_parser("examples",
                   help="list bundled example programs").set_defaults(func=_cmd_examples)
    return parser


def main(argv: list[str] | None = None) -> int:
    # A standard stream closed at start is None: its text goes nowhere, as print's does.
    sys.stdout = sys.stdout or open(os.devnull, "w")
    sys.stderr = sys.stderr or open(os.devnull, "w")
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "oracle", False) and args.mode != validator.QUANTUM:
        parser.error("--oracle requires quantum mode")
    for flag in ("shots", "seed"):
        if (getattr(args, flag, None) or 0) < 0:
            parser.error(f"--{flag} must be non-negative")
    try:
        try:
            code = args.func(args)
        finally:  # a command that exits early leaves its text to flush too
            sys.stdout.flush()
    except OSError as exc:
        # Source and dump files and stderr report their own errors, so a
        # write to stdout failed here: the reader closed the pipe early, as
        # `head` does, or the device is full. Point stdout at devnull so the
        # flush at exit meets no failing stream either.
        if not isinstance(exc, BrokenPipeError):
            _report(f"error: cannot write output: {exc.strerror or exc}")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
