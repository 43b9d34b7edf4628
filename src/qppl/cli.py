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
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import classical, density, engine, state as state_mod, syntax, validator


def _kets(vec: np.ndarray, n_bits: int) -> str:
    """Nonzero entries of a world vector (amplitudes or probabilities) as kets."""
    return " + ".join(f"{vec[k]:.6g}|{state_mod.basis_label(int(k), n_bits)}⟩"
                      for k in np.flatnonzero(vec))


def _print_quantum_trace(label: str, st: state_mod.TwoLayerState, out):
    if label:
        print(label, file=out)
    for p, amps in zip(st.probs.tolist(), st.amps):
        print(f"  p={p:.6g}: " + _kets(amps, st.env.n_bits), file=out)


def _print_classical_trace(label: str, st: classical.ClassicalState, out):
    if label:
        print(label, file=out)
    print("  " + _kets(st.probs, st.env.n_bits), file=out)


# Most draws one call to the generator makes; each draw reads one uniform
# number, so the draws for a seed do not depend on how they are chunked.
SAMPLE_CHUNK = 1 << 16


def sample(dist: dict[int, float], seed: int, shots: int) -> Iterator[int]:
    """Yield shots i.i.d. outcomes from a distribution, deterministically."""
    keys = sorted(dist)
    probs = np.array([dist[k] for k in keys], dtype=float)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    for start in range(0, shots, SAMPLE_CHUNK):
        for i in rng.choice(len(keys), size=min(SAMPLE_CHUNK, shots - start), p=probs).tolist():
            yield keys[i]


def _print_distribution(dist: dict[int, float], n_bits: int, out):
    for k in sorted(dist):
        print(f"{state_mod.basis_label(k, n_bits)}: {dist[k]:.6f}", file=out)


def _resolve_source(file_arg: str) -> tuple[str, str]:
    path = Path(file_arg)
    if path.exists():
        try:
            return path.name, path.read_text(encoding="utf-8")
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


def _dump(path: str, text: str):
    """Write the --dump-state file, or exit with code 1 if it cannot be written."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_run(args) -> int:
    _, program = _load_program(args.file, args.mode)
    observer = None
    if args.trace:
        if args.mode == validator.QUANTUM:
            observer = lambda label, st: _print_quantum_trace(label, st, sys.stdout)
        else:
            observer = lambda label, st: _print_classical_trace(label, st, sys.stdout)
        header = syntax.unparse(program).splitlines()[0]
        print(header)

    try:
        if args.mode == validator.QUANTUM:
            final = engine.run(program, observer=observer)
            dist = state_mod.output_distribution(final)
            n_bits = final.env.n_bits
            if args.dump_state:
                _dump(args.dump_state, state_mod.state_to_json(final))
            if args.oracle:
                deviation = density.check_equivalence(program)
                print(f"oracle deviation: {deviation:.3e}")
        else:
            final = classical.run_classical(program, observer=observer)
            dist = final.distribution()
            n_bits = final.env.n_bits
            if args.dump_state:
                payload = {"vars": list(final.env.names),
                           "probs": [float(x) for x in final.probs]}
                _dump(args.dump_state, json.dumps(payload, indent=2))
    except state_mod.CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.shots is not None:
        for outcome in sample(dist, args.seed, args.shots):
            print(state_mod.basis_label(outcome, n_bits))
    elif args.dist or not (args.trace or args.dump_state or args.oracle):
        _print_distribution(dist, n_bits, sys.stdout)
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

    run_p = sub.add_parser("run", help="execute a program")
    run_p.add_argument("file", help="path to a .qppl file or a bundled example name")
    run_p.add_argument("--mode", choices=[validator.QUANTUM, validator.CLASSICAL],
                       default=validator.QUANTUM)
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

    check_p = sub.add_parser("check", help="validate a program without running it")
    check_p.add_argument("file")
    check_p.add_argument("--mode", choices=[validator.QUANTUM, validator.CLASSICAL],
                         default=validator.QUANTUM)
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
