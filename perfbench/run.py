"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: qppl is imported from ``src/`` there,
and child processes get the same ``src/`` on ``PYTHONPATH``. Each workload
is a closed loop with one client: the next program starts when the
previous one has finished and its output has been checked. The loop runs
whole rounds (see ``workloads.py``) until the timed work reaches
``--seconds`` and, untraced, at least MIN_PROGRAMS programs have run.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` every program runs twice, untraced
and traced, and the result holds the per-layer metrics and the tracing
overhead. The spans go to ``perfbench/traces/``. Lines before the result
are for people.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = "import qppl; qppl.bundled_programs()"
# `qppl run` as its console script runs it, then its own memory peak on stderr.
# VmHWM, unlike ru_maxrss, leaves out the parent's memory the child is
# spawned from.
CLI_CODE = """import sys
from qppl.cli import main
try:
    sys.exit(main())
finally:
    with open("/proc/self/status") as f:
        print("#", next(l for l in f if l.startswith("VmHWM:")).strip(), file=sys.stderr)
"""
SETUP_REPEATS = 7
DIST_TOL = 1e-9       # analytic distributions vs output_distribution
ORACLE_TOL = 1e-10    # engine vs density semantics, as in the acceptance suite
WALL_LIMIT_S = 120    # start no round after this, so a run ends within 180 s
CHILD_TIMEOUT_S = 30  # a child process that takes longer has hung
CALIBRATE_EVERY_S = 0.5  # of timed work between two calibrations
CALIBRATION_WINDOW_S = 2.0  # a program is scaled by the calibrations this close
REFERENCE_S = 0.04       # calibration time that defines the reference speed
MIN_PROGRAMS = 100       # so that the 90th percentile has ten programs above it

LAYER_TIMES = ["syntax.parse", "validator.validate", "engine.run"]
LAYER_TIMES += [f"engine.{k}" for k in
                ("qrand", "xor", "if", "qneg", "measure", "new", "return")]
LAYER_TIMES += ["state.output_distribution", "state.to_density", "density.run_density",
                "classical.run_classical", "cli.process"]
INCLUSIVE = {"engine.run", "classical.run_classical"}  # their statements are child spans


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env, speed) -> float:
    """Median wall time of a fresh interpreter importing qppl, at reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       timeout=CHILD_TIMEOUT_S)
        end = time.perf_counter()
        speed.sample()
        times.append((end, end - t0))
    return statistics.median(dt * speed.at(t) for t, dt in times)


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter loop, numpy array work and
    churn of small objects, the three things qppl's time goes to.

    It runs no qppl code, so a change to qppl cannot move it: its time
    tracks only how fast the machine runs right now, which on a shared host
    swings by a quarter or more within a minute. See ``Speed``.
    """
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for j in range(200_000):
        total += j * j
    buf = np.ones(1 << 20)
    for _ in range(10):
        np.multiply(buf, 1.0001, out=buf)
        np.add(buf, 0.5, out=buf)
    small = [(float(i), np.zeros(2)) for i in range(20_000)]
    del small
    return time.perf_counter() - t0


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ---------------------------------------------------------------------------
# One program: the timed calls, then the check against the reference
# ---------------------------------------------------------------------------

def execute(case, tr, env):
    import qppl
    from workloads import CLASSICAL

    if case.argv:
        return tr.call("cli.process", subprocess.run, [sys.executable, "-c", CLI_CODE,
                       *case.argv], env=env, capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT_S)
    program = tr.call("syntax.parse", qppl.parse, case.source)
    out = {"program": program,
           "diags": tr.call("validator.validate", qppl.validate, program, case.mode)}
    if case.mode == CLASSICAL:
        final = tr.call("classical.run_classical", qppl.run_classical, program,
                        observer=tr.observer(program, "classical"))
        out["dist"] = final.distribution()
        return out
    final = tr.call("engine.run", qppl.run, program, observer=tr.observer(program, "engine"))
    out["dist"] = tr.call("state.output_distribution", qppl.output_distribution, final)
    if case.oracle:
        out["rho"] = tr.call("state.to_density", qppl.to_density, final)
        out["ref"] = tr.call("density.run_density", qppl.run_density, program)
    return out


def _dist_gap(dist: dict, ref: dict) -> float:
    return max(abs(dist.get(k, 0.0) - ref.get(k, 0.0)) for k in set(dist) | set(ref))


def check(case, out) -> tuple[str | None, float | None]:
    """(what is wrong or None, density gap or None) for one program's output."""
    import numpy as np
    import qppl

    if case.argv:
        return check_cli(case, out), None
    if qppl.has_errors(out["diags"]):
        return "validator reported errors", None
    if case.tree is not None and out["program"] != case.tree:
        return "parse tree differs from the generator's tree", None
    dist, gap = out["dist"], None
    if "rho" in out:
        gap = float(np.max(np.abs(out["rho"] - out["ref"])))
        if gap > ORACLE_TOL:
            return f"engine and density semantics differ by {gap:.3e}", gap
        diag = {k: float(p) for k, p in enumerate(np.diag(out["ref"]))}
        if _dist_gap(dist, diag) > ORACLE_TOL:
            return "output distribution differs from the density diagonal", gap
    if case.expected is not None and _dist_gap(dist, case.expected) > DIST_TOL:
        return "output distribution differs from the reference", gap
    return None, gap


def check_cli(case, proc) -> str | None:
    if proc.returncode != 0 or "Traceback" in proc.stderr:
        return f"exit {proc.returncode}, stderr {proc.stderr[-300:]!r}"
    lines = proc.stdout.splitlines()
    if case.support:
        shots = int(case.argv[case.argv.index("--shots") + 1])
        if len(lines) != shots or not set(lines) <= set(case.support):
            return f"expected {shots} samples from {case.support}, got {proc.stdout!r}"
        return None
    expected = case.source.splitlines()
    if len(lines) != len(expected):
        return f"expected {case.source!r}, got {proc.stdout!r}"
    prefix = "oracle deviation: "
    for got, want in zip(lines, expected):
        if want == prefix + "~":
            try:
                ok = got.startswith(prefix) and float(got[len(prefix):]) <= ORACLE_TOL
            except ValueError:
                ok = False
        else:
            ok = got == want
        if not ok:
            return f"expected {want!r}, got {got!r}"
    return None


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------

class Speed:
    """How fast the machine ran, from calibrations taken through the run.

    A program's time is scaled by REFERENCE_S over the mean of the
    calibrations within CALIBRATION_WINDOW_S of its end, so it reads as if
    the calibration had taken REFERENCE_S throughout.
    """

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.sample()

    def sample(self):
        gc.collect()
        self.durations.append(calibrate())
        self.times.append(time.perf_counter())

    def at(self, t: float) -> float:
        lo = bisect.bisect_left(self.times, t - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.times, t + CALIBRATION_WINDOW_S)
        near = self.durations[lo:hi] or [self.durations[min(lo, len(self.durations) - 1)]]
        return REFERENCE_S / statistics.fmean(near)

    def mean(self) -> float:
        return REFERENCE_S / statistics.fmean(self.durations)


class Tally:
    """Latencies and failures of one kind of execution (untraced or traced)."""

    def __init__(self):
        self.runs: list[tuple[float, float, bool]] = []  # (end, latency, ok)
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.lines = 0

    def completed(self) -> int:
        return self.attempted - self.failed

    def programs_per_s(self, speed: Speed) -> float:
        return self.completed() / sum(dt * speed.at(t) for t, dt, _ in self.runs)

    def latencies(self, speed: Speed) -> list[float]:
        return sorted(dt * speed.at(t) for t, dt, ok in self.runs if ok)


def run_one(case, tr, env, tally, state) -> None:
    gc.collect()  # garbage from the previous program is not this one's peak
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        out = tr.program(f"program:{case.family}", execute, case, tr, env)
        dt = time.perf_counter() - t0
        error, gap = check(case, out)
    except Exception:
        dt = time.perf_counter() - t0
        error, gap = traceback.format_exc(), None
    tally.busy += dt
    tally.runs.append((t0 + dt, dt, error is None))
    if case.argv and error is None:
        kb = int(out.stderr.rsplit("VmHWM:", 1)[1].split()[0])
        state["child_peak_kb"] = max(state.get("child_peak_kb", 0), kb)
    if gap is not None:
        state["max_gap"] = max(state["max_gap"], gap)
    if error is None:
        tally.lines += case.source.count("\n") if not case.argv else 0
        return
    tally.failed += 1
    if tally.failed <= 3:
        print(f"FAILED {case.family} {' '.join(case.argv)}: {error}\n{case.source}",
              file=sys.stderr)


def warm_up(workload, env):
    """Load every code path once, outside the timed loop, on the bundled corpus."""
    import qppl
    from spans import Untraced
    from workloads import CLASSICAL, QUANTUM, Case

    for name, source in qppl.bundled_programs().items():
        mode = CLASSICAL if name == "classical_coins" else QUANTUM
        execute(Case("warm-up", source, mode, oracle=mode == QUANTUM), Untraced(), env)
    if workload == "cli":
        execute(Case("warm-up", argv=("examples",)), Untraced(), env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qppl" / "__init__.py").is_file():
        return fail(f"no qppl sources at {SRC}; run from the root of a qppl checkout")

    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:  # before numpy loads; children inherit it
        os.environ[var] = threads
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    import qppl
    from spans import Tracer, Untraced
    from workloads import WORKLOADS, make_round

    if not Path(qppl.__file__).resolve().is_relative_to(SRC):
        return fail(f"qppl was imported from {qppl.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print("# env " + json.dumps({
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": int(threads),
        "nproc": os.cpu_count()}))

    env = child_env()
    cases = make_round(args.workload, args.seed)
    warm_up(args.workload, env)
    gc.collect()
    gc.freeze()  # keeps each collection between programs cheap

    traced = Tracer() if args.trace else None
    plain, plain_tally, traced_tally = Untraced(), Tally(), Tally()
    state = {"max_gap": 0.0}
    speed = Speed()
    start, rounds, next_calibration = time.perf_counter(), 0, CALIBRATE_EVERY_S
    while True:
        for i, case in enumerate(cases):
            runs = [(plain, plain_tally)]
            if traced:
                runs.insert(i % 2, (traced, traced_tally))
            for tr, tally in runs:
                run_one(case, tr, env, tally, state)
            busy = plain_tally.busy + traced_tally.busy
            if busy >= next_calibration:
                speed.sample()
                next_calibration = busy + CALIBRATE_EVERY_S
        rounds += 1
        enough = traced or plain_tally.attempted >= MIN_PROGRAMS
        if ((busy >= args.seconds and enough)
                or time.perf_counter() - start > WALL_LIMIT_S):
            break
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    tallies = [plain_tally] + ([traced_tally] if traced else [])
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    n = plain_tally.completed()
    print(f"# workload={args.workload} seed={args.seed} rounds={rounds} "
          f"round_size={len(cases)} programs={n} "
          f"failed_ratio={failed / attempted:.6g} ({failed}/{attempted})")
    if traced:
        metrics = layer_metrics(traced, traced_tally, plain_tally, state, speed, args)
    else:
        latencies = plain_tally.latencies(speed) or [float("nan")]
        rss_kb = state.get("child_peak_kb", self_rss)
        metrics = {"programs_per_s": (plain_tally.programs_per_s(speed), "1/s"),
                   "latency_p50_ms": (1e3 * percentile(latencies, 0.5), "ms"),
                   "latency_p90_ms": (1e3 * percentile(latencies, 0.9), "ms"),
                   "peak_rss_mb": (rss_kb / 1024, "MB"),
                   "setup_s": (measure_setup(env, speed), "s")}
        print(f"# latency percentiles over {n} programs")
    print(f"# calibration: {len(speed.durations)} samples, mean "
          f"{statistics.fmean(speed.durations):.6g} s; times are scaled to the "
          f"reference speed (by {speed.mean():.4g} on average)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def layer_metrics(tr, traced_tally, plain_tally, state, speed, args) -> dict:
    """Per-layer metrics of the traced executions; times at reference speed."""
    n = traced_tally.attempted
    scale = speed.mean()
    self_s, total_s = tr.self_times(), tr.totals()
    out = {}
    for name in LAYER_TIMES:
        seconds = (total_s if name in INCLUSIVE else self_s).get(name, 0.0)
        out[name + "_s"] = (seconds * scale / n, "s")
    parse_s = total_s.get("syntax.parse", 0.0) * scale
    out["syntax.parse_lines_per_s"] = (traced_tally.lines / parse_s if parse_s else 0.0,
                                       "lines/s")
    out["engine.truth_table_s"] = (tr.probe_s * scale / n, "s")
    out["engine.amp_updates"] = (tr.amp_updates / n, "count")
    out["engine.branches_peak"] = (tr.branches_peak, "count")
    out["engine.bytes_peak"] = (tr.bytes_peak, "bytes")
    out["engine.unique_branch_ratio"] = (tr.distinct / tr.branches if tr.branches else 0.0,
                                         "ratio")
    out["density.max_gap"] = (state["max_gap"], "abs")
    traced_pps = traced_tally.programs_per_s(speed)
    out["trace.programs_per_s"] = (traced_pps, "1/s")
    out["trace.overhead_programs_per_s"] = (traced_pps - plain_tally.programs_per_s(speed),
                                            "1/s")
    path = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    tr.write(path)
    print(f"# {len(tr.spans)} spans of {n} traced programs written to "
          f"{path.relative_to(ROOT)}")
    return out


if __name__ == "__main__":
    sys.exit(main())
