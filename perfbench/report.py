"""Run the benchmark over several workloads and seeds and summarise it.

    python3 perfbench/report.py --seeds 1-10                 # end-to-end, all workloads
    python3 perfbench/report.py --workloads sweep --seeds 3,3 --trace 1

For each workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json. Traced
runs that share a seed must repeat the engine counters exactly; the report
says whether they do. Every result line is also appended to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTERS = ("engine.amp_updates", "engine.branches_peak", "engine.bytes_peak",
            "engine.unique_branch_ratio")


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    ok = True
    for workload in args.workloads.split(","):
        values, counters, walls = defaultdict(list), defaultdict(set), []
        attempted = failed = 0
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            if args.out:
                with args.out.open("a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "trace": args.trace, **result}) + "\n")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            for name in COUNTERS if args.trace else ():
                counters[(seed, name)].add(result["metrics"][name]["value"])
        print(f"\n{workload}: {len(args.seeds)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'failed_ratio':34} {failed / attempted:.6g} ratio ({failed} of {attempted})")
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, 0, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = "" if bound is None else (" ok" if spread < bound / 3 else " WIDE")
            print(f"  {m['name']:34} median {med:<12.6g} {m['unit']:8} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.2%}" + ("" if bound is None else f"  bound {bound:.0%}")
                  + flag)
        repeated = [k for k, v in counters.items() if len(v) > 1]
        if counters:
            print("  counters repeat exactly across runs of one seed:", not repeated)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
