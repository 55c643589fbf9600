"""Repeat the benchmark to show how steady it is, and record a baseline.

    python3 perfbench/steadiness.py --out perfbench/results/steadiness.json
    python3 perfbench/steadiness.py --traced --out perfbench/results/layers.json

The first form runs every workload of BENCHMARK.json once per seed 1..10
(tracing off) and
reports, per end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json. It
does the same, with no bound, for the raw timings run.py prints (wall and
CPU time as measured, and the speed factor). The
second form makes two traced runs of seed 1 per workload, checks that every
count repeats exactly, and records the per-layer metrics. Runs are made one
after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
COUNT_SUFFIXES = (".calls", ".cells", ".unknowns", ".candidates",
                  ".distinct", ".distinct_mod_shift")


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    # human-readable lines: workload, name, value, unit, n=count
    result["raw"] = {f[1]: float(f[2]) for f in map(str.split, lines)
                     if f[1].startswith("raw.")}
    print(workload, seed, trace, json.dumps(result), flush=True)
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def steadiness(spec: dict, workloads: list[str]) -> dict:
    out = {}
    for w in workloads:
        results = [run_once(spec, w, seed, 0) for seed in range(1, RUNS + 1)]
        row = {"all_correct": all(r["correct"] for r in results)}
        for m in spec["end_to_end"]:
            s = spread([r["metrics"][m["name"]]["value"] for r in results])
            s.update(unit=m["unit"], bound=m["bound"],
                     within_third_of_bound=s["spread"] < m["bound"] / 3)
            row[m["name"]] = s
        for name in results[0]["raw"]:
            row[name] = spread([r["raw"][name] for r in results])
        out[w] = row
    return out


def traced(spec: dict, workloads: list[str]) -> dict:
    out = {}
    for w in workloads:
        a, b = (run_once(spec, w, 1, 1) for _ in range(2))
        counts_a = {k: v["value"] for k, v in a["metrics"].items()
                    if k.endswith(COUNT_SUFFIXES)}
        counts_b = {k: v["value"] for k, v in b["metrics"].items()
                    if k.endswith(COUNT_SUFFIXES)}
        out[w] = {"counts_repeat": counts_a == counts_b,
                  "correct": a["correct"] and b["correct"],
                  "metrics": {k: v["value"] for k, v in a["metrics"].items()}}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    data = traced(spec, names) if args.traced else steadiness(spec, names)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
