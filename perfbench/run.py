"""Benchmark entry point: time one grquiver workload end to end, or trace it
layer by layer.

    python3 perfbench/run.py --workload tau_orbit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every pass is a fresh process (worker.py), so the library's caches start
cold as they do for a `grq` user, and passes never overlap. With --trace 0
the run first spawns a few set-up-only processes, then runs passes while
another pass is expected to end within --seconds (always at least one), and
reports the end-to-end metrics. Each timing is first taken per pass, at the
reference speed (speed.py), and the run reports its median over the
passes, so a run with one pass and a run with two report the same
statistic. Task percentiles use the Harrell-Davis estimator. With --trace 1 it runs untraced, traced, traced and untraced
passes of the same seed and reports the per-layer metrics of the last
traced pass. Human-readable lines come first, including raw timings that
have no bound; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SPAWNS = 7
RUN_LIMIT_S = 170  # a run, all of its passes included, must end by then


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's method
    on its continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):  # the fraction converges fast below this
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    f, c, d = 1.0, 1.0, 0.0
    for i in range(300):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > 1e-30 else 1e-30)
        c = 1.0 + num / c
        c = c if abs(c) > 1e-30 else 1e-30
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)


def hd_quantile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics, weighted by a beta distribution centred on rank q(n+1).
    A pass's tasks spread over three orders of magnitude, so the sample
    median jumps between neighbouring tasks whose times lie far apart;
    this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


@dataclass
class Pass:
    setup_s: float | None = None  # raw
    setup_factor: float = 1.0
    n_tasks: int | None = None
    tasks: list[dict] = field(default_factory=list)
    wall_s: float | None = None  # raw, probes included
    net_s: float | None = None  # probes left out
    cpu_s: float | None = None
    factor: float = 1.0  # reference speed / observed speed
    peak_rss_mb: float | None = None
    layers: dict = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def complete(self) -> bool:
        return self.wall_s is not None

    @property
    def ref_s(self) -> float:
        """Time for all tasks at the reference speed; for a pass that
        did not finish, the time it ran."""
        return self.net_s * self.factor if self.complete else self.duration_s

    def task_ms(self) -> list[float]:
        """Task latencies at the reference speed."""
        return [t["net_ms"] * self.factor for t in self.tasks]

    @property
    def attempted(self) -> int:
        return self.n_tasks if self.n_tasks is not None else 1

    @property
    def failed(self) -> int:
        return self.attempted - sum(1 for t in self.tasks if t["ok"])


def spawn(workload: str, seed: int, timeout: float, *, trace: bool = False,
          setup_only: bool = False, spans: Path | None = None) -> Pass:
    """Run worker.py once and collect its JSON lines; a pass that crashes or
    overruns keeps what it reported before."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--t-spawn", repr(t_spawn),
           "--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        print(f"{workload}: pass killed after {timeout:.0f} s",
              file=sys.stderr)
    p = Pass(duration_s=time.monotonic() - t_spawn)
    for line in out.splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "setup_s" in rec:
            p.setup_s, p.n_tasks = rec["setup_s"], rec["tasks"]
            p.setup_factor = rec["setup_factor"]
        elif "task" in rec:
            p.tasks.append(rec)
            if not rec["ok"]:
                print(f"{workload}: task {rec['task']} failed: "
                      f"{rec['error']}", file=sys.stderr)
        elif "wall_s" in rec and proc.returncode == 0:
            p.wall_s, p.net_s = rec["wall_s"], rec["net_s"]
            p.cpu_s, p.factor = rec["cpu_s"], rec["factor"]
            p.peak_rss_mb = rec["peak_rss_mb"]
            p.layers = rec["layers"]
    return p


def end_to_end(workload: str, seed: int, seconds: float):
    start = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    setups = [spawn(workload, seed, left(), setup_only=True)
              for _ in range(SETUP_SPAWNS)]
    passes: list[Pass] = []
    while True:
        p = spawn(workload, seed, left())
        passes.append(p)
        elapsed = time.monotonic() - start
        if (not p.complete or elapsed + p.duration_s > seconds
                or p.duration_s > left() - 5):
            break
    setups = [p for p in setups + passes if p.setup_s is not None]
    timed = [p.task_ms() for p in passes if p.tasks]
    done = [p for p in passes if p.complete]
    rss = [p.peak_rss_mb for p in done]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    def median(values):
        return statistics.median(values) if values else 0.0

    metrics = {
        "wall_s": (median([p.ref_s for p in passes]), "s", len(passes)),
        "task_p50_ms": (median([hd_quantile(ms, 0.5) for ms in timed]),
                        "ms", len(timed)),
        "task_p90_ms": (median([hd_quantile(ms, 0.9) for ms in timed]),
                        "ms", len(timed)),
        "setup_s": (median([p.setup_s * p.setup_factor for p in setups]),
                    "s", len(setups)),
        "peak_rss_mb": (max(rss) if rss else 0.0, "MB", len(rss)),
        "tasks_ok_frac": (1 - failed / attempted, "ratio", attempted),
    }
    raw = {  # printed for comparison, not bounded
        "raw.wall_s": (median([p.wall_s for p in done]), "s", len(done)),
        "raw.setup_s": (median([p.setup_s for p in setups]), "s",
                        len(setups)),
        "raw.cpu_s": (median([p.cpu_s for p in done]), "s", len(done)),
        "raw.speed_factor": (median([p.factor for p in done]), "ratio",
                             len(done)),
    }
    return metrics, attempted, failed, raw


def per_layer(workload: str, seed: int):
    start = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-seed{seed}.npz"
    # untraced, traced, traced, untraced: a steady drift in machine speed
    # cancels out of the overhead
    passes = [spawn(workload, seed, left(), trace=trace,
                    spans=spans if trace else None)
              for trace in (False, True, True, False)]
    plain, traced = passes[0::3], passes[1:3]  # plain: probes left out
    layers = traced[-1].layers
    if not layers:  # the traced pass did not finish: report empty counters
        layers = Tracer().metrics()
    metrics = {k: (v, unit, 1) for k, (v, unit) in layers.items()}
    overhead = 0.0
    if all(p.complete for p in passes):
        overhead = (sum(p.wall_s for p in traced)
                    / sum(p.net_s for p in plain) - 1)
    metrics["trace.overhead_frac"] = (overhead, "ratio", 2)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return metrics, attempted, failed, {}


def report(workload: str, metrics, attempted: int, failed: int,
           raw: dict) -> str:
    for name, (value, unit, n) in {**metrics, **raw}.items():
        print(f"{workload:12s} {name:48s} {value:14.6g} {unit:6s} n={n}")
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _n) in metrics.items()}})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "grquiver" / "__init__.py").is_file():
        print(f"no grquiver sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        if args.trace:
            result = per_layer(name, args.seed)
        else:
            result = end_to_end(name, args.seed, args.seconds)
        lines.append(report(name, *result))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
