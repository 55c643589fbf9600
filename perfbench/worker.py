"""One benchmark pass in a fresh process.

It imports grquiver from the checkout's src/, generates the workload's
inputs, then runs the tasks one after another with a single client
(closed loop) and checks every output. Each result goes to stdout as one
JSON line as soon as it is known, so the parent can count the tasks a
crashed or killed pass never finished:

    {"setup_s": ..., "setup_factor": ..., "tasks": n}  after set-up
    {"task": name, "ms": ..., "net_ms": ..., "ok": ..., "digest": ...,
     "error": ...}
    {"wall_s": ..., "net_s": ..., "cpu_s": ..., "factor": ...,
     "peak_rss_mb": ..., "layers": {...}}                at the end

`setup_factor` scales `setup_s` to the reference speed (speed.py).
Untraced, a speed.SpeedProbe samples the machine's speed during the tasks:
`net_ms` and `net_s` leave out the time spent in its probes, and `factor`
scales them to the reference speed. `ms`, `wall_s` and `cpu_s` are raw.
With --trace 1 there are no probes; the tasks run under tracer.Tracer, the
per-layer metrics go into the last line and the spans into the file named
by --spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import workloads  # noqa: E402
from speed import SpeedProbe, factor_now  # noqa: E402
from tracer import Tracer  # noqa: E402

TASK_TIMEOUT_S = 60


class TaskTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise TaskTimeout(f"task exceeded {TASK_TIMEOUT_S} s")


def import_library():
    """The grquiver layer modules, imported from this checkout's src/."""
    import grquiver
    from grquiver import (arquiver, cli, constructions, gf, grmod,
                          homological, polynomial)
    if Path(grquiver.__file__).resolve().parent != SRC / "grquiver":
        raise ImportError(f"grquiver imported from {grquiver.__file__}, "
                          f"not from {SRC}")
    return types.SimpleNamespace(
        gf=gf, grmod=grmod, homological=homological, polynomial=polynomial,
        arquiver=arquiver, constructions=constructions, cli=cli)


def run_tasks(tasks, expected: dict[str, str], emit=lambda rec: None,
              tracer: Tracer | None = None,
              probe: SpeedProbe | None = None) -> list[dict]:
    """Run the tasks in order; a task that raises, times out or fails its
    check is recorded as failed and the run goes on. With a running probe,
    each record's `net_ms` leaves out the probes that ran inside the task."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    try:
        for run_id, task in enumerate(tasks):
            digest, error = None, None
            probed0 = probe.total_s if probe is not None else 0.0
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, TASK_TIMEOUT_S)
            try:
                if tracer is None:
                    out = task.fn()
                else:
                    with tracer.task(run_id):
                        out = task.fn()
                digest = workloads.sha256(out)
                if task.cli and expected.get(task.name) != digest:
                    error = "stdout differs from the recorded sha256"
            except Exception as e:  # a failed task must not end the run
                error = f"{type(e).__name__}: {e}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            ms = (time.perf_counter() - t0) * 1e3
            probed = (probe.total_s - probed0) if probe is not None else 0.0
            rec = {"task": task.name, "ms": ms, "net_ms": ms - probed * 1e3,
                   "ok": error is None, "digest": digest, "error": error}
            records.append(rec)
            emit(rec)
    finally:
        signal.signal(signal.SIGALRM, old)
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t-spawn", type=float, required=True,
                    help="time.monotonic() of the parent when it spawned us")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where a traced pass saves its spans")
    args = ap.parse_args(argv)

    def emit(rec):
        sys.stdout.write(json.dumps(rec) + "\n")
        sys.stdout.flush()

    lib = import_library()
    tasks = workloads.build(args.workload, args.seed, lib)
    setup_s = time.monotonic() - args.t_spawn
    emit({"setup_s": setup_s, "setup_factor": factor_now(),
          "tasks": len(tasks)})
    if args.setup_only:
        return 0
    expected = workloads.load_expected()
    tracer, probe = None, None
    if args.trace:
        tracer = Tracer()
        tracer.install(lib)
    else:
        probe = SpeedProbe()
        probe.start()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        run_tasks(tasks, expected, emit, tracer, probe)
    finally:
        if tracer is not None:
            tracer.restore()
        if probe is not None:
            probe.stop()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    probed = probe.total_s if probe is not None else 0.0
    layers = {}
    if tracer is not None:
        layers = tracer.metrics()  # name -> (value, unit)
        if args.spans:
            tracer.save(args.spans)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    emit({"wall_s": wall, "net_s": wall - probed, "cpu_s": cpu,
          "factor": probe.factor() if probe is not None else 1.0,
          "peak_rss_mb": rss_mb, "layers": layers})
    return 0


if __name__ == "__main__":
    sys.exit(main())
