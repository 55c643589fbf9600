"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They run small slices of the workloads in this process, so they take
seconds, not the minutes of a benchmark run.
"""

import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import worker  # puts the checkout's src/ and perfbench/ on sys.path
import tracer as tr
from run import hd_quantile
import workloads
from speed import SpeedProbe
from workloads import Task

HERE = Path(__file__).resolve().parent
LIB = worker.import_library()
EXPECTED = workloads.load_expected()

# quick tasks that together touch every layer
SLICES = {
    "block_quiver": lambda names: [n for n in names if n == "schur-p3-d3"],
    "ar_patch": lambda names: [n for n in names
                               if n in ("ar-W(6)", "decompose-V(3)^2+Vo(3)")],
    "tau_orbit": lambda names: names[:12],
    "borel": lambda names: [n for n in names if n.startswith("qh-p3")
                            or n.endswith("-p3-t2")],
}
COUNT_SUFFIXES = (".calls", ".cells", ".unknowns", ".candidates",
                  ".distinct", ".distinct_mod_shift")


def is_traced(obj):
    return getattr(obj, "bench_traced", False)


def library_bindings():
    """Every binding the tracer may replace: module attributes, values of
    module-level dicts, and the attributes of the two wrapped classes."""
    out = {}
    for layer in tr.LAYERS:
        for attr, obj in vars(getattr(LIB, layer)).items():
            out[(layer, attr)] = obj
            if isinstance(obj, dict) and not attr.startswith("__"):
                for key, val in obj.items():
                    out[(layer, attr, key)] = val
    for cls in (LIB.gf.PrimeField, LIB.arquiver.ARQuiver):
        for attr, obj in vars(cls).items():
            out[(cls.__name__, attr)] = obj
    return out


def sliced(workload, seed=3):
    tasks = workloads.build(workload, seed, LIB)
    keep = set(SLICES[workload]([t.name for t in tasks]))
    return [t for t in tasks if t.name in keep]


def traced_run(tasks):
    t = tr.Tracer()
    t.install(LIB)
    try:
        t0 = time.perf_counter()
        records = worker.run_tasks(tasks, EXPECTED, tracer=t)
        wall = time.perf_counter() - t0
    finally:
        t.restore()
    return records, t, wall


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_match(workload):
    plain = worker.run_tasks(sliced(workload), EXPECTED)
    traced, _, _ = traced_run(sliced(workload))
    assert plain and all(r["ok"] for r in plain + traced), plain + traced
    assert [(r["task"], r["digest"]) for r in plain] == \
        [(r["task"], r["digest"]) for r in traced]


def test_every_binding_site_wrapped_then_restored():
    before = library_bindings()
    t = tr.Tracer()
    t.install(LIB)
    try:
        for obj in (LIB.grmod.hom_space, LIB.homological.hom_space,
                    LIB.arquiver.is_isomorphic, LIB.cli.socle,
                    LIB.cli._FUNCTORS["omega"], LIB.gf.PrimeField.rref,
                    LIB.arquiver.ARQuiver.find_vertex,
                    LIB.constructions.projective_indec, LIB.cli.main):
            assert is_traced(obj), obj
        worker.run_tasks(sliced("borel"), EXPECTED, tracer=t)
    finally:
        t.restore()
    after = library_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(is_traced(v) for v in after.values())


def test_layer_self_times_sum_to_traced_wall():
    records, t, wall = traced_run(sliced("ar_patch"))
    assert all(r["ok"] for r in records)
    m = t.metrics()
    total = sum(m[f"{layer}.self_s"][0] for layer in tr.LAYERS + ("bench",))
    assert abs(total - wall) <= 0.02 * wall + 0.005, (total, wall)


def test_same_seed_same_tasks_and_counts():
    for workload in workloads.WORKLOADS:
        names = [t.name for t in workloads.build(workload, 11, LIB)]
        assert names == [t.name for t in workloads.build(workload, 11, LIB)]
        assert len(names) == len(set(names))
    counts = []
    for _ in range(2):
        records, t, _ = traced_run(sliced("tau_orbit", seed=5))
        assert all(r["ok"] for r in records)
        counts.append({k: v for k, (v, _u) in t.metrics().items()
                       if k.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    assert counts[0]["homological.tau.calls"] == 12


def test_failing_task_is_counted_and_run_goes_on(monkeypatch):
    monkeypatch.setattr(worker, "TASK_TIMEOUT_S", 0.2)

    def boom():
        raise RuntimeError("boom")

    tasks = [Task("raises", boom), Task("sleeps", lambda: time.sleep(5)),
             Task("fine", lambda: "ok"),
             Task("wrong-stdout", lambda: "unexpected", cli=True)]
    records = worker.run_tasks(tasks, {"wrong-stdout": "0" * 64})
    assert [r["ok"] for r in records] == [False, False, True, False]
    assert "boom" in records[0]["error"]
    assert "TaskTimeout" in records[1]["error"]
    assert records[1]["ms"] < 2000


def test_probe_time_is_left_out_and_handler_restored():
    def spin():  # half a second of CPU: a few probes fire inside
        t0 = time.process_time()
        while time.process_time() - t0 < 0.5:
            pass
        return "spun"

    before = signal.getsignal(signal.SIGPROF)
    probe = SpeedProbe()
    probe.start()
    try:
        records = worker.run_tasks([Task("spin", spin)], {}, probe=probe)
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGPROF) is before
    assert records[0]["ok"] and probe.count >= 1
    assert abs(records[0]["ms"] - records[0]["net_ms"]
               - probe.total_s * 1e3) < 1e-6
    assert probe.factor() > 0


def test_harrell_davis_quantiles():
    assert hd_quantile([5.0, 1.0, 4.0, 2.0, 3.0], 0.5) == pytest.approx(3.0)
    assert hd_quantile([7.0] * 6, 0.9) == pytest.approx(7.0)
    assert hd_quantile([7.0], 0.9) == pytest.approx(7.0)
    xs = [1.0, 2.0, 3.0, 4.0, 100.0]
    p50, p90 = hd_quantile(xs, 0.5), hd_quantile(xs, 0.9)
    assert 2.0 < p50 < p90 < 100.0


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "borel",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
