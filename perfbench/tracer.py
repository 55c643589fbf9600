"""Spans around the public functions of each grquiver layer, installed from
outside the package.

`Tracer.install` wraps every public function of each layer module, the
public `PrimeField` methods and `ARQuiver.find_vertex`, and rebinds each
name that holds one of them: the module attribute itself, the copies made
by `from .grmod import ...` in the other modules, and module-level dict
values such as the CLI's functor table. `restore` puts every original back.

Spans (name, start, end, parent, run id) are kept in flat arrays in memory
and written by `save` when the run ends. A span's self time is its duration
minus the durations of its direct children; a layer's self time is the sum
over its spans, so the layers (with `bench` for the harness itself) add up
to the traced task time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("gf", "grmod", "homological", "polynomial", "arquiver",
          "constructions", "cli")
ROOT_SPAN = "bench.task"


def _content_key(m, to_origin: bool) -> bytes:
    """Digest of algebra, weights and action bytes; optionally with the
    weights shifted so the support minimum is (0, 0)."""
    weights = m.weights
    if to_origin and weights:
        a0 = min(w[0] for w in weights)
        b0 = min(w[1] for w in weights)
        weights = tuple((a - a0, b - b0) for a, b in weights)
    h = hashlib.sha1(repr((m.algebra, weights)).encode())
    for g in sorted(m.action):
        h.update(np.ascontiguousarray(m.action[g]).tobytes())
    return h.digest()


def _rref_cells(tr, args, kwargs) -> None:
    shape = np.shape(args[1] if len(args) > 1 else kwargs["m"])
    tr.counts["gf.rref.cells"] += shape[0] * shape[1]


def _hom_unknowns(tr, args, kwargs) -> None:
    # entries of a degree-0 map joining equal weights
    cm, cn = Counter(args[0].weights), Counter(args[1].weights)
    tr.counts["grmod.hom_space.unknowns"] += sum(c * cn[w]
                                                 for w, c in cm.items())


def _cover_keys(tr, args, kwargs) -> None:
    m = args[0]
    tr.cover_keys.add(_content_key(m, False))
    tr.cover_keys_mod_shift.add(_content_key(m, True))


def _iso_hit(tr, result) -> None:
    tr.counts["grmod.is_isomorphic.hits"] += result is not None


# measured from the arguments before the span opens / the result after it
# closes, so their cost lands in the caller's self time
BEFORE = {"gf.rref": _rref_cells, "grmod.hom_space": _hom_unknowns,
          "homological.projective_cover": _cover_keys}
AFTER = {"grmod.is_isomorphic": _iso_hit}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name = array("i")
        self.run = array("i")
        self._stack: list[int] = []
        self._run_id = -1
        self._patches: list[tuple] = []
        self.counts: Counter = Counter()
        self.cover_keys: set[bytes] = set()
        self.cover_keys_mod_shift: set[bytes] = set()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.run.append(self._run_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def task(self, run_id: int):
        """Root span of one task; the spans it causes share its run id."""
        self._run_id = run_id
        idx = self._open(self._intern(ROOT_SPAN))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, result)
            return result
        traced.bench_traced = True
        return traced

    # -- installing and removing the wrappers ------------------------------

    def _set(self, owner, key, value) -> None:
        original = owner[key] if isinstance(owner, dict) else getattr(owner,
                                                                      key)
        self._patches.append((owner, key, original))
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self, lib) -> None:
        wrapped = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = getattr(lib, layer)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for layer in LAYERS:
            ns = vars(getattr(lib, layer))
            for attr, obj in list(ns.items()):
                if id(obj) in wrapped:
                    self._set(ns, attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            self._set(obj, key, wrapped[id(val)])
        field = lib.gf.PrimeField
        for attr, obj in list(vars(field).items()):
            if not attr.startswith("_") and callable(obj):
                self._set(field, attr, self._wrap(f"gf.{attr}", obj))
        quiver = lib.arquiver.ARQuiver
        self._set(quiver, "find_vertex",
                  self._wrap("arquiver.find_vertex", quiver.find_vertex))

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as name -> (value, unit)."""
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        self_ns = dur - child
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_s = np.bincount(name, weights=self_ns, minlength=n) / 1e9

        def ids(*fns):
            return [self._ids[f] for f in fns if f in self._ids]

        def c(*fns):
            return int(sum(calls[i] for i in ids(*fns)))

        def s(*fns):
            return float(sum(self_s[i] for i in ids(*fns)))

        def layer_s(layer):
            return float(sum(self_s[i] for i, nm in enumerate(self.names)
                             if nm.split(".")[0] == layer))

        out: dict[str, tuple[float, str]] = {}

        def put(key, value, unit):
            out[key] = (value, unit)

        def calls_and_self(key, *fns):
            put(f"{key}.calls", c(*fns), "count")
            put(f"{key}.self_s", s(*fns), "s")

        calls_and_self("gf.rref", "gf.rref")
        put("gf.rref.cells", self.counts["gf.rref.cells"], "count")
        for f in ("solve", "solve_matrix", "inv_matrix", "kernel_basis",
                  "rank"):
            put(f"gf.{f}.calls", c(f"gf.{f}"), "count")
        put("gf.self_s", layer_s("gf"), "s")

        calls_and_self("grmod.hom_space", "grmod.hom_space")
        put("grmod.hom_space.unknowns",
            self.counts["grmod.hom_space.unknowns"], "count")
        calls_and_self("grmod.is_isomorphic", "grmod.is_isomorphic")
        iso_calls = c("grmod.is_isomorphic")
        put("grmod.is_isomorphic.hit_ratio",
            self.counts["grmod.is_isomorphic.hits"] / iso_calls
            if iso_calls else 0.0, "ratio")
        inv, iso = ids("gf.inv_matrix"), ids("grmod.is_isomorphic")
        candidates = 0
        if inv and iso:
            under = (name == inv[0]) & (parent >= 0)
            candidates = int(np.count_nonzero(name[parent[under]] == iso[0]))
        put("grmod.iso.candidates", candidates, "count")
        calls_and_self("grmod.quotient", "grmod.quotient")
        calls_and_self("grmod.decompose", "grmod.decompose")
        calls_and_self("grmod.submodule", "grmod.submodule_from_subspace",
                       "grmod.submodule_span")
        calls_and_self("grmod.radical", "grmod.radical", "grmod.socle",
                       "grmod.top")
        put("grmod.self_s", layer_s("grmod"), "s")

        calls_and_self("homological.projective_cover",
                       "homological.projective_cover")
        put("homological.projective_cover.distinct", len(self.cover_keys),
            "count")
        put("homological.projective_cover.distinct_mod_shift",
            len(self.cover_keys_mod_shift), "count")
        # omega counts syzygy computations, which all pass omega_with_maps;
        # tau counts translates both ways
        put("homological.omega.calls", c("homological.omega_with_maps"),
            "count")
        put("homological.tau.calls", c("homological.tau", "homological.tau_inv"),
            "count")
        calls_and_self("homological.almost_split_sequence",
                       "homological.almost_split_sequence")
        put("homological.is_projective.calls", c("homological.is_projective"),
            "count")
        put("homological.self_s", layer_s("homological"), "s")

        for f in ("t_poly", "u_poly", "almost_split_in_poly"):
            calls_and_self(f"polynomial.{f}", f"polynomial.{f}")
        put("polynomial.ext_projective_in_poly.calls",
            c("polynomial.ext_projective_in_poly"), "count")
        put("polynomial.self_s", layer_s("polynomial"), "s")

        put("arquiver.find_vertex.calls", c("arquiver.find_vertex"), "count")
        put("arquiver.identify.calls", c("arquiver.identify"), "count")
        for f in ("identify", "enumerate_degree_candidates",
                  "partition_blocks", "template_match"):
            put(f"arquiver.{f}.self_s", s(f"arquiver.{f}"), "s")
        put("arquiver.self_s", layer_s("arquiver"), "s")

        for layer in ("constructions", "cli", "bench"):
            put(f"{layer}.self_s", layer_s(layer), "s")
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            name=np.frombuffer(self.name, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32))
