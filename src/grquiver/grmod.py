"""Z^2-graded modules over restricted sl2 and graded truncated polynomial rings.

A module is stored with a weight-homogeneous basis: ``weights[j]`` is the
weight of the j-th basis vector and every generator matrix maps weight
subspaces onto shifted weight subspaces.  All operations preserve this normal
form, which makes homogeneity checks syntactic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache, wraps

import numpy as np

from .gf import PrimeField

Weight = tuple[int, int]


def weight_degree(w: Weight) -> int:
    return w[0] + w[1]


def is_polynomial_weight(w: Weight) -> bool:
    return w[0] >= 0 and w[1] >= 0


def add_weight(u: Weight, v: Weight) -> Weight:
    return (u[0] + v[0], u[1] + v[1])


@dataclass(frozen=True)
class AlgebraKind:
    """Either restricted sl2 ("sl2r1") or k[X_1..X_r]/(X_i^p) ("borel").

    For the borel kind, ``offset`` is the global index of the first variable
    (used by outer tensor factors over a sub-range of variables) and
    ``raising`` flips the weight convention of the action: by default X_i
    lowers weights by p^(i-1)*(1,-1); the dual module lives over the raising
    variant.
    """

    kind: str  # "sl2r1" | "borel"
    p: int
    r: int = 1
    offset: int = 1
    raising: bool = False

    def __post_init__(self):
        if self.kind not in ("sl2r1", "borel"):
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        PrimeField(self.p)  # validates p
        if self.kind == "borel":
            for name in ("r", "offset"):
                if getattr(self, name) < 1:
                    raise ValueError(f"borel algebra needs {name} >= 1, "
                                     f"got {getattr(self, name)}")

    @property
    def field(self) -> PrimeField:
        return _field_cache(self.p)

    def generators(self) -> list[str]:
        if self.kind == "sl2r1":
            return ["E", "F", "H"]
        return [f"X{i}" for i in range(self.offset, self.offset + self.r)]

    def action_shift(self, gen: str) -> Weight:
        """Weight translation applied by the generator's action."""
        if self.kind == "sl2r1":
            return {"E": (1, -1), "F": (-1, 1), "H": (0, 0)}[gen]
        i = int(gen[1:])
        step = self.p ** (i - 1)
        if self.raising:
            return (step, -step)
        return (-step, step)


@lru_cache(maxsize=None)
def _field_cache(p: int) -> PrimeField:
    return PrimeField(p)


@dataclass
class GradedModule:
    algebra: AlgebraKind
    weights: tuple[Weight, ...]
    action: dict[str, np.ndarray]

    def __post_init__(self):
        self.weights = tuple((int(a), int(b)) for a, b in self.weights)
        ff = self.field
        self.action = {g: ff.reduce(m).reshape(self.dim, self.dim)
                       for g, m in self.action.items()}

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def field(self) -> PrimeField:
        return self.algebra.field

    def support(self) -> set[Weight]:
        return set(self.weights)

    def support_min(self) -> Weight:
        """The coordinatewise minimum of the weights."""
        return (min(w[0] for w in self.weights),
                min(w[1] for w in self.weights))

    def weight_indices(self, w: Weight) -> list[int]:
        return [j for j, wj in enumerate(self.weights) if wj == w]

    def degree(self) -> int | None:
        """Common weight degree, or None if mixed or zero module."""
        degs = {weight_degree(w) for w in self.weights}
        return degs.pop() if len(degs) == 1 else None

    def __repr__(self) -> str:
        return (f"GradedModule({self.algebra.kind}, p={self.algebra.p}, "
                f"dim={self.dim})")

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        alg: dict = {"kind": self.algebra.kind, "p": self.algebra.p}
        if self.algebra.kind == "borel":
            alg["r"] = self.algebra.r
            if self.algebra.offset != 1:
                alg["offset"] = self.algebra.offset
            if self.algebra.raising:
                alg["raising"] = True
        return {
            "algebra": alg,
            "dim": self.dim,
            "weights": [list(w) for w in self.weights],
            "action": {g: self.action[g].tolist()
                       for g in self.algebra.generators()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(", ", ": "))

    @staticmethod
    def from_json_dict(d: dict) -> "GradedModule":
        """The module of a to_json_dict() dict; malformed input raises
        ValueError naming the field."""
        def need(ok: bool, name: str, problem: str = "is missing") -> None:
            if not ok:
                raise ValueError(f"field {name!r} {problem}")
        for key in ("algebra", "dim", "weights", "action"):
            need(key in d, key)
        a = d["algebra"]
        for key in ("kind", "p"):
            need(key in a, f"algebra.{key}")
        kind = AlgebraKind(a["kind"], a["p"], a.get("r", 1),
                           a.get("offset", 1), a.get("raising", False))
        weights = tuple(map(tuple, d["weights"]))
        need(all(len(w) == 2 for w in weights), "weights", "has a non-pair")
        dim = d["dim"]
        need(dim == len(weights), "dim",
             f"is {dim!r}, but there are {len(weights)} weights")
        gens = kind.generators()
        need(isinstance(d["action"], dict)
             and sorted(d["action"]) == sorted(gens), "action",
             f"does not have exactly the keys {gens}")
        action = {g: np.array(m, dtype=np.int64)
                  for g, m in d["action"].items()}
        for g, m in action.items():
            need(m.shape == (dim, dim) or m.size == dim == 0, f"action.{g}",
                 f"is not a {dim} x {dim} matrix")
        return GradedModule(kind, weights, action)

    @staticmethod
    def from_json(s: str) -> "GradedModule":
        return GradedModule.from_json_dict(json.loads(s))


@dataclass
class ModuleMap:
    """A degree-0 homogeneous intertwiner; matrix maps source coords to target."""

    source: GradedModule
    target: GradedModule
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = self.source.field.reduce(self.matrix).reshape(
            self.target.dim, self.source.dim)

    def check(self) -> list[str]:
        ff = self.source.field
        ws = np.array(self.source.weights, dtype=np.int64).reshape(-1, 2)
        wt = np.array(self.target.weights, dtype=np.int64).reshape(-1, 2)
        off = (wt[:, None] != ws[None]).any(axis=2) & (self.matrix != 0)
        errs = [f"entry ({i},{j}) violates weight preservation"
                for j, i in zip(*np.nonzero(off.T))]
        for g in self.source.algebra.generators():
            lhs = ff.matmul(self.target.action[g], self.matrix)
            rhs = ff.matmul(self.matrix, self.source.action[g])
            if not np.array_equal(lhs, rhs):
                errs.append(f"does not intertwine generator {g}")
        return errs

    def is_injective(self) -> bool:
        return self.source.field.rank(self.matrix) == self.source.dim

    def is_surjective(self) -> bool:
        return self.source.field.rank(self.matrix) == self.target.dim


def _trusted_module(algebra: AlgebraKind, weights: tuple[Weight, ...],
                    action: dict[str, np.ndarray]) -> GradedModule:
    """The module on fields that already hold its invariants, set as they
    are: int weights and reduced int64 (dim x dim) matrices that no other
    object owns.  `GradedModule(...)` converts and reduces them again."""
    m = object.__new__(GradedModule)
    m.algebra, m.weights, m.action = algebra, weights, action
    return m


def _trusted_map(source: GradedModule, target: GradedModule,
                 matrix: np.ndarray) -> ModuleMap:
    """The map on a reduced int64 (target.dim x source.dim) matrix that no
    other object owns, set as it is; `ModuleMap(...)` reduces it again."""
    f = object.__new__(ModuleMap)
    f.source, f.target, f.matrix = source, target, matrix
    return f


# ---------------------------------------------------------------------------
# basic constructors


def zero_module(algebra: AlgebraKind) -> GradedModule:
    return GradedModule(algebra, (),
                        {g: np.zeros((0, 0), dtype=np.int64)
                         for g in algebra.generators()})


def character_module(algebra: AlgebraKind, w: Weight) -> GradedModule:
    """One-dimensional module k_w with all generators acting by zero."""
    if algebra.kind == "sl2r1" and (w[0] - w[1]) % algebra.p != 0:
        raise ValueError(f"weight {w} is not legal for a trivial H-action "
                         "character (needs a = b mod p)")
    return GradedModule(algebra, (w,),
                        {g: np.zeros((1, 1), dtype=np.int64)
                         for g in algebra.generators()})


def direct_sum(mods: list[GradedModule]) -> GradedModule:
    if not mods:
        raise ValueError("empty direct sum needs an algebra; use zero_module")
    alg = mods[0].algebra
    for m in mods:
        if m.algebra != alg:
            raise ValueError("direct sum over mixed algebras")
    weights = tuple(w for m in mods for w in m.weights)
    n = len(weights)
    action = {}
    for g in alg.generators():
        mat = np.zeros((n, n), dtype=np.int64)
        o = 0
        for m in mods:
            mat[o:o + m.dim, o:o + m.dim] = m.action[g]
            o += m.dim
        action[g] = mat
    return GradedModule(alg, weights, action)


def restrict_to_indices(m: GradedModule, idx: list[int]) -> GradedModule:
    """Submodule on a subset of basis vectors (must be action-invariant)."""
    idx = list(idx)
    keep = set(idx)
    comp = [j for j in range(m.dim) if j not in keep]
    for g, mat in m.action.items():
        if comp and idx and np.any(mat[np.ix_(comp, idx)]):
            raise ValueError(f"index set not invariant under {g}")
    weights = tuple(m.weights[j] for j in idx)
    action = {g: mat[np.ix_(idx, idx)] for g, mat in m.action.items()}
    return GradedModule(m.algebra, weights, action)


# ---------------------------------------------------------------------------
# validation


def validate(m: GradedModule) -> list[str]:
    """Empty list iff all invariants hold; otherwise human-readable findings."""
    report: list[str] = []
    ff = m.field
    p = m.algebra.p
    gens = m.algebra.generators()
    for g in gens:
        if g not in m.action:
            report.append(f"missing action matrix for {g}")
            return report
        if m.action[g].shape != (m.dim, m.dim):
            report.append(f"action matrix for {g} has wrong shape")
            return report
    # algebra relations
    if m.algebra.kind == "sl2r1":
        E, F, H = m.action["E"], m.action["F"], m.action["H"]
        checks = [
            ("E^p = 0", ff.matpow(E, p), np.zeros_like(E)),
            ("F^p = 0", ff.matpow(F, p), np.zeros_like(F)),
            ("H^p = H", ff.matpow(H, p), H),
            ("[H,E] = 2E", ff.reduce(ff.matmul(H, E) - ff.matmul(E, H)),
             ff.reduce(2 * E)),
            ("[H,F] = -2F", ff.reduce(ff.matmul(H, F) - ff.matmul(F, H)),
             ff.reduce(-2 * F)),
            ("[E,F] = H", ff.reduce(ff.matmul(E, F) - ff.matmul(F, E)), H),
        ]
        for name, lhs, rhs in checks:
            if not np.array_equal(lhs, rhs):
                report.append(f"relation {name} fails")
    else:
        for g in gens:
            if np.any(ff.matpow(m.action[g], p)):
                report.append(f"relation {g}^p = 0 fails")
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                ab = ff.matmul(m.action[g], m.action[h])
                ba = ff.matmul(m.action[h], m.action[g])
                if not np.array_equal(ab, ba):
                    report.append(f"relation {g}{h} = {h}{g} fails")
    # grading compatibility, column by column: one mask per generator
    w = np.array(m.weights, dtype=np.int64).reshape(-1, 2)
    for g in gens:
        d = m.algebra.action_shift(g)
        off = (w[:, None] != (w + d)[None]).any(axis=2) & (m.action[g] != 0)
        for j, i in zip(*np.nonzero(off.T)):
            report.append(
                f"grading: {g}*e_{j} hits weight {m.weights[i]}, "
                f"expected {add_weight(m.weights[j], d)}")
    # torus-differential consistency
    if m.algebra.kind == "sl2r1":
        want = np.diag((w[:, 0] - w[:, 1]) % p)
        for j in np.flatnonzero((m.action["H"] != want).any(axis=0)):
            report.append(f"H does not act as (a-b) mod p on basis "
                          f"vector {j} of weight {m.weights[j]}")
    return report


# ---------------------------------------------------------------------------
# shifts, duals, twists


def shift(m: GradedModule, lam: Weight) -> GradedModule:
    """m with every weight moved by lam, on copies of m's matrices."""
    a, b = int(lam[0]), int(lam[1])
    return _trusted_module(m.algebra,
                           tuple((x + a, y + b) for x, y in m.weights),
                           {g: mat.copy() for g, mat in m.action.items()})


def _packed(algebra: AlgebraKind, mats) -> np.ndarray:
    """mats, read-only, in the smallest unsigned type holding 0..p-1."""
    out = np.array(mats, dtype=np.min_scalar_type(algebra.p - 1))
    out.setflags(write=False)
    return out


def _packed_action(m: GradedModule) -> np.ndarray:
    """The generator matrices of m, stacked in order and packed."""
    return _packed(m.algebra, [m.action[g] for g in m.algebra.generators()])


class _Packed(tuple):
    """(weights, action): a module's weights relative to a shift and its
    `_packed_action` (an array, or its bytes in a cache key)."""

    __slots__ = ()


def _unpacked(algebra: AlgebraKind, mu: Weight,
              packed: _Packed) -> GradedModule:
    """The packed module shifted by mu, its generator matrices copied into
    one fresh int64 array."""
    weights, action = packed
    gens = algebra.generators()
    n = len(weights)
    if isinstance(action, bytes):
        action = np.frombuffer(action, dtype=np.min_scalar_type(
            algebra.p - 1))
    action = action.astype(np.int64).reshape(len(gens), n, n)
    return _trusted_module(algebra,
                           tuple((a + mu[0], b + mu[1]) for a, b in weights),
                           dict(zip(gens, action)))


def _shift_class(m: GradedModule, mu: Weight | None = None
                 ) -> tuple[Weight, _Packed]:
    """(mu, m relative to mu with its action bytes): with the algebra, the
    key of m's class under legal shifts.

    mu is the support minimum, with mu0 lowered by (mu0 - mu1) mod p for
    sl2r1, so shifting by -mu keeps H consistent with the weights (the
    borel algebra has no H, and every shift is legal).  So every module a
    cache rebuilds from a valid input is valid.  Pass mu to express m
    relative to another module's mu.
    """
    if mu is None:
        mu = m.support_min() if m.dim else (0, 0)
        if m.algebra.kind == "sl2r1":
            mu = (mu[0] - (mu[0] - mu[1]) % m.algebra.p, mu[1])
    return mu, _Packed((tuple((a - mu[0], b - mu[1]) for a, b in m.weights),
                        _packed_action(m).tobytes()))


def _frozen(algebra: AlgebraKind, x):
    """x stored for a cache: a module as `_Packed`, an array by `_packed`,
    a tuple or list item by item."""
    if isinstance(x, GradedModule):
        return _Packed((x.weights, _packed_action(x)))
    if isinstance(x, (tuple, list)):
        return type(x)([_frozen(algebra, y) for y in x])
    return _packed(algebra, x)


def _thawed(algebra: AlgebraKind, mu: Weight, x):
    """A `_frozen` x shifted by mu, in fresh modules and int64 arrays."""
    if isinstance(x, _Packed):
        return _unpacked(algebra, mu, x)
    if isinstance(x, np.ndarray):
        return x.astype(np.int64)
    return type(x)([_thawed(algebra, mu, y) for y in x])


class _ThawedTuple:
    """A cached tuple whose items are thawed when read, afresh on every
    read, so a caller unpacks only the items it reads."""

    __slots__ = ("algebra", "mu", "items")

    def __init__(self, algebra: AlgebraKind, mu: Weight, items: tuple):
        self.algebra, self.mu, self.items = algebra, mu, items

    def __getitem__(self, i: int):
        return _thawed(self.algebra, self.mu, self.items[i])

    def __iter__(self):
        return map(self.__getitem__, range(len(self.items)))

    def as_map(self, i: int, source: GradedModule,
               target: GradedModule) -> ModuleMap:
        """Item i, a matrix, as the map source -> target, in one copy."""
        return _trusted_map(source, target, self[i])


def _shift_cached(maxsize: int):
    """Memoize f(m, *rest) by m's shift class, in a bounded LRU cache.

    The key is m's algebra and `_shift_class(m)`, each module in rest
    taken relative to m's mu (the modules share m's algebra), and the other
    arguments as they are.  On a miss f runs on the modules rebuilt from
    the key, at mu = (0, 0), and its result (a module, an array, or a tuple
    or list of them) is stored packed and read-only.  Every call hands
    back fresh int64 copies shifted by mu, so writing into them never
    reaches the cache; the items of a tuple are thawed only when read.
    So f must commute with legal shifts: read weights only through
    equality and sorted order, which a shift keeps.  The wrapper has the
    cache's `cache_info` and `cache_clear`.
    """
    def decorate(f):
        @lru_cache(maxsize=maxsize)
        def cached(algebra: AlgebraKind, *key):
            return _frozen(algebra, f(*[
                _unpacked(algebra, (0, 0), k) if isinstance(k, _Packed)
                else k for k in key]))

        @wraps(f)
        def wrapper(m: GradedModule, *rest):
            mu, key = _shift_class(m)
            out = cached(m.algebra, key, *[
                _shift_class(x, mu)[1] if isinstance(x, GradedModule) else x
                for x in rest])
            if type(out) is tuple:
                return _ThawedTuple(m.algebra, mu, out)
            return _thawed(m.algebra, mu, out)
        wrapper.cache_info = cached.cache_info
        wrapper.cache_clear = cached.cache_clear
        return wrapper
    return decorate


def dual(m: GradedModule) -> GradedModule:
    """m^o: the action transposed for the pairing (x, y) -> x^T y, weights
    kept.  Over sl2r1 E and F swap; a borel dual lives over the opposite
    weight convention."""
    alg, swap = m.algebra, {"E": "F", "F": "E"}
    if alg.kind == "borel":
        alg = replace(alg, raising=not alg.raising)
    action = {g: m.action[swap.get(g, g)].T.copy()
              for g in m.algebra.generators()}
    return _trusted_module(alg, m.weights, action)


def weyl_twist(m: GradedModule) -> GradedModule:
    """m^{w0}: swap grading coordinates; E <-> F, H -> -H."""
    if m.algebra.kind != "sl2r1":
        raise ValueError("weyl_twist requires the sl2r1 backend")
    action = {"E": m.action["F"].copy(),
              "F": m.action["E"].copy(),
              "H": m.field.reduce(-m.action["H"])}
    return GradedModule(m.algebra, tuple((b, a) for a, b in m.weights), action)


# ---------------------------------------------------------------------------
# degree decomposition


def degree_decompose(m: GradedModule) -> dict[int, GradedModule]:
    """Direct summands grouped by weight degree (identity basis permutation)."""
    by_deg: dict[int, list[int]] = {}
    for j, w in enumerate(m.weights):
        by_deg.setdefault(weight_degree(w), []).append(j)
    return {d: restrict_to_indices(m, idx) for d, idx in sorted(by_deg.items())}


# ---------------------------------------------------------------------------
# submodules and quotients


def _weight_columns(m: GradedModule, vectors: np.ndarray) -> np.ndarray:
    """The columns reduced mod p and sorted stably by weight.

    A T-stable subspace is spanned by weight vectors, so every caller
    passes them; a column with entries of two weights raises.
    """
    vectors = m.field.reduce(vectors)
    if vectors.shape[0] != m.dim:
        raise ValueError("subspace basis has wrong ambient dimension")
    return vectors[:, _weight_order(m, vectors)]


def _weight_order(m: GradedModule, vectors: np.ndarray) -> np.ndarray:
    """The stable sort of the columns, weight vectors of m, by weight."""
    if not vectors.size:
        return np.arange(vectors.shape[1])
    wts = np.array(m.weights, dtype=np.int64)
    nonzero = vectors != 0
    own = wts[nonzero.argmax(axis=0)]
    rows, cols = np.nonzero(nonzero)
    if np.any(wts[rows] != own[cols]):
        raise ValueError("subspace is not graded")  # constraint, not expected
    return np.lexsort(own.T[::-1])


def _weight_component_basis(m: GradedModule,
                            vectors: np.ndarray) -> np.ndarray:
    """The pivot columns of the weight-vector columns sorted by weight: a
    basis of their span, weight-major in sorted weight order and in column
    order within a weight."""
    cols = _weight_columns(m, vectors)
    return cols[:, m.field.rref(cols)[1]]


def submodule_span(m: GradedModule,
                   generators: list[np.ndarray]
                   ) -> tuple[GradedModule, ModuleMap]:
    """Smallest homogeneous submodule containing the given weight vectors."""
    vecs = np.reshape(generators, (len(generators), m.dim)).T
    return submodule_from_subspace(
        m, _closure_basis(m, _weight_component_basis(m, vecs)))


def _closure_basis(m: GradedModule, basis: np.ndarray) -> np.ndarray:
    """Weight-vector basis of the smallest submodule containing the columns
    of basis: independent weight vectors, reduced mod p and sorted by
    weight, as `_weight_component_basis` returns them.

    A round reduces the basis together with the images of only the columns
    the last round added, in basis order: the images of older columns
    already lie in the span, and so does the image under H, which scales
    every weight vector, so neither could be a pivot.  The basis columns
    stay pivots, so a column of a wider grown basis is new when it is none
    of them.
    """
    ff = m.field
    movers = [m.action[g] for g in m.algebra.generators() if g != "H"]
    added = basis
    while added.shape[1]:
        grown = _weight_component_basis(m, np.hstack(
            [basis] + [ff.matmul(a, added) for a in movers]))
        if grown.shape[1] == basis.shape[1]:
            break
        old = (grown.T[:, None] == basis.T[None]).all(axis=2).any(axis=1)
        basis, added = grown, grown[:, ~old]
    return basis


def submodule_from_subspace(m: GradedModule,
                            basis: np.ndarray) -> tuple[GradedModule, ModuleMap]:
    """Submodule on an action-invariant subspace spanned by weight-vector
    columns, which may be dependent.

    One elimination of [columns | g columns, for each generator g], the
    columns sorted by weight: the pivots among the columns pick the basis,
    a pivot right of them means the span is not invariant, and the pivot
    rows of each right block hold that generator's coordinates.
    """
    ff, gens = m.field, m.algebra.generators()
    cols = _weight_columns(m, basis)
    k = cols.shape[1]
    r, pivots, rank = ff.rref(
        np.hstack([cols] + [ff.matmul(m.action[g], cols) for g in gens]))
    if rank and pivots[-1] >= k:
        raise ValueError("basis not invariant under the action")
    chosen = cols[:, pivots]
    weights = tuple(m.weights[np.flatnonzero(c)[0]] for c in chosen.T)
    action = {g: r[:rank, (t + 1) * k + np.array(pivots, dtype=np.int64)]
              for t, g in enumerate(gens)}
    sub = GradedModule(m.algebra, weights, action)
    return sub, ModuleMap(sub, m, chosen)


def kernel_submodule(m: GradedModule,
                     mat: np.ndarray) -> tuple[GradedModule, ModuleMap]:
    """The submodule on the null space of mat, a matrix with m.dim columns
    whose null space is invariant, with its inclusion: the bytes of
    submodule_from_subspace(m, kernel_basis(mat)) from one elimination."""
    return _submodule_on_kernel(m, *m.field.null_space(mat))


def _submodule_on_kernel(m: GradedModule, basis: np.ndarray,
                         free: np.ndarray) -> tuple[GradedModule, ModuleMap]:
    """`kernel_submodule` on the null space basis, the identity on the rows
    free, and those rows.

    The basis is independent, so `submodule_from_subspace` would keep all
    of it, sorted by weight; the coordinates of a vector of its span are
    its entries on the free rows, taken in that order.  Invariance is
    certified by rebuilding each generator's image from them, which holds
    by construction on the free rows, so only the others are compared.
    """
    ff = m.field
    order = _weight_order(m, basis)
    cols, rows = basis[:, order], free[order]
    pivot_rows = np.delete(np.arange(m.dim), free)
    action = {}
    for g in m.algebra.generators():
        image = ff.matmul(m.action[g], cols)
        action[g] = image[rows]
        if not np.array_equal(ff.matmul(cols[pivot_rows], action[g]),
                              image[pivot_rows]):
            raise ValueError("basis not invariant under the action")
    sub = GradedModule(m.algebra, tuple(m.weights[j] for j in rows), action)
    return sub, ModuleMap(sub, m, cols)


def quotient(m: GradedModule,
             sub_basis: np.ndarray) -> tuple[GradedModule, ModuleMap]:
    """Quotient by the homogeneous submodule spanned by the given
    weight-vector columns."""
    ff = m.field
    basis = _weight_columns(m, sub_basis)
    if basis.shape[1] == 0:
        q = GradedModule(m.algebra, m.weights, dict(m.action))
        return q, ModuleMap(m, q, ff.eye(m.dim))
    k = basis.shape[1]
    # in rref([basis | I]) the s pivots inside the basis part give its rank;
    # the later pivots are the first standard vectors completing the span,
    # and the rows past s are the echelon basis of its annihilator, which
    # depends on the span alone and gives the coordinates on those vectors
    r, pivots, _ = ff.rref(np.hstack([basis, ff.eye(m.dim)]))
    s = sum(c < k for c in pivots)
    chosen = [c - k for c in pivots[s:]]
    proj = r[s:, k:]
    action = {}
    for g in m.algebra.generators():
        if np.any(ff.matmul(proj, ff.matmul(m.action[g], basis))):
            raise ValueError(f"submodule not closed under {g}")
        # action on the representatives e_j, in quotient coordinates
        action[g] = ff.matmul(proj, m.action[g][:, chosen])
    weights = tuple(m.weights[j] for j in chosen)
    q = GradedModule(m.algebra, weights, action)
    return q, ModuleMap(m, q, proj)


def quotient_representatives(proj: ModuleMap) -> np.ndarray:
    """The basis vectors of m whose images are the basis of q, for the
    projection m -> q of `quotient` or `top`: the projection is in
    reduced echelon form, so they are the columns of its rows' leading
    ones."""
    return (proj.matrix != 0).argmax(axis=1)


# ---------------------------------------------------------------------------
# radical / socle / top


def _highest_weight_kernel(m: GradedModule, idx: list[int]) -> np.ndarray:
    """Coordinates, on the basis vectors idx of one weight space of an
    sl2r1-module, of the vectors there that generate simple submodules: the
    joint kernel of E and F^(a+1) with a the eigenvalue of H on the space.

    A weight vector v with E v = 0 and H v = a v generates a quotient of the
    baby Verma module Z(a) = span{F^i v}, and that quotient is the simple
    L(a) exactly when F^(a+1) v = 0 (Jantzen, II.9).  a is read from H, not
    from the weight: a shift by mu with mu0 != mu1 mod p keeps H.
    """
    ff = m.field
    f_pow = m.action["F"][:, idx]
    for _ in range(int(m.action["H"][idx[0], idx[0]])):
        f_pow = ff.matmul(m.action["F"], f_pow)
    return ff.kernel_basis(np.vstack([m.action["E"][:, idx], f_pow]))


def _socle_span(m: GradedModule) -> np.ndarray:
    """Columns spanning soc m: the joint kernel of the X_i (borel, whose
    simples are the characters), or the F-strings F^i v, i = 0..a, of the
    vectors v of `_highest_weight_kernel` (sl2r1): each string spans the
    simple L(a) that v generates (Jantzen, II.9)."""
    ff = m.field
    if m.algebra.kind == "borel":
        return ff.kernel_basis(
            np.vstack([m.action[g] for g in m.algebra.generators()]))
    cols = [ff.zeros(m.dim, 0)]
    for w in dict.fromkeys(m.weights):
        idx = m.weight_indices(w)
        kernel = _highest_weight_kernel(m, idx)
        v = ff.zeros(m.dim, kernel.shape[1])
        v[idx] = kernel
        for _ in range(int(m.action["H"][idx[0], idx[0]]) + 1):
            cols.append(v)
            v = ff.matmul(m.action["F"], v)
    return np.hstack(cols)


def _radical_span(m: GradedModule) -> np.ndarray:
    """Columns spanning rad m: the annihilator of soc(dual m) under the
    pairing x, y -> x^T y, for which both dualities transpose the action."""
    return m.field.kernel_basis(_socle_span(dual(m)).T)


def radical(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """J(A)·m with its inclusion."""
    return submodule_from_subspace(m, _radical_span(m))


def socle(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """The sum of the simple submodules, with its inclusion, on the
    echelon basis of its span."""
    return kernel_submodule(m, m.field.kernel_basis(_socle_span(m).T).T)


def top(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """m / rad(m) with its projection: the bytes of
    quotient(m, _radical_span(m)) from one elimination.

    On the borel side rad m is spanned by the images of the X_i.  Over
    sl2r1 the projection quotient would take is the echelon basis of the
    annihilator of rad m, the span of soc(dual m) (see `_radical_span`):
    the nonzero rows of the RREF of its transpose, whose pivots are the
    representatives.  The projection intertwining each generator with its
    action on the quotient certifies that rad m is a submodule.
    """
    if m.algebra.kind == "borel":
        return quotient(m, np.hstack([m.action[g]
                                      for g in m.algebra.generators()]))
    ff = m.field
    r, chosen, rank = ff.rref(_socle_span(dual(m)).T)
    proj = r[:rank]
    action = {}
    for g in m.algebra.generators():
        action[g] = ff.matmul(proj, m.action[g][:, chosen])
        if not np.array_equal(ff.matmul(proj, m.action[g]),
                              ff.matmul(action[g], proj)):
            raise ValueError(f"submodule not closed under {g}")
    q = GradedModule(m.algebra, tuple(m.weights[j] for j in chosen), action)
    return q, ModuleMap(m, q, proj)


# ---------------------------------------------------------------------------
# Hom, isomorphism, decomposition


def hom_space(m: GradedModule, n: GradedModule) -> list[np.ndarray]:
    """Basis of degree-0 intertwiners m -> n, as (dim n x dim m) matrices.

    Memoized by shift class (`_shift_cached`): n is taken relative to m's
    legal shift, so shifting m and n together hits the cache.  The basis
    reads weights only through equality.  Every call returns fresh int64
    matrices.
    """
    if m.algebra != n.algebra:
        raise ValueError("hom_space requires a common algebra")
    return list(_hom_space_cached(m, n))


def _hom_space_uncached(m: GradedModule, n: GradedModule) -> np.ndarray:
    """The basis of Hom(m, n), stacked: shape (dim Hom, dim n, dim m)."""
    ff = m.field
    # unknowns: the entries phi[si[t], sj[t]] joining equal weights, in
    # row-major order
    wn = np.array(n.weights, dtype=np.int64).reshape(n.dim, 2)
    wm = np.array(m.weights, dtype=np.int64).reshape(m.dim, 2)
    si, sj = np.nonzero((wn[:, None, :] == wm[None, :, :]).all(axis=2))
    if si.size == 0:
        return np.zeros((0, n.dim, m.dim), dtype=np.int64)
    # (A phi - phi B)[i, j] = 0 for each generator: unknown t enters the
    # equation (i, sj[t]) with A[i, si[t]] and (si[t], j) with -B[sj[t], j];
    # equations are numbered (generator, i, j) and only those hit are kept
    gens = m.algebra.generators()
    eq, unk, val = [], [], []
    for g_idx, g in enumerate(gens):
        base = g_idx * n.dim * m.dim
        ta = n.action[g][:, si]
        i, t = np.nonzero(ta)
        eq.append(base + i * m.dim + sj[t])
        unk.append(t)
        val.append(ta[i, t])
        tb = m.action[g][sj, :]
        t, j = np.nonzero(tb)
        eq.append(base + si[t] * m.dim + j)
        unk.append(t)
        val.append(-tb[t, j])
    eq = np.concatenate(eq)
    hit = np.zeros(len(gens) * n.dim * m.dim, dtype=bool)
    hit[eq] = True
    rows = np.flatnonzero(hit)
    system = ff.zeros(rows.size, si.size)
    np.add.at(system, (np.searchsorted(rows, eq), np.concatenate(unk)),
              np.concatenate(val))
    kernel = ff.kernel_basis(system)
    basis = np.zeros((kernel.shape[1], n.dim, m.dim), dtype=np.int64)
    basis[:, si, sj] = kernel.T
    return basis


_hom_space_cached = _shift_cached(1024)(_hom_space_uncached)


def hom_coordinates(basis) -> np.ndarray:
    """The flat indices where a stacked `hom_space` basis is the identity,
    one per element, so the coordinates of a map of its span are the map's
    entries there.

    The basis is the echelon null-space basis of the Hom system, whose
    unknowns are the entries in row-major order: each element is 1 at its
    own free unknown, its last nonzero entry, and every other element is 0
    there.
    """
    flat = np.reshape(basis, (len(basis), -1))
    return flat.shape[1] - 1 - (flat[:, ::-1] != 0).argmax(axis=1)


def _nilpotent_parts(m: GradedModule,
                     basis: list[np.ndarray]) -> np.ndarray | None:
    """b - c_b for each endomorphism b, where c_b is the scalar making it
    nilpotent (unique when it exists), stacked; None when some b has no
    eigenvalue c in F_p with (b - c)^dim = 0."""
    ff = m.field
    stack = np.stack(basis)
    out = np.zeros_like(stack)
    found = np.zeros(len(stack), dtype=bool)
    for c in range(ff.p):
        shifted = (stack - c * ff.eye(m.dim)) % ff.p
        nil = ~ff.matpow(shifted, m.dim).reshape(len(stack), -1).any(axis=1)
        out[nil] = shifted[nil]
        found |= nil
        if found.all():
            return out
    return None


def _is_local(m: GradedModule, basis: list[np.ndarray]) -> bool:
    """End(m) (spanned by basis) is local with residue field F_p.

    That holds iff every basis element is a scalar plus a nilpotent b - c_b
    and the span J of the b - c_b is a nilpotent subalgebra; J is then the
    radical.  The chain J, J^2, ... is followed until it reaches 0 or stops
    shrinking, at most dim J rounds.
    """
    nil = _nilpotent_parts(m, basis)
    if nil is None:
        return False
    ff = m.field
    n = m.dim

    def span(mats: np.ndarray) -> np.ndarray:
        flat = mats.reshape(len(mats), -1)
        _, pivots, _ = ff.rref(flat.T)
        return flat[pivots].reshape(-1, n, n)

    J = span(nil)
    power = J
    while len(power):
        nxt = span(ff.matmul(power[:, None], J[None, :]).reshape(-1, n, n))
        # J^(k+1) must lie inside J^k (for k = 1: J is closed under
        # products) and be smaller (else J^k = J^(k+1) != 0)
        if (len(nxt) == len(power)
                or len(span(np.concatenate([power, nxt]))) != len(power)):
            return False
        power = nxt
    return True


def kernel_profile(m: GradedModule) -> tuple[tuple[Weight, ...], ...]:
    """For each generator but H, in order, the sorted weights of the free
    columns of its RREF: weight w appears dim ker(g on m_w) times.  An
    isomorphism invariant.

    Column j of g lies in the weight space of weights[j] + shift(g), so up
    to a permutation g is block diagonal by weight, and its pivots are
    those of the blocks: one elimination per generator.
    """
    out = []
    for g in m.algebra.generators():
        if g != "H":
            pivots = set(m.field.rref(m.action[g])[1])
            out.append(tuple(sorted(w for j, w in enumerate(m.weights)
                                    if j not in pivots)))
    return tuple(out)


def is_isomorphic(m: GradedModule, n: GradedModule) -> np.ndarray | None:
    """Invertible intertwiner m -> n, or None (certified).

    Deterministic and polynomial in the dimensions.  The first full-rank
    element of the Hom basis, scanned from the last, is returned.  If there
    is none and End(m) is local, the non-isomorphisms form a subspace (a
    hyperplane when m and n are isomorphic), so none exists.  Otherwise
    both modules are decomposed and their indecomposable summands matched
    pairwise (Krull-Schmidt).
    """
    if m.algebra != n.algebra:
        return None
    if m.dim != n.dim:
        return None
    if sorted(m.weights) != sorted(n.weights):
        return None
    if m.dim == 0:
        return np.zeros((0, 0), dtype=np.int64)
    ff = m.field
    basis = hom_space(m, n)
    if not basis:
        return None
    for phi in reversed(basis):
        if ff.rank(phi) == m.dim:
            return phi
    if _is_local(m, hom_space(m, m)):
        return None
    ours, theirs = _decompose_rec(m), _decompose_rec(n)
    if len(ours) != len(theirs):
        return None
    cols = []
    for piece, _ in ours:
        for t, (other, incl) in enumerate(theirs):
            phi = is_isomorphic(piece, other)
            if phi is not None:
                cols.append(ff.matmul(incl, phi))
                del theirs[t]
                break
        else:
            return None
    # Phi maps the i-th summand of m onto its partner in n
    return ff.matmul(np.hstack(cols),
                     ff.inv_matrix(np.hstack([incl for _, incl in ours])))


def _fitting_split(m: GradedModule, psi: np.ndarray):
    """The submodules ker(psi^dim) and im(psi^dim), with their inclusions,
    when both are proper; both from one elimination of psi^dim, whose
    pivot columns span the image."""
    ff = m.field
    power = ff.matpow(psi, m.dim)
    basis, free = ff.null_space(power)
    if free.size in (0, m.dim):
        return None
    return (_submodule_on_kernel(m, basis, free),
            submodule_from_subspace(m, np.delete(power, free, axis=1)))


def decompose(m: GradedModule) -> list[tuple[GradedModule, int]]:
    """Indecomposable direct summands with multiplicities (Fitting splits)."""
    grouped: list[tuple[GradedModule, int]] = []
    for piece, _ in _decompose_rec(m):
        for t, (rep, mult) in enumerate(grouped):
            if is_isomorphic(piece, rep) is not None:
                grouped[t] = (rep, mult + 1)
                break
        else:
            grouped.append((piece, 1))
    return grouped


def _endo_candidates(m: GradedModule, basis: list[np.ndarray]):
    """Endomorphisms to try for a Fitting split, lazily: the basis, the
    pairwise products, then every combination (or 64 random ones when
    there are more than 2000)."""
    ff = m.field
    yield from basis
    for i in range(len(basis)):
        for j in range(len(basis)):
            if i != j:
                yield ff.matmul(basis[i], basis[j])
    p = ff.p
    k = len(basis)
    stacked = np.stack(basis)
    if p ** k <= 2000:
        for coeffs in np.ndindex(*([p] * k)):
            yield ff.combine(coeffs, stacked)
    else:
        rng = np.random.default_rng(0)
        for _ in range(64):
            yield ff.combine(rng.integers(0, p, size=k), stacked)


def _decompose_uncached(m: GradedModule
                        ) -> list[tuple[GradedModule, np.ndarray]]:
    """Indecomposable summands of m, each with its inclusion matrix into m;
    together the inclusions form an invertible matrix.

    `_decompose_rec` is this split memoized by shift class, and the
    sub-summands go through it.  The split reads weights only through
    equality and sorted order.
    """
    if m.dim == 0:
        return []
    ff = m.field

    def included(incl: np.ndarray, sub: GradedModule):
        return [(piece, ff.matmul(incl, j))
                for piece, j in _decompose_rec(sub)]

    # cheap first split: weight-degree blocks are always direct summands
    by_deg = degree_decompose(m)
    if len(by_deg) > 1:
        degs = np.array([weight_degree(w) for w in m.weights])
        return [pair for d in sorted(by_deg)
                for pair in included(ff.eye(m.dim)[:, degs == d], by_deg[d])]
    basis = hom_space(m, m)
    if len(basis) == 1 or _is_local(m, basis):
        return [(m, ff.eye(m.dim))]
    for phi in _endo_candidates(m, basis):
        for c in range(ff.p):
            psi = (phi - c * ff.eye(m.dim)) % ff.p
            split = _fitting_split(m, psi)
            if split is not None:
                return [pair for sub, incl in split
                        for pair in included(incl.matrix, sub)]
    raise RuntimeError(
        "End(m) is not local over F_p, but no candidate endomorphism splits "
        "m: the module may only decompose over an extension field")


_decompose_rec = _shift_cached(256)(_decompose_uncached)
