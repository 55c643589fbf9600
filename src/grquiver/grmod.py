"""Z^2-graded modules over restricted sl2 and graded truncated polynomial rings.

A module is stored with a weight-homogeneous basis: ``weights[j]`` is the
weight of the j-th basis vector and every generator matrix maps weight
subspaces onto shifted weight subspaces.  All operations preserve this normal
form, which makes homogeneity checks syntactic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

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


def _field_cache(p: int, _cache={}) -> PrimeField:
    if p not in _cache:
        _cache[p] = PrimeField(p)
    return _cache[p]


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
        errs = []
        ff = self.source.field
        for j in range(self.source.dim):
            for i in range(self.target.dim):
                if self.matrix[i, j] and (self.target.weights[i]
                                          != self.source.weights[j]):
                    errs.append(f"entry ({i},{j}) violates weight preservation")
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
    comp = [j for j in range(m.dim) if j not in set(idx)]
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
    # grading compatibility, column by column
    for g in gens:
        d = m.algebra.action_shift(g)
        mat = m.action[g]
        for j in range(m.dim):
            tgt = add_weight(m.weights[j], d)
            for i in range(m.dim):
                if mat[i, j] and m.weights[i] != tgt:
                    report.append(
                        f"grading: {g}*e_{j} hits weight {m.weights[i]}, "
                        f"expected {tgt}")
    # torus-differential consistency
    if m.algebra.kind == "sl2r1":
        H = m.action["H"]
        for j in range(m.dim):
            a, b = m.weights[j]
            want = np.zeros(m.dim, dtype=np.int64)
            want[j] = (a - b) % p
            if not np.array_equal(H[:, j], want):
                report.append(f"H does not act as (a-b) mod p on basis "
                              f"vector {j} of weight {(a, b)}")
    return report


# ---------------------------------------------------------------------------
# shifts, duals, twists


def shift(m: GradedModule, lam: Weight) -> GradedModule:
    return GradedModule(m.algebra,
                        tuple(add_weight(w, lam) for w in m.weights),
                        dict(m.action))


def contravariant_dual(m: GradedModule) -> GradedModule:
    """m^o: transposition anti-automorphism; weight multiset preserved."""
    if m.algebra.kind != "sl2r1":
        raise ValueError("contravariant_dual requires the sl2r1 backend; "
                         "use borel_dual for the borel backend")
    action = {"E": m.action["F"].T.copy(),
              "F": m.action["E"].T.copy(),
              "H": m.action["H"].T.copy()}
    return GradedModule(m.algebra, m.weights, action)


def borel_dual(m: GradedModule) -> GradedModule:
    """Dual over the opposite weight convention of the borel backend."""
    if m.algebra.kind != "borel":
        raise ValueError("borel_dual requires the borel backend")
    alg = replace(m.algebra, raising=not m.algebra.raising)
    action = {g: m.action[g].T.copy() for g in m.algebra.generators()}
    return GradedModule(alg, m.weights, action)


def dual(m: GradedModule) -> GradedModule:
    """The duality of m's backend: contravariant (sl2r1) or borel."""
    return contravariant_dual(m) if m.algebra.kind == "sl2r1" else borel_dual(m)


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


def _weight_component_basis(m: GradedModule,
                            vectors: np.ndarray) -> np.ndarray:
    """Basis (as columns) of the span of the weight components of the
    columns, each basis column a weight vector of m.

    For each weight in sorted order, the components of that weight are
    taken in column order and their pivot columns kept; blocks of different
    weights have disjoint supports, so the result is independent.
    """
    ff = m.field
    order = sorted(set(m.weights))
    index = {w: t for t, w in enumerate(order)}
    wid = np.array([index[w] for w in m.weights], dtype=np.int64)
    cols = []
    for t in range(len(order)):
        rows = np.flatnonzero(wid == t)
        sub = vectors[rows]
        sub = sub[:, sub.any(axis=0)]
        if sub.shape[1] == 0:
            continue
        _, pivots, _ = ff.rref(sub)
        block = ff.zeros(m.dim, len(pivots))
        block[rows] = sub[:, pivots]
        cols.append(block)
    if not cols:
        return ff.zeros(m.dim, 0)
    return np.hstack(cols)


def homogenize_columns(m: GradedModule, basis: np.ndarray) -> np.ndarray:
    """Split columns of a graded subspace basis into weight components.

    Valid when the column space is graded (e.g. kernels/images of
    homogeneous operators); returns a weight-homogeneous basis of the same
    span.
    """
    out = _weight_component_basis(m, basis)
    # the components span at least the columns; equal ranks mean equal spans
    # (out is independent by construction, so its rank is its width)
    if out.shape[1] != m.field.rank(basis):
        raise ValueError("subspace is not graded")  # constraint, not expected
    return out


def _module_on_basis(m: GradedModule,
                     basis: np.ndarray) -> tuple[GradedModule, ModuleMap]:
    """Submodule structure on an invariant homogeneous column basis."""
    ff = m.field
    weights = []
    for j in range(basis.shape[1]):
        idx = int(np.flatnonzero(basis[:, j])[0])
        weights.append(m.weights[idx])
    gens = m.algebra.generators()
    coords = ff.solve_matrix(
        basis, np.hstack([ff.matmul(m.action[g], basis) for g in gens]))
    if coords is None:
        raise ValueError("basis not invariant under the action")
    k = basis.shape[1]
    action = {g: coords[:, t * k:(t + 1) * k] for t, g in enumerate(gens)}
    sub = GradedModule(m.algebra, tuple(weights), action)
    return sub, ModuleMap(sub, m, basis)


def submodule_span(m: GradedModule,
                   generators: list[np.ndarray]
                   ) -> tuple[GradedModule, ModuleMap]:
    """Smallest homogeneous submodule containing the given weight vectors."""
    ff = m.field
    vecs = [ff.reduce(v).reshape(-1) for v in generators]
    for v in vecs:
        if v.shape[0] != m.dim:
            raise ValueError("generator vector has wrong length")
        ws = {m.weights[i] for i in range(m.dim) if v[i]}
        if len(ws) > 1:
            raise ValueError("generator vector is not a weight vector")
    if not vecs or all(not np.any(v) for v in vecs):
        z = zero_module(m.algebra)
        return z, ModuleMap(z, m, np.zeros((m.dim, 0), dtype=np.int64))
    return _module_on_basis(m, _closure_basis(m, np.stack(vecs, axis=1)))


def _closure_basis(m: GradedModule, vectors: np.ndarray) -> np.ndarray:
    """Weight-vector basis of the smallest submodule containing the columns,
    each column a weight vector."""
    ff = m.field
    # a weight vector is its own weight component, so the component basis
    # is a basis of the span
    basis = _weight_component_basis(m, vectors)
    while True:
        images = [basis]
        for g in m.algebra.generators():
            images.append(ff.matmul(m.action[g], basis))
        new_basis = _weight_component_basis(m, np.hstack(images))
        if new_basis.shape[1] == basis.shape[1]:
            return basis
        basis = new_basis


def submodule_from_subspace(m: GradedModule,
                            basis: np.ndarray) -> tuple[GradedModule, ModuleMap]:
    """Submodule on an action-invariant graded subspace given by columns."""
    if basis.shape[1] == 0:
        z = zero_module(m.algebra)
        return z, ModuleMap(z, m, np.zeros((m.dim, 0), dtype=np.int64))
    hom = homogenize_columns(m, m.field.reduce(basis))
    return _module_on_basis(m, hom)


def quotient(m: GradedModule,
             sub_basis: np.ndarray) -> tuple[GradedModule, ModuleMap]:
    """Quotient by the homogeneous submodule spanned by the given columns."""
    ff = m.field
    if sub_basis.shape[0] != m.dim:
        raise ValueError("submodule basis has wrong ambient dimension")
    if sub_basis.shape[1] == 0:
        q = GradedModule(m.algebra, m.weights, dict(m.action))
        return q, ModuleMap(m, q, ff.eye(m.dim))
    basis = homogenize_columns(m, ff.reduce(sub_basis))
    k = basis.shape[1]
    # rref([basis | I]) = [[I_k; 0] | T] with T = [basis | e_chosen]^-1:
    # the pivots past the basis are the first standard vectors completing
    # it, and the last rows of T are the coordinates on those vectors
    r, pivots, _ = ff.rref(np.hstack([basis, ff.eye(m.dim)]))
    chosen = [c - k for c in pivots[k:]]
    proj = r[k:, k:]
    action = {}
    for g in m.algebra.generators():
        if np.any(ff.matmul(proj, ff.matmul(m.action[g], basis))):
            raise ValueError(f"submodule not closed under {g}")
        # action on the representatives e_j, in quotient coordinates
        action[g] = ff.matmul(proj, m.action[g][:, chosen])
    weights = tuple(m.weights[j] for j in chosen)
    q = GradedModule(m.algebra, weights, action)
    return q, ModuleMap(m, q, proj)


# ---------------------------------------------------------------------------
# radical / socle / top


def _highest_weight_vectors(m: GradedModule) -> np.ndarray:
    """Columns spanning, weight by weight, the vectors of an sl2r1-module
    that generate simple submodules: the joint kernel of E and F^(a+1) with
    a the eigenvalue of H on the weight space.

    A weight vector v with E v = 0 and H v = a v generates a quotient of the
    baby Verma module Z(a) = span{F^i v}, and that quotient is the simple
    L(a) exactly when F^(a+1) v = 0 (Jantzen, II.9).  a is read from H, not
    from the weight: a shift by mu with mu0 != mu1 mod p keeps H.
    """
    ff = m.field
    cols = []
    for w in sorted(set(m.weights)):
        idx = m.weight_indices(w)
        f_pow = m.action["F"][:, idx]
        for _ in range(int(m.action["H"][idx[0], idx[0]])):
            f_pow = ff.matmul(m.action["F"], f_pow)
        kernel = ff.kernel_basis(np.vstack([m.action["E"][:, idx], f_pow]))
        block = ff.zeros(m.dim, kernel.shape[1])
        block[idx] = kernel
        cols.append(block)
    return np.hstack(cols) if cols else ff.zeros(m.dim, 0)


def _socle_span(m: GradedModule) -> np.ndarray:
    """Columns spanning soc m: the joint kernel of the X_i (borel, whose
    simples are the characters), or the submodule the highest weight vectors
    generate (sl2r1)."""
    if m.algebra.kind == "borel":
        return m.field.kernel_basis(
            np.vstack([m.action[g] for g in m.algebra.generators()]))
    return _closure_basis(m, _highest_weight_vectors(m))


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
    ff = m.field
    return submodule_from_subspace(
        m, ff.kernel_basis(ff.kernel_basis(_socle_span(m).T).T))


def top(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """m / rad(m) with its projection."""
    return quotient(m, _radical_span(m))


# ---------------------------------------------------------------------------
# Hom, isomorphism, decomposition


def hom_space(m: GradedModule, n: GradedModule) -> list[np.ndarray]:
    """Basis of degree-0 intertwiners m -> n, as (dim n x dim m) matrices."""
    if m.algebra != n.algebra:
        raise ValueError("hom_space requires a common algebra")
    ff = m.field
    # unknowns: the entries phi[si[t], sj[t]] joining equal weights, in
    # row-major order
    wn = np.array(n.weights, dtype=np.int64).reshape(n.dim, 2)
    wm = np.array(m.weights, dtype=np.int64).reshape(m.dim, 2)
    si, sj = np.nonzero((wn[:, None, :] == wm[None, :, :]).all(axis=2))
    if si.size == 0:
        return []
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
    return list(basis)


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


def _fitting_split(m: GradedModule, psi: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray] | None:
    """Split m along ker(psi^dim) + im(psi^dim) when both are proper."""
    ff = m.field
    power = ff.matpow(psi, m.dim)
    kernel = ff.kernel_basis(power)
    if kernel.shape[1] in (0, m.dim):
        return None
    image = ff.column_space_basis(power)
    return kernel, image


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


def _endo_candidates(m: GradedModule,
                     basis: list[np.ndarray]) -> list[np.ndarray]:
    ff = m.field
    cands = list(basis)
    for i in range(len(basis)):
        for j in range(len(basis)):
            if i != j:
                cands.append(ff.matmul(basis[i], basis[j]))
    p = ff.p
    k = len(basis)
    stacked = np.stack(basis)
    if p ** k <= 2000:
        for coeffs in np.ndindex(*([p] * k)):
            cands.append(ff.combine(coeffs, stacked))
    else:
        rng = np.random.default_rng(0)
        for _ in range(64):
            cands.append(ff.combine(rng.integers(0, p, size=k), stacked))
    return cands


def _decompose_rec(m: GradedModule
                   ) -> list[tuple[GradedModule, np.ndarray]]:
    """Indecomposable summands of m, each with its inclusion matrix into m;
    together the inclusions form an invertible matrix."""
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
                kernel, image = split
                sub_k, incl_k = submodule_from_subspace(m, kernel)
                sub_i, incl_i = submodule_from_subspace(m, image)
                return (included(incl_k.matrix, sub_k)
                        + included(incl_i.matrix, sub_i))
    raise RuntimeError(
        "End(m) is not local over F_p, but no candidate endomorphism splits "
        "m: the module may only decompose over an extension field")
