"""Projective covers, Heller shifts, AR translates, Ext^1 and almost split
sequences, Betti sequences and rank-variety probes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import constructions
from .grmod import (AlgebraKind, GradedModule, ModuleMap, Weight,
                    _decompose_rec, _nilpotent_parts, direct_sum, dual,
                    hom_space, is_isomorphic, quotient, shift,
                    submodule_from_subspace, top, zero_module)


@dataclass
class ShortExact:
    left: GradedModule
    middle: GradedModule
    right: GradedModule
    inj: ModuleMap  # left -> middle
    surj: ModuleMap  # middle -> right

    def check(self) -> list[str]:
        errs = self.inj.check() + self.surj.check()
        ff = self.left.field
        if self.middle.dim != self.left.dim + self.right.dim:
            errs.append("middle dimension is not the sum of the ends")
        if not self.inj.is_injective():
            errs.append("left map not injective")
        if not self.surj.is_surjective():
            errs.append("right map not surjective")
        if np.any(ff.matmul(self.surj.matrix, self.inj.matrix)):
            errs.append("composite left-to-right is nonzero")
        return errs

    def is_split(self) -> bool:
        """True iff the surjection admits a section."""
        return _find_section(self.middle, self.right, self.surj.matrix,
                             self.right.field) is not None


def _find_section(middle: GradedModule, right: GradedModule,
                  surj: np.ndarray, ff) -> np.ndarray | None:
    basis = hom_space(right, middle)
    if not basis:
        return None
    cols = [ff.matmul(surj, s).reshape(-1) for s in basis]
    target = ff.eye(right.dim).reshape(-1)
    x = ff.solve(np.stack(cols, axis=1), target)
    if x is None:
        return None
    return ff.combine(x, basis)


# ---------------------------------------------------------------------------
# projective covers


@lru_cache(maxsize=None)
def _projective_top(p: int, a: int) -> tuple[GradedModule, np.ndarray]:
    """top(Q(a)) and the projection Q(a) -> top(Q(a)), read-only.

    top commutes with shift, so shifting the top by mu gives the top of
    Q(a)[mu] with the same projection matrix.
    """
    t, proj = top(constructions.projective_indec(p, a))
    for arr in (*t.action.values(), proj.matrix):
        arr.flags.writeable = False
    return t, proj.matrix


def projective_cover(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """Minimal projective cover (P, epi); epi is an iso on tops."""
    if m.dim == 0:
        z = zero_module(m.algebra)
        return z, ModuleMap(z, m, np.zeros((0, 0), dtype=np.int64))
    ff = m.field
    t, proj = top(m)
    if m.algebra.kind == "borel":
        covers = [constructions.borel_projective(w, m.algebra)
                  for w in t.weights]
        P = direct_sum(covers)
        # homogeneous preimages of the top basis vectors, as columns
        pre = ff.solve_matrix(proj.matrix, ff.eye(t.dim))
        assert pre is not None
        reps = np.where([[wi == w for w in t.weights] for wi in m.weights],
                        pre, 0)
        # epi: monomial basis of each free summand maps to action * rep
        cols = []
        gens = m.algebra.generators()
        for j, z in enumerate(covers):
            col_block = np.zeros((m.dim, z.dim), dtype=np.int64)
            # walk the free module: z basis vector c reached from generator
            # applications; reconstruct by following z's action matrices
            col_block[:, 0] = reps[:, j]
            pending = [0]
            seen = {0}
            while pending:
                i = pending.pop()
                for g in gens:
                    col = z.action[g][:, i]
                    nz = np.flatnonzero(col)
                    if nz.size == 0:
                        continue
                    k = int(nz[0])
                    if k not in seen:
                        col_block[:, k] = ff.matmul(
                            m.action[g], col_block[:, i]) * int(col[k]) % ff.p
                        seen.add(k)
                        pending.append(k)
            cols.append(col_block)
        epi_mat = np.hstack(cols)
        epi = ModuleMap(P, m, epi_mat)
        if not epi.is_surjective():
            raise RuntimeError("borel cover construction failed to surject")
        return P, epi
    # sl2r1: one Q(a)[mu] per simple summand L(a)[mu] of the top, grouped by
    # isomorphism class in order of first appearance; the target P -> top(m)
    # sends the top of each Q(a)[mu] isomorphically onto its summand
    classes: dict[tuple[int, Weight], list[np.ndarray]] = {}
    for piece, incl in _decompose_rec(t):
        a = piece.dim - 1
        mu = piece.support_min()
        tq, proj_q = _projective_top(m.algebra.p, a)
        psi = is_isomorphic(shift(tq, mu), piece)
        if psi is None:
            raise RuntimeError("top summand is not a shifted simple")
        classes.setdefault((a, mu), []).append(
            ff.matmul(incl, ff.matmul(psi, proj_q)))
    P = direct_sum([shift(constructions.projective_indec(m.algebra.p, a), mu)
                    for (a, mu), maps in classes.items() for _ in maps])
    target = np.hstack([f for maps in classes.values() for f in maps])
    basis = hom_space(P, m)
    cols = [ff.matmul(proj.matrix, phi).reshape(-1) for phi in basis]
    x = ff.solve(np.stack(cols, axis=1) if cols else
                 np.zeros((target.size, 0), dtype=np.int64),
                 target.reshape(-1))
    if x is None:
        raise RuntimeError("projectivity lift failed (should not happen)")
    epi = ModuleMap(P, m, ff.combine(x, basis))
    if not epi.is_surjective():
        raise RuntimeError("cover candidate is not surjective")
    return P, epi


def is_projective(m: GradedModule) -> bool:
    """m is free over k[x]/(x^p) for x = E, F (sl2r1) or each X_i (borel).

    The rank variety of m (Friedlander-Parshall, Invent. Math. 86, 1986;
    Carlson, J. Algebra 85, 1983) is a closed cone stable under the torus,
    and a torus limit of any nonzero point lies on a root line (sl2) or a
    coordinate axis (borel); so these elements decide projectivity.
    """
    ff = m.field
    gens = ["E", "F"] if m.algebra.kind == "sl2r1" else m.algebra.generators()
    free_rank = m.dim * (ff.p - 1) // ff.p
    return m.dim % ff.p == 0 and all(ff.rank(m.action[g]) == free_rank
                                     for g in gens)


# ---------------------------------------------------------------------------
# Heller shifts and the AR translate


def _packed(algebra: AlgebraKind, mats) -> np.ndarray:
    """mats, read-only, in the smallest unsigned type holding 0..p-1."""
    out = np.asarray(mats).astype(np.min_scalar_type(algebra.p - 1))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def _presentation(algebra: AlgebraKind, weights: tuple[Weight, ...],
                  action: bytes) -> tuple:
    """The minimal presentation of the module with these weights and this
    packed action (generators stacked in order), packed:
    ((K weights, K action), incl, (P weights, P action), epi)."""
    gens, n = algebra.generators(), len(weights)
    mats = np.frombuffer(action, dtype=np.min_scalar_type(algebra.p - 1))
    m = GradedModule(algebra, weights,
                     dict(zip(gens, mats.reshape(len(gens), n, n))))
    P, epi = projective_cover(m)
    K, incl = submodule_from_subspace(P, m.field.kernel_basis(epi.matrix))

    def module(x: GradedModule) -> tuple:
        return x.weights, _packed(algebra, [x.action[g] for g in gens])
    return (module(K), _packed(algebra, incl.matrix), module(P),
            _packed(algebra, epi.matrix))


def omega_with_maps(m: GradedModule
                    ) -> tuple[GradedModule, ModuleMap, GradedModule,
                               ModuleMap]:
    """(K, incl, P, epi) with 0 -> K -> P -> m -> 0 a minimal presentation.

    K carries no projective summands: a projective submodule of P would be
    injective (self-injectivity), hence a direct summand, contradicting
    minimality of the cover.

    The presentation commutes with shift, so it is computed once per shift
    class: `_presentation` (a bounded LRU cache) is keyed by m shifted so
    that its support minimum is (0, 0), and K and P are shifted back. The
    constructors copy the packed cached arrays into fresh int64 ones.
    """
    mu = m.support_min() if m.dim else (0, 0)
    gens = m.algebra.generators()
    (kw, ka), incl, (pw, pa), epi = _presentation(
        m.algebra, tuple((a - mu[0], b - mu[1]) for a, b in m.weights),
        _packed(m.algebra, [m.action[g] for g in gens]).tobytes())

    def unpacked(weights, mats) -> GradedModule:
        return GradedModule(m.algebra,
                            tuple((a + mu[0], b + mu[1]) for a, b in weights),
                            dict(zip(gens, mats)))
    K, P = unpacked(kw, ka), unpacked(pw, pa)
    return K, ModuleMap(K, P, incl), P, ModuleMap(P, m, epi)


def omega(m: GradedModule) -> GradedModule:
    return omega_with_maps(m)[0]


def omega_inv(m: GradedModule) -> GradedModule:
    return dual(omega(dual(m)))


def omega_pow(m: GradedModule, k: int) -> GradedModule:
    out = m
    for _ in range(abs(k)):
        out = omega(out) if k > 0 else omega_inv(out)
    return out


def nakayama(m: GradedModule) -> GradedModule:
    """Identity for sl2r1; shift by (p^r - 1)(1, -1) for borel.

    With generators lowering the weight by (1, -1), the second syzygy of a
    character module sits at -p^r(1, -1), and the almost split sequence
    ending at k_mu must start at k_{mu - (1,-1)}; this fixes the sign of
    the Nakayama twist.
    """
    if m.algebra.kind == "sl2r1":
        return m
    step = m.algebra.p ** m.algebra.r - 1
    return shift(m, (step, -step))


def nakayama_inv(m: GradedModule) -> GradedModule:
    if m.algebra.kind == "sl2r1":
        return m
    step = m.algebra.p ** m.algebra.r - 1
    return shift(m, (-step, step))


def tau(m: GradedModule) -> GradedModule:
    return nakayama(omega_pow(m, 2))


def tau_inv(m: GradedModule) -> GradedModule:
    return omega_pow(nakayama_inv(m), -2)


# ---------------------------------------------------------------------------
# Ext^1 via stable Hom


@dataclass
class ExtClass:
    rep: ModuleMap  # omega(right) -> left


def _left_annihilator(ff, cols: np.ndarray) -> np.ndarray:
    """Rows A with A @ cols = 0; membership f in span(cols) iff A @ f = 0."""
    return ff.kernel_basis(cols.T).T


def ext1(v: GradedModule, w: GradedModule
         ) -> tuple[int, list[ExtClass]]:
    """dim Ext^1(v, w) and stable-Hom representatives spanning it."""
    K, incl, P, epi = omega_with_maps(v)
    homs = hom_space(K, w)
    if not homs:
        return 0, []
    ff = v.field
    homsP = hom_space(P, w)
    factoring = [ff.matmul(h, incl.matrix).reshape(-1) for h in homsP]
    flat = np.stack([h.reshape(-1) for h in homs], axis=1)
    B = (np.stack(factoring, axis=1) if factoring
         else np.zeros((flat.shape[0], 0), dtype=np.int64))
    # the pivots of [B | flat] past B pick, greedily, the homs that enlarge
    # the span of B: a basis of Ext^1 = Hom(K, w) / span(B)
    _, pivots, _ = ff.rref(np.hstack([B, flat]))
    reps = [ExtClass(ModuleMap(K, w, homs[c - B.shape[1]]))
            for c in pivots if c >= B.shape[1]]
    return len(reps), reps


# ---------------------------------------------------------------------------
# almost split sequences


def _radical_endos(v: GradedModule) -> list[np.ndarray]:
    """Basis of rad End(v) for indecomposable v (nilpotent parts)."""
    ff = v.field
    nil = _nilpotent_parts(v, hom_space(v, v))
    if nil is None:
        raise RuntimeError("End(v) is not split local over F_p; "
                           "cannot form the almost split sequence")
    basis = ff.column_space_basis(nil.reshape(len(nil), -1).T)
    return [basis[:, j].reshape(v.dim, v.dim) for j in range(basis.shape[1])]


def almost_split_sequence(v: GradedModule) -> ShortExact:
    """The sequence 0 -> tau(v) -> E -> v -> 0 via the socle of Ext^1.

    The class is the (unique up to scalar) nonzero element of
    Ext^1(v, tau v) killed by precomposition with every radical
    endomorphism of v; realized as a pushout of the minimal presentation.
    """
    if v.dim == 0 or is_projective(v):
        raise ValueError("almost split sequence needs an indecomposable "
                         "non-projective end term")
    ff = v.field
    K, incl, P, epi = omega_with_maps(v)
    tv = nakayama(omega(K))
    homs = hom_space(K, tv)
    if not homs:
        raise RuntimeError("Ext^1(v, tau v) vanishes; no almost split "
                           "sequence found")
    homsP = hom_space(P, tv)
    B_cols = ([ff.matmul(h, incl.matrix).reshape(-1) for h in homsP]
              or [np.zeros(tv.dim * K.dim, dtype=np.int64)])
    B = np.stack(B_cols, axis=1)
    A = _left_annihilator(ff, B)  # Ext coordinates: class of f is A @ flat(f)

    if A.shape[0] == 0:
        raise RuntimeError("Ext^1(v, tau v) vanishes")

    # lift each radical endomorphism nu to rho: P -> P with
    # epi o rho = nu o epi, and restrict rho to Omega(nu): K -> K
    omegas = []
    rad = _radical_endos(v)
    if rad:
        endP = hom_space(P, P)
        x = ff.solve_matrix(
            np.stack([ff.matmul(epi.matrix, e).reshape(-1) for e in endP],
                     axis=1),
            np.stack([ff.matmul(nu, epi.matrix).reshape(-1) for nu in rad],
                     axis=1))
        if x is None:
            raise RuntimeError("projectivity lift failed for a radical endo")
        rhos = [ff.combine(x[:, t], endP) for t in range(len(rad))]
        onK = ff.solve_matrix(incl.matrix, np.hstack(
            [ff.matmul(rho, incl.matrix) for rho in rhos]))
        assert onK is not None
        omegas = np.split(onK, len(rad), axis=1)

    # solve for h in span(homs): A @ flat(h o Omega(nu)) = 0 for all nu,
    # with [h] nonzero; the solution space modulo B must be one-dimensional
    homs = np.stack(homs)
    n_h = len(homs)
    if omegas:
        sol = ff.kernel_basis(np.vstack([
            ff.matmul(A, ff.matmul(homs, onK).reshape(n_h, -1).T)
            for onK in omegas]))
    else:
        sol = ff.eye(n_h)
    # image of the solution space in Ext coordinates
    ext_img = ff.matmul(A, ff.matmul(homs.reshape(n_h, -1).T, sol))
    if ff.rank(ext_img) != 1:
        raise RuntimeError(
            f"socle of Ext^1(v, tau v) has dimension {ff.rank(ext_img)}, "
            "expected 1")
    jcol = next(j for j in range(ext_img.shape[1])
                if np.any(ext_img[:, j]))
    hmat = ff.combine(sol[:, jcol], homs)

    # pushout: E = (tv + P) / {(h(x), -incl(x))}
    D = direct_sum([tv, P])
    rel = np.vstack([hmat, (-incl.matrix) % ff.p])
    E, projD = quotient(D, rel)
    inj = ModuleMap(tv, E, projD.matrix[:, :tv.dim])
    psi = np.hstack([np.zeros((v.dim, tv.dim), dtype=np.int64), epi.matrix])
    S = ff.solve_matrix(projD.matrix.T, psi.T)
    assert S is not None
    surj = ModuleMap(E, v, S.T)
    seq = ShortExact(tv, E, v, inj, surj)
    errs = seq.check()
    if errs:
        raise RuntimeError("constructed sequence is not exact: " + "; ".join(errs))
    if seq.is_split():
        raise RuntimeError("constructed sequence splits; not almost split")
    return seq


# ---------------------------------------------------------------------------
# Betti numbers, complexity, rank probes


@dataclass
class BettiSequence:
    dims: list[int]


def betti(m: GradedModule, n_terms: int) -> BettiSequence:
    """Dimensions of the first n_terms terms of a minimal projective
    resolution."""
    if n_terms < 4:
        raise ValueError("n_terms must be at least 4")
    dims = []
    cur = m
    for _ in range(n_terms):
        if cur.dim == 0:
            dims.append(0)
            continue
        K, _, P, _ = omega_with_maps(cur)
        dims.append(P.dim)
        cur = K
    return BettiSequence(dims)


def complexity_estimate(m: GradedModule, window: int = 12) -> int | str:
    """Bounded-window heuristic: 0, 1, 2 or "unknown"."""
    b = betti(m, window).dims
    if 0 in b:
        return 0
    half = window // 2
    if max(b[half:]) <= max(b[:half]):
        return 1
    d = [b[i + 1] - b[i] for i in range(len(b) - 1)]
    if max(d[half:]) <= max(d[:half]):
        return 2
    return "unknown"


def rank_probe(m: GradedModule, x) -> dict:
    """Freeness of m over k[x]/(x^p) for a nilpotent x in sl2.

    Args:
        x: "E", "F", or a coefficient triple (a, b, c) meaning aE + bF + cH.
    """
    if m.algebra.kind != "sl2r1":
        raise ValueError("rank_probe applies to the sl2r1 backend")
    ff = m.field
    if x == "E":
        coeffs = (1, 0, 0)
    elif x == "F":
        coeffs = (0, 1, 0)
    else:
        coeffs = tuple(int(c) % ff.p for c in x)
    a, b, c = coeffs
    if (a, b, c) == (0, 0, 0) or (c * c + a * b) % ff.p != 0:
        raise ValueError(f"element {coeffs} is not nilpotent in sl2")
    op = (a * m.action["E"] + b * m.action["F"] + c * m.action["H"]) % ff.p
    rank = ff.rank(op)
    expected = m.dim * (ff.p - 1) // ff.p if m.dim % ff.p == 0 else None
    free = expected is not None and rank == expected
    return {"free": free, "rank": rank, "expected": expected}
