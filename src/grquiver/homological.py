"""Projective covers, Heller shifts, AR translates, Ext^1 and almost split
sequences, Betti sequences and complexity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constructions
from .grmod import (GradedModule, ModuleMap, Weight, _decompose_rec,
                    _nilpotent_parts, _shift_cached, direct_sum, dual,
                    hom_coordinates, hom_space, is_isomorphic,
                    kernel_submodule, quotient, quotient_representatives,
                    shift, top, zero_module)


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


def projective_cover(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """Minimal projective cover (P, epi); epi is an iso on tops.

    epi is surjective because it is onto the top; `_presentation`
    certifies that from the dimension of its kernel.
    """
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
        reps = ff.eye(m.dim)[:, quotient_representatives(proj)]
        # Z(w) has the monomials X^c as basis, c in lexicographic order, and
        # every nonzero action entry is 1; the X_i commute, so the epi
        # sends X^c to X^c rep.  Powers of the last variable vary fastest.
        cols = reps[:, :, None]
        for g in reversed(m.algebra.generators()):
            powers = [cols]
            for _ in range(m.algebra.p - 1):
                powers.append(ff.matmul(m.action[g], powers[-1].reshape(
                    m.dim, -1)).reshape(cols.shape))
            cols = np.concatenate(powers, axis=2)
        return P, ModuleMap(P, m, cols.reshape(m.dim, -1))
    # sl2r1: one Q(a)[mu] per simple summand L(a)[mu] of the top, grouped by
    # isomorphism class in order of first appearance; the target P -> top(m)
    # sends the top of each Q(a)[mu] isomorphically onto its summand
    classes: dict[tuple[int, Weight], list[np.ndarray]] = {}
    for piece, incl in _decompose_rec(t):
        a = piece.dim - 1
        mu = piece.support_min()
        tq, proj_q = constructions._projective_top(m.algebra.p, a)
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
    return P, ModuleMap(P, m, ff.combine(x, basis))


def _free(m: GradedModule, x: np.ndarray) -> bool:
    """m is free over k[x]/(x^p) for the nilpotent operator x on m: p divides
    dim m and rank x = dim m * (p - 1) / p, i.e. every Jordan block of x has
    size p."""
    p = m.field.p
    return m.dim % p == 0 and m.field.rank(x) == m.dim * (p - 1) // p


def is_projective(m: GradedModule) -> bool:
    """m is free over k[x]/(x^p) for x = E, F (sl2r1) or each X_i (borel).

    The rank variety of m (Friedlander-Parshall, Invent. Math. 86, 1986;
    Carlson, J. Algebra 85, 1983) is a closed cone stable under the torus,
    and a torus limit of any nonzero point lies on a root line (sl2) or a
    coordinate axis (borel); so these elements decide projectivity.
    """
    gens = ["E", "F"] if m.algebra.kind == "sl2r1" else m.algebra.generators()
    return all(_free(m, m.action[g]) for g in gens)


# ---------------------------------------------------------------------------
# Heller shifts and the AR translate


@_shift_cached(256)
def _presentation(m: GradedModule) -> tuple:
    """(K, incl, P, epi) of `omega_with_maps`, the maps as matrices; K is
    the kernel of epi, whose dimension certifies that epi is onto."""
    P, epi = projective_cover(m)
    K, incl = kernel_submodule(P, epi.matrix)
    if K.dim != P.dim - m.dim:
        raise RuntimeError("projective cover is not surjective")
    return K, incl.matrix, P, epi.matrix


def omega_with_maps(m: GradedModule
                    ) -> tuple[GradedModule, ModuleMap, GradedModule,
                               ModuleMap]:
    """(K, incl, P, epi) with 0 -> K -> P -> m -> 0 a minimal presentation.

    K carries no projective summands: a projective submodule of P would be
    injective (self-injectivity), hence a direct summand, contradicting
    minimality of the cover.

    The presentation commutes with shift, so it is computed once per shift
    class (`_presentation`, memoized by `grmod._shift_cached`). A caller
    that needs K alone calls `omega`, which unpacks nothing else.
    """
    K, incl, P, epi = _presentation(m)
    return K, ModuleMap(K, P, incl), P, ModuleMap(P, m, epi)


def omega(m: GradedModule) -> GradedModule:
    """Omega m, the K of `omega_with_maps(m)` with the same bytes; of the
    cached presentation only K is unpacked."""
    return _presentation(m)[0]


def omega_pow(m: GradedModule, k: int) -> GradedModule:
    """Omega^k m; for k < 0 the dual of Omega^-k on the dual."""
    if k < 0:
        return dual(omega_pow(dual(m), -k))
    for _ in range(k):
        m = omega(m)
    return m


def nakayama(m: GradedModule) -> GradedModule:
    """Identity for sl2r1; for borel, the shift by (1 - p) times the sum of
    the generators' weight shifts: (p^r - 1)(1, -1) when X_1..X_r lower the
    weight, and its negative over the raising variant.

    The free module generated at lam has its socle at lam + (p - 1) times
    that sum, so the shift carries the projective cover of k_lam to its
    injective hull. With generators lowering the weight by (1, -1), the
    second syzygy of a character module sits at -p^r(1, -1), and the almost
    split sequence ending at k_mu starts at k_{mu - (1,-1)}.
    """
    alg = m.algebra
    if alg.kind == "sl2r1":
        return m
    shifts = [alg.action_shift(g) for g in alg.generators()]
    return shift(m, tuple((1 - alg.p) * sum(c) for c in zip(*shifts)))


def tau(m: GradedModule) -> GradedModule:
    return nakayama(omega_pow(m, 2))


def tau_inv(m: GradedModule) -> GradedModule:
    """tau^-1 m = dual(tau(dual m)).

    These are the bytes of Omega^-2 of the inverse Nakayama twist: the
    inverse twist is the dual of the twist on the dual, the twist is a
    shift, Omega commutes byte for byte with shifts through the shift-class
    cache, and dual(dual(x)) has the bytes of x.
    """
    return dual(tau(dual(m)))


# ---------------------------------------------------------------------------
# Ext^1 via stable Hom


@dataclass
class ExtClass:
    rep: ModuleMap  # omega(right) -> left


def _ext_system(incl: ModuleMap, w: GradedModule
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """Ext^1(v, w) = Hom(K, w) / span(B) for the minimal presentation
    incl: K = Omega(v) -> P of v, in the coordinates of the basis of
    Hom(K, w) (`hom_coordinates`).

    Returns that basis, stacked, and B, whose columns are the coordinates
    of the maps h o incl for h in Hom(P, w): the maps that factor through
    the cover. B has dim Hom(K, w) rows, and no columns when Hom(P, w) = 0.
    When Hom(K, w) = 0, B is None and Hom(P, w) is not built.
    """
    K, P = incl.source, incl.target
    homs = hom_space(K, w)
    if not homs:
        return np.zeros((0, w.dim, K.dim), dtype=np.int64), None
    at = hom_coordinates(homs)
    ff = w.field
    B = np.array([ff.matmul(h, incl.matrix).reshape(-1)[at]
                  for h in hom_space(P, w)],
                 dtype=np.int64).reshape(-1, len(homs)).T
    return np.stack(homs), B


def ext1(v: GradedModule, w: GradedModule
         ) -> tuple[int, list[ExtClass]]:
    """dim Ext^1(v, w) and stable-Hom representatives spanning it."""
    K, incl, _, _ = omega_with_maps(v)
    homs, B = _ext_system(incl, w)
    if B is None:
        return 0, []
    # the pivots of [B | I] past B pick, greedily, the homs that enlarge
    # the span of B: a basis of Ext^1 = Hom(K, w) / span(B)
    _, pivots, _ = v.field.rref(np.hstack([B, v.field.eye(len(homs))]))
    reps = [ExtClass(ModuleMap(K, w, homs[c - B.shape[1]]))
            for c in pivots if c >= B.shape[1]]
    return len(reps), reps


# ---------------------------------------------------------------------------
# almost split sequences


def almost_split_sequence(v: GradedModule) -> ShortExact:
    """The sequence 0 -> tau(v) -> E -> v -> 0 via the socle of Ext^1.

    The class is the (unique up to scalar) nonzero element of
    Ext^1(v, tau v) killed by composition with every radical endomorphism
    of tau v: the socle of Ext^1(v, tau v) over End(tau v) is the line of
    the almost split class, as is its socle over End(v) (Auslander, Reiten
    and Smalo, Representation Theory of Artin Algebras, Ch. V). The class
    is realized as a pushout of the minimal presentation.

    The sequence commutes with shift, so it is computed, and checked exact
    and non-split, once per shift class, as the presentation is
    (`_almost_split`); the right term is v itself.
    """
    left, middle, inj, surj = _almost_split(v)
    return ShortExact(left, middle, v, ModuleMap(left, middle, inj),
                      ModuleMap(middle, v, surj))


@_shift_cached(256)
def _almost_split(v: GradedModule) -> tuple:
    """(left, middle, inj, surj) of `_almost_split_uncached(v)`, the maps
    as matrices."""
    seq = _almost_split_uncached(v)
    return seq.left, seq.middle, seq.inj.matrix, seq.surj.matrix


def _almost_split_uncached(v: GradedModule) -> ShortExact:
    """`almost_split_sequence` computed on v."""
    if v.dim == 0 or is_projective(v):
        raise ValueError("almost split sequence needs an indecomposable "
                         "non-projective end term")
    ff = v.field
    K, incl, P, epi = omega_with_maps(v)
    tv = nakayama(omega(K))
    homs, B = _ext_system(incl, tv)
    if B is None:
        raise RuntimeError("Ext^1(v, tau v) vanishes; no almost split "
                           "sequence found")
    rad = _nilpotent_parts(tv, hom_space(tv, tv))
    if rad is None:
        raise RuntimeError("End(tau v) is not split local over F_p; "
                           "cannot form the almost split sequence")
    A = ff.kernel_basis(B.T).T  # the class of coordinates c is A @ c

    # solve for the coordinates x of h in Hom(K, tau v): A @ coords(mu o h)
    # = 0 for every radical endomorphism mu of tau v, with [h] nonzero; the
    # solution space modulo B must be one-dimensional
    n_h = len(homs)
    at = hom_coordinates(homs)
    sol = ff.kernel_basis(np.vstack([
        ff.matmul(A, ff.matmul(mu, homs).reshape(n_h, -1)[:, at].T)
        for mu in rad]))
    ext_img = ff.matmul(A, sol)  # image of the solution space in Ext
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
    # psi = (0, epi) kills rel, so surj is psi on the representatives of E
    psi = np.hstack([np.zeros((v.dim, tv.dim), dtype=np.int64), epi.matrix])
    surj = ModuleMap(E, v, psi[:, quotient_representatives(projD)])
    seq = ShortExact(tv, E, v, inj, surj)
    errs = seq.check()
    if errs:
        raise RuntimeError("constructed sequence is not exact: " + "; ".join(errs))
    if seq.is_split():
        raise RuntimeError("constructed sequence splits; not almost split")
    return seq


# ---------------------------------------------------------------------------
# Betti numbers and complexity


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
        # 0 -> Omega m -> P -> m -> 0, so dim P = dim m + dim Omega m
        k = omega(cur)
        dims.append(cur.dim + k.dim)
        cur = k
    return BettiSequence(dims)


def complexity(m: GradedModule) -> int:
    """The complexity of m, exactly, from its rank variety: 0, 1 or 2.

    0 when m is projective. Otherwise the rank variety V(m) is a nonzero
    closed cone stable under the torus (Friedlander-Parshall, Invent. Math.
    86, 1986; Carlson, J. Algebra 85, 1983), inside the nilpotent cone of
    sl2 or inside k^r for the borel algebra, and cx m = dim V(m). For
    r <= 2 the torus and the scalars have a dense orbit in that ambient
    variety, the orbit of x = E - F + H (sl2) or X_1 + X_2 (borel, r = 2);
    so V(m) is all of it, and cx m = 2, exactly when m is not free over x,
    and cx m = 1 otherwise. For r = 1 the ambient variety is a line. For
    r >= 3 the torus has no dense orbit, one point decides nothing, and
    ValueError is raised.
    """
    if is_projective(m):
        return 0
    alg = m.algebra
    if alg.kind == "sl2r1":
        x = m.action["E"] - m.action["F"] + m.action["H"]
    elif alg.r > 2:
        raise ValueError(f"complexity needs r <= 2 on the borel backend, "
                         f"got r = {alg.r}")
    elif alg.r == 2:
        x = sum(m.action[g] for g in alg.generators())
    else:
        return 1
    return 1 if _free(m, x % alg.p) else 2

