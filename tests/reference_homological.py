"""Reference routes of the homological layer.

The Heller-shift paths that unpacked every cached presentation term, kept
as the reference for the hit paths that unpack only what they return: Omega
as the K of `omega_with_maps`, Omega^-k as k steps of `omega_inv`, tau^-1 as
Omega^-2 of the inverse Nakayama twist, and the Betti numbers read off the
unpacked P.

The Ext^1 routes that read every class in the flattened coordinates of
Hom(K, w), kept as the reference for the routes in the coordinates of the
Hom basis: `ext1` reduces [B | flattened homs], and `_almost_split_uncached`
lifts each radical endomorphism nu of v through End(P) to Omega(nu) and
takes the classes killed by those, against a dense annihilator of B.
"""

from __future__ import annotations

import numpy as np

from grquiver.grmod import (GradedModule, ModuleMap, _nilpotent_parts,
                            direct_sum, dual, hom_space, quotient,
                            quotient_representatives)
from grquiver.homological import (BettiSequence, ExtClass, ShortExact,
                                  is_projective, nakayama, omega_with_maps)


def omega(m: GradedModule) -> GradedModule:
    return omega_with_maps(m)[0]


def omega_inv(m: GradedModule) -> GradedModule:
    return dual(omega(dual(m)))


def omega_pow(m: GradedModule, k: int) -> GradedModule:
    out = m
    for _ in range(abs(k)):
        out = omega(out) if k > 0 else omega_inv(out)
    return out


def nakayama_inv(m: GradedModule) -> GradedModule:
    """The inverse twist: the dual lives over the opposite weight
    convention, whose twist is the negative shift."""
    if m.algebra.kind == "sl2r1":
        return m
    return dual(nakayama(dual(m)))


def tau_inv(m: GradedModule) -> GradedModule:
    return omega_pow(nakayama_inv(m), -2)


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


def _ext_system(incl: ModuleMap, w: GradedModule
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """Ext^1(v, w) = Hom(K, w) / span(B) for the minimal presentation
    incl: K = Omega(v) -> P of v.

    Returns the basis of Hom(K, w), stacked, and B, whose columns are the
    flattened maps h o incl for h in Hom(P, w): the maps that factor
    through the cover. B has no columns when Hom(P, w) = 0. When
    Hom(K, w) = 0, B is None and Hom(P, w) is not built.
    """
    K, P = incl.source, incl.target
    homs = hom_space(K, w)
    if not homs:
        return np.zeros((0, w.dim, K.dim), dtype=np.int64), None
    ff = w.field
    B = np.array([ff.matmul(h, incl.matrix).reshape(-1)
                  for h in hom_space(P, w)],
                 dtype=np.int64).reshape(-1, w.dim * K.dim).T
    return np.stack(homs), B


def ext1(v: GradedModule, w: GradedModule
         ) -> tuple[int, list[ExtClass]]:
    """dim Ext^1(v, w) and stable-Hom representatives spanning it."""
    K, incl, _, _ = omega_with_maps(v)
    homs, B = _ext_system(incl, w)
    if B is None:
        return 0, []
    # the pivots of [B | homs] past B pick, greedily, the homs that enlarge
    # the span of B: a basis of Ext^1 = Hom(K, w) / span(B)
    _, pivots, _ = v.field.rref(
        np.hstack([B, homs.reshape(len(homs), -1).T]))
    reps = [ExtClass(ModuleMap(K, w, homs[c - B.shape[1]]))
            for c in pivots if c >= B.shape[1]]
    return len(reps), reps


def _radical_endos(v: GradedModule) -> list[np.ndarray]:
    """Basis of rad End(v) for indecomposable v (nilpotent parts)."""
    ff = v.field
    nil = _nilpotent_parts(v, hom_space(v, v))
    if nil is None:
        raise RuntimeError("End(v) is not split local over F_p; "
                           "cannot form the almost split sequence")
    flat = nil.reshape(len(nil), -1).T
    basis = flat[:, ff.rref(flat)[1]]
    return [basis[:, j].reshape(v.dim, v.dim) for j in range(basis.shape[1])]


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
    A = ff.kernel_basis(B.T).T  # Ext coordinates: class of f is A @ flat(f)

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
