"""The polynomial-layer paths that faster ones replaced, kept as the
reference: t as a fixpoint shrink of the polynomial weight spaces, t and u
computed on the module itself without the shift-class cache, the free
module Z_r(lambda) built at lambda, the injective hull in the polynomial
category as t of the ambient hull, the borel projective cover as a walk
over the free module's action, and Ext-projectivity in the polynomial
category by the tau test, and the polynomial projective cover with the
section of u(P)'s projection found by a linear solve.  The injective
resolution as the duals of the projective resolution of the dual, which
only tests use, is kept here too."""

from __future__ import annotations

import numpy as np

from grquiver import constructions, homological, polynomial
from grquiver.grmod import (AlgebraKind, GradedModule, ModuleMap, Weight,
                            _closure_basis, _highest_weight_kernel,
                            direct_sum, dual, is_polynomial_weight, quotient,
                            submodule_from_subspace, top, zero_module)
from grquiver.homological import projective_cover


def has_polynomial_simple(m: GradedModule) -> bool:
    """True iff m has a simple submodule with polynomial support, that is,
    iff t(m) != 0.

    Over the borel algebra the simples are the characters: a vector at a
    polynomial weight killed by every X_i.  Over sl2r1 a highest weight
    vector at weight w on which H acts by a spans L(a), with weights
    w - i(1, -1) for i = 0..a.
    """
    if m.algebra.kind == "borel":
        good = [j for j in range(m.dim) if is_polynomial_weight(m.weights[j])]
        rank = m.field.rank(np.vstack([m.action[g][:, good]
                                       for g in m.algebra.generators()]))
        return rank < len(good)
    for x, y in dict.fromkeys(m.weights):
        idx = m.weight_indices((x, y))
        if (y >= 0 and x >= int(m.action["H"][idx[0], idx[0]])
                and _highest_weight_kernel(m, idx).size):
            return True
    return False


def ext_projective_in_poly(v: GradedModule) -> bool:
    """True iff v is projective over the ambient algebra or t(tau v) = 0."""
    return (homological.is_projective(v)
            or not has_polynomial_simple(homological.tau(v)))


def t_poly(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """Largest homogeneous submodule with polynomial support.

    Fixpoint shrink: start from the span of the polynomial weight spaces and
    repeatedly cut to vectors kept inside by every generator.
    """
    ff = m.field
    good = [j for j in range(m.dim) if is_polynomial_weight(m.weights[j])]
    basis = np.zeros((m.dim, len(good)), dtype=np.int64)
    for t, j in enumerate(good):
        basis[j, t] = 1
    gens = m.algebra.generators()
    while basis.shape[1] > 0:
        ann = ff.kernel_basis(basis.T).T  # rows; v in span iff ann @ v = 0
        if ann.shape[0] == 0:
            break  # span is everything invariant trivially
        rows = [ff.matmul(ann, ff.matmul(m.action[g], basis)) for g in gens]
        stacked = np.vstack(rows)
        if not np.any(stacked):
            break
        coords = ff.kernel_basis(stacked)
        if coords.shape[1] == basis.shape[1]:
            break
        basis = ff.matmul(basis, coords)
    return submodule_from_subspace(m, basis)


def _nonpolynomial_closure(m: GradedModule) -> np.ndarray:
    """Weight-vector basis of the submodule generated by the weight spaces
    of non-polynomial weight."""
    bad = [j for j in range(m.dim) if not is_polynomial_weight(m.weights[j])]
    return _closure_basis(m, m.field.eye(m.dim)[:, bad])


def t_poly_uncached(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """Largest homogeneous submodule with polynomial support: t(m) = u(m^o)^o,
    the annihilator of the non-polynomial closure of the dual under the
    pairing (x, y) -> x^T y."""
    closure = _nonpolynomial_closure(dual(m))
    return submodule_from_subspace(m, m.field.kernel_basis(closure.T))


def u_poly_uncached(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """Largest polynomial quotient: divide by the submodule generated by the
    non-polynomial weight spaces."""
    return quotient(m, _nonpolynomial_closure(m))


def borel_projective(lam: Weight, algebra: AlgebraKind) -> GradedModule:
    """Z_r(lambda): free of rank one with generator in weight lambda."""
    if algebra.kind != "borel":
        raise ValueError("borel_projective needs the borel backend")
    p, r = algebra.p, algebra.r
    gens = algebra.generators()
    shifts = [algebra.action_shift(g) for g in gens]
    exps = [tuple(c) for c in np.ndindex(*([p] * r))]  # lexicographic
    index = {c: t for t, c in enumerate(exps)}
    n = len(exps)
    weights = []
    for c in exps:
        w = lam
        for t, ct in enumerate(c):
            w = (w[0] + ct * shifts[t][0], w[1] + ct * shifts[t][1])
        weights.append(w)
    action = {}
    for t, g in enumerate(gens):
        mat = np.zeros((n, n), dtype=np.int64)
        for c in exps:
            if c[t] < p - 1:
                up = list(c)
                up[t] += 1
                mat[index[tuple(up)], index[c]] = 1
        action[g] = mat
    return GradedModule(algebra, tuple(weights), action)


def poly_injective_hull(v: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """Hull of v inside the polynomial category: t of the ambient injective
    hull with the induced mono."""
    ff = v.field
    dv = dual(v)
    Pd, epid = projective_cover(dv)
    I = dual(Pd)
    mono = ModuleMap(v, I, epid.matrix.T)
    tI, incl = t_poly(I)
    coords = ff.solve_matrix(incl.matrix, mono.matrix)
    if coords is None:
        raise RuntimeError("image of v does not land in t of the hull")
    return tI, ModuleMap(v, tI, coords)


def poly_injective_resolution_by_duals(v: GradedModule,
                                      n: int) -> list[GradedModule]:
    """First n terms of a minimal injective resolution inside the
    polynomial category: the duals of the projective resolution of v^o."""
    return [dual(t) for t in polynomial.poly_projective_resolution(dual(v), n)]


def poly_injective_resolution(v: GradedModule, n: int) -> list[GradedModule]:
    terms = []
    cur = v
    for _ in range(n):
        if cur.dim == 0:
            terms.append(zero_module(v.algebra))
            continue
        I, mono = poly_injective_hull(cur)
        terms.append(I)
        cur, _ = quotient(I, mono.matrix)
    return terms


def borel_projective_cover(m: GradedModule
                           ) -> tuple[GradedModule, ModuleMap]:
    """Minimal projective cover of a nonzero borel module; epi is an iso on
    tops."""
    ff = m.field
    t, proj = top(m)
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


def poly_projective_cover(v: GradedModule
                          ) -> tuple[GradedModule, ModuleMap]:
    """Cover of v by a projective object of the polynomial category: u of
    the ambient projective cover with the induced epi, epi composed with a
    section of u(P)'s projection."""
    ff = v.field
    _, _, P, epi = homological.omega_with_maps(v)
    uP, projP = polynomial.u_poly(P)
    # epi kills the non-polynomial-generated submodule, so it factors
    rep = ff.solve_matrix(projP.matrix, ff.eye(uP.dim))
    assert rep is not None
    phi = ff.matmul(epi.matrix, rep)
    cover = ModuleMap(uP, v, phi)
    if not cover.is_surjective():
        raise RuntimeError("induced polynomial cover is not surjective")
    return uP, cover
