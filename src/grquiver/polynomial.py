"""The polynomial-representation layer: torsion radical t (largest submodule
with polynomial support), its quotient partner u, almost split sequences and
resolutions inside the polynomial category, and the quasi-hereditary check
for the degree-d blocks on the borel side."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constructions, homological
from .grmod import (GradedModule, ModuleMap, Weight, _closure_basis,
                    _shift_cached, _weight_columns, dual, hom_space,
                    is_polynomial_weight, kernel_submodule, quotient,
                    quotient_representatives, weight_degree, zero_module)


@dataclass
class PolyVerdict:
    is_polynomial: bool
    offending_weights: list[Weight]
    degree: int | None  # common weight degree when homogeneous


def is_polynomial(m: GradedModule) -> PolyVerdict:
    bad = sorted({w for w in m.weights if not is_polynomial_weight(w)})
    return PolyVerdict(not bad, list(bad), m.degree())


def _closure_of(m: GradedModule, bad: tuple[int, ...]) -> np.ndarray:
    """Weight-vector basis of the submodule generated by the basis vectors
    bad: distinct unit vectors, a reduced basis once sorted by weight."""
    eye = m.field.eye(m.dim)
    return _closure_basis(m, _weight_columns(m, eye[:, list(bad)]))


def _outside(m: GradedModule) -> tuple[int, ...]:
    """The mask: the indices of m's basis vectors outside the polynomial
    quadrant."""
    return tuple(j for j, w in enumerate(m.weights)
                 if not is_polynomial_weight(w))


def t_poly(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """Largest homogeneous submodule with polynomial support: t(m) = u(m^o)^o,
    the annihilator of the non-polynomial closure of the dual under the
    pairing (x, y) -> x^T y."""
    return kernel_submodule(m, _closure_of(dual(m), _outside(m)).T)


def u_poly(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """Largest polynomial quotient: divide by the submodule generated by the
    non-polynomial weight spaces.

    u reads the weights only through the mask (`_outside`), weight
    equality and sorted weight order, which a shift keeps, so it is
    computed once per shift class and mask (`_u_poly`, memoized by
    `grmod._shift_cached`).
    """
    out = _u_poly(m, _outside(m))
    q = out[0]
    return q, out.as_map(1, m, q)


@_shift_cached(256)
def _u_poly(m: GradedModule, bad: tuple[int, ...]) -> tuple:
    """(u(m), its projection matrix), the vectors bad taken as the
    non-polynomial ones."""
    q, proj = quotient(m, _closure_of(m, bad))
    return q, proj.matrix


def induced_sequence(seq: homological.ShortExact
                     ) -> homological.ShortExact:
    """Apply t to the left and middle of a sequence with polynomial right
    term, with the induced maps."""
    tl, incl_l = t_poly(seq.left)
    tm, incl_m = t_poly(seq.middle)
    ff = seq.left.field
    inj_mat = ff.solve_matrix(incl_m.matrix,
                              ff.matmul(seq.inj.matrix, incl_l.matrix))
    if inj_mat is None:
        raise RuntimeError("t does not restrict the inclusion (unexpected)")
    surj_mat = ff.matmul(seq.surj.matrix, incl_m.matrix)
    return homological.ShortExact(tl, tm, seq.right,
                                  ModuleMap(tl, tm, inj_mat),
                                  ModuleMap(tm, seq.right, surj_mat))


def almost_split_in_poly(v: GradedModule) -> homological.ShortExact:
    """Almost split sequence of the polynomial category: t applied to the
    ambient almost split sequence ending at v.

    v is Ext-projective there, and no sequence ends at it, exactly when v
    is projective over the ambient algebra or t(tau v) = 0.
    """
    verdict = is_polynomial(v)
    if not verdict.is_polynomial:
        raise ValueError("end term must be polynomial")
    ext_projective = ValueError("end term is Ext-projective in the polynomial "
                                "category; no almost split sequence ends at it")
    if homological.is_projective(v):
        raise ext_projective
    seq = induced_sequence(homological.almost_split_sequence(v))
    if seq.left.dim == 0:
        raise ext_projective
    errs = seq.check()
    if errs:
        raise RuntimeError("induced sequence is not exact: " + "; ".join(errs))
    if seq.is_split():
        raise RuntimeError("induced sequence splits")
    return seq


# ---------------------------------------------------------------------------
# resolutions in the polynomial category


def poly_projective_cover(v: GradedModule
                          ) -> tuple[GradedModule, ModuleMap]:
    """Cover of v by a projective object of the polynomial category: u of
    the ambient projective cover (that of `omega_with_maps`, cached by
    shift class) with the induced epi."""
    _, _, P, epi = homological.omega_with_maps(v)
    uP, projP = u_poly(P)
    # epi kills the non-polynomial-generated submodule, so it factors, and
    # the induced epi is epi on the representatives of u(P)'s basis
    cover = ModuleMap(uP, v, epi.matrix[:, quotient_representatives(projP)])
    if not cover.is_surjective():
        raise RuntimeError("induced polynomial cover is not surjective")
    return uP, cover


def poly_projective_resolution(v: GradedModule, n: int) -> list[GradedModule]:
    """First n terms of a minimal projective resolution inside the
    polynomial category."""
    terms = []
    cur = v
    for _ in range(n):
        if cur.dim == 0:
            terms.append(zero_module(v.algebra))
            continue
        P, cover = poly_projective_cover(cur)
        terms.append(P)
        cur, _ = kernel_submodule(P, cover.matrix)
    return terms


# ---------------------------------------------------------------------------
# quasi-hereditary check (borel backend)


@dataclass
class StandardReport:
    weight: Weight
    dim: int
    unit_weight_space: bool
    lower_weights_only: bool
    scalar_endos: bool

    @property
    def passed(self) -> bool:
        return (self.unit_weight_space and self.lower_weights_only
                and self.scalar_endos)


def standard_module(lam: Weight, algebra) -> GradedModule:
    """Delta(lambda) = u(Z_r(lambda)): the standard module of the degree-d
    block on the borel side."""
    z = constructions.borel_projective(lam, algebra)
    return u_poly(z)[0]


def quasi_hereditary_check(p: int, r: int, d: int) -> list[StandardReport]:
    """Evidence that the degree-d polynomial category on the borel side is
    quasi-hereditary and directed: for every polynomial weight of degree d
    the standard module has a one-dimensional highest weight space, strictly
    lower other weights, and scalar endomorphisms."""
    algebra = constructions.borel_algebra(p, r)
    out = []
    for lam1 in range(d, -1, -1):
        lam = (lam1, d - lam1)
        delta = standard_module(lam, algebra)
        mult = len(delta.weight_indices(lam))
        others_lower = all(w == lam or (weight_degree(w) == d and w[0] < lam[0])
                           for w in delta.weights)
        endos = hom_space(delta, delta)
        out.append(StandardReport(lam, delta.dim, mult == 1, others_lower,
                                  len(endos) == 1))
    return out
