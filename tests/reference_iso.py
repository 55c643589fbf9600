"""Reference isomorphism test and decomposition: the search over
combinations of a Hom basis that the library's deterministic routines
replaced.

`is_isomorphic` tries every coefficient vector of Hom(m, n) in `np.ndindex`
order when there are at most 20000, and otherwise 64 seeded random draws
before the exhaustive search; `decompose` splits along Fitting
decompositions of candidate endomorphisms and groups the pieces with that
search.  Tests compare verdicts, matrices and summands with these.
"""

from __future__ import annotations

import numpy as np

from grquiver.grmod import (GradedModule, degree_decompose, hom_space,
                            submodule_from_subspace)


def is_isomorphic(m: GradedModule, n: GradedModule,
                  seed: int = 0) -> np.ndarray | None:
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
    basis = np.stack(basis)
    k = len(basis)
    p = ff.p
    if p ** k <= 20000:
        for coeffs in np.ndindex(*([p] * k)):
            phi = ff.combine(coeffs, basis)
            if ff.inv_matrix(phi) is not None:
                return phi
        return None
    rng = np.random.default_rng(seed)
    for _ in range(64):
        coeffs = rng.integers(0, p, size=k)
        phi = ff.combine(coeffs, basis)
        if ff.inv_matrix(phi) is not None:
            return phi
    for coeffs in np.ndindex(*([p] * k)):
        phi = ff.combine(coeffs, basis)
        if ff.inv_matrix(phi) is not None:
            return phi
    return None


def _fitting_split(m: GradedModule, psi: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray] | None:
    ff = m.field
    power = ff.matpow(psi, m.dim)
    kernel = ff.kernel_basis(power)
    if kernel.shape[1] in (0, m.dim):
        return None
    image = power[:, ff.rref(power)[1]]
    return kernel, image


def decompose(m: GradedModule, seed: int = 0
              ) -> list[tuple[GradedModule, int]]:
    pieces = _decompose_rec(m, seed)
    grouped: list[tuple[GradedModule, int]] = []
    for piece in pieces:
        for t, (rep, mult) in enumerate(grouped):
            if is_isomorphic(piece, rep, seed) is not None:
                grouped[t] = (rep, mult + 1)
                break
        else:
            grouped.append((piece, 1))
    return grouped


def _endo_candidates(m: GradedModule, basis: list[np.ndarray],
                     seed: int) -> list[np.ndarray]:
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
        rng = np.random.default_rng(seed)
        for _ in range(64):
            cands.append(ff.combine(rng.integers(0, p, size=k), stacked))
    return cands


def _decompose_rec(m: GradedModule, seed: int) -> list[GradedModule]:
    if m.dim == 0:
        return []
    by_deg = degree_decompose(m)
    if len(by_deg) > 1:
        return [piece for d in sorted(by_deg)
                for piece in _decompose_rec(by_deg[d], seed)]
    ff = m.field
    basis = hom_space(m, m)
    if len(basis) == 1:
        return [m]
    for phi in _endo_candidates(m, basis, seed):
        for c in range(ff.p):
            psi = (phi - c * ff.eye(m.dim)) % ff.p
            split = _fitting_split(m, psi)
            if split is not None:
                kernel, image = split
                sub_k, _ = submodule_from_subspace(m, kernel)
                sub_i, _ = submodule_from_subspace(m, image)
                return _decompose_rec(sub_k, seed) + _decompose_rec(sub_i, seed)
    for phi in basis:
        ok = False
        for c in range(ff.p):
            psi = (phi - c * ff.eye(m.dim)) % ff.p
            if not np.any(ff.matpow(psi, m.dim)):
                ok = True
                break
        if not ok:
            raise RuntimeError(
                "endomorphism without F_p eigenvalue: module may only "
                "decompose over an extension field")
    return [m]
