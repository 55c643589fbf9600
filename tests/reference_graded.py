"""The graded-subspace routines that grmod and polynomial replaced, kept as
the reference for their one-elimination versions: the weight components
reduced by one elimination per weight, the submodule and the quotient that
first homogenize their basis and test gradedness by two ranks, the
submodule structure solved on that basis, the closure that re-reduces
its whole basis every round, the socle as the closure of the highest
weight vectors, and u as a whole submodule followed by a quotient."""

from __future__ import annotations

import numpy as np

from grquiver.grmod import (GradedModule, ModuleMap, _highest_weight_kernel,
                            is_polynomial_weight, zero_module)


def weight_component_basis(m: GradedModule,
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
    out = weight_component_basis(m, basis)
    # the components span at least the columns; equal ranks mean equal spans
    # (out is independent by construction, so its rank is its width)
    if out.shape[1] != m.field.rank(basis):
        raise ValueError("subspace is not graded")  # constraint, not expected
    return out


def module_on_basis(m: GradedModule,
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


def submodule_from_subspace(m: GradedModule,
                            basis: np.ndarray) -> tuple[GradedModule, ModuleMap]:
    """Submodule on an action-invariant graded subspace given by columns."""
    if basis.shape[1] == 0:
        z = zero_module(m.algebra)
        return z, ModuleMap(z, m, np.zeros((m.dim, 0), dtype=np.int64))
    hom = homogenize_columns(m, m.field.reduce(basis))
    return module_on_basis(m, hom)


def closure_basis(m: GradedModule, vectors: np.ndarray) -> np.ndarray:
    """Weight-vector basis of the smallest submodule containing the columns,
    each column a weight vector.

    Each round reduces the whole basis again together with its images
    under every generator; `grmod._closure_basis` was this routine with
    the one-elimination component basis, before its rounds took only the
    images of the columns the last round added.
    """
    ff = m.field
    # a weight vector is its own weight component, so the component basis
    # is a basis of the span
    basis = weight_component_basis(m, vectors)
    while True:
        images = [basis]
        for g in m.algebra.generators():
            images.append(ff.matmul(m.action[g], basis))
        new_basis = weight_component_basis(m, np.hstack(images))
        if new_basis.shape[1] == basis.shape[1]:
            return basis
        basis = new_basis


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
    return module_on_basis(m, closure_basis(m, np.stack(vecs, axis=1)))


def highest_weight_vectors(m: GradedModule) -> np.ndarray:
    """Columns spanning, weight by weight, the vectors of an sl2r1-module
    that generate simple submodules (see `_highest_weight_kernel`)."""
    ff = m.field
    cols = []
    for w in sorted(set(m.weights)):
        idx = m.weight_indices(w)
        kernel = _highest_weight_kernel(m, idx)
        block = ff.zeros(m.dim, kernel.shape[1])
        block[idx] = kernel
        cols.append(block)
    return np.hstack(cols) if cols else ff.zeros(m.dim, 0)


def socle_span(m: GradedModule) -> np.ndarray:
    """Columns spanning the socle of an sl2r1-module: the submodule the
    highest weight vectors generate, closed round by round."""
    return closure_basis(m, highest_weight_vectors(m))


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


def u_poly(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """Largest polynomial quotient: divide by the submodule generated by the
    non-polynomial weight spaces."""
    bad = [j for j in range(m.dim) if not is_polynomial_weight(m.weights[j])]
    if not bad:
        q = GradedModule(m.algebra, m.weights, dict(m.action))
        return q, ModuleMap(m, q, m.field.eye(m.dim))
    gens = []
    for j in bad:
        e = np.zeros(m.dim, dtype=np.int64)
        e[j] = 1
        gens.append(e)
    sub, incl = submodule_span(m, gens)
    return quotient(m, incl.matrix)
