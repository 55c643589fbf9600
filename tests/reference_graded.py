"""The graded-subspace routines that grmod and polynomial replaced, kept as
the reference for their one-elimination versions: the weight components
reduced by one elimination per weight, the quotient that first homogenizes
its basis and tests gradedness by two ranks, and u as a whole submodule
followed by a quotient."""

from __future__ import annotations

import numpy as np

from grquiver.grmod import (GradedModule, ModuleMap, _module_on_basis,
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


def closure_basis(m: GradedModule, vectors: np.ndarray) -> np.ndarray:
    """Weight-vector basis of the smallest submodule containing the columns,
    each column a weight vector."""
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
    return _module_on_basis(m, closure_basis(m, np.stack(vecs, axis=1)))


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
