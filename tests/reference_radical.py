"""The radical and socle as the span of the PBW radical of restricted sl2
acting on a module, kept as the reference for grmod's highest-weight
routines.

The radical J of u(sl2) is spanned by the combinations of the p^3 monomials
F^i H^j E^k that kill every simple L(a); J·m is the radical of m and the
joint kernel of J on m its socle.  Over k[X_1..X_r]/(X_i^p) the X_i
generate J.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from grquiver import constructions
from grquiver.gf import PrimeField
from grquiver.grmod import GradedModule, ModuleMap, submodule_from_subspace


@lru_cache(maxsize=None)
def sl2_radical_operators(p: int) -> tuple:
    """Weight-homogeneous elements spanning J, each a tuple of
    (coeff, i, j, k) terms of the monomials F^i H^j E^k."""
    ff = PrimeField(p)
    monos = [(i, j, k) for i in range(p) for j in range(p) for k in range(p)]
    # stack the representations of all simples: rows = one matrix entry each
    blocks = []
    for a in range(p):
        s = constructions.simple_hat(p, a)
        E, F, H = s.action["E"], s.action["F"], s.action["H"]
        cols = [ff.matmul(ff.matpow(F, i),
                          ff.matmul(ff.matpow(H, j), ff.matpow(E, k)))
                .reshape(-1) for (i, j, k) in monos]
        blocks.append(np.stack(cols, axis=1))
    kernel = ff.kernel_basis(np.vstack(blocks))
    # homogenize by PBW-monomial weight (k - i) and collect terms
    by_weight: dict[int, list[np.ndarray]] = {}
    for c in range(kernel.shape[1]):
        vec = kernel[:, c]
        comps: dict[int, np.ndarray] = {}
        for t, (i, j, k) in enumerate(monos):
            if vec[t]:
                comps.setdefault(k - i, np.zeros(len(monos), dtype=np.int64))
                comps[k - i][t] = vec[t]
        for wt, comp in comps.items():
            by_weight.setdefault(wt, []).append(comp)
    out = []
    for wt in sorted(by_weight):
        reduced = ff.column_space_basis(np.stack(by_weight[wt], axis=1))
        for c in range(reduced.shape[1]):
            out.append(tuple((int(reduced[t, c]), *monos[t])
                             for t in range(len(monos)) if reduced[t, c]))
    return tuple(out)


def radical_operator_matrices(m: GradedModule) -> list[np.ndarray]:
    """Matrices of a homogeneous spanning set of J acting on m."""
    ff = m.field
    if m.algebra.kind == "borel":
        return [m.action[g] for g in m.algebra.generators()]
    p = m.algebra.p
    E, F, H = m.action["E"], m.action["F"], m.action["H"]
    Fp = [ff.matpow(F, i) for i in range(p)]
    Hp = [ff.matpow(H, j) for j in range(p)]
    Ep = [ff.matpow(E, k) for k in range(p)]
    return [ff.combine([coeff for coeff, *_ in terms],
                       [ff.matmul(Fp[i], ff.matmul(Hp[j], Ep[k]))
                        for _, i, j, k in terms])
            for terms in sl2_radical_operators(p)]


def radical(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """J·m with its inclusion."""
    if m.dim == 0:
        return submodule_from_subspace(m, np.zeros((0, 0), dtype=np.int64))
    return submodule_from_subspace(m, np.hstack(radical_operator_matrices(m)))


def socle(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """The joint kernel of J on m, with its inclusion."""
    ops = radical_operator_matrices(m)
    return submodule_from_subspace(m, m.field.kernel_basis(np.vstack(ops)))
