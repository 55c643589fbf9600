"""Output checks that do not rely on the code under test.

Everything here is plain numpy arithmetic mod p on the raw matrices and
weights of a module; nothing calls back into grquiver.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(AssertionError):
    """A task's output contradicts a fact the benchmark knows."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def rank_mod(a, p: int) -> int:
    """Rank of an integer matrix over F_p by Gaussian elimination."""
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        r += 1
    return r


def _gens(m) -> list[str]:
    return sorted(m.action)


def check_morphism(phi, src, tgt, what: str) -> None:
    """phi (dim tgt x dim src) preserves weights and intertwines the action."""
    p = src.algebra.p
    phi = np.asarray(phi, dtype=np.int64) % p
    require(phi.shape == (len(tgt.weights), len(src.weights)),
            f"{what}: matrix shape {phi.shape}")
    for i, j in zip(*np.nonzero(phi)):
        require(tgt.weights[i] == src.weights[j],
                f"{what}: entry ({i},{j}) joins different weights")
    require(_gens(src) == _gens(tgt), f"{what}: generator sets differ")
    for g in _gens(src):
        lhs = (np.asarray(tgt.action[g], dtype=np.int64) @ phi) % p
        rhs = (phi @ np.asarray(src.action[g], dtype=np.int64)) % p
        require(np.array_equal(lhs, rhs), f"{what}: does not commute with {g}")


def check_isomorphism(phi, src, tgt, what: str) -> None:
    """phi is an invertible intertwiner src -> tgt."""
    require(phi is not None, f"{what}: no isomorphism returned")
    check_morphism(phi, src, tgt, what)
    n = len(src.weights)
    require(len(tgt.weights) == n and rank_mod(phi, src.algebra.p) == n,
            f"{what}: matrix is not invertible")


def word_ranks(m) -> list[int]:
    """Ranks of a few words in E and F: isomorphism invariants of a
    restricted-sl2 module."""
    p = m.algebra.p
    E = np.asarray(m.action["E"], dtype=np.int64)
    F = np.asarray(m.action["F"], dtype=np.int64)
    words = [E, F, E @ E, F @ F, E @ F, F @ E, np.vstack([E, F])]
    return [rank_mod(w % p, p) for w in words]


def check_exact(seq, what: str) -> None:
    """0 -> left -> middle -> right -> 0 is a sequence of module maps,
    injective on the left, surjective on the right and exact in the
    middle (by dimension count)."""
    p = seq.left.algebra.p
    left, mid, right = seq.left, seq.middle, seq.right
    inj = np.asarray(seq.inj.matrix, dtype=np.int64)
    surj = np.asarray(seq.surj.matrix, dtype=np.int64)
    check_morphism(inj, left, mid, f"{what}: inclusion")
    check_morphism(surj, mid, right, f"{what}: projection")
    require(not np.any((surj @ inj) % p), f"{what}: composite is not zero")
    require(rank_mod(inj, p) == len(left.weights),
            f"{what}: inclusion is not injective")
    require(rank_mod(surj, p) == len(right.weights),
            f"{what}: projection is not surjective")
    require(len(mid.weights) == len(left.weights) + len(right.weights),
            f"{what}: dimensions do not add up")


def is_polynomial_support(weights) -> bool:
    return all(a >= 0 and b >= 0 for a, b in weights)
