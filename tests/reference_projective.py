"""The construction of Q(a) that `constructions.projective_indec` replaced,
kept as the reference for the Casimir eigenspace: the dim-2p summand with
top L(a) of St (x) L(p-1-a), found by a Krull-Schmidt decomposition."""

from __future__ import annotations

from grquiver.constructions import simple_hat, sl2_tensor
from grquiver.grmod import decompose, is_isomorphic, shift, top


def projective_indec(p: int, a: int):
    if a == p - 1:
        return simple_hat(p, p - 1)
    big = sl2_tensor(simple_hat(p, p - 1), simple_hat(p, p - 1 - a))
    for piece, _mult in decompose(big):
        if piece.dim != 2 * p:
            continue
        t, _ = top(piece)
        if t.dim != a + 1:
            continue
        mu = t.support_min()
        cand = shift(piece, (-mu[0], -mu[1]))
        tt, _ = top(cand)
        if is_isomorphic(tt, simple_hat(p, a)) is not None:
            return cand
    raise RuntimeError(f"no summand with top L({a}) found in St (x) "
                       f"L({p - 1 - a})")
