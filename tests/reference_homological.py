"""The Heller-shift paths that unpacked every cached presentation term, kept
as the reference for the hit paths that unpack only what they return: Omega
as the K of `omega_with_maps`, Omega^-k as k steps of `omega_inv`, tau^-1 as
Omega^-2 of the inverse Nakayama twist, and the Betti numbers read off the
unpacked P."""

from __future__ import annotations

from grquiver.grmod import GradedModule, dual
from grquiver.homological import BettiSequence, nakayama, omega_with_maps


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
