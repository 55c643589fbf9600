"""Independent un-graded linear-algebra oracle.

Works with raw action matrices only (all weight data discarded) so that
resolution dimensions and section-existence questions can be answered
without reusing any of the graded machinery under test. Its linear algebra
is the reference loop elimination of `reference_gf` and plain numpy.  The
sl2 simples and projectives it covers with are built here from the raw
matrices of V(d); from grquiver it takes only the borel free module.
"""

from __future__ import annotations

import numpy as np

import reference_gf as R
from grquiver import constructions
from grquiver.grmod import GradedModule


def hom_basis_ungraded(p: int, src: dict, tgt: dict,
                       gens: list[str], n: int, m: int) -> list[np.ndarray]:
    """Basis of {T : tgt[g] @ T == T @ src[g] for all g}, T of shape (m, n)."""
    blocks = []
    eye_n = np.eye(n, dtype=np.int64)
    eye_m = np.eye(m, dtype=np.int64)
    for g in gens:
        blocks.append(np.kron(eye_n, tgt[g]) - np.kron(src[g].T, eye_m))
    ker = (R.kernel_basis(p, np.vstack(blocks)) if blocks
           else np.eye(m * n, dtype=np.int64))
    return [ker[:, j].reshape(n, m).T for j in range(ker.shape[1])]


def _weyl_action(p: int, d: int) -> dict:
    """V(d) on v_0..v_d: E v_i = (i+1) v_{i+1}, F v_i = (d-i+1) v_{i-1},
    H v_i = (2i-d) v_i."""
    n = d + 1
    act = {g: np.zeros((n, n), dtype=np.int64) for g in ("E", "F", "H")}
    for i in range(n):
        if i + 1 < n:
            act["E"][i + 1, i] = (i + 1) % p
        if i > 0:
            act["F"][i - 1, i] = (d - i + 1) % p
        act["H"][i, i] = (2 * i - d) % p
    return act


def _projective_action(p: int, a: int) -> dict:
    """Un-graded Q(a): St = V(p-1) for a = p-1; otherwise the generalized
    eigenspace of the Casimir EF + FE + H^2/2 for ((a+1)^2 - 1)/2 on
    St (x) V(p-1-a), with the action restricted to it."""
    st = _weyl_action(p, p - 1)
    if a == p - 1:
        return st
    low = _weyl_action(p, p - 1 - a)
    n = p * (p - a)
    big = {g: (np.kron(st[g], np.eye(p - a, dtype=np.int64))
               + np.kron(np.eye(p, dtype=np.int64), low[g])) % p
           for g in st}
    half = pow(2, p - 2, p)
    c = ((a + 1) ** 2 - 1) * half % p
    E, F, H = big["E"], big["F"], big["H"]
    casimir = (R.matmul(p, E, F) + R.matmul(p, F, E) + half * R.matmul(p, H, H)
               - c * np.eye(n, dtype=np.int64)) % p
    basis = R.kernel_basis(p, R.matpow(p, casimir, n))
    assert basis.shape[1] == 2 * p, f"Casimir eigenspace of Q({a})"
    return {g: R.solve_matrix(p, basis, R.matmul(p, mat, basis))
            for g, mat in big.items()}


def _simples(alg) -> list[tuple[int, dict]]:
    """(dimension, action) of each simple module, forgetting the grading."""
    if alg.kind == "borel":
        return [(1, {g: np.zeros((1, 1), dtype=np.int64)
                     for g in alg.generators()})]
    return [(a + 1, _weyl_action(alg.p, a)) for a in range(alg.p)]


def _top_content(alg, action: dict, dim: int) -> list[int]:
    """Multiplicity of each simple of `_simples(alg)` in the top m / rad m.

    rad m is the intersection of the kernels of all maps to simples, and
    each simple S has End(S) = k, so S occurs dim Hom(m, S) times.
    """
    simples = _simples(alg)
    to_simples = [hom_basis_ungraded(alg.p, action, s_action,
                                     alg.generators(), dim, s_dim)
                  for s_dim, s_action in simples]
    maps = [t for homs in to_simples for t in homs]
    rad_dim = (R.kernel_basis(alg.p, np.vstack(maps)).shape[1] if maps
               else dim)
    content = [len(homs) for homs in to_simples]
    assert sum(mult * s_dim for mult, (s_dim, _)
               in zip(content, simples)) == dim - rad_dim
    return content


def ungraded_resolution_dims(module: GradedModule, n_terms: int,
                             seed: int = 0) -> list[int]:
    """Dimensions of a minimal un-graded projective resolution, computed
    from raw matrices only."""
    alg = module.algebra
    p = alg.p
    gens = alg.generators()
    rng = np.random.default_rng(seed)

    action = {g: module.action[g] for g in gens}
    dim = module.dim
    dims = []
    for _ in range(n_terms):
        if dim == 0:
            dims.append(0)
            continue
        content = _top_content(alg, action, dim)
        if alg.kind == "borel":
            covers = ([constructions.borel_projective((0, 0), alg).action]
                      * content[0])
        else:
            covers = [_projective_action(p, a)
                      for a in range(p - 1, -1, -1)
                      for _ in range(content[a])]
        p_action = {g: _stack_blocks([c[g] for c in covers]) for g in gens}
        p_dim = p_action[gens[0]].shape[0]
        basis = hom_basis_ungraded(p, p_action, action, gens, p_dim, dim)
        cover = _find_surjection(p, basis, dim, rng)
        assert cover is not None, "no surjective map from the candidate cover"
        dims.append(p_dim)
        ker = R.kernel_basis(p, cover)
        new_action = {}
        for g in gens:
            sol = R.solve_matrix(p, ker, R.matmul(p, p_action[g], ker))
            assert sol is not None
            new_action[g] = sol
        action, dim = new_action, ker.shape[1]
    return dims


def _stack_blocks(blocks: list[np.ndarray]) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=np.int64)
    pos = 0
    for b in blocks:
        out[pos:pos + b.shape[0], pos:pos + b.shape[0]] = b
        pos += b.shape[0]
    return out


def _find_surjection(p, basis, target_dim, rng):
    for t in basis:
        if R.rank(p, t) == target_dim:
            return t
    for _ in range(200):
        coeffs = rng.integers(0, p, size=len(basis))
        t = sum(int(c) * b for c, b in zip(coeffs, basis)) % p
        if R.rank(p, t) == target_dim:
            return t
    return None


def has_ungraded_section(seq) -> bool:
    """True iff the surjection of the sequence admits an un-graded
    module-map section (so the sequence splits after forgetting grading)."""
    v, e = seq.right, seq.middle
    alg = v.algebra
    n, m = v.dim, e.dim
    eye_n = np.eye(n, dtype=np.int64)
    eye_m = np.eye(m, dtype=np.int64)
    blocks = [np.kron(eye_n, e.action[g]) - np.kron(v.action[g].T, eye_m)
              for g in alg.generators()]
    # pi @ T == I_n, as rows on vec(T)
    blocks.append(np.kron(eye_n, seq.surj.matrix))
    rhs = np.concatenate([np.zeros(sum(b.shape[0] for b in blocks[:-1]),
                                   dtype=np.int64),
                          eye_n.T.reshape(-1)])
    return R.solve(alg.p, np.vstack(blocks), rhs) is not None
