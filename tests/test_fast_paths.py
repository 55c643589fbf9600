"""Vectorized library paths against the loops they replaced, which are kept
here (and in reference_gf) as the reference; results must be identical
arrays, not merely equal spans."""

import itertools

import numpy as np
import pytest

import reference_gf as R
from grquiver import arquiver as AQ
from grquiver import constructions as C
from grquiver import homological as H
from grquiver.grmod import (homogenize_columns, hom_space, quotient, radical,
                            socle)


def hom_space_loop(m, n):
    """hom_space as one equation per matrix entry, built entry by entry."""
    p = m.algebra.p
    slots = [(i, j) for i in range(n.dim) for j in range(m.dim)
             if n.weights[i] == m.weights[j]]
    if not slots:
        return []
    pos = {s: t for t, s in enumerate(slots)}
    rows = []
    for g in m.algebra.generators():
        A, B = n.action[g], m.action[g]
        for i in range(n.dim):
            for j in range(m.dim):
                row = np.zeros(len(slots), dtype=np.int64)
                nonzero = False
                for k in range(n.dim):
                    if A[i, k] and (k, j) in pos:
                        row[pos[(k, j)]] = (row[pos[(k, j)]] + A[i, k]) % p
                        nonzero = True
                for k in range(m.dim):
                    if B[k, j] and (i, k) in pos:
                        row[pos[(i, k)]] = (row[pos[(i, k)]] - B[k, j]) % p
                        nonzero = True
                if nonzero:
                    rows.append(row)
    kernel = (R.kernel_basis(p, np.stack(rows, axis=0)) if rows
              else np.eye(len(slots), dtype=np.int64))
    basis = []
    for c in range(kernel.shape[1]):
        mat = np.zeros((n.dim, m.dim), dtype=np.int64)
        for t, (i, j) in enumerate(slots):
            mat[i, j] = kernel[t, c]
        basis.append(mat)
    return basis


def quotient_loop(m, sub_basis):
    """(weights, action, projection) of quotient(m, sub_basis), completing
    the submodule basis greedily by one rank test per standard vector."""
    p = m.algebra.p
    basis = homogenize_columns(m, sub_basis % p)
    k = basis.shape[1]
    full, chosen = basis, []
    for j in range(m.dim):
        cand = np.hstack([full, np.eye(m.dim, dtype=np.int64)[:, [j]]])
        if R.rank(p, cand) > R.rank(p, full):
            full = cand
            chosen.append(j)
    proj = R.inv_matrix(p, full)[k:, :]
    action = {g: R.matmul(p, proj, m.action[g][:, chosen])
              for g in m.algebra.generators()}
    return tuple(m.weights[j] for j in chosen), action, proj


def ext1_loop(v, w):
    """ext1 with representatives picked by one rank test per hom."""
    p = v.algebra.p
    K, incl, P, _ = H.omega_with_maps(v)
    homs = hom_space(K, w)
    if not homs:
        return 0, []
    flat = np.stack([h.reshape(-1) for h in homs], axis=1)
    B = np.zeros((flat.shape[0], 0), dtype=np.int64)
    for h in hom_space(P, w):
        B = np.hstack([B, R.matmul(p, h, incl.matrix).reshape(-1, 1)])
    dim_ext = R.rank(p, np.hstack([flat, B])) - R.rank(p, B)
    reps, cur = [], B
    for h in homs:
        if len(reps) == dim_ext:
            break
        cand = np.hstack([cur, h.reshape(-1, 1)])
        if R.rank(p, cand) > R.rank(p, cur):
            reps.append(h)
            cur = cand
    return dim_ext, reps


def assert_same_basis(fast, slow):
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.dtype == b.dtype and np.array_equal(a, b)


SLICES = [(3, d) for d in range(3, 9)] + [(5, d) for d in range(5, 8)]


@pytest.fixture(scope="module")
def candidates():
    return {(p, d): [m for _, m in AQ.enumerate_degree_candidates(p, d)]
            for p, d in SLICES}


@pytest.fixture(scope="module")
def covers(candidates):
    return {key: [H.projective_cover(m)[0] for m in mods]
            for key, mods in candidates.items()}


@pytest.mark.parametrize("key", SLICES, ids=lambda k: f"p{k[0]}-d{k[1]}")
def test_hom_space_on_candidate_pairs(candidates, key):
    mods = candidates[key]
    for m, n in itertools.product(mods, mods):
        assert_same_basis(hom_space(m, n), hom_space_loop(m, n))


@pytest.mark.parametrize("key", SLICES, ids=lambda k: f"p{k[0]}-d{k[1]}")
def test_hom_space_with_projective_cover(candidates, covers, key):
    for m, P in zip(candidates[key], covers[key]):
        assert_same_basis(hom_space(P, m), hom_space_loop(P, m))
        assert_same_basis(hom_space(m, P), hom_space_loop(m, P))


def quotient_inputs(candidates, covers):
    """Tops and socle quotients of candidates and covers, and quotients of
    borel projectives by their radicals."""
    for mods in list(candidates.values()) + list(covers.values()):
        for m in mods:
            yield m, radical(m)[1].matrix
            yield m, socle(m)[1].matrix
    for p, r in ((3, 1), (3, 2), (5, 1)):
        z = C.borel_projective((0, 0), C.borel_algebra(p, r))
        yield z, radical(z)[1].matrix


def test_quotient_complement(candidates, covers):
    for m, sub in quotient_inputs(candidates, covers):
        q, proj = quotient(m, sub)
        weights, action, proj_loop = quotient_loop(m, sub)
        assert q.weights == weights
        assert np.array_equal(proj.matrix, proj_loop)
        for g in m.algebra.generators():
            assert np.array_equal(q.action[g], action[g])


@pytest.mark.parametrize("key", [(3, 3), (3, 4)],
                         ids=lambda k: f"p{k[0]}-d{k[1]}")
def test_ext1_representatives(candidates, key):
    mods = candidates[key]
    for v, w in itertools.product(mods, mods):
        dim, reps = H.ext1(v, w)
        dim_loop, reps_loop = ext1_loop(v, w)
        assert dim == dim_loop
        assert_same_basis([c.rep.matrix for c in reps], reps_loop)
