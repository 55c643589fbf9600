"""Vectorized library paths against the loops they replaced, which are kept
here (and in reference_gf) as the reference; results must be identical
arrays, not merely equal spans."""

import functools
import itertools

import numpy as np
import pytest

import reference_blocks as RB
import reference_complexity as RC
import reference_gf as R
import reference_graded as RG
import reference_homological as RH
import reference_iso as RI
import reference_polynomial as RPY
import reference_projective as RP
import reference_radical as RR
import ungraded_oracle as UO
from grquiver import arquiver as AQ
from grquiver import constructions as C
from grquiver import grmod as G
from grquiver import homological as H
from grquiver import polynomial
from grquiver.gf import PrimeField
from grquiver.grmod import (decompose, direct_sum, hom_space, is_isomorphic,
                            quotient, radical, socle, top)
from test_pinned_bytes import outer_tensors


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
    basis = RG.homogenize_columns(m, sub_basis % p)
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


def homogenize_columns_loop(m, basis):
    """homogenize_columns with one weight set per column and one masked
    component per (column, weight), grouped by weight."""
    p = m.algebra.p
    by_weight = {}
    for j in range(basis.shape[1]):
        v = basis[:, j]
        for w in sorted({m.weights[i] for i in range(m.dim) if v[i]}):
            comp = np.where([m.weights[i] == w for i in range(m.dim)], v, 0)
            by_weight.setdefault(w, []).append(comp)
    cols = []
    for w in sorted(by_weight):
        block = np.stack(by_weight[w], axis=1)
        cols.append(block[:, R.rref(p, block)[1]])
    out = (np.hstack(cols) if cols
           else np.zeros((m.dim, 0), dtype=np.int64))
    if R.rank(p, out) != R.rank(p, basis):
        raise ValueError("subspace is not graded")
    return out


def batched_full_rank(p, mats):
    """Full-rank flags of a stack of square matrices, by elimination of all
    of them at once."""
    a = np.array(mats, dtype=np.int64) % p
    count, n = a.shape[0], a.shape[1]
    inv = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)])
    full = np.ones(count, dtype=bool)
    rows = np.arange(count)
    for c in range(n):
        nonzero = a[:, c:, c] != 0
        full &= nonzero.any(axis=1)
        piv = c + nonzero.argmax(axis=1)
        top_row, piv_row = a[rows, c].copy(), a[rows, piv].copy()
        a[rows, c], a[rows, piv] = piv_row, top_row
        a[:, c] = a[:, c] * inv[a[:, c, c]][:, None] % p
        a[:, c + 1:] = (a[:, c + 1:] - a[:, c + 1:, c, None]
                        * a[:, c, None, :]) % p
    return full


def is_local_brute_force(m):
    """End(m) is local: its non-units, found by listing all p^k elements,
    are closed under addition, i.e. form a subspace of p^rank elements."""
    p = m.algebra.p
    basis = np.stack(hom_space(m, m))
    coeffs = np.array(list(itertools.product(range(p), repeat=len(basis))))
    units = np.concatenate([
        batched_full_rank(p, np.tensordot(chunk, basis, axes=1) % p)
        for chunk in np.array_split(coeffs, -(-len(coeffs) // 1000))])
    non_units = coeffs[~units]
    return len(non_units) == p ** R.rank(p, non_units)


def assert_same_summands(fast, slow):
    assert len(fast) == len(slow)
    for (a, ma), (b, mb) in zip(fast, slow):
        assert ma == mb and a.weights == b.weights
        for g in a.algebra.generators():
            assert np.array_equal(a.action[g], b.action[g])


def assert_same_basis(fast, slow):
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.dtype == b.dtype and np.array_equal(a, b)


SLICES = [(3, d) for d in range(3, 9)] + [(5, d) for d in range(5, 8)]
FIELDS = {p: PrimeField(p) for p in (3, 5)}


def clear_caches():
    """Empty the four shift-class caches."""
    for cache in (G._hom_space_cached, G._decompose_cached, H._presentation,
                  H._almost_split):
        cache.cache_clear()


def same_column_space(ff, a, b):
    """a and b span the same column space."""
    rank = ff.rank(a)
    return rank == ff.rank(b) == ff.rank(np.hstack([a, b]))


@pytest.fixture(scope="module")
def candidates():
    return {(p, d): [m for _, m in RB.enumerate_degree_candidates(p, d)]
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


def equal_weight_pairs(mods):
    return [(a, b) for a, b in itertools.product(mods, mods)
            if sorted(a.weights) == sorted(b.weights)]


def rebased(m, rng):
    """m in another weight basis: conjugated by a random invertible
    weight-preserving matrix, so an isomorphism to it is not the identity."""
    p = m.algebra.p
    same = np.array([[v == w for w in m.weights] for v in m.weights])
    while True:
        t = np.where(same, rng.integers(0, p, (m.dim, m.dim)), 0)
        t_inv = R.inv_matrix(p, t)
        if t_inv is not None:
            break
    action = {g: R.matmul(p, R.matmul(p, t, a), t_inv)
              for g, a in m.action.items()}
    return G.GradedModule(m.algebra, m.weights, action)


@pytest.mark.parametrize("key", SLICES, ids=lambda k: f"p{k[0]}-d{k[1]}")
def test_isomorphism_against_search(candidates, key):
    rng = np.random.default_rng(sum(key))
    mods = candidates[key]
    for a, b in equal_weight_pairs(mods) + [(m, rebased(m, rng))
                                            for m in mods]:
        fast, slow = is_isomorphic(a, b), RI.is_isomorphic(a, b)
        assert (fast is None) == (slow is None)
        p, k = a.algebra.p, len(hom_space(a, b))
        if slow is not None and p ** k <= 20000:  # the search was exhaustive
            assert fast.dtype == slow.dtype and np.array_equal(fast, slow)
        s = direct_sum([a, b])
        assert_same_summands(decompose(s), RI.decompose(s))


@pytest.mark.parametrize("key", SLICES, ids=lambda k: f"p{k[0]}-d{k[1]}")
def test_local_ring_against_brute_force(candidates, key):
    # candidates are indecomposable; sums of two of them give non-local
    # rings, brute-forced while p^dim End stays small
    mods = candidates[key]
    for m in mods:
        basis = hom_space(m, m)
        if len(basis) <= 6:
            assert G._is_local(m, basis) and is_local_brute_force(m)
    for a, b in equal_weight_pairs(mods):
        m = direct_sum([a, b])
        basis = hom_space(m, m)
        if m.algebra.p ** len(basis) <= 1000:
            assert not G._is_local(m, basis)
            assert not is_local_brute_force(m)


def test_local_ring_rejects_unipotent_basis():
    # End(a + a) = M_2(F_p) for a with End(a) = F_p, written in a basis of
    # unipotent and nilpotent matrices: every element has an eigenvalue in
    # F_p, and only the products of the nilpotent parts show the ring is
    # not local
    a = C.weyl_hat(3, 4)
    m = direct_sum([a, a])
    eye = np.eye(a.dim, dtype=np.int64)
    basis = [np.kron(np.array(x), eye) % 3
             for x in ([[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]],
                       [[1, 1], [-1, -1]])]
    assert len(hom_space(a, a)) == 1 and len(hom_space(m, m)) == 4
    assert G._nilpotent_parts(m, basis) is not None
    assert not G._is_local(m, basis) and not is_local_brute_force(m)


def test_homogenize_columns_against_loop(candidates, covers, monkeypatch):
    seen = []
    real = G._weight_component_basis

    def record(m, vectors):
        seen.append((m, vectors.copy()))
        return real(m, vectors)
    monkeypatch.setattr(G, "_weight_component_basis", record)
    clear_caches()  # Hom, splits and Omega must compute, not hit a cache
    for mods in list(candidates.values()) + list(covers.values()):
        for m in mods:
            for build in (radical, socle, H.omega_with_maps,
                          polynomial.t_poly, polynomial.u_poly):
                build(m)
    monkeypatch.undo()
    assert len(seen) > 1000
    for m, vectors in seen:
        assert np.array_equal(G._weight_component_basis(m, vectors),
                              homogenize_columns_loop(m, vectors))


def omega_with_maps_uncached(m):
    """omega_with_maps as one cover and one kernel of m itself."""
    P, epi = H.projective_cover(m)
    K, incl = G.submodule_from_subspace(P, m.field.kernel_basis(epi.matrix))
    return K, incl, P, epi


def presentation_bytes(pres):
    """Weights, action bytes and map bytes of (K, incl, P, epi)."""
    K, incl, P, epi = pres
    out = [K.weights, P.weights, incl.matrix.dtype, incl.matrix.tobytes(),
           epi.matrix.dtype, epi.matrix.tobytes()]
    for mod in (K, P):
        for g in mod.algebra.generators():
            out += [mod.action[g].dtype, mod.action[g].tobytes()]
    return out


SHIFTS = [(-2, 1), (0, 0), (3, 3)]


def legal_origin(m):
    """m moved by a legal shift (mu0 = mu1 mod p) to the support minimum
    (c, 0) with 0 <= c < p."""
    a, b = m.support_min()
    return G.shift(m, (-(a - (a - b) % m.algebra.p), -b))


@pytest.mark.parametrize("key", SLICES, ids=lambda k: f"p{k[0]}-d{k[1]}")
def test_presentation_cache_is_shift_exact(candidates, key):
    # a hit served from another shift of the same module, a cold miss and
    # the cover computed on the shifted module itself agree byte for byte
    mods = candidates[key]
    shifted = [G.shift(m, lam) for m in mods for lam in SHIFTS]
    H._presentation.cache_clear()
    warm = [presentation_bytes(H.omega_with_maps(m)) for m in shifted]
    # one miss per class under legal shifts; (-2, 1) is legal at p=3 only
    classes = {legal_origin(m).to_json() for m in shifted}
    assert H._presentation.cache_info().misses == len(classes)
    for m, got in zip(shifted, warm):
        H._presentation.cache_clear()
        assert got == presentation_bytes(H.omega_with_maps(m))
        assert got == presentation_bytes(omega_with_maps_uncached(m))


def test_presentation_cache_hands_out_copies():
    m = C.w_hat(3, 4)
    first = H.omega_with_maps(m)
    before = presentation_bytes(first)
    K, incl, P, epi = first
    for mat in [incl.matrix, epi.matrix, *K.action.values(),
                *P.action.values()]:
        mat += 1
    assert presentation_bytes(H.omega_with_maps(m)) == before


@pytest.mark.parametrize("d", [3, 4, 6])
def test_tau_walk_misses_once_per_shift_class(d):
    # tau(W(d)) is a shift of W(d): the walk computes Omega(W(d)) and
    # Omega^2(W(d)) once and serves every later step from the cache
    H._presentation.cache_clear()
    m = C.w_hat(3, d)
    for _ in range(8):
        m = H.tau(m)
    assert H._presentation.cache_info().misses == 2
    assert sorted(m.weights) != sorted(C.w_hat(3, d).weights)


def module_bytes(m):
    """Algebra, weights and action bytes of m."""
    return [m.algebra, m.weights] + [
        (m.action[g].dtype, m.action[g].tobytes())
        for g in m.algebra.generators()]


def hit_path_inputs(candidates, key):
    """The candidates of a slice, or over the borel algebra Omega^i k for
    i = 1..3 at (p, r) in {3, 5} x {1, 2} and the five outer tensors of
    acceptance criterion 11 at p in {3, 5}."""
    if key != "borel":
        return candidates[key]
    mods = []
    for p, r in itertools.product((3, 5), (1, 2)):
        k = G.character_module(C.borel_algebra(p, r), (0, 0))
        mods += [RH.omega_pow(k, i) for i in (1, 2, 3)]
    return mods + [m for p in (3, 5) for m in outer_tensors(p)]


@pytest.mark.parametrize("key", SLICES + ["borel"], ids=lambda k: (
    k if k == "borel" else f"p{k[0]}-d{k[1]}"))
def test_hit_paths_against_full_unpacking(candidates, key):
    # Omega, Omega^-3, tau^-1 and the Betti numbers against the routines
    # that unpacked every presentation term and took tau^-1 as Omega^-2 of
    # the inverse Nakayama twist: byte for byte from a cold cache, warm,
    # and warmed by the reference
    def fast(m):
        return [module_bytes(H.omega(m)), module_bytes(H.omega_pow(m, -3)),
                module_bytes(H.tau_inv(m)), H.betti(m, 5).dims]

    def slow(m):
        return [module_bytes(RH.omega(m)), module_bytes(RH.omega_pow(m, -3)),
                module_bytes(RH.tau_inv(m)), RH.betti(m, 5).dims]
    mods = hit_path_inputs(candidates, key)
    assert mods
    for m in mods:
        clear_caches()
        cold = fast(m)
        assert cold == fast(m) == slow(m)
        clear_caches()
        assert slow(m) == fast(m) == cold


@pytest.mark.parametrize("build", [
    lambda: C.w_hat(3, 7),
    lambda: RH.omega(G.character_module(C.borel_algebra(5, 2), (0, 0)))],
    ids=["W(7)", "borel-omega-k"])
def test_hit_paths_unpack_only_what_they_return(build, monkeypatch):
    # on a warm cache Omega unpacks K alone, the Betti numbers unpack one
    # K per term, and tau^-1 is tau on the dual, with no Omega^-1
    m = build()
    H.omega(m), H.tau_inv(m), H.betti(m, 4)
    misses = H._presentation.cache_info().misses
    unpacked = []
    real = H._unpacked
    monkeypatch.setattr(H, "_unpacked",
                        lambda *args: unpacked.append(1) or real(*args))
    monkeypatch.setattr(H, "omega_with_maps", lambda m: pytest.fail(
        "omega_with_maps was called"))
    H.omega(m)
    assert len(unpacked) == 1
    assert 0 not in H.betti(m, 4).dims
    assert len(unpacked) == 1 + 4
    H.tau_inv(m)
    assert H._presentation.cache_info().misses == misses


def sequence_bytes(seq):
    """Weights, action bytes and map bytes of the left and middle terms and
    the maps of a short exact sequence."""
    out = []
    for mod in (seq.left, seq.middle):
        out.append(mod.weights)
        for g in mod.algebra.generators():
            out += [mod.action[g].dtype, mod.action[g].tobytes()]
    for f in (seq.inj, seq.surj):
        out += [f.matrix.dtype, f.matrix.tobytes()]
    return out


def class_origin(m):
    """m moved by a legal shift to its shift class's origin: `legal_origin`
    over sl2r1, the support minimum (0, 0) over the borel algebra."""
    if m.algebra.kind == "sl2r1":
        return legal_origin(m)
    return G.shift(m, tuple(-c for c in m.support_min()))


def almost_split_ends(key):
    """The non-projective candidates of a slice, or over the borel algebra
    the syzygies of k and the outer tensors of acceptance criterion 11."""
    if key == "borel":
        mods = [m for m in borel_graded_modules() if m.dim <= 27]
    else:
        mods = [lab.build(key[0]) for lab, _ in degree_candidates(*key)]
    return [m for m in mods if not H.is_projective(m)]


@pytest.mark.parametrize("key", SLICES + ["borel"], ids=lambda k: (
    k if k == "borel" else f"p{k[0]}-d{k[1]}"))
def test_almost_split_cache_is_shift_exact(key):
    # a hit served from another shift of the same module, a cold miss and
    # the uncached body run on the shifted module agree byte for byte, and
    # the right term is the module itself
    shifted = [G.shift(m, lam) for m in almost_split_ends(key)
               for lam in SHIFTS]
    H._almost_split.cache_clear()
    warm = [H.almost_split_sequence(m) for m in shifted]
    # one miss per class under legal shifts; (-2, 1) is legal at p=3 only
    classes = {class_origin(m).to_json() for m in shifted}
    assert H._almost_split.cache_info().misses == len(classes)
    assert len(classes) < len(shifted)
    for m, seq in zip(shifted, warm):
        assert seq.right is m
        H._almost_split.cache_clear()
        got = sequence_bytes(seq)
        assert got == sequence_bytes(H.almost_split_sequence(m))
        assert got == sequence_bytes(H._almost_split_uncached(m))


def test_almost_split_cache_hands_out_copies():
    m = C.w_hat(3, 6)
    first = H.almost_split_sequence(m)
    before = sequence_bytes(first)
    for mat in [first.inj.matrix, first.surj.matrix,
                *first.left.action.values(), *first.middle.action.values()]:
        mat += 1
    assert sequence_bytes(H.almost_split_sequence(m)) == before


def basis_bytes(basis):
    return [(b.dtype, b.tobytes()) for b in basis]


def summand_bytes(pieces):
    """Weights, action bytes and inclusion bytes of (piece, inclusion)
    pairs."""
    out = []
    for piece, incl in pieces:
        out += [piece.weights, incl.dtype, incl.tobytes()]
        for g in piece.algebra.generators():
            out += [piece.action[g].dtype, piece.action[g].tobytes()]
    return out


@pytest.mark.parametrize("key", SLICES, ids=lambda k: f"p{k[0]}-d{k[1]}")
def test_hom_and_split_caches_are_shift_exact(candidates, key, monkeypatch):
    # the cached Hom bases and Krull-Schmidt splits of shifted candidates
    # and of their sums, served after warming on the unshifted modules,
    # equal the uncached bodies run on the shifted modules byte for byte
    mods = candidates[key]
    inputs = mods + [direct_sum([a, b]) for i, a in enumerate(mods)
                     for b in mods[i:] if a.dim + b.dim <= 30]
    rebuilt = {}
    real = G._unpacked

    def record(*args):
        m = real(*args)
        rebuilt[m.weights, tuple(a.tobytes() for a in m.action.values())] = m
        return m

    def misses():
        return (G._hom_space_cached.cache_info().misses,
                G._decompose_cached.cache_info().misses)

    def warm(m, n):
        """Cache Hom(m, n) and, for n = m, the split of m, recording every
        module the caches build; the miss counts after."""
        with monkeypatch.context() as patch:
            patch.setattr(G, "_unpacked", record)
            hom_space(m, n)
            if n is m:
                G._decompose_rec(m)
        return misses()
    clear_caches()
    # (3, 3) is legal and hits; (-2, 1) leaves H inconsistent at p=5
    for lam in [(3, 3), (-2, 1)]:
        for m in inputs:
            before, s = warm(m, m), G.shift(m, lam)
            basis, pieces = hom_space(s, s), G._decompose_rec(s)
            assert lam != (3, 3) or misses() == before
            assert basis_bytes(basis) \
                == basis_bytes(G._hom_space_uncached(s, s))
            assert summand_bytes(pieces) \
                == summand_bytes(G._decompose_uncached(s))
        for a, b in itertools.product(mods, mods):
            before, sa, sb = warm(a, b), G.shift(a, lam), G.shift(b, lam)
            basis = hom_space(sa, sb)
            assert lam != (3, 3) or misses() == before
            assert basis_bytes(basis) \
                == basis_bytes(G._hom_space_uncached(sa, sb))
    # every input is valid, so every module the caches built is
    assert rebuilt and all(G.validate(m) == [] for m in rebuilt.values())


def test_hom_and_split_caches_hand_out_copies():
    m = direct_sum([C.w_hat(3, 4), C.weyl_hat(3, 4), C.w_hat(3, 4)])
    basis, pieces = hom_space(m, m), G._decompose_rec(m)
    before = basis_bytes(basis), summand_bytes(pieces)
    assert len(pieces) == 3
    for mat in basis + [a for piece, incl in pieces
                        for a in [incl, *piece.action.values()]]:
        mat += 1
    assert before == (basis_bytes(hom_space(m, m)),
                      summand_bytes(G._decompose_rec(m)))


def projectivity_inputs(candidates):
    """Candidates with their covers, syzygies and sums with their covers;
    borel characters, free modules, syzygies and sums."""
    for mods in candidates.values():
        for m in mods:
            P = H.projective_cover(m)[0]
            yield from (m, P, H.omega(m), direct_sum([m, P]))
    for p, r in itertools.product((3, 5), (1, 2)):
        alg = C.borel_algebra(p, r)
        k = G.character_module(alg, (0, 0))
        z = C.borel_projective((1, 0), alg)
        o1, o2 = H.omega(k), H.omega_pow(k, 2)
        yield from (k, z, o1, o2, G.dual(o1), direct_sum([k, z]),
                    direct_sum([o1, z]), direct_sum([o1, o2]),
                    direct_sum([z, z]))


def test_projectivity_from_rank_varieties(candidates):
    verdicts = [(H.is_projective(m), H.projective_cover(m)[0].dim == m.dim)
                for m in projectivity_inputs(candidates)]
    assert all(fast == slow for fast, slow in verdicts)
    projective = sum(slow for _, slow in verdicts)
    assert 0 < projective < len(verdicts)


def complexity_inputs(candidates):
    """(module, is it a candidate): the candidates and their syzygies; over
    the borel algebra k, Z, Omega k, Omega^2 k, D k and k + Z for (p, r) in
    {3, 5} x {1, 2}, and k (x) k and k (x) Z at p=3."""
    for mods in candidates.values():
        for m in mods:
            yield m, True
            yield H.omega(m), False
    for p, r in itertools.product((3, 5), (1, 2)):
        alg = C.borel_algebra(p, r)
        k = G.character_module(alg, (0, 0))
        z = C.borel_projective((0, 0), alg)
        for m in (k, z, H.omega(k), H.omega_pow(k, 2), G.dual(k),
                  direct_sum([k, z])):
            yield m, False
    a1, a2 = C.borel_algebra(3, 1), C.borel_algebra(3, 1, offset=2)
    k1 = G.character_module(a1, (0, 0))
    for n in (G.character_module(a2, (0, 0)), C.borel_projective((0, 0), a2)):
        yield C.outer_tensor(k1, n), False


def test_complexity_against_betti_window(candidates):
    inputs = list(complexity_inputs(candidates))
    assert len(inputs) == 358
    on_candidates = {0: 0, 1: 0, 2: 0}
    for m, is_candidate in inputs:
        cx, ref = H.complexity(m), RC.complexity_estimate(m, 12)
        assert cx == ref, \
            f"dim {m.dim}, support {sorted(m.support())}: {cx} vs {ref}"
        if is_candidate:
            on_candidates[cx] += 1
    assert on_candidates == {0: 26, 1: 64, 2: 76}


def radical_inputs(candidates):
    """The projectivity inputs, and t of each candidate shifted by (-1, 0),
    on whose weight spaces H's eigenvalue differs from lam0 - lam1."""
    yield from projectivity_inputs(candidates)
    for mods in candidates.values():
        for m in mods:
            yield polynomial.t_poly(G.shift(m, (-1, 0)))[0]


def test_radical_and_socle_against_pbw_operators(candidates, monkeypatch):
    # the reference hands `submodule_from_subspace` dependent spanning sets
    spans = []

    def record(m, basis):
        spans.append((m, basis, RG.submodule_from_subspace(m, basis)))
        return spans[-1][2]
    monkeypatch.setattr(RR, "submodule_from_subspace", record)
    off_weight = 0
    for m in radical_inputs(candidates):
        soc, incl = socle(m)
        soc_ref, incl_ref = RR.socle(m)
        assert soc.to_json() == soc_ref.to_json()
        assert np.array_equal(incl.matrix, incl_ref.matrix)
        rad = radical(m)[1].matrix
        rad_ref = RR.radical(m)[1].matrix
        assert rad.shape == rad_ref.shape
        assert same_column_space(m.field, rad, rad_ref)
        content = UO._top_content(m.algebra, m.action, m.dim)
        assert m.dim - rad.shape[1] == sum(
            mult * s_dim for mult, (s_dim, _)
            in zip(content, UO._simples(m.algebra)))
        off_weight += any("H does not act" in e for e in G.validate(m))
    assert off_weight > 0
    assert sum(basis.shape[1] > m.dim for m, basis, _ in spans) > 800
    for m, basis, ref in spans:
        assert_same_pair(G.submodule_from_subspace(m, basis), ref)


def test_rref_against_reference_loop(candidates, monkeypatch):
    # every distinct matrix the library eliminates while computing End,
    # covers, syzygies, tops, socles and (for the non-projectives) almost
    # split sequences of the candidates and of the outer tensors of
    # acceptance criterion 11
    seen = {}
    real = PrimeField.rref

    def record(ff, m):
        a = ff.reduce(m)
        seen.setdefault((ff.p, a.shape, a.tobytes()), (ff.p, a))
        return real(ff, m)
    monkeypatch.setattr(PrimeField, "rref", record)
    clear_caches()  # Hom, splits and Omega must compute, not hit a cache
    mods = [m for ms in candidates.values() for m in ms]
    mods += outer_tensors(3) + outer_tensors(5)
    for m in mods:
        hom_space(m, m)
        for build in (H.projective_cover, H.omega, top, socle):
            build(m)
        if not H.is_projective(m):
            H.almost_split_sequence(m)
    monkeypatch.undo()
    assert len(seen) > 1000
    for p, a in seen.values():
        r, pivots, rank = FIELDS[p].rref(a)
        r_ref, pivots_ref, rank_ref = R.rref(p, a)
        assert r.dtype == r_ref.dtype and r.tobytes() == r_ref.tobytes()
        assert (pivots, rank) == (pivots_ref, rank_ref)


BLOCK_DEGREES = [(3, d) for d in range(1, 9)] + [(5, d) for d in range(1, 10)]


@functools.lru_cache(maxsize=None)
def degree_candidates(p, d):
    return RB.enumerate_degree_candidates(p, d)


@pytest.mark.parametrize("p,d", BLOCK_DEGREES, ids=lambda v: str(v))
def test_hom_linkage_blocks_against_ext_closure(p, d):
    # the partition and the one-member test for semisimplicity against the
    # Hom + Ext^1 closure and the End/Ext^1 test they replaced
    cands = degree_candidates(p, d)
    blocks = RB.partition_blocks(cands)
    assert blocks == RB.ext_closure_blocks(cands)
    semisimple = [RB.block_is_semisimple(cands, b) for b in blocks]
    assert [len(b) == 1 for b in blocks] == semisimple
    assert RB.count_non_semisimple_blocks(p, d) == semisimple.count(False)


def radical_layer_factors(m):
    """Highest weights of the composition factors: each weight of a
    semisimple radical layer, once per dimension of its highest weight
    kernel."""
    out = []
    while m.dim:
        t, _ = top(m)
        out += [w for w in dict.fromkeys(t.weights)
                for _ in range(G._highest_weight_kernel(
                    t, t.weight_indices(w)).shape[1])]
        m = radical(m)[0]
    return sorted(out)


@pytest.mark.parametrize("p,d", BLOCK_DEGREES + [(7, 7), (7, 8), (7, 14)],
                         ids=lambda v: str(v))
def test_composition_factor_blocks_against_hom_linkage(p, d, monkeypatch):
    cands = degree_candidates(p, d)
    calls = []
    monkeypatch.setattr(G, "_hom_space_cached", lambda *a: calls.append(a))
    blocks = RB.partition_blocks(cands)
    assert calls == []  # no Hom space, computed or cached
    monkeypatch.undo()
    assert blocks == RB.hom_linkage_blocks(cands)
    for _, m in cands:
        assert sorted(AQ.composition_factors(m)) == radical_layer_factors(m)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_casimir_projectives_against_decomposition(p):
    for a in range(p):
        q, ref = C.projective_indec(p, a), RP.projective_indec(p, a)
        assert q.weights == ref.weights
        assert q.action.keys() == ref.action.keys()
        for g, mat in q.action.items():
            assert mat.dtype == ref.action[g].dtype
            assert mat.tobytes() == ref.action[g].tobytes()


def ext_projectivity_inputs(candidates):
    """The candidates, their contravariant duals, tau, tau^-1 and Omega;
    over the borel algebra at p in {3, 5} the characters, free and standard
    modules, syzygies of k and the outer tensors of acceptance criterion
    11, with their duals, shifts and tau."""
    for mods in candidates.values():
        for m in mods:
            yield from (m, G.dual(m), H.tau(m), H.tau_inv(m),
                        H.omega(m), G.shift(m, (-1, 0)))
    for p in (3, 5):
        alg = C.borel_algebra(p, 1)
        k = G.character_module(alg, (0, 0))
        mods = [k, G.character_module(alg, (2, 1)),
                C.borel_projective((1, 0), alg), H.omega(k),
                H.omega_pow(k, 2), *outer_tensors(p)]
        mods += [polynomial.standard_module((lam, d - lam), alg)
                 for d in range(5) for lam in range(d + 1)]
        for m in mods:
            yield from (m, G.dual(m), G.shift(m, (-1, 0)),
                        G.shift(m, (0, -1)), H.tau(m))


def test_polynomial_socle_against_t_fixpoint(candidates):
    # the tau test's shortcut t(m) != 0 iff m has a polynomial simple
    # submodule, which `test_block_flags_against_tau_test` trusts
    verdicts = [(RPY.has_polynomial_simple(m),
                 RPY.t_poly(m)[0].dim != 0)
                for m in ext_projectivity_inputs(candidates)]
    assert all(fast == slow for fast, slow in verdicts)
    assert 0 < sum(slow for _, slow in verdicts) < len(verdicts)
    for mods in candidates.values():
        for m in mods:
            for v in (m, G.dual(m)):
                assert RPY.ext_projective_in_poly(v) == (
                    H.is_projective(v)
                    or RPY.t_poly(H.tau(v))[0].dim == 0)


FLAG_DEGREES = ([(3, d) for d in range(3, 13)]
                + [(5, d) for d in range(5, 13)] + [(7, 7)])


@pytest.mark.parametrize("p,d", FLAG_DEGREES, ids=lambda v: str(v))
def test_block_flags_against_tau_test(p, d, monkeypatch):
    # the flags read off u(P(L)) and dual(u(P(dual L))) for the simples L
    # of the block against the tau test, on every vertex of every
    # non-semisimple block; no tau is computed to build the quivers
    with monkeypatch.context() as patch:
        for name in ("tau", "tau_inv"):
            patch.setattr(H, name, lambda m: pytest.fail("tau was called"))
        quivers = [q for q in AQ.schur_blocks(p, d) if len(q.vertices) > 1]
    assert quivers
    for q in quivers:
        assert any(v.projective_in_poly != v.injective_in_poly
                   for v in q.vertices.values())
        for name, v in q.vertices.items():
            assert v.projective_in_poly == RPY.ext_projective_in_poly(
                v.module), name
            assert v.injective_in_poly == RPY.ext_projective_in_poly(
                G.dual(v.module)), name


def test_block_quiver_tests_isomorphism_within_weight_buckets(monkeypatch):
    # vertex lookups compare sorted weights first: a cold
    # schur_block_quiver(5, 18, "V(18)") made 10,228 isomorphism tests,
    # counted this way, when each lookup, the candidate dedup and the seed
    # search of the enumeration build scanned a list; at least 90 % of them
    # are gone
    calls = []
    real = G.is_isomorphic

    def counted(m, n):
        calls.append(1)
        return real(m, n)
    for module in (G, H, C, AQ):
        monkeypatch.setattr(module, "is_isomorphic", counted)
    clear_caches()
    AQ.schur_block_quiver(5, 18, "V(18)")
    assert 0 < len(calls) <= 1010


def t_poly_inputs(candidates):
    """The candidates, their tau and tau^-1 and their shifts by (-1, 0),
    (0, -1), (-p, 0) and (-p, -p); the borel modules of
    `borel_graded_modules` and their duals."""
    for (p, _), mods in candidates.items():
        for m in mods:
            yield from (m, H.tau(m), H.tau_inv(m))
            yield from (G.shift(m, mu)
                        for mu in ((-1, 0), (0, -1), (-p, 0), (-p, -p)))
    for m in borel_graded_modules():
        yield from (m, G.dual(m))


def test_t_poly_against_fixpoint(candidates):
    # t(m) = u(m^o)^o must hand `submodule_from_subspace` the basis the
    # fixpoint shrink reaches, so module and inclusion are the same bytes
    proper = 0
    for m in t_poly_inputs(candidates):
        (t, incl), (t_ref, incl_ref) = polynomial.t_poly(m), RPY.t_poly(m)
        assert summand_bytes([(t, incl.matrix)]) == summand_bytes(
            [(t_ref, incl_ref.matrix)])
        proper += 0 < t.dim < m.dim
    assert proper > 400


def closure_inputs(candidates):
    """Every input of `_closure_basis`: from `submodule_span` while the
    candidates of SLICES are built, from `t_poly` and `u_poly` on the
    modules of `t_poly_inputs`, and from the borel standard modules of
    degree <= 8 over (p, r) in {3, 5} x {1, 2}."""
    seen = []
    real = G._closure_basis

    def record(m, vectors):
        seen.append((m, vectors.copy()))
        return real(m, vectors)
    with pytest.MonkeyPatch.context() as mp:
        for module in (G, polynomial):
            mp.setattr(module, "_closure_basis", record)
        for p, d in SLICES:
            for lab, _ in degree_candidates(p, d):
                lab.build(p)
        for m in t_poly_inputs(candidates):
            polynomial.t_poly(m), polynomial.u_poly(m)
        for p, r in itertools.product((3, 5), (1, 2)):
            alg = C.borel_algebra(p, r)
            for d in range(9):
                for lam in range(d + 1):
                    polynomial.standard_module((lam, d - lam), alg)
    return seen


def test_closure_against_full_rounds(candidates, monkeypatch):
    # a round eliminates the basis with the images of the columns the last
    # round added, under E and F or the X_i; the rounds that re-eliminated
    # the whole basis with every image, H's included, pick the same columns
    calls = closure_inputs(candidates)
    assert len(calls) > 3000
    assert sum(m.algebra.kind == "borel" for m, _ in calls) > 900
    rounds = []
    real = G._weight_component_basis
    monkeypatch.setattr(G, "_weight_component_basis",
                        lambda m, v: rounds.append(1) or real(m, v))
    several = 0
    for m, vectors in calls:
        rounds.clear()
        assert basis_bytes([G._closure_basis(m, vectors)]) == basis_bytes(
            [RG.closure_basis(m, vectors)])
        several += len(rounds) > 2  # the basis grew at least once
    assert several > 800


def borel_cover_inputs():
    """Over (p, r) in {3, 5} x {1, 2}: the characters k(0,0) and k(2,1),
    Omega^k k for k = 1..3 and, at r = 2, the outer tensors of acceptance
    criterion 11, with their duals."""
    for p, r in itertools.product((3, 5), (1, 2)):
        alg = C.borel_algebra(p, r)
        k = G.character_module(alg, (0, 0))
        mods = [k, G.character_module(alg, (2, 1)),
                *(H.omega_pow(k, i) for i in (1, 2, 3))]
        if r == 2:
            mods += outer_tensors(p)
        for m in mods:
            yield from (m, G.dual(m))


def test_borel_cover_against_free_module_walk():
    several_generators = 0
    for m in borel_cover_inputs():
        (P, epi), (P_ref, epi_ref) = (H.projective_cover(m),
                                      RPY.borel_projective_cover(m))
        assert summand_bytes([(P, epi.matrix)]) == summand_bytes(
            [(P_ref, epi_ref.matrix)])
        several_generators += top(m)[0].dim > 1
    assert several_generators >= 10


@pytest.mark.parametrize("key", SLICES, ids=lambda k: f"p{k[0]}-d{k[1]}")
def test_injective_resolution_against_polynomial_hulls(key):
    # the duals of the projective resolution of v^o against t of the ambient
    # injective hulls, term by term up to isomorphism
    labels = [lab for lab, _ in degree_candidates(*key)
              if lab.family in ("V", "Vo", "W")]
    assert labels
    for lab in labels:
        v = lab.build(key[0])
        terms = polynomial.poly_injective_resolution(v, 3)
        ref = RPY.poly_injective_resolution(v, 3)
        assert [t.dim for t in terms] == [t.dim for t in ref]
        assert all(is_isomorphic(t, r) is not None
                   for t, r in zip(terms, ref))


def borel_graded_modules():
    """Over (p, r) in {3, 5} x {1, 2}: the free modules Z_r(lambda) of
    degree <= 8, Omega^k k for k = 1..3 and, at r = 2, the outer tensors of
    acceptance criterion 11."""
    for p, r in itertools.product((3, 5), (1, 2)):
        alg = C.borel_algebra(p, r)
        k = G.character_module(alg, (0, 0))
        yield from (C.borel_projective((lam, d - lam), alg)
                    for d in range(9) for lam in range(d + 1))
        yield from (H.omega_pow(k, i) for i in (1, 2, 3))
        if r == 2:
            yield from outer_tensors(p)


@pytest.fixture(scope="module")
def graded_calls(candidates, covers):
    """Every input of `_weight_component_basis`, `submodule_from_subspace`,
    `quotient` and `u_poly` met while computing radicals, socles, tops,
    Omega, t and u of the candidates, their covers, the borel modules and
    their duals (the free modules' u are the standard modules), and the
    almost split sequences ending at the r = 2 borel modules and the
    candidates of p=3 d=4, whose pushouts are the quotients met last."""
    seen = {"components": [], "subspace": [], "quotient": []}
    real = {"components": G._weight_component_basis,
            "subspace": G.submodule_from_subspace, "quotient": G.quotient}

    def recorder(kind):
        def record(m, vectors):
            seen[kind].append((m, vectors.copy()))
            return real[kind](m, vectors)
        return record
    sl2 = [m for mods in list(candidates.values()) + list(covers.values())
           for m in mods]
    borel = list(borel_graded_modules())
    seen["u"] = sl2 + borel + [G.dual(m) for m in borel]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(G, "_weight_component_basis", recorder("components"))
        for module in (G, H, C, polynomial):
            mp.setattr(module, "submodule_from_subspace",
                       recorder("subspace"))
        for module in (G, H, AQ, polynomial):
            mp.setattr(module, "quotient", recorder("quotient"))
        clear_caches()  # Hom, splits and Omega must compute, not hit a cache
        for m in seen["u"]:
            for build in (radical, socle, top, H.omega_with_maps,
                          polynomial.t_poly, polynomial.u_poly):
                build(m)
        ends = [m for m in [b for b in borel if b.algebra.r == 2]
                + candidates[(3, 4)] if not H.is_projective(m)]
        start = len(seen["quotient"])
        for m in ends:
            H.almost_split_sequence(m)
        seen["pushout"] = seen["quotient"][start:]
    seen["sequences"] = len(ends)
    return seen


def assert_same_pair(fast, slow):
    """Same module and map bytes for (module, map) pairs."""
    (q, proj), (q_ref, proj_ref) = fast, slow
    assert q.weights == q_ref.weights
    assert summand_bytes([(q, proj.matrix)]) == summand_bytes(
        [(q_ref, proj_ref.matrix)])


def test_component_basis_against_per_weight_eliminations(graded_calls):
    calls = graded_calls["components"]
    assert len(calls) > 2000
    for m, vectors in calls:
        assert basis_bytes([G._weight_component_basis(m, vectors)]) == (
            basis_bytes([RG.weight_component_basis(m, vectors)]))


def test_submodule_against_homogenizing_submodule(graded_calls, monkeypatch):
    calls = graded_calls["subspace"]
    assert len(calls) > 2000
    for m, basis in calls:
        assert_same_pair(G.submodule_from_subspace(m, basis),
                         RG.submodule_from_subspace(m, basis))
    # one elimination per call
    eliminations = []
    real = PrimeField.rref
    monkeypatch.setattr(PrimeField, "rref",
                        lambda ff, a: eliminations.append(1) or real(ff, a))
    for m, basis in calls:
        G.submodule_from_subspace(m, basis)
    assert len(eliminations) == len(calls)


def test_socle_span_against_highest_weight_closure(graded_calls):
    mods = [m for m in graded_calls["u"] if m.algebra.kind == "sl2r1"]
    assert len(mods) > 300
    for m in mods:
        assert same_column_space(m.field, G._socle_span(m), RG.socle_span(m))


def test_quotient_against_homogenizing_quotient(graded_calls):
    calls = graded_calls["quotient"]
    assert len(calls) > 1000
    assert len(graded_calls["pushout"]) >= graded_calls["sequences"] > 10
    for m, sub in calls:
        assert_same_pair(quotient(m, sub), RG.quotient(m, sub))


def test_u_poly_against_submodule_route(graded_calls):
    mods = graded_calls["u"]
    assert sum(m.algebra.kind == "borel" for m in mods) > 300
    for m in mods:
        assert_same_pair(polynomial.u_poly(m), RG.u_poly(m))
