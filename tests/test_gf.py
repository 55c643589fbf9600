"""Exact linear algebra over a prime field, checked against hand-computed
oracles and brute-force enumeration at small sizes."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_gf as R
from grquiver.gf import PrimeField


F3 = PrimeField(3)
F5 = PrimeField(5)


def random_matrix(ff, rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, ff.p, size=(rows, cols)).astype(np.int64)


class TestBasics:
    def test_reduce_wraps_negatives(self):
        a = np.array([[-1, 7], [3, -6]], dtype=np.int64)
        assert np.array_equal(F3.reduce(a), [[2, 1], [0, 0]])

    def test_inverse_table(self):
        for x in range(1, 5):
            assert (x * F5.inv(x)) % 5 == 1

    def test_inv_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            F3.inv(0)

    def test_matmul_reduces(self):
        a = np.array([[2, 2]], dtype=np.int64)
        b = np.array([[2], [2]], dtype=np.int64)
        assert F3.matmul(a, b)[0, 0] == (2 * 2 + 2 * 2) % 3

    def test_matpow(self):
        n = np.array([[0, 1], [0, 0]], dtype=np.int64)
        assert np.array_equal(F3.matpow(n, 2), np.zeros((2, 2)))
        assert np.array_equal(F3.matpow(n, 0), np.eye(2))


class TestRref:
    def test_hand_oracle_f5(self):
        # row-reduce [[2,1],[4,3]] over F_5 by hand:
        # R1 *= inv(2)=3 -> [1,3]; R2 -= 4*R1 -> [0,3-12=-9=1]... second
        # pivot normalizes to [0,1] and clears the 3 above: [[1,0],[0,1]].
        a = np.array([[2, 1], [4, 3]], dtype=np.int64)
        r, pivots, rank = F5.rref(a)
        assert np.array_equal(r, np.eye(2))
        assert pivots == [0, 1]
        assert rank == 2

    def test_singular_hand_oracle(self):
        a = np.array([[1, 2], [2, 4]], dtype=np.int64)
        r, pivots, rank = F5.rref(a)
        assert np.array_equal(r, [[1, 2], [0, 0]])
        assert rank == 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rref_idempotent(self, seed):
        a = random_matrix(F3, 4, 5, seed)
        r, _, rank = F3.rref(a)
        r2, _, rank2 = F3.rref(r)
        assert np.array_equal(r, r2)
        assert rank == rank2

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rank_nullity(self, seed):
        a = random_matrix(F5, 4, 6, seed)
        assert F5.rank(a) + F5.kernel_basis(a).shape[1] == 6


class TestKernel:
    def test_exhaustive_f3_oracle(self):
        # enumerate all of F_3^3 and compare with kernel_basis span
        a = np.array([[1, 2, 0], [0, 1, 1]], dtype=np.int64)
        brute = [v for v in itertools.product(range(3), repeat=3)
                 if not np.any(F3.matmul(a, np.array(v).reshape(3, 1)))]
        ker = F3.kernel_basis(a)
        spanned = {tuple(F3.matmul(ker, np.array(c).reshape(-1, 1)).ravel())
                   for c in itertools.product(range(3),
                                              repeat=ker.shape[1])}
        assert spanned == set(map(tuple, brute))

    def test_kernel_columns_annihilated(self):
        a = random_matrix(F5, 5, 7, 11)
        ker = F5.kernel_basis(a)
        assert not np.any(F5.matmul(a, ker))


class TestSolve:
    def test_substitution_oracle(self):
        a = random_matrix(F5, 5, 4, 3)
        x_true = np.array([1, 4, 2, 0], dtype=np.int64)
        b = F5.matmul(a, x_true.reshape(-1, 1)).ravel()
        x = F5.solve(a, b)
        assert x is not None
        assert np.array_equal(F5.matmul(a, x.reshape(-1, 1)).ravel(), b)

    def test_inconsistent_returns_none(self):
        a = np.array([[1, 0], [2, 0]], dtype=np.int64)
        b = np.array([1, 1], dtype=np.int64)
        assert F3.solve(a, b) is None

    def test_dim_mismatch_raises(self):
        a = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            F3.solve(a, np.zeros(3, dtype=np.int64))

    def test_inv_matrix_roundtrip(self):
        a = np.array([[2, 1], [1, 1]], dtype=np.int64)
        inv = F3.inv_matrix(a)
        assert np.array_equal(F3.matmul(a, inv), np.eye(2))


PRIMES = [3, 5, 7, 11, 13]
FIELDS = {p: PrimeField(p) for p in PRIMES}


@st.composite
def matrices(draw, rows=None, cols=None):
    """(p, a) with p in PRIMES and a = x @ y for an inner dimension of 0..7,
    so empty, wide, tall and rank-deficient shapes all occur."""
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(0, 7)) if rows is None else rows
    cols = draw(st.integers(0, 7)) if cols is None else cols
    inner = draw(st.integers(0, 7))

    def block(r, c):
        entries = draw(st.lists(st.integers(0, p - 1), min_size=r * c,
                                max_size=r * c))
        return np.array(entries, dtype=np.int64).reshape(r, c)

    return p, (block(rows, inner) @ block(inner, cols)) % p


@st.composite
def block_diagonal(draw):
    """(p, a): low-rank blocks on the diagonal, zero rows and zero columns
    appended, then rows and columns permuted."""
    p = draw(st.sampled_from(PRIMES))
    a = np.zeros((0, 0), dtype=np.int64)
    for _ in range(draw(st.integers(1, 4))):
        b = draw(matrices())[1] % p
        a = np.block([[a, np.zeros((a.shape[0], b.shape[1]), np.int64)],
                      [np.zeros((b.shape[0], a.shape[1]), np.int64), b]])
    a = np.pad(a, ((0, draw(st.integers(0, 3))), (0, draw(st.integers(0, 3)))))
    rows = draw(st.permutations(range(a.shape[0])))
    cols = draw(st.permutations(range(a.shape[1])))
    return p, a[np.ix_(rows, cols)]


@st.composite
def one_per_column(draw):
    """(p, a) with exactly one nonzero entry in each column."""
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(0, 10))
    a = np.zeros((rows, cols), dtype=np.int64)
    for c in range(cols):
        a[draw(st.integers(0, rows - 1)), c] = draw(st.integers(1, p - 1))
    return p, a


@st.composite
def tall_or_wide(draw):
    """(p, a) of shape >= 100 x 6 or 6 x >= 200, with a density of nonzero
    entries from 0 (the zero matrix) to 1."""
    p = draw(st.sampled_from(PRIMES))
    shape = draw(st.sampled_from([(100, 6), (131, 6), (6, 200), (6, 257)]))
    density = draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return p, rng.integers(0, p, size=shape) * (rng.random(shape) < density)


SPARSE = st.one_of(block_diagonal(), one_per_column(), tall_or_wide())


def assert_same(fast, slow):
    """Identical arrays (or both None)."""
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert fast.dtype == slow.dtype and np.array_equal(fast, slow)


class TestAgainstReferenceLoop:
    """The one elimination kernel and the solvers built on it against the
    column-by-column loop it replaced."""

    @given(matrices())
    @settings(max_examples=200, deadline=None)
    def test_rref_and_kernel(self, pa):
        p, a = pa
        r, pivots, rank = FIELDS[p].rref(a)
        r_ref, pivots_ref, rank_ref = R.rref(p, a)
        assert_same(r, r_ref)
        assert (pivots, rank) == (pivots_ref, rank_ref)
        assert_same(FIELDS[p].kernel_basis(a), R.kernel_basis(p, a))

    @given(matrices(), st.integers(0, 3), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_solve(self, pa, k, consistent, data):
        p, a = pa
        ff = FIELDS[p]
        x = data.draw(st.lists(st.integers(0, p - 1),
                               min_size=a.shape[1] * k,
                               max_size=a.shape[1] * k))
        b = data.draw(st.lists(st.integers(0, p - 1),
                               min_size=a.shape[0] * k,
                               max_size=a.shape[0] * k))
        b = np.array(b, dtype=np.int64).reshape(a.shape[0], k)
        if consistent:
            x = np.array(x, dtype=np.int64).reshape(a.shape[1], k)
            b = ff.matmul(a, x)
        assert_same(ff.solve_matrix(a, b), R.solve_matrix(p, a, b))
        if k:
            assert_same(ff.solve(a, b[:, 0]), R.solve(p, a, b[:, 0]))

    @given(st.integers(0, 6).flatmap(lambda n: matrices(rows=n, cols=n)))
    @example((3, np.zeros((0, 0), dtype=np.int64)))
    @settings(max_examples=200, deadline=None)
    def test_inv_matrix(self, pa):
        p, a = pa
        assert_same(FIELDS[p].inv_matrix(a), R.inv_matrix(p, a))

    def test_combine_matches_loop(self):
        mats = [random_matrix(F5, 3, 4, s) for s in range(4)]
        coeffs = [4, 0, 2, 3]
        out = np.zeros((3, 4), dtype=np.int64)
        for c, m in zip(coeffs, mats):
            out = (out + c * m) % 5
        assert_same(F5.combine(coeffs, mats), out)

    def test_headroom_is_checked(self):
        # (p - 1)^2 = 16: 2^59 products of entries up to 4 reach 2^63
        with pytest.raises(OverflowError):
            F5._check_headroom(2 ** 59)
        F5._check_headroom(2 ** 59 - 1)

    @pytest.mark.parametrize("p", PRIMES)
    def test_rref_on_large_shapes(self, p):
        """A mostly-zero 987 x 3 matrix, whose few nonzero rows are far
        apart, its transpose, a dense 100 x 100 one and a dense product of
        rank at most 60."""
        rng = np.random.default_rng(p)
        sparse = np.zeros((987, 3), dtype=np.int64)
        sparse[[5, 400, 401, 986], :] = rng.integers(1, p, size=(4, 3))
        dense = rng.integers(0, p, size=(100, 100))
        low = rng.integers(0, p, size=(100, 60)) @ rng.integers(
            0, p, size=(60, 100)) % p
        for a in (sparse, sparse.T, dense, low):
            r, pivots, rank = FIELDS[p].rref(a)
            r_ref, pivots_ref, rank_ref = R.rref(p, a)
            assert_same(r, r_ref)
            assert (pivots, rank) == (pivots_ref, rank_ref)
        assert FIELDS[p].rank(low) <= 60

    @given(SPARSE, st.integers(0, 3), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    @example((3, np.zeros((100, 6), dtype=np.int64)), 1, False, 0)
    @example((5, np.zeros((6, 200), dtype=np.int64)), 2, True, 0)
    @settings(max_examples=200, deadline=None)
    def test_sparse_inputs(self, pa, k, consistent, seed):
        """rref, kernel_basis and solve_matrix on the sparse shapes the
        graded systems have: permuted block-diagonal matrices, one nonzero
        per column, tall and wide."""
        p, a = pa
        ff = FIELDS[p]
        r, pivots, rank = ff.rref(a)
        r_ref, pivots_ref, rank_ref = R.rref(p, a)
        assert_same(r, r_ref)
        assert (pivots, rank) == (pivots_ref, rank_ref)
        assert_same(ff.kernel_basis(a), R.kernel_basis(p, a))
        rng = np.random.default_rng(seed)
        if consistent:
            b = ff.matmul(a, rng.integers(0, p, size=(a.shape[1], k)))
        else:
            b = rng.integers(0, p, size=(a.shape[0], k)).astype(np.int64)
        assert_same(ff.solve_matrix(a, b), R.solve_matrix(p, a, b))
