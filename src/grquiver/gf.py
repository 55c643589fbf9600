"""Exact dense linear algebra over the prime field F_p (p an odd prime).

All matrices are numpy ``int64`` arrays with entries reduced into ``[0, p)``.
Every routine is a pure function of its inputs; no floating point is used
anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from operator import itemgetter

import numpy as np


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """Arithmetic and Gaussian elimination over F_p.

    Args:
        p: an odd prime modulus (p >= 3).
    """

    def __init__(self, p: int):
        if not _is_prime(p) or p < 3:
            raise ValueError(f"modulus must be an odd prime >= 3, got {p}")
        self.p = p
        # inverse table: inv[a] = a^(p-2) mod p for a in [1, p)
        self._inv = [0] + [pow(a, p - 2, p) for a in range(1, p)]

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    # -- element/matrix helpers -------------------------------------------

    def reduce(self, a) -> np.ndarray:
        return np.asarray(a, dtype=np.int64) % self.p

    def inv(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return self._inv[a]

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def _check_headroom(self, inner: int) -> None:
        # a sum of `inner` products of entries in [0, p) must fit in int64
        if inner * (self.p - 1) ** 2 >= 2 ** 63:
            raise OverflowError(
                f"inner dimension {inner} overflows int64 over F_{self.p}")

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b mod p, for entries in [0, p)."""
        a = np.asarray(a, dtype=np.int64)
        self._check_headroom(a.shape[-1])
        return (a @ np.asarray(b, dtype=np.int64)) % self.p

    def combine(self, coeffs, mats) -> np.ndarray:
        """sum_t coeffs[t] * mats[t] mod p, for a sequence of equal-shape
        matrices (or a stacked array) and coefficients in [0, p)."""
        mats = np.asarray(mats, dtype=np.int64)
        self._check_headroom(len(mats))
        flat = np.asarray(coeffs, dtype=np.int64) @ mats.reshape(len(mats), -1)
        return flat.reshape(mats.shape[1:]) % self.p

    def matpow(self, a: np.ndarray, k: int) -> np.ndarray:
        """a^k mod p; a may be a stack of square matrices."""
        n = a.shape[-1]
        result = self.eye(n)
        base = self.reduce(a)
        while k > 0:
            if k & 1:
                result = self.matmul(result, base)
            base = self.matmul(base, base)
            k >>= 1
        return result

    # -- elimination ------------------------------------------------------

    def rref(self, m: np.ndarray) -> tuple[np.ndarray, list[int], int]:
        """Reduced row echelon form: the one elimination kernel.

        The matrix is eliminated as Python row lists, which on the small
        graded systems costs less than a numpy call per row operation.
        Zero rows and columns stay zero, so the zero rows are dropped and
        the zero columns skipped.  The other columns are walked left to
        right; the first nonzero entry at or below the current row is the
        pivot, and the pivot row is scaled by an int inverse table.  Only
        the other rows with a nonzero in the pivot column are updated: at
        the pivot row's nonzero positions, or by one list comprehension
        over the remaining width when at least a quarter of it is nonzero.
        The RREF is unique, so the update order does not matter.  The rows
        up to the rank are converted back to int64 once; the others are
        zero.

        Returns:
            (rref matrix, strictly increasing pivot column list, rank).
        """
        p, inv = self.p, self._inv
        full = self.reduce(m)
        cols = full.shape[1]
        live = compress(range(cols), full.any(axis=0).tolist())
        a = full[full.any(axis=1)].tolist()
        rows = len(a)
        pivots: list[int] = []
        r = 0
        for c in live:
            if r == rows:
                break
            hit = list(compress(range(rows), map(itemgetter(c), a)))
            k = bisect_left(hit, r)
            if k == len(hit):
                continue
            i = hit[k]  # the pivot row; after the swap, row i has a 0 at c
            a[r], a[i] = a[i], a[r]
            row = a[r]
            s = inv[row[c]]
            if s != 1 or len(hit) > 1:
                support = list(compress(range(c, cols), row[c:]))
                dense = 4 * len(support) >= cols - c
                if s != 1:
                    if dense:
                        row[c:] = [x * s % p for x in row[c:]]
                    else:
                        for j in support:
                            row[j] = row[j] * s % p
                for h in hit:
                    if h == i:
                        continue
                    other = a[h]
                    f = other[c]
                    if dense:
                        other[c:] = [(x - f * y) % p
                                     for x, y in zip(other[c:], row[c:])]
                    else:
                        for j in support:
                            other[j] = (other[j] - f * row[j]) % p
            pivots.append(c)
            r += 1
        full[r:] = 0  # full is a fresh array: the result is written there
        if r:
            full[:r] = a[:r]
        return full, pivots, r

    def rank(self, m: np.ndarray) -> int:
        return self.rref(m)[2]

    def kernel_basis(self, m: np.ndarray) -> np.ndarray:
        """Columns form a basis of the null space {x : m @ x = 0}."""
        return self.null_space(m)[0]

    def null_space(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(kernel_basis(m), free), free the non-pivot columns of m: the
        basis is the identity on the rows free, so the coordinates of a
        vector of the null space are its entries there."""
        r, pivots, rank = self.rref(m)
        free = np.delete(np.arange(r.shape[1]), pivots)
        basis = self.zeros(r.shape[1], free.size)
        basis[free, np.arange(free.size)] = 1
        basis[pivots, :] = -r[:rank, free] % self.p
        return basis, free

    def solve(self, m: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """One solution of m @ x = b, or None when the system is inconsistent."""
        x = self.solve_matrix(m, np.reshape(b, (-1, 1)))
        return None if x is None else x[:, 0]

    def solve_matrix(self, m: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """The solution X of m @ X = b with free variables 0, or None when
        some column is inconsistent; one elimination of [m | b]."""
        a = self.reduce(m)
        rhs = self.reduce(b)
        if rhs.shape[0] != a.shape[0]:
            raise ValueError("dimension mismatch between matrix and rhs")
        n = a.shape[1]
        r, pivots, rank = self.rref(np.hstack([a, rhs]))
        if rank and pivots[-1] >= n:
            return None
        x = self.zeros(n, rhs.shape[1])
        x[pivots, :] = r[:rank, n:]
        return x

    def inv_matrix(self, m: np.ndarray) -> np.ndarray | None:
        """Inverse of a square matrix, or None when singular."""
        n = np.shape(m)[0]
        if np.shape(m)[1] != n:
            raise ValueError("matrix is not square")
        return self.solve_matrix(m, self.eye(n))

    # -- span utilities ---------------------------------------------------

    def column_space_basis(self, m: np.ndarray) -> np.ndarray:
        """Subset of columns of m forming a basis of the column space."""
        a = self.reduce(m)
        _, pivots, _ = self.rref(a)
        return a[:, pivots]
