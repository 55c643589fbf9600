"""Exact dense linear algebra over the prime field F_p (p an odd prime).

All matrices are numpy ``int64`` arrays with entries reduced into ``[0, p)``.
Every routine is a pure function of its inputs; no floating point is used
anywhere.
"""

from __future__ import annotations

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
        self._inv = np.array(
            [0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.int64
        )

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
        return int(self._inv[a])

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

        Columns are walked left to right; the first nonzero entry at or
        below the current row is the pivot.  Only the other rows with a
        nonzero in the pivot column are updated, which is few on graded
        systems.  The RREF is unique, so the update order does not matter.

        Returns:
            (rref matrix, strictly increasing pivot column list, rank).
        """
        p = self.p
        a = self.reduce(m)
        rows, cols = a.shape
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            below = a[r:, c].nonzero()[0]
            if not below.size:
                continue
            i = r + int(below[0])
            if i != r:
                a[[r, i]] = a[[i, r]]
            a[r, c:] = a[r, c:] * self._inv[a[r, c]] % p
            hit = a[:, c].nonzero()[0]
            if hit.size > 1:
                hit = hit[hit != r]
                a[hit, c:] = (a[hit, c:] - a[hit, c, None] * a[r, c:]) % p
            pivots.append(c)
            r += 1
        return a, pivots, len(pivots)

    def rank(self, m: np.ndarray) -> int:
        return self.rref(m)[2]

    def kernel_basis(self, m: np.ndarray) -> np.ndarray:
        """Columns form a basis of the null space {x : m @ x = 0}."""
        r, pivots, rank = self.rref(m)
        is_free = np.ones(r.shape[1], dtype=bool)
        is_free[pivots] = False
        free = np.flatnonzero(is_free)
        basis = self.zeros(r.shape[1], free.size)
        basis[free, np.arange(free.size)] = 1
        basis[pivots, :] = -r[:rank, free] % self.p
        return basis

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
