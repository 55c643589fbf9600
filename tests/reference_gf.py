"""Reference elimination over F_p: the row-by-row loop that the library's
vectorized kernel replaced.

Tests compare the library against these functions, and the un-graded oracle
uses them so that it shares no linear algebra with the code it checks.
Matrices are numpy int64 arrays; every function takes the prime p.
"""

from __future__ import annotations

import numpy as np


def rref(p: int, m) -> tuple[np.ndarray, list[int], int]:
    """(reduced row echelon form, pivot columns, rank), column by column."""
    a = np.asarray(m, dtype=np.int64) % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = -1
        for i in range(r, rows):
            if a[i, c] != 0:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        if pivot_row != r:
            a[[r, pivot_row]] = a[[pivot_row, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        for i in range(rows):
            if i != r and a[i, c] != 0:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return a, pivots, len(pivots)


def rank(p: int, m) -> int:
    return rref(p, m)[2]


def kernel_basis(p: int, m) -> np.ndarray:
    """Columns form a basis of {x : m @ x = 0}, one per free column."""
    r, pivots, _ = rref(p, m)
    cols = r.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = (-r[i, fc]) % p
    return basis


def solve(p: int, m, b) -> np.ndarray | None:
    """The solution of m @ x = b with free variables 0, or None."""
    a = np.asarray(m, dtype=np.int64) % p
    rhs = np.asarray(b, dtype=np.int64).reshape(-1) % p
    n = a.shape[1]
    r, pivots, _ = rref(p, np.hstack([a, rhs.reshape(-1, 1)]))
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, n]
    return x


def solve_matrix(p: int, m, b) -> np.ndarray | None:
    """solve() column by column; None when any column is inconsistent."""
    b = np.asarray(b, dtype=np.int64)
    cols = [solve(p, m, b[:, j]) for j in range(b.shape[1])]
    if any(x is None for x in cols):
        return None
    n = np.shape(m)[1]
    return (np.stack(cols, axis=1) if cols
            else np.zeros((n, 0), dtype=np.int64))


def inv_matrix(p: int, m) -> np.ndarray | None:
    n = np.shape(m)[0]
    r, pivots, _ = rref(p, np.hstack([np.asarray(m, dtype=np.int64),
                                      np.eye(n, dtype=np.int64)]))
    if pivots[:n] != list(range(n)):
        return None
    return r[:, n:]


def matmul(p: int, a, b) -> np.ndarray:
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % p


def matpow(p: int, a, k: int) -> np.ndarray:
    out = np.eye(np.shape(a)[0], dtype=np.int64)
    for _ in range(k):
        out = matmul(p, out, a)
    return out
