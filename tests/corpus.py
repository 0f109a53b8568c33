"""Non-normal and defective test matrices, built from their formulas in
N. J. Higham, "The Test Matrix Toolbox for MATLAB" (1995), and the
commuting operators made from them.

The components of an operator are polynomials in one base matrix B, so
they commute exactly: T0 = B with T1 = 0, or T1 = 0.3 B^2.
"""

from __future__ import annotations

import numpy as np

from sspectrum.operators import CommutingOperator


def grcar(n: int, k: int = 3) -> np.ndarray:
    """Toeplitz: -1 on the subdiagonal, 1 on the diagonal and the k
    superdiagonals."""
    A = -np.eye(n, k=-1)
    for j in range(k + 1):
        A += np.eye(n, k=j)
    return A


def kahan(n: int, theta: float = 1.2, pert: float = 25.0) -> np.ndarray:
    """Upper triangular diag(s^(i-1)) (I - c U), U the strict upper ones,
    s = sin(theta), c = cos(theta), plus pert eps diag(n, n-1, ..., 1)
    so that column-pivoted QR leaves it in place."""
    s, c = np.sin(theta), np.cos(theta)
    R = np.eye(n) - c * np.triu(np.ones((n, n)), 1)
    R = s ** np.arange(n)[:, None] * R
    return R + pert * np.finfo(np.float64).eps * np.diag(np.arange(n, 0, -1.0))


def frank(n: int) -> np.ndarray:
    """Upper Hessenberg F_ij = n + 1 - max(i, j) for j >= i - 1, with
    ill-conditioned small eigenvalues."""
    i, j = np.indices((n, n))
    return np.where(j >= i - 1, n - np.maximum(i, j), 0).astype(np.float64)


def jordbloc(n: int, lam: float = 1.0, superdiagonal: float = 1.0) -> np.ndarray:
    """One Jordan block lam I + superdiagonal E, E the upper shift."""
    return lam * np.eye(n) + superdiagonal * np.eye(n, k=1)


BASES = {
    "grcar8": grcar(8),
    "grcar12": grcar(12),
    "kahan10": kahan(10),
    "frank8": frank(8),
    "jordbloc8": jordbloc(8, 2.0, 5.0),
    "jordbloc12": jordbloc(12, 2.0, 10.0),
}


def operator(B: np.ndarray, t1: float) -> CommutingOperator:
    """T0 = B and T1 = t1 B^2, T2 = T3 = 0."""
    zero = np.zeros_like(B)
    return CommutingOperator(B, t1 * (B @ B), zero, zero)
