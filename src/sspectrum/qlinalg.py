"""Dense quaternion matrix algebra.

A quaternion matrix is stored as a float64 ndarray with a trailing
component axis of length 4 (w, x, y, z order).  All free functions in
this module accept arbitrary leading batch axes, so a stack of matrices
evaluated at many contour nodes is processed in one call; the
:class:`QuatMatrix` wrapper is the single-matrix public face.

Read as complex128, the same memory is the complex pair of a quaternion,
on which ``_hamilton`` writes the one Hamilton product, entrywise
(``qmul_arr``) and for matrices (``matmul``).

Kernel evaluation does not solve here: it inverts pencils in the
complex slice of each node with LAPACK (see :mod:`sspectrum.kernels`).
This module keeps two independent references for that path.
``solve_arr`` is Gaussian elimination with partial pivoting by entry
modulus; quaternions form a division ring, so elimination with a
modulus pivot is well defined, and row operations multiply from the
left throughout, which is what solving A X = B requires.
``real_adjoint`` is the real 4n x 4n left-regular representation.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError
from .quat import Quaternion

__all__ = ["QuatMatrix", "real_adjoint"]

# Reciprocal of the default condition threshold 1e12: a pivot smaller
# than PIVOT_RTOL * max|A_ij| aborts the elimination.
PIVOT_RTOL = 1e-12


# ---------------------------------------------------------------------------
# component arithmetic on (..., 4) arrays


def _hamilton(a, b, product):
    """The Hamilton product of (..., 4) arrays under product, np.multiply
    or np.matmul, from the complex pairs, the float64 memory read as
    complex: a = a1 + a2 e2 with a1 = w + x e1 and a2 = y + z e1, and
    (a1 + a2 e2)(b1 + b2 e2) = (a1 b1 - a2 conj b2) + (a1 b2 + a2 conj b1) e2,
    since e2 c = conj(c) e2 for c in span{1, e1} (F. Zhang, LAA 251,
    1997)."""
    a = np.ascontiguousarray(a, dtype=np.float64).view(np.complex128)
    b = np.ascontiguousarray(b, dtype=np.float64).view(np.complex128)
    a1, a2, b1, b2 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    b_bar = b.conj()
    p = product(a1, b1)
    out = np.empty(p.shape + (2,), dtype=np.complex128)
    np.subtract(p, product(a2, b_bar[..., 1]), out=out[..., 0])
    np.add(product(a1, b2), product(a2, b_bar[..., 0]), out=out[..., 1])
    return out.view(np.float64)


def qmul_arr(a, b):
    """Hamilton product broadcast over leading axes of (..., 4) arrays."""
    return _hamilton(a, b, np.multiply)


def in_plane(z, J):
    """Complex a + ib as the quaternions a + bJ, a (..., 4) array, for
    an imaginary unit J, a (..., 4) array that broadcasts against z."""
    out = z.imag[..., None] * J
    out[..., 0] = z.real
    return out


def qconj_arr(a):
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def qabs_arr(a):
    return np.sqrt(np.sum(a * a, axis=-1))


def qinv_arr(a):
    n2 = np.sum(a * a, axis=-1, keepdims=True)
    if np.any(n2 == 0.0):
        raise ZeroDivisionError("zero quaternion has no inverse")
    return qconj_arr(a) / n2


def product_matrices(q, side: str):
    """Real (..., 4, 4) matrices R of the product with q on one side:
    x @ R equals qmul_arr(x, q) for side='right' and qmul_arr(q, x) for
    side='left', for any (..., 4) quaternion row x.  Row i is the
    product with the unit e_i."""
    q = np.asarray(q)[..., None, :]
    return qmul_arr(np.eye(4), q) if side == "right" else qmul_arr(q, np.eye(4))


def matmul(A, B):
    """Quaternion matrix product on (..., n, n, 4) stacks: four complex
    matrix products of the complex pairs."""
    return _hamilton(A, B, np.matmul)


def scal_left(s, A):
    """s * A with the quaternion scalar acting entrywise from the left."""
    return qmul_arr(s[..., None, None, :], A)


def scal_right(A, s):
    """A * s with the quaternion scalar acting entrywise from the right."""
    return qmul_arr(A, s[..., None, None, :])


def eye_arr(n):
    out = np.zeros((n, n, 4))
    out[np.arange(n), np.arange(n), 0] = 1.0
    return out


def solve_arr(A, B):
    """Solve A X = B for stacks A (..., n, n, 4), B (..., n, m, 4).

    Raises SingularMatrixError, reporting the failing pivot column and
    (for batched input) the offending batch element, as soon as a pivot
    modulus drops below PIVOT_RTOL * max|A|.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    n = A.shape[-3]
    if A.shape[-2] != n or A.shape[-1] != 4:
        raise ValueError("A must be a (..., n, n, 4) quaternion stack")
    if B.shape[-3] != n or B.shape[-1] != 4:
        raise ValueError(f"B must have {n} rows")
    batch = np.broadcast_shapes(A.shape[:-3], B.shape[:-3])
    U = np.broadcast_to(A, batch + A.shape[-3:]).reshape((-1, n, n, 4)).copy()
    X = np.broadcast_to(B, batch + B.shape[-3:]).reshape((-1, n, B.shape[-2], 4)).copy()
    nb = U.shape[0]
    rows = np.arange(nb)

    anorm = np.max(qabs_arr(U.reshape(nb, -1, 4)), axis=1)
    threshold = PIVOT_RTOL * np.where(anorm > 0.0, anorm, 1.0)

    for k in range(n):
        mods = qabs_arr(U[:, k:, k, :])
        rel = np.argmax(mods, axis=1)
        piv = k + rel
        swap = piv != k
        if np.any(swap):
            idx = rows[swap]
            U[idx, k, :, :], U[idx, piv[swap], :, :] = (
                U[idx, piv[swap], :, :].copy(), U[idx, k, :, :].copy())
            X[idx, k, :, :], X[idx, piv[swap], :, :] = (
                X[idx, piv[swap], :, :].copy(), X[idx, k, :, :].copy())
        pivot = U[:, k, k, :]
        pmod = qabs_arr(pivot)
        bad = pmod < threshold
        if np.any(bad):
            which = int(np.argmax(bad))
            raise SingularMatrixError(
                f"pivot {k} has modulus {pmod[which]:.3e} below threshold "
                f"{threshold[which]:.3e}",
                pivot_index=k,
                batch_index=which if nb > 1 else None,
            )
        pinv = qinv_arr(pivot)
        if k + 1 < n:
            factors = qmul_arr(U[:, k + 1:, k, :], pinv[:, None, :])
            U[:, k + 1:, k + 1:, :] -= qmul_arr(
                factors[:, :, None, :], U[:, k:k + 1, k + 1:, :])
            X[:, k + 1:, :, :] -= qmul_arr(
                factors[:, :, None, :], X[:, k:k + 1, :, :])
            U[:, k + 1:, k, :] = 0.0

    for k in range(n - 1, -1, -1):
        rhs = X[:, k, :, :]
        if k + 1 < n:
            rhs = rhs - np.sum(
                qmul_arr(U[:, k, k + 1:, None, :], X[:, k + 1:, :, :]), axis=1)
        X[:, k, :, :] = qmul_arr(qinv_arr(U[:, k, k, :])[:, None, :], rhs)

    return X.reshape(batch + B.shape[-3:])


# ---------------------------------------------------------------------------
# public wrapper


class QuatMatrix:
    """Immutable n x n quaternion matrix."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 4:
            raise ValueError("QuatMatrix data must have shape (n, n, 4)")
        arr = arr.copy()
        arr.setflags(write=False)
        self.data = arr

    @classmethod
    def _adopt(cls, arr) -> "QuatMatrix":
        """The matrix of arr, a fresh (n, n, 4) float64 array that nothing
        else holds, made read-only in place: the results of the
        operators below, which need neither a copy nor a shape check."""
        out = cls.__new__(cls)
        arr.setflags(write=False)
        out.data = arr
        return out

    # construction

    @staticmethod
    def zeros(n: int) -> "QuatMatrix":
        return QuatMatrix(np.zeros((n, n, 4)))

    @staticmethod
    def identity(n: int) -> "QuatMatrix":
        return QuatMatrix(eye_arr(n))

    @staticmethod
    def from_real(M) -> "QuatMatrix":
        M = np.asarray(M, dtype=np.float64)
        out = np.zeros(M.shape + (4,))
        out[..., 0] = M
        return QuatMatrix(out)

    @staticmethod
    def from_scalar(q: Quaternion, n: int = 1) -> "QuatMatrix":
        out = np.zeros((n, n, 4))
        out[np.arange(n), np.arange(n), :] = q.as_array()
        return QuatMatrix(out)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def entry(self, i: int, j: int) -> Quaternion:
        return Quaternion.from_array(self.data[i, j])

    def to_nested(self):
        return self.data.tolist()

    # algebra

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        self._check(other)
        return QuatMatrix._adopt(self.data + other.data)

    def __sub__(self, other):
        self._check(other)
        return QuatMatrix._adopt(self.data - other.data)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float)):
            return QuatMatrix._adopt(self.data * float(scalar))
        return NotImplemented

    def __matmul__(self, other):
        self._check(other)
        return QuatMatrix._adopt(matmul(self.data, other.data))

    def lmul(self, s: Quaternion) -> "QuatMatrix":
        """Entrywise left scalar action s * A."""
        return QuatMatrix._adopt(scal_left(s.as_array(), self.data))

    def rmul(self, s: Quaternion) -> "QuatMatrix":
        """Entrywise right scalar action A * s."""
        return QuatMatrix._adopt(scal_right(self.data, s.as_array()))

    def norm(self) -> float:
        """Frobenius norm sqrt(sum |A_ij|^2)."""
        return float(np.linalg.norm(self.data))

    def __eq__(self, other):
        return isinstance(other, QuatMatrix) and np.array_equal(self.data, other.data)

    def __repr__(self):
        return f"QuatMatrix(n={self.n})"


def _left_block(q) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [w, -x, -y, -z],
        [x, w, -z, y],
        [y, z, w, -x],
        [z, -y, x, w],
    ])


def real_adjoint(A: QuatMatrix) -> np.ndarray:
    """Real 4n x 4n left-regular representation of A.

    rho is an algebra homomorphism, rho(AB) = rho(A) rho(B), and acts on
    vectors of stacked quaternion coordinates exactly as A acts on
    quaternion column vectors.  It serves as an independent oracle for
    the quaternionic elimination.
    """
    n = A.n
    out = np.zeros((4 * n, 4 * n))
    for i in range(n):
        for j in range(n):
            out[4 * i:4 * i + 4, 4 * j:4 * j + 4] = _left_block(A.data[i, j])
    return out
