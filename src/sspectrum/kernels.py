"""Resolvent kernels of the four functional calculi.

All kernels are built from the pseudo S-resolvent Q_{c,s}(T)^{-1}, the
inverse of the pencil s^2 I - s(T + conj(T)) + T conj(T):

    S_L^-1(s,T)  = (sI - conj(T)) Q^-1          S_R^-1 = Q^-1 (sI - conj(T))
    F_L(s,T)     = -4 (sI - conj(T)) Q^-2       F_R    = -4 Q^-2 (sI - conj(T))
    P2_L(s,T)    = -F_L(s,T) s + T0 F_L(s,T)    P2_R   = -s F_R(s,T) + T0 F_R(s,T)

The P2 kernels are the conjugate-Fueter images of the Cauchy kernels
and drive the order-2 polyanalytic calculus; F produces the Laplacian
image, and Q^-1 itself the harmonic one.

Batched evaluation works in the complex slice of each node.  Writing
s = a + b J_s, every entry of the pencil lies in span{1, J_s}, which is
a copy of C, so Q^-1 is one batched complex LAPACK inverse and Q^-2 one
complex matrix product.  The factor sI - conj(T) splits into s - T0,
which stays in the slice, and the vector part T1 e1 + T2 e2 + T3 e3,
applied as real matrix products on the complex blocks.  Only the final
result is mapped to quaternion components, X + iY -> X + Y J_s.

Scalar (n = 1) closed forms of the same kernels are provided separately
as the function-theory oracles.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DivergenceError, SingularMatrixError
from .operators import CommutingOperator, gram
from .qlinalg import PIVOT_RTOL, QuatMatrix
from .quat import Quaternion, qinv, qs_poly

__all__ = [
    "KernelKind",
    "kernel",
    "kernel_at_nodes",
    "kernel_fn",
    "p2_series",
    "s_series",
    "cauchy_kernel_left",
    "cauchy_kernel_right",
    "f_kernel_left",
    "f_kernel_right",
    "p2_kernel_left",
    "p2_kernel_right",
    "pseudo_kernel",
]

# A pencil whose 1-norm condition number exceeds this counts as singular:
# the node sits on, or numerically grazes, the S-spectrum.
COND_LIMIT = 1.0 / PIVOT_RTOL
# Matrix entries per batch of nodes (nodes times n^2), so that each
# complex work array stays near one megabyte however long the contour.
CHUNK_ENTRIES = 1 << 16


class KernelKind(Enum):
    QCS_INV = "qcs_inv"
    S_LEFT = "s_left"
    S_RIGHT = "s_right"
    F_LEFT = "f_left"
    F_RIGHT = "f_right"
    P2_LEFT = "p2_left"
    P2_RIGHT = "p2_right"


_LEFT = (KernelKind.S_LEFT, KernelKind.F_LEFT, KernelKind.P2_LEFT)
_FACTOR = {KernelKind.F_LEFT: -4.0, KernelKind.F_RIGHT: -4.0,
           KernelKind.P2_LEFT: 4.0, KernelKind.P2_RIGHT: 4.0}


def kernel_at_nodes(kind: KernelKind, T: CommutingOperator, s_arr: np.ndarray) -> np.ndarray:
    """Evaluate one kernel kind at a batch of points s_arr (N, 4).

    Returns an (N, n, n, 4) stack.  Raises SingularMatrixError when any
    node sits on (or numerically grazes) the S-spectrum.
    """
    kind = KernelKind(kind)
    s_arr = np.asarray(s_arr, dtype=np.float64)
    squeeze = s_arr.ndim == 1
    if squeeze:
        s_arr = s_arr[None, :]
    n = T.n
    T0, T1, T2, T3 = T.components
    if kind is KernelKind.P2_LEFT:
        # T0 (sI - conj(T)) Q^-2 needs T0 T_k on the vector part
        blocks = np.concatenate((T0, T0 @ T0, T1, T2, T3, T0 @ T1, T0 @ T2, T0 @ T3))
    elif kind in _LEFT:
        blocks = np.concatenate((T0, T1, T2, T3))
    else:
        blocks = np.concatenate((T0, T1, T2, T3), axis=1)
    K = gram(T)
    out = np.empty(s_arr.shape[:1] + (n, n, 4))
    chunk = max(1, CHUNK_ENTRIES // (n * n))
    for lo in range(0, len(s_arr), chunk):
        hi = lo + chunk
        z, J = _slice_coordinates(s_arr[lo:hi])
        _kernel_chunk(kind, T0, K, blocks, z, J, lo, out[lo:hi])
    return out[0] if squeeze else out


def _slice_coordinates(s_arr):
    """Each node as s = a + b J_s: the slice value z = a + ib and the unit
    J_s as (N, 3) vector parts (e1 for real nodes, where any unit does)."""
    vec = s_arr[:, 1:]
    b = np.sqrt(np.sum(vec * vec, axis=1))
    J = np.zeros_like(vec)
    J[:, 0] = 1.0
    off_axis = b > 0.0
    J[off_axis] = vec[off_axis] / b[off_axis, None]
    return s_arr[:, 0] + 1j * b, J


def _pencil_inverse(T0, K, z, offset):
    """Q(z)^-1 = (z^2 I - 2 z T0 + K)^-1 for complex nodes z (N,)."""
    n = T0.shape[0]
    Q = K - 2.0 * z[:, None, None] * T0
    idx = np.arange(n)
    Q[:, idx, idx] += (z * z)[:, None]
    try:
        Qinv = np.linalg.inv(Q)
    except np.linalg.LinAlgError:
        Qinv = np.stack([_inv_or_nan(M) for M in Q])
    norm1 = lambda M: np.max(np.sum(np.abs(M), axis=-2), axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):
        cond = norm1(Q) * norm1(Qinv)
    bad = ~(cond <= COND_LIMIT)
    if np.any(bad):
        which = int(np.argmax(bad))
        raise SingularMatrixError(
            f"pencil at node {offset + which} has condition {cond[which]:.3e} "
            f"above {COND_LIMIT:.0e}",
            batch_index=offset + which)
    return Qinv


def _inv_or_nan(M):
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return np.full_like(M, np.nan)


def _left_products(blocks, G):
    """R_j G for the real blocks R_j stacked in (k n, n) and complex G
    (N, n, n): (N, k, n, n).  G is viewed as a real (N, n, 2n) array, so
    this is one real matrix product."""
    N, n, _ = G.shape
    W = np.matmul(blocks, G.view(np.float64)).view(np.complex128)
    return W.reshape(N, -1, n, n)


def _right_products(G, blocks):
    """G R_j for complex G (N, n, n) and real blocks R_j side by side in
    (n, k n): (N, k, n, n), from one real product of [Re G; Im G]."""
    N, n, _ = G.shape
    W = np.matmul(np.concatenate((G.real, G.imag), axis=1), blocks)
    W = W[:, :n] + 1j * W[:, n:]
    return W.reshape(N, n, -1, n).transpose(0, 2, 1, 3)


def _kernel_chunk(kind, T0, K, blocks, z, J, offset, out):
    """Write one kernel kind at the slice nodes z into out (N, n, n, 4)."""
    Qinv = _pencil_inverse(T0, K, z, offset)
    if kind is KernelKind.QCS_INV:
        _to_quaternion(Qinv, None, J, True, out)
        return
    if kind in (KernelKind.S_LEFT, KernelKind.S_RIGHT):
        G = Qinv
    else:
        # the F and P2 prefactors -4 and 4 are linear, so they go on Q^-2
        G = np.matmul(_FACTOR[kind] * Qinv, Qinv)
    zc = z[:, None, None]
    if kind is KernelKind.P2_LEFT:
        # B G s - T0 B G with G = 4 Q^-2 and B = (s - T0) + V: the slice
        # part is (s - T0)^2 G, the vector part V G s - (T0 V) G
        W = _left_products(blocks, G)
        C = zc * (zc * G - 2.0 * W[:, 0]) + W[:, 1]
        Z = zc[:, None] * W[:, 2:5] - W[:, 5:8]
    elif kind is KernelKind.P2_RIGHT:
        # s G B - T0 G B = H B with G = 4 Q^-2 and H = (s - T0) G
        H = zc * G - _left_products(T0, G)[:, 0]
        W = _right_products(H, blocks)
        C = zc * H - W[:, 0]
        Z = W[:, 1:]
    elif kind in _LEFT:
        W = _left_products(blocks, G)
        C = zc * G - W[:, 0]
        Z = W[:, 1:]
    else:
        W = _right_products(G, blocks)
        C = zc * G - W[:, 0]
        Z = W[:, 1:]
    _to_quaternion(C, Z, J, kind in _LEFT, out)


def _to_quaternion(C, Z, J, left, out):
    """Write into out (N, n, n, 4) the quaternion form of C + sum_k e_k Z_k
    (left) or C + sum_k Z_k e_k (right), where the complex C and Z_k (Z
    is (N, 3, n, n) or None) stand for X + Y J_s."""
    j = [J[:, k, None, None] for k in range(3)]
    if Z is None:
        out[..., 0] = C.real
        for k in range(3):
            out[..., k + 1] = C.imag * j[k]
        return
    X, Y = Z.real, Z.imag
    # e_k J = -J_k + e_k x J and J e_k = -J_k - e_k x J
    out[..., 0] = C.real - (Y[:, 0] * j[0] + Y[:, 1] * j[1] + Y[:, 2] * j[2])
    for k in range(3):
        a, b = ((k + 1) % 3, (k + 2) % 3) if left else ((k + 2) % 3, (k + 1) % 3)
        out[..., k + 1] = C.imag * j[k] + X[:, k] + (Y[:, a] * j[b] - Y[:, b] * j[a])


def kernel(kind: KernelKind, T: CommutingOperator, s: Quaternion) -> QuatMatrix:
    """Kernel value at one point s in the S-resolvent set of T."""
    return QuatMatrix(kernel_at_nodes(kind, T, s.as_array()))


class kernel_fn:
    """Callable s -> kernel(kind, T, s) with a batched node fast path."""

    def __init__(self, kind: KernelKind, T: CommutingOperator):
        self.kind = KernelKind(kind)
        self.T = T

    @property
    def n(self) -> int:
        return self.T.n

    def __call__(self, s: Quaternion) -> QuatMatrix:
        return kernel(self.kind, self.T, s)

    def at_nodes(self, s_arr: np.ndarray) -> np.ndarray:
        return kernel_at_nodes(self.kind, self.T, s_arr)


# ---------------------------------------------------------------------------
# truncated series oracles


def _check_series_domain(T: CommutingOperator, s: Quaternion):
    tnorm = T.as_matrix().norm()
    if tnorm >= s.norm():
        raise DivergenceError(
            f"series requires |s| > ||T||; got |s| = {s.norm():.3e}, "
            f"||T|| = {tnorm:.3e}")


def p2_series(T: CommutingOperator, s: Quaternion, N: int,
              side: str = "left") -> QuatMatrix:
    """Partial sum of the P2 kernel expansion through order N:

        2 sum_{n=1..N} (n T^(n-1) + sum_{k=1..n} T^(n-k) conj(T)^(k-1)) s^(-1-n)

    with the scalar powers on the left for side='right'."""
    _check_series_domain(T, s)
    n = T.n
    acc = QuatMatrix.zeros(n)
    if N < 1:
        return acc
    Mt = T.as_matrix()
    Mtbar = T.conjugate().as_matrix()
    s_inv = qinv(s)
    spow = s_inv * s_inv
    tpow = [QuatMatrix.identity(n)]
    tbarpow = [QuatMatrix.identity(n)]
    for m in range(1, N + 1):
        C = tpow[m - 1] * float(m)
        for k in range(1, m + 1):
            C = C + tpow[m - k] @ tbarpow[k - 1]
        C = C * 2.0
        acc = acc + (C.rmul(spow) if side == "left" else C.lmul(spow))
        spow = spow * s_inv
        tpow.append(tpow[-1] @ Mt)
        tbarpow.append(tbarpow[-1] @ Mtbar)
    return acc


def s_series(T: CommutingOperator, s: Quaternion, N: int,
             side: str = "left") -> QuatMatrix:
    """Partial sum sum_{m=0..N} T^m s^(-1-m) (scalars left for side='right')."""
    _check_series_domain(T, s)
    n = T.n
    Mt = T.as_matrix()
    acc = QuatMatrix.zeros(n)
    tpow = QuatMatrix.identity(n)
    spow = qinv(s)
    s_inv = spow
    for m in range(N + 1):
        acc = acc + (tpow.rmul(spow) if side == "left" else tpow.lmul(spow))
        spow = spow * s_inv
        tpow = tpow @ Mt
    return acc


# ---------------------------------------------------------------------------
# scalar function-theory kernels (the n = 1 oracles)


def pseudo_kernel(s: Quaternion, q: Quaternion) -> Quaternion:
    """Commutative pseudo Cauchy kernel (s^2 - 2 Re(q) s + |q|^2)^{-1}."""
    return qinv(qs_poly(q, s))


def cauchy_kernel_left(s: Quaternion, q: Quaternion) -> Quaternion:
    return (s - q.conjugate()) * pseudo_kernel(s, q)


def cauchy_kernel_right(s: Quaternion, q: Quaternion) -> Quaternion:
    return pseudo_kernel(s, q) * (s - q.conjugate())


def f_kernel_left(s: Quaternion, q: Quaternion) -> Quaternion:
    k = pseudo_kernel(s, q)
    return (s - q.conjugate()) * k * k * -4.0


def f_kernel_right(s: Quaternion, q: Quaternion) -> Quaternion:
    k = pseudo_kernel(s, q)
    return k * k * (s - q.conjugate()) * -4.0


def p2_kernel_left(s: Quaternion, q: Quaternion) -> Quaternion:
    fl = f_kernel_left(s, q)
    return -(fl * s) + fl * q.w


def p2_kernel_right(s: Quaternion, q: Quaternion) -> Quaternion:
    fr = f_kernel_right(s, q)
    return -(s * fr) + fr * q.w
