"""Resolvent kernels of the four functional calculi.

All kernels are built from the pseudo S-resolvent Q_{c,s}(T)^{-1}, the
inverse of the pencil s^2 I - s(T + conj(T)) + T conj(T):

    S_L^-1(s,T)  = (sI - conj(T)) Q^-1          S_R^-1 = Q^-1 (sI - conj(T))
    F_L(s,T)     = -4 (sI - conj(T)) Q^-2       F_R    = -4 Q^-2 (sI - conj(T))
    P2_L(s,T)    = -F_L(s,T) s + T0 F_L(s,T)    P2_R   = -s F_R(s,T) + T0 F_R(s,T)

The P2 kernels are the conjugate-Fueter images of the Cauchy kernels
and drive the order-2 polyanalytic calculus; F produces the Laplacian
image, and Q^-1 itself the harmonic one.

A kernel is named by the calculus it serves, ``CalculusKind`` (S, Q,
P2, F), and a side.  The side picks the left or the right form;
``contour.integrate`` takes it from the stems it pairs, so a left form
only ever meets left stems and a right form right ones.  Q^-1 is
two-sided: both of its sides give the same kernel.

Evaluation works in the complex slice of each node.  Writing s = a + bJ,
every entry of the pencil lies in span{1, J}, which is a copy of C, so
Q^-1 is one batched complex LAPACK inverse and Q^-2 one complex matrix
product.  The factor sI - conj(T) splits into s - T0, which stays in the
slice, and the vector part T1 e1 + T2 e2 + T3 e3, so every kernel is
C + sum_j e_j Z_j (left forms) or C + sum_j Z_j e_j (right forms), where
C and Z_j are real matrix polynomials in T applied to z^p G, p <= 2, with
G = Q^-1 or +-4 Q^-2, and X + iY stands for X + YJ.

``kernel_at_nodes`` turns C and Z into quaternions at every node, an
(N, n, n, 4) stack, and ``kernel_forms`` at one point s, for several
(kind, side) forms from one Q(s)^-1 (``kernel`` is its one-form call):
C by the embedding ``qlinalg.in_plane``, and sum_j e_j Z_j as X + Y J
(X + J Y for right forms), X and Y the vector quaternions of the real
and imaginary parts of the Z_j, so the one product in it is
``qmul_arr``.  Paired node by node,
that stack is the tests' oracle for the contracted sum.  ``kernel_sum``,
the one path by which ``contour.integrate`` pairs kernels with stems,
never forms that stack: the map from z^p G to the kernel is real-linear,
so it contracts G with the quadrature weights over the nodes first and
applies the T products and the quaternion map once, to n x n moments.
It takes the weights of every kind that one contour pass needs, one row
per kind, and shares between the rows what depends on the nodes alone.

The components commute, so where T has a joint eigenbasis
(``CommutingOperator.eigenbasis``, T_i = V diag(lam_i) V^-1), every
pencil is V diag(q(z)) V^-1 with the scalars
q(z) = z^2 - 2 z lam_0 + sum_i lam_i^2, and each moment is
V diag(sum_k a_k g(z_k)) V^-1 with g = 1/q or +-4/q^2: one eig per
operator in place of one inversion per node (Higham, Functions of
Matrices, SIAM 2008, 4.5).  The scalar sums run over blocks of
EIGEN_BLOCK upper nodes, each with its conjugates, so their work arrays
are (n, 2 EIGEN_BLOCK) however long the contour; a contour whose upper
nodes fit in one block is summed by exactly the arithmetic of one pass
over all nodes.  A block's q, its bound and 1/q serve every row.  The
per-node path inverts the pencil at the nodes on or above the real axis
only, since the pencil is real and Q(conj z)^-1 = conj Q(z)^-1.  It runs when T has no eigenbasis (a
Jordan block, say) or when the bound n kappa_2(V)^2 max|q| / min|q| on
a pencil's condition number exceeds COND_LIMIT at some node of any
block; it is then the one path that raises SingularMatrixError for
that node.

Scalar (n = 1) closed forms of the same kernels are provided separately
as the function-theory oracles.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DivergenceError, InputError, SingularMatrixError
from .operators import BATCH_ENTRIES, CommutingOperator
from .qlinalg import PIVOT_RTOL, QuatMatrix, in_plane, product_matrices, qmul_arr
from .quat import Quaternion, qinv, qs_poly
from .slicefn import FueterOp, PAPoly, SlicePoly, fueter_apply

__all__ = [
    "CalculusKind",
    "kernel",
    "kernel_forms",
    "kernel_at_nodes",
    "kernel_sum",
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
# Upper nodes per block of the eigenbasis sum: the 129 upper nodes of a
# default 256-node Circle and the 256 of a DiskPair's upper circle fit
# in one.  A block's work arrays are (n, 2 EIGEN_BLOCK); a budget that
# shrank with n made n = 128 slower from the Python cost per block.
EIGEN_BLOCK = 256


class CalculusKind(Enum):
    """The calculus a kernel serves; a side picks its left or right form."""
    S = "s"
    Q = "q"
    P2 = "p2"
    F = "f"


_FACTOR = {CalculusKind.F: -4.0, CalculusKind.P2: 4.0}
# highest power of the slice node z that multiplies G in each kernel
_DEGREE = {CalculusKind.Q: 0, CalculusKind.S: 1, CalculusKind.F: 1,
           CalculusKind.P2: 2}
# x @ _UNIT_PRODUCTS[side][q] is x e_q (side 'left', where the weight
# sits right of the kernel) or e_q x (side 'right')
_UNIT_PRODUCTS = {"left": product_matrices(np.eye(4), "right"),
                  "right": product_matrices(np.eye(4), "left")}


def kernel_at_nodes(kind: CalculusKind, T: CommutingOperator, s_arr: np.ndarray,
                    side: str = "left") -> np.ndarray:
    """Evaluate the side form of one kind's kernel at a batch of points
    s_arr (N, 4).

    Returns an (N, n, n, 4) stack.  Raises SingularMatrixError when any
    node sits on (or numerically grazes) the S-spectrum.
    """
    kind = CalculusKind(kind)
    _check_side(side)
    s_arr = np.asarray(s_arr, dtype=np.float64)
    squeeze = s_arr.ndim == 1
    if squeeze:
        s_arr = s_arr[None, :]
    n = T.n
    K = T.gram
    out = np.empty(s_arr.shape[:1] + (n, n, 4))
    chunk = max(1, BATCH_ENTRIES // (n * n))
    for lo in range(0, len(s_arr), chunk):
        hi = min(lo + chunk, len(s_arr))
        z, J = _slice_coordinates(s_arr[lo:hi])
        G = _pencil_term(kind, T.T0, K, z, np.arange(lo, hi))
        out[lo:hi] = _form(kind, side, T, z, J, G)
    return out[0] if squeeze else out


def kernel_forms(T: CommutingOperator, s: Quaternion, forms) -> list:
    """Several forms of the kernels at one point s in the S-resolvent
    set of T, from one pencil inverse Q(s)^-1.

    forms is a sequence of (kind, side); the result lists one QuatMatrix
    per form, each equal bit for bit to kernel(kind, T, s, side)."""
    forms = [(CalculusKind(kind), side) for kind, side in forms]
    for _, side in forms:
        _check_side(side)
    z, J = _slice_coordinates(s.as_array()[None, :])
    Qinv = _pencil_term(CalculusKind.Q, T.T0, T.gram, z, np.arange(1))
    G = {kind: _factored(kind, Qinv) for kind, _ in forms}
    return [QuatMatrix(_form(kind, side, T, z, J, G[kind])[0]) for kind, side in forms]


def _form(kind, side, T, z, J, G):
    """The side form of one kind's kernel, (N, n, n, 4), from its pencil
    term G (N, n, n) at the slice values z with units J."""
    powers = np.arange(_DEGREE[kind] + 1)
    S = (z[:, None] ** powers)[:, :, None, None] * G[:, None]
    return _to_quaternion(*_kernel_parts(kind, side, T, S), J, side)


def kernel_sum(T: CommutingOperator, J, z, side: str, rows, index) -> list:
    """The side form of several kinds' kernels paired with quaternion
    weights on that side and summed over nodes.

    The nodes z (U,) are complex slice values a + ib standing for
    a + bJ in the plane C_J of the imaginary unit J, a (4,) quaternion
    array; b may be negative.  rows is a sequence of (kind, c, c_conj),
    weights c and c_conj (S, U, 4) for S stems, and the result lists one
    (S, n, n, 4) stack per row, whose entry for each stem is

        sum_k K(z_k) c_k  (side 'left')   or   sum_k c_k K(z_k)  (side 'right'),

    K the kind's kernel, plus the same sum at the conjugate nodes
    conj(z_k) with the weights c_conj, zero where z_k has no conjugate
    in the node set.  index (U,) labels the nodes in a
    SingularMatrixError.

    Only G = Q^-1, or the +-4 Q^-2 of the F and P2 kernels, depends on
    the node.  Every kernel is C + sum_j e_j Z_j (left forms) or
    C + sum_j Z_j e_j (right forms), where C and Z_j are real matrix
    polynomials in T applied to z^p G, p <= 2, and X + iY stands for
    X + YJ.  That map is real-linear, so the weights are contracted
    first: each real weight component c_q gives the moments
    M_{q,p} = sum_k c_{k,q} z_k^p G_k, and the T products and the
    quaternion map run once on the n x n moments.  The result is
    sum_q Phi_q e_q on the left side and sum_q e_q Phi_q on the right.

    The moments are summed in T's joint eigenbasis, as scalar sums over
    the joint eigenvalues that every row shares (_eigen_moments), and by
    one pencil inversion per node and row (_node_moments) when T has no
    eigenbasis or a node's pencil may be too ill-conditioned for it.
    Each row's value is the same, bit for bit, as when it is the only
    row.
    """
    _check_side(side)
    J = np.asarray(J, dtype=np.float64)
    z = np.asarray(z, dtype=np.complex128)
    rows = [(CalculusKind(kind), np.asarray(c, dtype=np.float64),
             np.asarray(c_conj, dtype=np.float64)) for kind, c, c_conj in rows]
    moments = _eigen_moments(T, z, rows)
    if moments is None:
        moments = [_node_moments(kind, T, z, c, c_conj, np.asarray(index))
                   for kind, c, c_conj in rows]
    sums = []
    for (kind, c, _), M in zip(rows, moments):
        Phi = _to_quaternion(*_kernel_parts(kind, side, T, M), J, side)
        out = np.empty((len(c), T.n, T.n, 4))
        for r, Phi_r in enumerate(Phi):
            out[r] = np.tensordot(Phi_r, _UNIT_PRODUCTS[side], axes=([0, 3], [0, 1]))
        sums.append(out)
    return sums


def _eigen_moments(T, z, rows):
    """The moments M_{q,p} of kernel_sum, one (S, 4, P, n, n) stack per
    row for P powers of z, contracted in T's joint eigenbasis, or None
    where that contraction may not be trusted and the per-node path
    must run.

    With T_i = V diag(lam_i) V^-1, every pencil is
    Q(z) = V diag(q(z)) V^-1 with q(z) = z^2 - 2 z lam_0 + sum_i lam_i^2,
    so G = V diag(g(z)) V^-1 with g = 1/q (S, Q) or +-4/q^2 (F, P2), and
    each moment is V diag(sum_k a_k g(z_k)) V^-1 for scalar weights a_k.
    The diagonal sums D run over blocks of EIGEN_BLOCK upper nodes, each
    block with its conjugate nodes, evaluated at conj(z) directly, so
    the (n, 2 EIGEN_BLOCK) work arrays do not grow with the contour.
    A block's scalars q, their bound and 1/q serve every row; each row
    then takes its own g and powers of z from them.  When every upper
    node fits in one block, the arithmetic is that of one pass over all
    nodes: one product per row, and no sum of blocks.  Per node,
    n kappa_2(V)^2 max|q| / min|q| bounds the 1-norm condition number
    of Q(z) that _pencil_term tests.  Every block tests it at each of
    its nodes before summing them, and the first block where it exceeds
    COND_LIMIT ends the sum with None, so the per-node path runs and
    raises where it would."""
    basis = T.eigenbasis
    if basis is None:
        return None
    n = T.n
    degrees = [_DEGREE[kind] + 1 for kind, _, _ in rows]
    lam = basis.values[:, :, None]
    shift = np.sum(lam * lam, axis=0)
    D = [None] * len(rows)
    # one block even without nodes, so that D is the zero sum
    for lo in range(0, max(len(z), 1), EIGEN_BLOCK):
        block = slice(lo, lo + EIGEN_BLOCK)
        nodes = np.concatenate((z[block], np.conj(z[block])))
        q = nodes * (nodes - 2.0 * lam[0]) + shift
        size = np.abs(q)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bound = n * basis.kappa * basis.kappa * (np.max(size, axis=0) / np.min(size, axis=0))
        if not np.all(bound <= COND_LIMIT):
            return None
        inv = 1.0 / q
        zp = np.ones((len(nodes), max(degrees)), dtype=np.complex128)
        for p in range(1, zp.shape[1]):
            zp[:, p] = zp[:, p - 1] * nodes
        for r, ((kind, c, c_conj), P) in enumerate(zip(rows, degrees)):
            g = inv
            if kind in _FACTOR:
                g = inv * inv
                g *= _FACTOR[kind]
            # a_k = c_{k,q} z_k^p in columns (q, p), for the block's nodes
            # and their conjugates, so that the block's share of every
            # D_{q,p} = sum_k a_k g(z_k) is one product
            a = (np.concatenate((c[:, block], c_conj[:, block]), axis=1)[..., None]
                 * zp[:, None, :P])
            part = g @ a.reshape(len(c), len(nodes), 4 * P)
            D[r] = part if D[r] is None else D[r] + part
    return [(basis.V * np.moveaxis(Dr, 1, -1).reshape(len(c), 4, P, n)[..., None, :]) @ basis.W
            for Dr, (_, c, _), P in zip(D, rows, degrees)]


def _node_moments(kind, T, z, c, c_conj, index):
    """The moments M_{q,p} of kernel_sum, (S, 4, P, n, n), from one
    pencil inversion per node, a chunk of nodes at a time."""
    n = T.n
    K = T.gram
    powers = np.arange(_DEGREE[kind] + 1)
    rows = 4 * len(powers)
    moments = np.zeros((len(c), 2 * rows, n * n))
    chunk = max(1, BATCH_ENTRIES // (n * n))
    for lo in range(0, len(z), chunk):
        hi = min(lo + chunk, len(z))
        G = _pencil_term(kind, T.T0, K, z[lo:hi], index[lo:hi])
        G = np.concatenate((G.real, G.imag)).reshape(2 * (hi - lo), n * n)
        zp = z[lo:hi, None] ** powers
        for r in range(len(c)):
            # a G + conj(b G) = (a + conj b) Re G + i (a - conj b) Im G for
            # a = c z^p and b = c_conj z^p, as one real product
            a = (c[r, lo:hi, :, None] * zp[:, None, :]).reshape(hi - lo, rows).T
            b_bar = np.conj(c_conj[r, lo:hi, :, None] * zp[:, None, :]).reshape(hi - lo, rows).T
            plus, minus = a + b_bar, a - b_bar
            L = np.block([[plus.real, -minus.imag], [plus.imag, minus.real]])
            moments[r] += L @ G
    return (moments[:, :rows] + 1j * moments[:, rows:]).reshape(
        len(c), 4, len(powers), n, n)


def _check_side(side):
    if side not in ("left", "right"):
        raise InputError("side must be 'left' or 'right'")


def _slice_coordinates(s_arr):
    """Each node as s = a + b J_s: the slice value z = a + ib and the unit
    J_s as an (N, 4) array (e1 for real nodes, where any unit does)."""
    vec = s_arr[:, 1:]
    b = np.sqrt(np.sum(vec * vec, axis=1))
    J = np.zeros_like(s_arr)
    J[:, 1] = 1.0
    off_axis = b > 0.0
    J[off_axis, 1:] = vec[off_axis] / b[off_axis, None]
    return s_arr[:, 0] + 1j * b, J


def _pencil_term(kind, T0, K, z, index):
    """G(z) for complex nodes z (N,): Q^-1 for the S and Q kernels, and
    -4 Q^-2 or 4 Q^-2 for F and P2, with Q(z) = z^2 I - 2 z T0 + K.
    Raises SingularMatrixError naming the first ill-conditioned node by
    its label in index."""
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
        label = int(index[which])
        raise SingularMatrixError(
            f"pencil at node {label} has condition {cond[which]:.3e} "
            f"above {COND_LIMIT:.0e}",
            batch_index=label)
    return _factored(kind, Qinv)


def _factored(kind, Qinv):
    """G from Q^-1: Q^-1 itself for S and Q, -4 Q^-2 for F, 4 Q^-2 for P2."""
    if kind in _FACTOR:
        # the F and P2 prefactors are linear, so they go on Q^-2
        return np.matmul(_FACTOR[kind] * Qinv, Qinv)
    return Qinv


def _inv_or_nan(M):
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return np.full_like(M, np.nan)


def _kernel_parts(kind, side, T, S):
    """The slice part C (..., n, n) and the vector parts Z (..., 3, n, n)
    (None for Q^-1) of one kernel's side form, from S (..., p, n, n)
    whose S_p stands for z^p G.  With B = (s - T0) + V,
    V = T1 e1 + T2 e2 + T3 e3:

        S_L = B G, F_L = B G        C = (z - T0) G,      Z_j = T_j G
        S_R = G B, F_R = G B        C = z G - G T0,      Z_j = G T_j
        P2_L = B G s - T0 B G       C = (z - T0)^2 G,    Z_j = T_j (z - T0) G
        P2_R = (s - T0) G B         C = z H - H T0,      Z_j = H T_j

    where H = (z - T0) G and G carries each kind's factor: P2 is the
    S and F form with H in place of G."""
    T0, V = T.T0, T.vector_components
    S0 = S[..., 0, :, :]
    if kind is CalculusKind.Q:
        return S0, None
    S1 = S[..., 1, :, :]
    if kind is CalculusKind.P2:
        X, zX = S1 - T0 @ S0, S[..., 2, :, :] - T0 @ S1
    else:
        X, zX = S0, S1
    if side == "left":
        return zX - T0 @ X, V @ X[..., None, :, :]
    return zX - X @ T0, X[..., None, :, :] @ V


def _to_quaternion(C, Z, J, side):
    """The quaternion form (N, n, n, 4) of C + sum_k e_k Z_k (side 'left')
    or C + sum_k Z_k e_k ('right'), where the complex C (N, n, n) and Z_k
    (Z is (N, 3, n, n) or None) stand for X + Y J, with the unit J an
    (N, 4) array, one per matrix, or one (4,) array for all.  With the
    vector parts X = sum_k Re(Z_k) e_k and Y = sum_k Im(Z_k) e_k, the sum
    over k is X + Y J on the left side and X + J Y on the right."""
    J = J[..., None, None, :]
    out = in_plane(C, J)
    if Z is not None:
        Z = np.moveaxis(Z, -3, -1)
        Y = np.zeros(out.shape)
        Y[..., 1:] = Z.imag
        out += qmul_arr(Y, J) if side == "left" else qmul_arr(J, Y)
        out[..., 1:] += Z.real
    return out


def kernel(kind: CalculusKind, T: CommutingOperator, s: Quaternion,
           side: str = "left") -> QuatMatrix:
    """The side form of one kind's kernel at one point s in the
    S-resolvent set of T."""
    return kernel_forms(T, s, [(kind, side)])[0]


# ---------------------------------------------------------------------------
# truncated series oracles


def _cauchy_series(T: CommutingOperator, s: Quaternion, N: int, side: str) -> SlicePoly:
    """The truncated Cauchy series sum_{m=0..N} q^m s^(-1-m) as a stem on
    side, for |s| > ||T||, where it converges at T."""
    tnorm = T.as_matrix.norm()
    if tnorm >= s.norm():
        raise DivergenceError(
            f"series requires |s| > ||T||; got |s| = {s.norm():.3e}, "
            f"||T|| = {tnorm:.3e}")
    s_inv = qinv(s)
    return SlicePoly(side, [s_inv ** (m + 1) for m in range(N + 1)])


def p2_series(T: CommutingOperator, s: Quaternion, N: int,
              side: str = "left") -> QuatMatrix:
    """Partial sum sum_{m=1..N} (Dbar q^m)(T) s^(-1-m) of the P2 kernel
    expansion, Dbar of the truncated Cauchy series at T (scalars left for
    side='right')."""
    return fueter_apply(_cauchy_series(T, s, N, side), FueterOp.DBAR).at_operator(T)


def s_series(T: CommutingOperator, s: Quaternion, N: int,
             side: str = "left") -> QuatMatrix:
    """Partial sum sum_{m=0..N} T^m s^(-1-m) (scalars left for
    side='right'): the truncated Cauchy series evaluated at T."""
    f = _cauchy_series(T, s, N, side)
    return PAPoly({(m, 0): c for m, c in enumerate(f.coeffs)}, side).at_operator(T)


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
