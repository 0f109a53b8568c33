"""Independent reference computations that the tests check the library
against.  None of them runs in a command or in the benchmark.

- The scalar (n = 1) closed forms of the kernels, written in quaternion
  arithmetic: pseudo_kernel, cauchy_kernel_left/right, f_kernel_left/right
  and p2_kernel_left/right.
- The truncated Cauchy series of the S and P2 kernels: s_series evaluates
  sum_m T^m s^(-1-m), and p2_series applies Dbar to the series as a stem
  through the power rules and evaluates the image at T.
- Central finite differences of D, Dbar and Delta (fd_fueter_oracle),
  kept apart from the power rules they check, and the closed rule for
  D conj(q)^n (dconj_power).
- A PAPoly's value at a quaternion (pa_evaluate), its pointwise
  conjugate (pa_conjugate, for has_real_coeffs polynomials) and a
  term-by-term comparison (same_terms).
- The real 4n x 4n left-regular representation of a quaternion matrix
  (real_adjoint), the pencil at one point as a QuatMatrix (qcs_op), the
  contour's nodes and weights as quaternion arrays (node_arrays) and a
  Gaussian random quaternion (random_quaternion).
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import mul

import numpy as np

from sspectrum.contour import slice_nodes
from sspectrum.errors import InputError, PreconditionError
from sspectrum.operators import qcs_pencil_at
from sspectrum.qlinalg import QuatMatrix, in_plane
from sspectrum.quat import E1, E2, E3, ONE, Quaternion, qinv, qs_poly
from sspectrum.slicefn import INTRINSIC_RTOL, FueterOp, PAPoly, SlicePoly, fueter_apply

FD_STEP = 1e-4

_UNITS = (ONE, E1, E2, E3)


class DivergenceError(PreconditionError):
    """Series evaluation requested outside its convergence domain."""


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


# ---------------------------------------------------------------------------
# truncated series


def _cauchy_series(T, s: Quaternion, N: int, side: str) -> SlicePoly:
    """The truncated Cauchy series sum_{m=0..N} q^m s^(-1-m) as a stem on
    side, for |s| > ||T||, where it converges at T."""
    tnorm = T.as_matrix.norm()
    if tnorm >= s.norm():
        raise DivergenceError(
            f"series requires |s| > ||T||; got |s| = {s.norm():.3e}, "
            f"||T|| = {tnorm:.3e}")
    s_inv = qinv(s)
    return SlicePoly(side, [s_inv ** (m + 1) for m in range(N + 1)])


def p2_series(T, s: Quaternion, N: int, side: str = "left") -> QuatMatrix:
    """Partial sum sum_{m=1..N} (Dbar q^m)(T) s^(-1-m) of the P2 kernel
    expansion, Dbar of the truncated Cauchy series at T (scalars left for
    side='right')."""
    return fueter_apply(_cauchy_series(T, s, N, side), FueterOp.DBAR).at_operator(T)


def s_series(T, s: Quaternion, N: int, side: str = "left") -> QuatMatrix:
    """Partial sum sum_{m=0..N} T^m s^(-1-m) (scalars left for
    side='right'): the truncated Cauchy series evaluated at T."""
    f = _cauchy_series(T, s, N, side)
    return PAPoly({(m, 0): c for m, c in enumerate(f.coeffs)}, side).at_operator(T)


# ---------------------------------------------------------------------------
# polynomials in (q, conj q)


def _powers(x, top: int):
    """[1, x, x^2, ..., x^top]."""
    return list(accumulate(repeat(x, top), mul, initial=ONE))


def pa_evaluate(P: PAPoly, q: Quaternion) -> Quaternion:
    """The value of P at the quaternion q: each term q^a conj(q)^b c, c
    on the side of P's stem."""
    if not P.terms:
        return Quaternion()
    qp = _powers(q, max(a for a, _ in P.terms))
    cp = _powers(q.conjugate(), max(b for _, b in P.terms))
    acc = Quaternion()
    for (a, b), c in P.terms.items():
        mono = qp[a] * cp[b]
        acc = acc + (mono * c if P.side == "left" else c * mono)
    return acc


def has_real_coeffs(P: PAPoly) -> bool:
    scale = max([c.norm() for c in P.terms.values()] + [1.0])
    return all(c.vec_norm() <= INTRINSIC_RTOL * scale for c in P.terms.values())


def pa_conjugate(P: PAPoly) -> PAPoly:
    """Pointwise conjugate, valid for real-coefficient polynomials, where
    it reduces to exchanging the exponents of q and conj(q)."""
    if not has_real_coeffs(P):
        raise InputError("conjugate is implemented for real coefficients only")
    return PAPoly({(b, a): c for (a, b), c in P.terms.items()}, P.side)


def same_terms(P: PAPoly, R: PAPoly, tol: float = 0.0) -> bool:
    zero = Quaternion()
    return all((P.terms.get(k, zero) - R.terms.get(k, zero)).norm() <= tol
               for k in set(P.terms) | set(R.terms))


def dconj_power(n: int) -> PAPoly:
    """D applied to conj(q)^n.

    For n >= 2 this is (2n+2) conj(q)^(n-1) + 2 sum_{k=0..n-2}
    q^(k+1) conj(q)^(n-k-2); for n = 1 it is the constant 4.
    """
    if n < 1:
        raise InputError("dconj_power needs n >= 1")
    if n == 1:
        return PAPoly({(0, 0): Quaternion(4.0)})
    terms = {(0, n - 1): Quaternion(2.0 * n + 2.0)}
    for k in range(0, n - 1):
        key = (k + 1, n - k - 2)
        terms[key] = terms.get(key, Quaternion()) + Quaternion(2.0)
    return PAPoly(terms)


# ---------------------------------------------------------------------------
# finite differences


def fd_fueter_oracle(f, q: Quaternion, op: FueterOp, h: float = FD_STEP,
                     side: str = "left") -> Quaternion:
    """Central-difference value of the operator at q.

    f is any pointwise evaluator q -> Quaternion.  For D and Dbar the
    coordinate differences are combined with the imaginary units on the
    requested side; Delta uses second differences and needs no units.
    This oracle is kept deliberately independent of the power rules.
    """
    if h <= 0.0:
        raise InputError("step h must be positive")
    op = FueterOp(op)
    if op is FueterOp.DELTA:
        acc = Quaternion()
        fq2 = f(q) * 2.0
        for e in _UNITS:
            step = e * h
            acc = acc + (f(q + step) - fq2 + f(q - step)) * (1.0 / (h * h))
        return acc
    sign = 1.0 if op is FueterOp.D else -1.0
    inv2h = 1.0 / (2.0 * h)
    step0 = _UNITS[0] * h
    acc = (f(q + step0) - f(q - step0)) * inv2h
    for e in _UNITS[1:]:
        step = e * h
        diff = (f(q + step) - f(q - step)) * inv2h
        acc = acc + (e * diff if side == "left" else diff * e) * sign
    return acc


# ---------------------------------------------------------------------------
# matrices, nodes and draws


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


def qcs_op(T, s: Quaternion) -> QuatMatrix:
    """The pseudo S-resolvent pencil s^2 I - s (T + conj(T)) + T conj(T).

    T + conj(T) = 2 T0 and T conj(T) = T.gram are real matrices, so the
    quaternion scalar s acts on real entries and the side is immaterial.
    """
    return QuatMatrix(qcs_pencil_at(T, s.as_array()[None, :])[0])


def node_arrays(c):
    """The contour's nodes and weights as two (M, 4) quaternion arrays, in
    slice_nodes order: a + ib stands for a + bJ."""
    z, w, _, _ = slice_nodes(c)
    J = c.J.as_array()
    return in_plane(z, J), in_plane(w, J)


def random_quaternion(rng, scale: float = 1.0) -> Quaternion:
    c = rng.standard_normal(4) * scale
    return Quaternion(float(c[0]), float(c[1]), float(c[2]), float(c[3]))
