"""Registry of operator identities, each scored as a residual norm.

Every named identity forms its left- and right-hand sides explicitly
from the kernel and calculus modules and reports

    residual = ||LHS - RHS||,   scale = max(||LHS||, ||RHS||, 1),

passing when residual <= tol * scale.  Pointwise identities take an
operator and one or two resolvent points; integral identities take
stems and contours.  ``verify_all`` runs the whole registry on seeded
random admissible inputs and is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import CalculusKind, apply_calculus, riesz_projector
from .contour import Contour, auto_contour, enclosing_circle, integrate
from .errors import GeometryError, InputError, PreconditionError
from .kernels import KernelKind, kernel
from .operators import CommutingOperator
from .qlinalg import QuatMatrix
from .quat import Quaternion, qinv, qs_poly, random_imaginary_unit
from .slicefn import SlicePoly, stem_product, stem_shift

__all__ = [
    "IdentityReport",
    "POINTWISE_IDENTITIES",
    "INTEGRAL_IDENTITIES",
    "registry_names",
    "verify_pointwise",
    "verify_integral",
    "verify_all",
    "random_commuting_operator",
    "random_commuting_polynomial",
    "split_spectrum_operator",
    "random_resolvent_point",
    "random_stem",
    "reports_to_json",
    "reports_to_csv",
]

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class IdentityReport:
    name: str
    inputs: str
    residual: float
    scale: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "residual": self.residual,
            "scale": self.scale,
            "tol": self.tol,
            "pass": self.passed,
        }


def rel_residual(lhs: QuatMatrix, rhs: QuatMatrix):
    """(residual, scale) of an explicitly formed difference."""
    residual = (lhs - rhs).norm()
    scale = max(lhs.norm(), rhs.norm(), 1.0)
    return residual, scale


def _report(name, inputs, pairs, tol) -> IdentityReport:
    """Worst relative residual over a list of (lhs, rhs) pairs."""
    worst_r, worst_s, worst_rel = 0.0, 1.0, -1.0
    for lhs, rhs in pairs:
        r, s = rel_residual(lhs, rhs)
        if r / s > worst_rel:
            worst_r, worst_s, worst_rel = r, s, r / s
    return IdentityReport(name, inputs, worst_r, worst_s, tol,
                          worst_r <= tol * worst_s)


# ---------------------------------------------------------------------------
# pointwise identities


def _bracket(X: QuatMatrix, s: Quaternion, p: Quaternion) -> QuatMatrix:
    """[X p - conj(s) X] (p^2 - 2 s0 p + |s|^2)^{-1}, the right-hand
    shape shared by all the two-point resolvent equations."""
    return (X.rmul(p) - X.lmul(s.conjugate())).rmul(qinv(qs_poly(s, p)))


def _s_resolvent_eq(T, s, p):
    SR = kernel(KernelKind.S_RIGHT, T, s)
    SL = kernel(KernelKind.S_LEFT, T, p)
    return [(SR @ SL, _bracket(SR - SL, s, p))]


def _s_resolvent_eq_intertwined(T, s, p, B: QuatMatrix):
    SR = kernel(KernelKind.S_RIGHT, T, s)
    SL = kernel(KernelKind.S_LEFT, T, p)
    X = SR @ B - B @ SL
    return [(SR @ B @ SL, _bracket(X, s, p))]


def _p2_mixed_resolvent_eq(T, s, p):
    SR = kernel(KernelKind.S_RIGHT, T, s)
    SL = kernel(KernelKind.S_LEFT, T, p)
    P2L = kernel(KernelKind.P2_LEFT, T, p)
    P2R = kernel(KernelKind.P2_RIGHT, T, s)
    Qs = kernel(KernelKind.QCS_INV, T, s)
    Qp = kernel(KernelKind.QCS_INV, T, p)
    uT = T.vector_part()
    lhs = SR @ P2L + P2R @ SL - (Qs @ uT @ Qp) * 4.0
    return [(lhs, _bracket(P2R - P2L, s, p))]


def _p2_resolvent_eq(T, s, p):
    SR = kernel(KernelKind.S_RIGHT, T, s)
    SL = kernel(KernelKind.S_LEFT, T, p)
    P2L = kernel(KernelKind.P2_LEFT, T, p)
    P2R = kernel(KernelKind.P2_RIGHT, T, s)
    FL = kernel(KernelKind.F_LEFT, T, p)
    FR = kernel(KernelKind.F_RIGHT, T, s)
    uT = T.vector_part()
    uT2 = uT @ uT
    lhs = (SR @ P2L + P2R @ SL
           - (P2R @ uT @ P2L + P2R @ uT2 @ FL
              + FR @ uT2 @ P2L + FR @ uT2 @ uT @ FL) * 0.25)
    return [(lhs, _bracket(P2R - P2L, s, p))]


def _q_resolvent_eq(T, s, p):
    SR = kernel(KernelKind.S_RIGHT, T, s)
    SL = kernel(KernelKind.S_LEFT, T, p)
    Qs = kernel(KernelKind.QCS_INV, T, s)
    Qp = kernel(KernelKind.QCS_INV, T, p)
    uT = T.vector_part()
    lhs = Qs @ SL + SR @ Qp - (Qs @ uT @ Qp) * 2.0
    return [(lhs, _bracket(Qs - Qp, s, p))]


def _q_resolvent_eq_legacy(T, s, p):
    Qs = kernel(KernelKind.QCS_INV, T, s)
    Qp = kernel(KernelKind.QCS_INV, T, p)
    Tbar = T.conjugate().as_matrix()
    lhs = (Qs @ Qp).lmul(s).rmul(p) - (Qs @ Tbar @ Qp).lmul(s) \
        - (Qs @ Tbar @ Qp).rmul(p) + Qs @ Tbar @ Tbar @ Qp
    rhs = _bracket(Qs.lmul(s) - Qp.lmul(p), s, p) \
        + _bracket(Tbar @ Qp - Qs @ Tbar, s, p)
    return [(lhs, rhs)]


def _f_kernel_shift(T, s, side):
    Qs = kernel(KernelKind.QCS_INV, T, s)
    Mt = T.as_matrix()
    if side == "left":
        FL = kernel(KernelKind.F_LEFT, T, s)
        lhs = FL.rmul(s) - Mt @ FL
    else:
        FR = kernel(KernelKind.F_RIGHT, T, s)
        lhs = FR.lmul(s) - FR @ Mt
    return [(lhs, Qs * -4.0)]


def _pseudo_split(T, s, side):
    Qs = kernel(KernelKind.QCS_INV, T, s)
    uT = T.vector_part()
    if side == "left":
        rhs = (kernel(KernelKind.P2_LEFT, T, s)
               + uT @ kernel(KernelKind.F_LEFT, T, s)) * 0.25
    else:
        rhs = (kernel(KernelKind.P2_RIGHT, T, s)
               + kernel(KernelKind.F_RIGHT, T, s) @ uT) * 0.25
    return [(Qs, rhs)]


def _p2_kernel_shift(T, s, side):
    Qs = kernel(KernelKind.QCS_INV, T, s)
    uT = T.vector_part()
    Mt = T.as_matrix()
    if side == "left":
        P2L = kernel(KernelKind.P2_LEFT, T, s)
        lhs = P2L.rmul(s) - Mt @ P2L
        rhs = (kernel(KernelKind.S_LEFT, T, s) - uT @ Qs) * 4.0
    else:
        P2R = kernel(KernelKind.P2_RIGHT, T, s)
        lhs = P2R.lmul(s) - P2R @ Mt
        rhs = (kernel(KernelKind.S_RIGHT, T, s) - Qs @ uT) * 4.0
    return [(lhs, rhs)]


def _power_sums(T, s, m, side):
    """The two four-fold sums entering the degree-m kernel shift."""
    n = T.n
    Qs = kernel(KernelKind.QCS_INV, T, s)
    uT = T.vector_part()
    Mt = T.as_matrix()
    SL = kernel(KernelKind.S_LEFT, T, s)
    SR = kernel(KernelKind.S_RIGHT, T, s)
    A = QuatMatrix.zeros(n)
    Bm = QuatMatrix.zeros(n)
    tpow = QuatMatrix.identity(n)
    for i in range(m):
        spow = s ** (m - i - 1)
        if side == "left":
            A = A + (tpow @ SL).rmul(spow)
            Bm = Bm + (tpow @ uT @ Qs).rmul(spow)
        else:
            A = A + (SR @ tpow).lmul(spow)
            Bm = Bm + (Qs @ uT @ tpow).lmul(spow)
        tpow = tpow @ Mt
    return A * 4.0, Bm * 4.0


def _p2_kernel_power_shift(T, s, m, side):
    Mt = T.as_matrix()
    tm = QuatMatrix.identity(T.n)
    for _ in range(m):
        tm = tm @ Mt
    A, Bm = _power_sums(T, s, m, side)
    if side == "left":
        P2L = kernel(KernelKind.P2_LEFT, T, s)
        lhs = P2L.rmul(s ** m) - tm @ P2L
    else:
        P2R = kernel(KernelKind.P2_RIGHT, T, s)
        lhs = P2R.lmul(s ** m) - P2R @ tm
    return [(lhs, A - Bm)]


def p2_power_shift_alt_terms(T: CommutingOperator, s: Quaternion, m: int):
    """The closing rewriting of the degree-m sum, with its stated index
    bounds taken verbatim.  Compared against the main display by the
    test suite; the stated bounds do not reproduce it."""
    n = T.n
    Qs = kernel(KernelKind.QCS_INV, T, s)
    Mt = T.as_matrix()
    Tbar = T.conjugate().as_matrix()
    first = QuatMatrix.zeros(n)
    tpow = Mt @ Mt
    for i in range(1, m + 1):
        spow = qinv(s) if m - i - 1 == -1 else s ** (m - i - 1)
        first = first + (tpow @ Qs).rmul(spow)
        tpow = tpow @ Mt
    second = QuatMatrix.zeros(n)
    tpow = QuatMatrix.identity(n)
    for i in range(m):
        second = second + (tpow @ Qs).rmul(s ** (m - i - 1))
        tpow = tpow @ Mt
    B_alt = first * 2.0 - (Tbar @ second) * 2.0
    _, B_main = _power_sums(T, s, m, "left")
    return B_main, B_alt


POINTWISE_IDENTITIES = {
    "s_resolvent_eq": _s_resolvent_eq,
    "s_resolvent_eq_intertwined": _s_resolvent_eq_intertwined,
    "p2_mixed_resolvent_eq": _p2_mixed_resolvent_eq,
    "p2_resolvent_eq": _p2_resolvent_eq,
    "q_resolvent_eq": _q_resolvent_eq,
    "q_resolvent_eq_legacy": _q_resolvent_eq_legacy,
    "f_kernel_shift_left": lambda T, s, p=None: _f_kernel_shift(T, s, "left"),
    "f_kernel_shift_right": lambda T, s, p=None: _f_kernel_shift(T, s, "right"),
    "pseudo_split_left": lambda T, s, p=None: _pseudo_split(T, s, "left"),
    "pseudo_split_right": lambda T, s, p=None: _pseudo_split(T, s, "right"),
    "p2_kernel_shift_left": lambda T, s, p=None: _p2_kernel_shift(T, s, "left"),
    "p2_kernel_shift_right": lambda T, s, p=None: _p2_kernel_shift(T, s, "right"),
    "p2_kernel_power_shift_left":
        lambda T, s, p=None, m=3: _p2_kernel_power_shift(T, s, m, "left"),
    "p2_kernel_power_shift_right":
        lambda T, s, p=None, m=3: _p2_kernel_power_shift(T, s, m, "right"),
}


# ---------------------------------------------------------------------------
# integral identities


def _cal(kind, f, T, c):
    return apply_calculus(kind, f, T, c)


def _p2_product_rule_left(T, f, g, c_in, c_out):
    if g.side != "left":
        raise PreconditionError("this product rule takes a left stem g")
    uT = T.vector_part()
    lhs = _cal(CalculusKind.P2, stem_product(f, g), T, c_in)
    rhs = (_cal(CalculusKind.S, f, T, c_out) @ _cal(CalculusKind.P2, g, T, c_in)
           + _cal(CalculusKind.P2, f, T, c_out) @ _cal(CalculusKind.S, g, T, c_in)
           - _cal(CalculusKind.Q, f, T, c_out) @ uT @ _cal(CalculusKind.Q, g, T, c_in))
    return [(lhs, rhs)]


def _p2_product_rule_right(T, f, g, c_in, c_out):
    if g.side != "right":
        raise PreconditionError("this product rule takes a right stem g")
    uT = T.vector_part()
    lhs = _cal(CalculusKind.P2, stem_product(f, g), T, c_in)
    rhs = (_cal(CalculusKind.S, g, T, c_in) @ _cal(CalculusKind.P2, f, T, c_out)
           + _cal(CalculusKind.P2, g, T, c_in) @ _cal(CalculusKind.S, f, T, c_out)
           - _cal(CalculusKind.Q, g, T, c_in) @ uT @ _cal(CalculusKind.Q, f, T, c_out))
    return [(lhs, rhs)]


def _f_product_rule(T, f, g, c_in, c_out):
    lhs = _cal(CalculusKind.F, stem_product(f, g), T, c_in)
    rhs = (_cal(CalculusKind.F, f, T, c_out) @ _cal(CalculusKind.S, g, T, c_in)
           + _cal(CalculusKind.S, f, T, c_out) @ _cal(CalculusKind.F, g, T, c_in)
           - _cal(CalculusKind.Q, f, T, c_out) @ _cal(CalculusKind.Q, g, T, c_in))
    return [(lhs, rhs)]


def _f_product_rule_via_p2(T, f, g, c_in, c_out):
    uT = T.vector_part()
    Ff = _cal(CalculusKind.F, f, T, c_out)
    Fg = _cal(CalculusKind.F, g, T, c_in)
    Pf = _cal(CalculusKind.P2, f, T, c_out)
    Pg = _cal(CalculusKind.P2, g, T, c_in)
    lhs = _cal(CalculusKind.F, stem_product(f, g), T, c_in)
    rhs = (Ff @ _cal(CalculusKind.S, g, T, c_in)
           + _cal(CalculusKind.S, f, T, c_out) @ Fg
           - (Pf @ Pg) * 0.25
           - (Pf @ uT @ Fg) * 0.25
           - (Ff @ uT @ Pg) * 0.25
           - (Ff @ uT @ uT @ Fg) * 0.25)
    return [(lhs, rhs)]


def _q_product_rule(T, f, g, c_in, c_out):
    uT = T.vector_part()
    Qf = _cal(CalculusKind.Q, f, T, c_out)
    Qg = _cal(CalculusKind.Q, g, T, c_in)
    lhs = _cal(CalculusKind.Q, stem_product(f, g), T, c_in)
    rhs = (_cal(CalculusKind.S, f, T, c_out) @ Qg
           + Qf @ _cal(CalculusKind.S, g, T, c_in)
           + Qf @ uT @ Qg)
    return [(lhs, rhs)]


def _q_product_rule_legacy(T, f, g, c_in, c_out):
    Tbar = T.conjugate().as_matrix()
    fg = stem_product(f, g)
    lhs = (_cal(CalculusKind.Q, stem_shift(fg), T, c_in)
           - Tbar @ _cal(CalculusKind.Q, fg, T, c_in)) * 2.0
    Sf = _cal(CalculusKind.S, f, T, c_out)
    rhs = (Sf @ _cal(CalculusKind.Q, stem_shift(g), T, c_in)
           - Sf @ Tbar @ _cal(CalculusKind.Q, g, T, c_in)
           + _cal(CalculusKind.Q, stem_shift(f), T, c_out) @ _cal(CalculusKind.S, g, T, c_in)
           - _cal(CalculusKind.Q, f, T, c_out) @ Tbar @ _cal(CalculusKind.S, g, T, c_in))
    return [(lhs, rhs)]


def _one(_s):
    return Quaternion(1.0)


def _p2_vanishing_integral(T, f, g, c_in, c_out):
    from .kernels import kernel_fn
    zero = QuatMatrix.zeros(T.n)
    left = integrate(c_in, kernel_fn(KernelKind.P2_LEFT, T), _one, "left", n=T.n)
    right = integrate(c_in, kernel_fn(KernelKind.P2_RIGHT, T), _one, "right", n=T.n)
    return [(left, zero), (right, zero)]


def _q_vanishing_integral(T, f, g, c_in, c_out):
    from .kernels import kernel_fn
    zero = QuatMatrix.zeros(T.n)
    val = integrate(c_in, kernel_fn(KernelKind.QCS_INV, T), _one, "left", n=T.n)
    return [(val, zero)]


def _intrinsic_left_right(T, f, g, c_in, c_out):
    if not f.is_intrinsic():
        raise PreconditionError("left/right agreement needs an intrinsic stem")
    fl = SlicePoly("left", f.coeffs)
    fr = SlicePoly("right", f.coeffs)
    pairs = []
    for kind in (CalculusKind.S, CalculusKind.Q, CalculusKind.F):
        pairs.append((_cal(kind, fl, T, c_in), _cal(kind, fr, T, c_in)))
    return pairs


def _p2_intrinsic_left_right(T, f, g, c_in, c_out):
    if not f.is_intrinsic():
        raise PreconditionError("left/right agreement needs an intrinsic stem")
    fl = SlicePoly("left", f.coeffs)
    fr = SlicePoly("right", f.coeffs)
    return [(_cal(CalculusKind.P2, fl, T, c_in), _cal(CalculusKind.P2, fr, T, c_in))]


def _p2_riesz_projector(T, f, g, c_in, c_out):
    P = riesz_projector(CalculusKind.P2, T, c_in)
    Mt = T.as_matrix()
    return [(P @ P, P), (Mt @ P, P @ Mt)]


def _q_riesz_projector(T, f, g, c_in, c_out):
    P = riesz_projector(CalculusKind.Q, T, c_in)
    return [(P @ P, P)]


INTEGRAL_IDENTITIES = {
    "p2_product_rule_left": _p2_product_rule_left,
    "p2_product_rule_right": _p2_product_rule_right,
    "f_product_rule_via_p2": _f_product_rule_via_p2,
    "f_product_rule": _f_product_rule,
    "q_product_rule": _q_product_rule,
    "q_product_rule_legacy": _q_product_rule_legacy,
    "p2_vanishing_integral": _p2_vanishing_integral,
    "q_vanishing_integral": _q_vanishing_integral,
    "intrinsic_left_right": _intrinsic_left_right,
    "p2_intrinsic_left_right": _p2_intrinsic_left_right,
    "p2_riesz_projector": _p2_riesz_projector,
    "q_riesz_projector": _q_riesz_projector,
}


def registry_names():
    return list(POINTWISE_IDENTITIES) + list(INTEGRAL_IDENTITIES)


def verify_pointwise(name: str, T: CommutingOperator, s: Quaternion,
                     p: Quaternion | None = None, tol: float = DEFAULT_TOL,
                     **opts) -> IdentityReport:
    if name not in POINTWISE_IDENTITIES:
        raise InputError(f"unknown pointwise identity '{name}'")
    pairs = POINTWISE_IDENTITIES[name](T, s, p, **opts)
    extra = "".join(f" {k}={v}" for k, v in opts.items() if not isinstance(v, QuatMatrix))
    return _report(name, f"n={T.n} s={_fmt(s)} p={_fmt(p)}{extra}", pairs, tol)


def verify_integral(name: str, T: CommutingOperator,
                    f: SlicePoly | None, g: SlicePoly | None,
                    c_inner: Contour, c_outer: Contour | None = None,
                    tol: float = DEFAULT_TOL) -> IdentityReport:
    if name not in INTEGRAL_IDENTITIES:
        raise InputError(f"unknown integral identity '{name}'")
    if c_outer is not None and c_outer.components:
        _check_nested(c_inner, c_outer)
    if f is not None and not f.is_intrinsic():
        raise PreconditionError("the stem f must be intrinsic")
    pairs = INTEGRAL_IDENTITIES[name](T, f, g, c_inner, c_outer or c_inner)
    desc = f"n={T.n} deg_f={f.degree if f else '-'} deg_g={g.degree if g else '-'}"
    return _report(name, desc, pairs, tol)


def _check_nested(c_in: Contour, c_out: Contour):
    outer = c_out.plane_circles()
    for (u, v, r) in c_in.plane_circles():
        ok = any(math.hypot(u - cu, v - cv) + r < R
                 for (cu, cv, R) in outer)
        if not ok:
            raise GeometryError("inner contour is not nested in the outer one")


def _fmt(q):
    if q is None:
        return "-"
    return f"({q.w:.3g},{q.x:.3g},{q.y:.3g},{q.z:.3g})"


# ---------------------------------------------------------------------------
# seeded input generation


def random_commuting_operator(rng, n: int, degree: int = 2, zero_e3: bool = False,
                              symmetric_base: bool = False,
                              scale: float = 1.0) -> CommutingOperator:
    """Components drawn as real polynomials of one base matrix, which
    commute exactly; a symmetric base forces real component spectra."""
    M = rng.standard_normal((n, n))
    if symmetric_base:
        M = 0.5 * (M + M.T)
    M /= max(np.linalg.norm(M), 1e-12)
    comps = []
    for i in range(4):
        if zero_e3 and i == 3:
            comps.append(np.zeros((n, n)))
            continue
        C = np.zeros((n, n))
        Mp = np.eye(n)
        for _ in range(degree + 1):
            C = C + rng.standard_normal() * Mp
            Mp = Mp @ M
        comps.append(C)
    T = CommutingOperator(*comps)
    nrm = T.norm()
    if nrm > 0:
        comps = [C * (scale / nrm) for C in comps]
    return CommutingOperator(*comps)


def split_spectrum_operator(gap: float = 5.0) -> CommutingOperator:
    """Diagonal 2 x 2 family with the two separated spheres (0, 1) and
    (gap, 0); the block decoupling makes its projectors exactly
    diag(1, 0) and diag(0, 1)."""
    T0 = np.diag([0.0, gap])
    T1 = np.diag([1.0, 0.0])
    z = np.zeros((2, 2))
    return CommutingOperator(T0, T1, z, z)


def random_resolvent_point(rng, T: CommutingOperator, min_dist: float = 0.3,
                           avoid=None, min_sep: float = 0.25) -> Quaternion:
    """Seeded point at distance >= min_dist from every spectral sphere
    (and, when avoid is given, off that point's sphere by min_sep)."""
    spheres = T.spheres
    reach = max([math.hypot(sp.u, sp.v) for sp in spheres] + [1.0])
    if avoid is not None:
        au, av = avoid.w, avoid.vec_norm()
    for _ in range(5000):
        u = rng.uniform(-1.5 * reach, 1.5 * reach)
        v = rng.uniform(0.0, 1.5 * reach)
        if any(sp.point_distance(u, v) < min_dist for sp in spheres):
            continue
        if avoid is not None and math.hypot(u - au, v - av) < min_sep:
            continue
        J = random_imaginary_unit(rng)
        return Quaternion.embed(u, J, v) if v > 0 else Quaternion(u)
    raise PreconditionError("could not sample a resolvent point")


def random_stem(rng, degree: int, side: str = "left", intrinsic: bool = False,
                scale: float = 1.0) -> SlicePoly:
    coeffs = []
    for _ in range(degree + 1):
        if intrinsic:
            coeffs.append(Quaternion(float(rng.standard_normal()) * scale))
        else:
            c = rng.standard_normal(4) * scale
            coeffs.append(Quaternion(*map(float, c)))
    return SlicePoly(side, coeffs)


def random_commuting_polynomial(rng, T: CommutingOperator) -> QuatMatrix:
    """Real-coefficient polynomial in the components; commutes with T
    by construction."""
    n = T.n
    B = rng.standard_normal() * np.eye(n)
    for C in T.components:
        B = B + rng.standard_normal() * C
    for C in T.components:
        for D in T.components:
            B = B + 0.25 * rng.standard_normal() * (C @ D)
    return QuatMatrix.from_real(B)


# ---------------------------------------------------------------------------
# full registry run


def verify_all(seed: int = 0, tol: float = DEFAULT_TOL, nodes: int = 256):
    """Run every registry identity on seeded random inputs.

    Pointwise identities are drawn at n = 1, 2, 3 and the worst draw is
    reported; integral identities run at n = 2 with degree <= 4 stems.
    Failures are reported, never raised.
    """
    rng = np.random.default_rng(seed)
    reports = []

    for name in POINTWISE_IDENTITIES:
        pairs = []
        dims = []
        for n in (1, 2, 3):
            T = random_commuting_operator(rng, n)
            s = random_resolvent_point(rng, T)
            p = random_resolvent_point(rng, T, avoid=s)
            opts = {}
            if name == "s_resolvent_eq_intertwined":
                opts["B"] = random_commuting_polynomial(rng, T)
            if name.startswith("p2_kernel_power_shift"):
                for m in range(1, 6):
                    pairs.extend(POINTWISE_IDENTITIES[name](T, s, p, m=m))
            else:
                pairs.extend(POINTWISE_IDENTITIES[name](T, s, p, **opts))
            dims.append(n)
        reports.append(_report(name, f"seeded n={dims}", pairs, tol))

    for idx, (name, fn) in enumerate(INTEGRAL_IDENTITIES.items()):
        projector_like = name in ("p2_riesz_projector", "q_riesz_projector",
                                  "p2_vanishing_integral", "q_vanishing_integral")
        if projector_like:
            T = split_spectrum_operator()
            spheres = T.spheres
            J = random_imaginary_unit(rng)
            c_in = auto_contour(spheres, [0], J=J, N=nodes)
            c_out = None
            f = g = None
        else:
            T = random_commuting_operator(rng, 1 + idx % 3, zero_e3=True)
            spheres = T.spheres
            J = random_imaginary_unit(rng)
            c_in = enclosing_circle(spheres, margin=0.5, J=J, N=nodes)
            c_out = enclosing_circle(spheres, margin=1.0, J=J, N=nodes)
            f = random_stem(rng, 3, side="left", intrinsic=True)
            g_side = "right" if name == "p2_product_rule_right" else "left"
            g = random_stem(rng, 3, side=g_side)
        try:
            pairs = fn(T, f, g, c_in, c_out or c_in)
            reports.append(_report(name, f"seeded n={T.n}", pairs, tol))
        except Exception as exc:  # failures are data, not crashes
            reports.append(IdentityReport(name, f"error: {exc}", math.inf,
                                          1.0, tol, False))
    return reports


# ---------------------------------------------------------------------------
# report serialization


def reports_to_json(reports) -> list:
    return [r.to_dict() for r in reports]


def reports_to_csv(reports) -> str:
    lines = ["name,residual,scale,pass"]
    for r in reports:
        lines.append(f"{r.name},{r.residual:.17g},{r.scale:.17g},{str(r.passed).lower()}")
    return "\n".join(lines) + "\n"
