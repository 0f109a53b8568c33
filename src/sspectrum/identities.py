"""Registry of operator identities, each scored as a residual norm.

Every named identity forms its left- and right-hand sides explicitly
from the kernel and calculus modules and reports

    residual = ||LHS - RHS||,   scale = max(||LHS||, ||RHS||, 1),

passing when residual <= tol * scale.

The registry is two tables of ``Row(pairs, draw)`` keyed by name.  A
pointwise row's pairs take an operator, resolvent points and options,
and its draw gives the option sets for one operator; an integral row's
draw gives the whole ``(T, f, g, c_in, c_out)`` that its pairs take.
``verify_all`` walks the rows in registry order on one seeded stream;
``verify_seeded`` draws the rows before one name and evaluates only
that one.  Evaluation never draws, so both agree for a fixed seed.

Shared inputs are evaluated once per row: a pointwise row takes every
kernel form it needs at one resolvent point from one pencil inverse
(``kernel_forms``), a power shift sums all the degrees of its option
set in one pass over the powers of T, and an integral row takes every
(kind, stem) value it needs on one contour and side from one
``integrate`` pass.  Each value is the same, bit for bit, as when
evaluated on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from .calculus import (CALCULUS_TURNS, PREFACTOR, PROJECTOR_TURNS, CalculusKind,
                       riesz_projector)
from .contour import (DEFAULT_NODES, Contour, auto_contour, check_winding,
                      enclosing_circle, integrate)
from .errors import InputError, NumericError, PreconditionError
from .kernels import kernel, kernel_forms
from .operators import CommutingOperator
from .qlinalg import QuatMatrix
from .quat import Quaternion, qinv, qs_poly, random_imaginary_unit
from .slicefn import SlicePoly, stem_product, stem_shift

__all__ = [
    "IdentityReport",
    "POINTWISE_IDENTITIES",
    "INTEGRAL_IDENTITIES",
    "registry_names",
    "draw_pointwise",
    "verify_pointwise",
    "verify_integral",
    "verify_all",
    "verify_seeded",
    "random_commuting_operator",
    "random_commuting_polynomial",
    "split_spectrum_operator",
    "random_resolvent_point",
    "random_stem",
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
        """The fields in order, passed under the key "pass"."""
        return {"name": self.name, "inputs": self.inputs, "residual": self.residual,
                "scale": self.scale, "tol": self.tol, "pass": self.passed}


class Row(NamedTuple):
    """An identity's (LHS, RHS) pairs function and its seeded input draw."""
    pairs: Callable
    draw: Callable


def _report(name, inputs, pairs, tol) -> IdentityReport:
    """The worst relative residual over a list of (lhs, rhs) pairs,
    reported against the largest scale max(|lhs|, |rhs|, 1) of any pair:
    residual / scale is the worst relative residual, and a last-bit
    change that makes another pair the worst cannot move the scale.  The
    worst pair decides the pass; a NaN relative residual, from sides
    that overflow, is the worst and fails."""
    scored = [((lhs - rhs).norm(), max(lhs.norm(), rhs.norm(), 1.0)) for lhs, rhs in pairs]
    r, s = max(scored, key=lambda rs: (math.isnan(rs[0] / rs[1]), rs[0] / rs[1]),
               default=(0.0, 1.0))
    scale = max((rs[1] for rs in scored), default=1.0)
    return IdentityReport(name, inputs, r / s * scale, scale, tol,
                          r <= tol * s and not math.isnan(r / s))


# ---------------------------------------------------------------------------
# pointwise identities


def _bracket(X: QuatMatrix, s: Quaternion, p: Quaternion) -> QuatMatrix:
    """[X p - conj(s) X] (p^2 - 2 s0 p + |s|^2)^{-1}, the right-hand
    shape shared by all the two-point resolvent equations."""
    return (X.rmul(p) - X.lmul(s.conjugate())).rmul(qinv(qs_poly(s, p)))


S, Q, P2, F = CalculusKind.S, CalculusKind.Q, CalculusKind.P2, CalculusKind.F


def _s_resolvent_eq(T, s, p):
    SR = kernel(S, T, s, "right")
    SL = kernel(S, T, p)
    return [(SR @ SL, _bracket(SR - SL, s, p))]


def _s_resolvent_eq_intertwined(T, s, p, B: QuatMatrix):
    SR = kernel(S, T, s, "right")
    SL = kernel(S, T, p)
    X = SR @ B - B @ SL
    return [(SR @ B @ SL, _bracket(X, s, p))]


def _p2_mixed_resolvent_eq(T, s, p):
    SR, P2R, Qs = kernel_forms(T, s, [(S, "right"), (P2, "right"), (Q, "left")])
    SL, P2L, Qp = kernel_forms(T, p, [(S, "left"), (P2, "left"), (Q, "left")])
    uT = T.vector_part
    lhs = SR @ P2L + P2R @ SL - (Qs @ uT @ Qp) * 4.0
    return [(lhs, _bracket(P2R - P2L, s, p))]


def _p2_resolvent_eq(T, s, p):
    SR, P2R, FR = kernel_forms(T, s, [(S, "right"), (P2, "right"), (F, "right")])
    SL, P2L, FL = kernel_forms(T, p, [(S, "left"), (P2, "left"), (F, "left")])
    uT = T.vector_part
    uT2 = uT @ uT
    lhs = (SR @ P2L + P2R @ SL
           - (P2R @ uT @ P2L + P2R @ uT2 @ FL
              + FR @ uT2 @ P2L + FR @ uT2 @ uT @ FL) * 0.25)
    return [(lhs, _bracket(P2R - P2L, s, p))]


def _q_resolvent_eq(T, s, p):
    SR, Qs = kernel_forms(T, s, [(S, "right"), (Q, "left")])
    SL, Qp = kernel_forms(T, p, [(S, "left"), (Q, "left")])
    uT = T.vector_part
    lhs = Qs @ SL + SR @ Qp - (Qs @ uT @ Qp) * 2.0
    return [(lhs, _bracket(Qs - Qp, s, p))]


def _q_resolvent_eq_legacy(T, s, p):
    Qs = kernel(Q, T, s)
    Qp = kernel(Q, T, p)
    Tbar = T.conjugate.as_matrix
    lhs = (Qs @ Qp).lmul(s).rmul(p) - (Qs @ Tbar @ Qp).lmul(s) \
        - (Qs @ Tbar @ Qp).rmul(p) + Qs @ Tbar @ Tbar @ Qp
    rhs = _bracket(Qs.lmul(s) - Qp.lmul(p), s, p) \
        + _bracket(Tbar @ Qp - Qs @ Tbar, s, p)
    return [(lhs, rhs)]


def _f_kernel_shift(T, s, p=None, side="left"):
    Qs, Fs = kernel_forms(T, s, [(Q, "left"), (F, side)])
    Mt = T.as_matrix
    lhs = Fs.rmul(s) - Mt @ Fs if side == "left" else Fs.lmul(s) - Fs @ Mt
    return [(lhs, Qs * -4.0)]


def _pseudo_split(T, s, p=None, side="left"):
    Qs, P2s, Fs = kernel_forms(T, s, [(Q, "left"), (P2, side), (F, side)])
    uT = T.vector_part
    rhs = (P2s + uT @ Fs) * 0.25 if side == "left" else (P2s + Fs @ uT) * 0.25
    return [(Qs, rhs)]


def _p2_kernel_shift(T, s, p=None, side="left"):
    Qs, P2s, Ss = kernel_forms(T, s, [(Q, "left"), (P2, side), (S, side)])
    uT = T.vector_part
    Mt = T.as_matrix
    if side == "left":
        return [(P2s.rmul(s) - Mt @ P2s, (Ss - uT @ Qs) * 4.0)]
    return [(P2s.lmul(s) - P2s @ Mt, (Ss - Qs @ uT) * 4.0)]


def _p2_kernel_power_shift(T, s, p=None, m=3, side="left"):
    """One pair per degree, m one degree or a sequence of them.  The
    four-fold sums of every degree come from one pass over the powers
    T^i: each of T^i, T^i S and T^i uT Q is formed once and added, in
    increasing i, to the sums of the degrees above i; at i = m the
    degree-m pair is complete."""
    degrees = [m] if isinstance(m, int) else list(m)
    Qs, Ss, P2s = kernel_forms(T, s, [(Q, "left"), (S, side), (P2, side)])
    uT = T.vector_part
    Mt = T.as_matrix
    A = {k: QuatMatrix.zeros(T.n) for k in degrees}
    Bm = dict(A)
    pairs = {}
    tpow = QuatMatrix.identity(T.n)
    top = max(degrees, default=0)
    spows = [s ** i for i in range(top + 1)]
    for i in range(top + 1):
        if i in A:
            if side == "left":
                lhs = P2s.rmul(spows[i]) - tpow @ P2s
            else:
                lhs = P2s.lmul(spows[i]) - P2s @ tpow
            pairs[i] = (lhs, A[i] * 4.0 - Bm[i] * 4.0)
        if i == top:
            break
        if side == "left":
            X, Y = tpow @ Ss, tpow @ uT @ Qs
        else:
            X, Y = Ss @ tpow, Qs @ uT @ tpow
        for k in degrees:
            if k > i:
                spow = spows[k - i - 1]
                if side == "left":
                    A[k] = A[k] + X.rmul(spow)
                    Bm[k] = Bm[k] + Y.rmul(spow)
                else:
                    A[k] = A[k] + X.lmul(spow)
                    Bm[k] = Bm[k] + Y.lmul(spow)
        tpow = tpow @ Mt
    return [pairs[k] for k in degrees]


def _no_options(rng, T):
    return [{}]


def _draw_intertwiner(rng, T):
    return [{"B": random_commuting_polynomial(rng, T)}]


def _power_degrees(rng, T):
    """One option set of the degrees m = 1..5, drawing nothing."""
    return [{"m": (1, 2, 3, 4, 5)}]


POINTWISE_IDENTITIES = {
    "s_resolvent_eq": Row(_s_resolvent_eq, _no_options),
    "s_resolvent_eq_intertwined": Row(_s_resolvent_eq_intertwined, _draw_intertwiner),
    "p2_mixed_resolvent_eq": Row(_p2_mixed_resolvent_eq, _no_options),
    "p2_resolvent_eq": Row(_p2_resolvent_eq, _no_options),
    "q_resolvent_eq": Row(_q_resolvent_eq, _no_options),
    "q_resolvent_eq_legacy": Row(_q_resolvent_eq_legacy, _no_options),
    "f_kernel_shift_left": Row(_f_kernel_shift, _no_options),
    "f_kernel_shift_right": Row(partial(_f_kernel_shift, side="right"), _no_options),
    "pseudo_split_left": Row(_pseudo_split, _no_options),
    "pseudo_split_right": Row(partial(_pseudo_split, side="right"), _no_options),
    "p2_kernel_shift_left": Row(_p2_kernel_shift, _no_options),
    "p2_kernel_shift_right": Row(partial(_p2_kernel_shift, side="right"), _no_options),
    "p2_kernel_power_shift_left": Row(_p2_kernel_power_shift, _power_degrees),
    "p2_kernel_power_shift_right":
        Row(partial(_p2_kernel_power_shift, side="right"), _power_degrees),
}


# ---------------------------------------------------------------------------
# integral identities: Sf, Pf, Qf, Ff are the S, P2, Q and F values of
# the intrinsic stem f over c_out, and Sg, ... those of g over c_in.


def _calculi(T, c, *requests):
    """The calculus value of each (kind, stem) request over c, from one
    integrate pass, each equal bit for bit to apply_calculus(kind, stem,
    T, c)."""
    values = integrate(c, T, requests, CALCULUS_TURNS)
    return [val * PREFACTOR[kind] for (kind, _), val in zip(requests, values)]


def _p2_product_rule(T, f, g, c_in, c_out, side="left"):
    if g.side != side:
        raise PreconditionError(f"this product rule takes a {side} stem g")
    uT = T.vector_part
    lhs, Pg, Sg, Qg = _calculi(T, c_in, (P2, stem_product(f, g)), (P2, g), (S, g), (Q, g))
    Sf, Pf, Qf = _calculi(T, c_out, (S, f), (P2, f), (Q, f))
    if side == "left":
        return [(lhs, Sf @ Pg + Pf @ Sg - Qf @ uT @ Qg)]
    return [(lhs, Sg @ Pf + Pg @ Sf - Qg @ uT @ Qf)]


def _f_product_rule(T, f, g, c_in, c_out):
    lhs, Fg, Sg, Qg = _calculi(T, c_in, (F, stem_product(f, g)), (F, g), (S, g), (Q, g))
    Ff, Sf, Qf = _calculi(T, c_out, (F, f), (S, f), (Q, f))
    return [(lhs, Ff @ Sg + Sf @ Fg - Qf @ Qg)]


def _f_product_rule_via_p2(T, f, g, c_in, c_out):
    uT = T.vector_part
    Ff, Pf, Sf = _calculi(T, c_out, (F, f), (P2, f), (S, f))
    Fg, lhs, Pg, Sg = _calculi(T, c_in, (F, g), (F, stem_product(f, g)), (P2, g), (S, g))
    rhs = (Ff @ Sg + Sf @ Fg
           - (Pf @ Pg) * 0.25
           - (Pf @ uT @ Fg) * 0.25
           - (Ff @ uT @ Pg) * 0.25
           - (Ff @ uT @ uT @ Fg) * 0.25)
    return [(lhs, rhs)]


def _q_product_rule(T, f, g, c_in, c_out):
    uT = T.vector_part
    Qf, Sf = _calculi(T, c_out, (Q, f), (S, f))
    Qg, lhs, Sg = _calculi(T, c_in, (Q, g), (Q, stem_product(f, g)), (S, g))
    return [(lhs, Sf @ Qg + Qf @ Sg + Qf @ uT @ Qg)]


def _q_product_rule_legacy(T, f, g, c_in, c_out):
    Tbar = T.conjugate.as_matrix
    fg = stem_product(f, g)
    Qfg_shift, Qfg, Qg, Qg_shift, Sg = _calculi(
        T, c_in, (Q, stem_shift(fg)), (Q, fg), (Q, g), (Q, stem_shift(g)), (S, g))
    lhs = (Qfg_shift - Tbar @ Qfg) * 2.0
    Sf, Qf, Qf_shift = _calculi(T, c_out, (S, f), (Q, f), (Q, stem_shift(f)))
    rhs = (Sf @ Qg_shift - Sf @ Tbar @ Qg
           + Qf_shift @ Sg - Qf @ Tbar @ Sg)
    return [(lhs, rhs)]


def _p2_vanishing_integral(T, f, g, c_in, c_out):
    zero = QuatMatrix.zeros(T.n)
    return [(integrate(c_in, T, [(P2, SlicePoly.monomial(0, side=side))],
                       PROJECTOR_TURNS)[0], zero)
            for side in ("left", "right")]


def _q_vanishing_integral(T, f, g, c_in, c_out):
    val = integrate(c_in, T, [(Q, SlicePoly.monomial(0))], PROJECTOR_TURNS)[0]
    return [(val, QuatMatrix.zeros(T.n))]


def _intrinsic_left_right(T, f, g, c_in, c_out,
                          kinds=(S, Q, F)):
    if not f.is_intrinsic():
        raise PreconditionError("left/right agreement needs an intrinsic stem")
    fl = SlicePoly("left", f.coeffs)
    fr = SlicePoly("right", f.coeffs)
    left = _calculi(T, c_in, *[(kind, fl) for kind in kinds])
    right = _calculi(T, c_in, *[(kind, fr) for kind in kinds])
    return list(zip(left, right))


def _p2_riesz_projector(T, f, g, c_in, c_out):
    P = riesz_projector(P2, T, c_in)
    Mt = T.as_matrix
    return [(P @ P, P), (Mt @ P, P @ Mt)]


def _q_riesz_projector(T, f, g, c_in, c_out):
    P = riesz_projector(Q, T, c_in)
    return [(P @ P, P)]


def _draw_split(rng, n, nodes):
    """The split-spectrum operator (any n) and a contour around sphere 0."""
    T = split_spectrum_operator()
    c = auto_contour(T.spheres, [0], J=random_imaginary_unit(rng), N=nodes)
    return T, None, None, c, c


def _draw_stems(rng, n, nodes, g_side="left"):
    """A random operator, nested enclosing circles, an intrinsic left
    stem f and a stem g on g_side, both of degree 3."""
    T = random_commuting_operator(rng, n, zero_e3=True)
    J = random_imaginary_unit(rng)
    c_in = enclosing_circle(T.spheres, margin=0.5, J=J, N=nodes)
    c_out = enclosing_circle(T.spheres, margin=1.0, J=J, N=nodes)
    f = random_stem(rng, 3, side="left", intrinsic=True)
    g = random_stem(rng, 3, side=g_side)
    return T, f, g, c_in, c_out


INTEGRAL_IDENTITIES = {
    "p2_product_rule_left": Row(_p2_product_rule, _draw_stems),
    "p2_product_rule_right": Row(partial(_p2_product_rule, side="right"),
                                 partial(_draw_stems, g_side="right")),
    "f_product_rule_via_p2": Row(_f_product_rule_via_p2, _draw_stems),
    "f_product_rule": Row(_f_product_rule, _draw_stems),
    "q_product_rule": Row(_q_product_rule, _draw_stems),
    "q_product_rule_legacy": Row(_q_product_rule_legacy, _draw_stems),
    "p2_vanishing_integral": Row(_p2_vanishing_integral, _draw_split),
    "q_vanishing_integral": Row(_q_vanishing_integral, _draw_split),
    "intrinsic_left_right": Row(_intrinsic_left_right, _draw_stems),
    "p2_intrinsic_left_right":
        Row(partial(_intrinsic_left_right, kinds=(P2,)), _draw_stems),
    "p2_riesz_projector": Row(_p2_riesz_projector, _draw_split),
    "q_riesz_projector": Row(_q_riesz_projector, _draw_split),
}


def registry_names():
    return list(POINTWISE_IDENTITIES) + list(INTEGRAL_IDENTITIES)


def verify_pointwise(name: str, T: CommutingOperator, s: Quaternion,
                     p: Quaternion | None = None, tol: float = DEFAULT_TOL,
                     **opts) -> IdentityReport:
    if name not in POINTWISE_IDENTITIES:
        raise InputError(f"unknown pointwise identity '{name}'")
    pairs = POINTWISE_IDENTITIES[name].pairs(T, s, p, **opts)
    extra = "".join(f" {k}={v}" for k, v in opts.items() if not isinstance(v, QuatMatrix))
    return _report(name, f"n={T.n} s={_fmt(s)} p={_fmt(p)}{extra}", pairs, tol)


def verify_integral(name: str, T: CommutingOperator,
                    f: SlicePoly | None, g: SlicePoly | None,
                    c_inner: Contour, c_outer: Contour | None = None,
                    tol: float = DEFAULT_TOL) -> IdentityReport:
    if name not in INTEGRAL_IDENTITIES:
        raise InputError(f"unknown integral identity '{name}'")
    if c_outer is not None:
        _check_nested(c_inner, c_outer)
    if f is not None and not f.is_intrinsic():
        raise PreconditionError("the stem f must be intrinsic")
    pairs = INTEGRAL_IDENTITIES[name].pairs(T, f, g, c_inner, c_outer or c_inner)
    desc = f"n={T.n} deg_f={f.degree if f else '-'} deg_g={g.degree if g else '-'}"
    return _report(name, desc, pairs, tol)


def _check_nested(c_in: Contour, c_out: Contour):
    """c_out winds once about each circle of c_in and does not meet it."""
    check_winding(c_out, c_in.plane_circles(), {1}, "the centre of inner circle")


def _fmt(q):
    if q is None:
        return "-"
    return f"({q.w:.3g},{q.x:.3g},{q.y:.3g},{q.z:.3g})"


# ---------------------------------------------------------------------------
# seeded input generation


def random_commuting_operator(rng, n: int, zero_e3: bool = False,
                              symmetric_base: bool = False,
                              scale: float = 1.0) -> CommutingOperator:
    """Components drawn as real quadratics in one base matrix, which
    commute exactly; a symmetric base forces real component spectra."""
    M = rng.standard_normal((n, n))
    if symmetric_base:
        M = 0.5 * (M + M.T)
    M /= max(np.linalg.norm(M), 1e-12)
    I, M2 = np.eye(n), M @ M
    # three coefficients per drawn component, in one draw: the same
    # stream as one draw per coefficient
    drawn = 3 if zero_e3 else 4
    coeffs = rng.standard_normal(3 * drawn).reshape(drawn, 3)
    comps = [a0 * I + a1 * M + a2 * M2 for a0, a1, a2 in coeffs]
    if zero_e3:
        comps.append(np.zeros((n, n)))
    # CommutingOperator.norm() of comps, so that T is built once
    nrm = float(np.sqrt(sum((C * C).sum() for C in comps)))
    if nrm > 0:
        comps = [C * (scale / nrm) for C in comps]
    return CommutingOperator(*comps)


@cache
def split_spectrum_operator() -> CommutingOperator:
    """Diagonal 2 x 2 operator with the two separated spheres (0, 1) and
    (5, 0); the block decoupling makes its projectors exactly diag(1, 0)
    and diag(0, 1).  Built once: the operator is immutable, and keeps
    its spectrum and eigenbasis from one call to the next."""
    T0 = np.diag([0.0, 5.0])
    T1 = np.diag([1.0, 0.0])
    z = np.zeros((2, 2))
    return CommutingOperator(T0, T1, z, z)


def random_resolvent_point(rng, T: CommutingOperator, min_dist: float = 0.3,
                           avoid=None) -> Quaternion:
    """Seeded point at distance >= min_dist from every spectral sphere
    (and, when avoid is given, off that point's sphere by 0.25)."""
    spheres = T.spheres
    reach = max([math.hypot(sp.u, sp.v) for sp in spheres] + [1.0])
    if not math.isfinite(3.0 * reach):
        raise NumericError("the spectrum is too large to sample a resolvent point")
    if avoid is not None:
        au, av = avoid.w, avoid.vec_norm()
    for _ in range(5000):
        u = rng.uniform(-1.5 * reach, 1.5 * reach)
        v = rng.uniform(0.0, 1.5 * reach)
        if any(sp.point_distance(u, v) < min_dist for sp in spheres):
            continue
        if avoid is not None and math.hypot(u - au, v - av) < 0.25:
            continue
        J = random_imaginary_unit(rng)
        return Quaternion.embed(u, J, v) if v > 0 else Quaternion(u)
    raise PreconditionError("could not sample a resolvent point")


def random_stem(rng, degree: int, side: str = "left",
                intrinsic: bool = False) -> SlicePoly:
    coeffs = []
    for _ in range(degree + 1):
        if intrinsic:
            coeffs.append(Quaternion(float(rng.standard_normal())))
        else:
            coeffs.append(Quaternion(*map(float, rng.standard_normal(4))))
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


def draw_pointwise(name: str, rng, T: CommutingOperator):
    """Seeded resolvent points s, p for T and the option sets that the
    pointwise row `name` draws for it."""
    s = random_resolvent_point(rng, T)
    p = random_resolvent_point(rng, T, avoid=s)
    return s, p, POINTWISE_IDENTITIES[name].draw(rng, T)


def _seeded_rows(seed: int, nodes: int):
    """Every registry row in registry order as a function of tol, its
    inputs drawn from one stream seeded by seed."""
    rng = np.random.default_rng(seed)
    for name in POINTWISE_IDENTITIES:
        inputs = []
        for n in (1, 2, 3):
            T = random_commuting_operator(rng, n)
            s, p, option_sets = draw_pointwise(name, rng, T)
            inputs += [(T, s, p, opts) for opts in option_sets]
        yield partial(_evaluate_pointwise, name, inputs)
    for idx, (name, row) in enumerate(INTEGRAL_IDENTITIES.items()):
        yield partial(_evaluate_integral, name, row.draw(rng, 1 + idx % 3, nodes))


def _evaluate_pointwise(name, inputs, tol):
    """The worst pair over every drawn operator and option set."""
    pairs = [pair for T, s, p, opts in inputs
             for pair in POINTWISE_IDENTITIES[name].pairs(T, s, p, **opts)]
    return _report(name, f"seeded n={sorted({T.n for T, *_ in inputs})}", pairs, tol)


def _evaluate_integral(name, inputs, tol):
    try:
        pairs = INTEGRAL_IDENTITIES[name].pairs(*inputs)
        return _report(name, f"seeded n={inputs[0].n}", pairs, tol)
    except Exception as exc:  # failures are data, not crashes
        return IdentityReport(name, f"error: {exc}", math.inf, 1.0, tol, False)


def verify_all(seed: int = 0, tol: float = DEFAULT_TOL, nodes: int = DEFAULT_NODES):
    """Run every registry identity on seeded random inputs.

    Pointwise identities are drawn at n = 1, 2, 3 (the power shifts at
    m = 1..5) and the worst pair is reported.  Integral identity idx
    draws the split-spectrum operator, or an n = 1 + idx % 3 operator
    with degree-3 stems; its failures are reported, never raised.
    """
    return [evaluate(tol) for evaluate in _seeded_rows(seed, nodes)]


def verify_seeded(name: str, seed: int = 0, tol: float = DEFAULT_TOL,
                  nodes: int = DEFAULT_NODES) -> IdentityReport:
    """The report of `name` in verify_all(seed, tol, nodes), evaluating
    only that identity: the rows before it are drawn, not evaluated."""
    names = registry_names()
    if name not in names:
        raise InputError(f"unknown identity '{name}'")
    return next(islice(_seeded_rows(seed, nodes), names.index(name), None))(tol)


# ---------------------------------------------------------------------------
# report serialization


def reports_to_csv(reports) -> str:
    lines = ["name,residual,scale,pass"]
    for r in reports:
        lines.append(f"{r.name},{r.residual!r},{r.scale!r},{str(r.passed).lower()}")
    return "\n".join(lines) + "\n"
