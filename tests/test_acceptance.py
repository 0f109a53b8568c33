"""Acceptance suite.

One test per criterion, each at its stated tolerance, each printing a
single summary line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import subprocess
import sys

import numpy as np

from conftest import rel
from sspectrum import (CalculusKind, CommutingOperator, E1, Quaternion,
                       QuatMatrix, SlicePoly, apply_calculus, auto_contour,
                       dconj_power, enclosing_circle,
                       fd_fueter_oracle, fueter_apply, integrate, kernel,
                       p2_series, riesz_projector, s_spectrum, stem_moment)
from sspectrum.calculus import CALCULUS_TURNS, PREFACTOR
from sspectrum.contour import Contour
from sspectrum.identities import (INTEGRAL_IDENTITIES,
                                  random_commuting_polynomial,
                                  random_commuting_operator,
                                  random_resolvent_point, random_stem,
                                  split_spectrum_operator, verify_pointwise)
from sspectrum.quat import random_imaginary_unit
from sspectrum.slicefn import FueterOp


def _ball(rng, radius=1.0):
    while True:
        c = rng.uniform(-1.0, 1.0, 4)
        if c @ c <= 1.0:
            return Quaternion(*(radius * c))


def _passline(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_polynomial_fueter_lemmas():
    rng = np.random.default_rng(101)
    fd_tol, exact_tol = 1e-5, 1e-12
    worst_fd = worst_exact = 0.0
    for n in range(1, 11):
        mono = SlicePoly.monomial(n)
        dbar_n = fueter_apply(mono, FueterOp.DBAR)
        d_n = fueter_apply(mono, FueterOp.D)
        delta_n = fueter_apply(mono, FueterOp.DELTA)
        delta_n1 = fueter_apply(SlicePoly.monomial(n + 1), FueterOp.DELTA)
        dconj_n = dconj_power(n)
        # the conjugation mechanism behind the power rule, exact
        assert dbar_n.same_terms(dconj_n.conjugate(), 0.0)
        assert d_n.same_terms(d_n.conjugate(), 0.0)
        conj_stem = lambda q: (q.conjugate()) ** n
        for _ in range(100):
            q = _ball(rng)
            # power rule for Dbar q^n against central differences
            e1 = (fd_fueter_oracle(mono.evaluate, q, FueterOp.DBAR) - dbar_n(q)).norm()
            # power rule for D qbar^n against central differences
            e2 = (fd_fueter_oracle(conj_stem, q, FueterOp.D) - dconj_n(q)).norm()
            # D q^n = Dbar qbar^n pointwise
            e3 = (fd_fueter_oracle(conj_stem, q, FueterOp.DBAR) - d_n(q)).norm()
            worst_fd = max(worst_fd, e1 / max(1.0, dbar_n(q).norm()),
                           e2 / max(1.0, dconj_n(q).norm()),
                           e3 / max(1.0, d_n(q).norm()))
            # Delta q^(n+1) = (Delta q^n) q0 - Dbar q^n, exact rules
            r1 = (delta_n1(q) - (delta_n(q) * q.w - dbar_n(q))).norm()
            # (Delta q^n) vec(q) + 2 D q^n + Dbar q^n = 0
            r2 = (delta_n(q) * q.vec() + d_n(q) * 2.0 + dbar_n(q)).norm()
            scale = max(1.0, dbar_n(q).norm(), delta_n1(q).norm())
            worst_exact = max(worst_exact, r1 / scale, r2 / scale)
    assert worst_fd <= fd_tol
    assert worst_exact <= exact_tol
    _passline(1, f"Fueter power lemmas n<=10, fd {worst_fd:.2e} <= 1e-5, "
                 f"exact {worst_exact:.2e} <= 1e-12")


def test_criterion_2_kernel_series_convergence():
    rng = np.random.default_rng(202)
    final_tol = 1e-10
    worst_final = 0.0
    for n in (2, 3):
        T = random_commuting_operator(rng, n)
        tnorm = T.as_matrix.norm()
        J = random_imaginary_unit(rng)
        s = Quaternion.embed(1.26 * tnorm, J, 1.68 * tnorm)
        rate = tnorm / s.norm()
        assert rate <= 0.5
        for side in ("left", "right"):
            ker = kernel(CalculusKind.P2, T, s, side)
            res = {N: (p2_series(T, s, N, side) - ker).norm() / max(ker.norm(), 1.0)
                   for N in (10, 20, 30, 60)}
            # geometric decay at the predicted rate, with slack for constants
            assert res[20] <= 50.0 * res[10] * rate ** 10
            assert res[30] <= 50.0 * res[20] * rate ** 10
            assert res[60] <= final_tol
            worst_final = max(worst_final, res[60])
    _passline(2, f"series residual at N=60 worst {worst_final:.2e} <= 1e-10, "
                 "geometric rate observed")


POINTWISE_ACCEPTANCE = [
    ("f_kernel_shift_left", "f_kernel_shift_right"),
    ("pseudo_split_left", "pseudo_split_right"),
    ("p2_kernel_shift_left", "p2_kernel_shift_right"),
    ("p2_kernel_power_shift_left", "p2_kernel_power_shift_right"),
    ("s_resolvent_eq",),
    ("s_resolvent_eq_intertwined",),
    ("p2_mixed_resolvent_eq",),
    ("p2_resolvent_eq",),
    ("q_resolvent_eq",),
    ("q_resolvent_eq_legacy",),
]


def test_criterion_3_pointwise_operator_identities():
    rng = np.random.default_rng(303)
    tol = 1e-10
    draws = []
    for k in range(50):
        T = random_commuting_operator(rng, 1 + k % 4)
        s = random_resolvent_point(rng, T)
        p = random_resolvent_point(rng, T, avoid=s)
        B = random_commuting_polynomial(rng, T)
        draws.append((T, s, p, B, 1 + k % 5))
    worst = {}
    for group in POINTWISE_ACCEPTANCE:
        for name in group:
            w = 0.0
            for T, s, p, B, m in draws:
                opts = {}
                if name == "s_resolvent_eq_intertwined":
                    opts["B"] = B
                if name.startswith("p2_kernel_power_shift"):
                    opts["m"] = m
                rep = verify_pointwise(name, T, s, p, tol=tol, **opts)
                assert rep.passed, (name, rep.residual, rep.scale)
                w = max(w, rep.residual / rep.scale)
            worst[name] = w
    _passline(3, f"10 identity families x 50 draws, worst relative residual "
                 f"{max(worst.values()):.2e} <= 1e-10")


def test_criterion_4_moment_reproduction():
    rng = np.random.default_rng(404)
    tol = 1e-8
    worst = 0.0
    for n in (1, 3, 4):
        T = random_commuting_operator(rng, n)
        c = enclosing_circle(s_spectrum(T), margin=0.6,
                             J=random_imaginary_unit(rng), N=512)
        stems = [SlicePoly.monomial(m) for m in range(0, 10)]
        for kind in CalculusKind:
            vals = [val * PREFACTOR[kind]
                    for val in integrate(c, T, [(kind, g) for g in stems], CALCULUS_TURNS)]
            for m in range(0, 9):
                want = stem_moment(kind, T, m)
                got = vals[m]
                worst = max(worst, rel(got, want))
                assert rel(got, want) <= tol, (kind, m)
            if kind is CalculusKind.P2:
                # same data, indexed as the closed-form moments
                for m in range(0, 9):
                    assert rel(vals[m + 1], stem_moment(kind, T, m + 1)) <= tol
            if kind is CalculusKind.F:
                assert vals[0].norm() <= 1e-10
                assert vals[1].norm() <= 1e-10
    _passline(4, f"moments m<=8, all four calculi, worst relative error "
                 f"{worst:.2e} <= 1e-8 (zero moments of the Laplacian kind "
                 "below 1e-10)")


def test_criterion_5_factor_two_adjudication():
    rng = np.random.default_rng(505)
    tol = 1e-8
    T = random_commuting_operator(rng, 2)
    spheres = s_spectrum(T)
    reach = max(np.hypot(sp.u, sp.v) for sp in spheres)
    T = CommutingOperator(*(C / reach for C in T.components))
    c = enclosing_circle(s_spectrum(T), margin=0.6, N=512)
    for m in range(0, 9):
        quad = integrate(c, T, [(CalculusKind.P2, SlicePoly.monomial(m + 1))])[0] \
            * (1.0 / (2.0 * np.pi))
        doubled = stem_moment(CalculusKind.P2, T, m + 1)
        halved = doubled * 0.5
        assert rel(quad, doubled) <= tol, m
        gap = (quad - halved).norm()
        assert abs(gap - halved.norm()) <= 1e-6 * halved.norm(), m
    _passline(5, "quadrature of the order-2 kernel against s^(m+1) equals "
                 "twice the undoubled closed form for every m <= 8; the "
                 "factor-2 gap is exact")


def test_criterion_6_product_rules():
    rng = np.random.default_rng(606)
    tol = 1e-8
    worst = 0.0
    for n in (1, 2, 3):
        T = random_commuting_operator(rng, n, zero_e3=True)
        spheres = s_spectrum(T)
        J = random_imaginary_unit(rng)
        c_in = enclosing_circle(spheres, margin=0.5, J=J, N=256)
        c_out = enclosing_circle(spheres, margin=1.0, J=J, N=256)
        f = random_stem(rng, 4, intrinsic=True)
        g = random_stem(rng, 4, side="left")
        g_right = random_stem(rng, 4, side="right")
        for name, gg in [("p2_product_rule_left", g),
                         ("p2_product_rule_right", g_right),
                         ("f_product_rule_via_p2", g),
                         ("f_product_rule", g),
                         ("q_product_rule", g),
                         ("q_product_rule_legacy", g)]:
            pairs = INTEGRAL_IDENTITIES[name].pairs(T, f, gg, c_in, c_out)
            for lhs, rhs in pairs:
                r = rel(lhs, rhs)
                worst = max(worst, r)
                assert r <= tol, (name, n, r)
        # the two expansions of the Laplacian product rule agree
        rhs_a = INTEGRAL_IDENTITIES["f_product_rule_via_p2"].pairs(
            T, f, g, c_in, c_out)[0][1]
        rhs_b = INTEGRAL_IDENTITIES["f_product_rule"].pairs(
            T, f, g, c_in, c_out)[0][1]
        assert rel(rhs_a, rhs_b) <= tol
    _passline(6, f"product rules (five families), worst residual {worst:.2e} "
                 "<= 1e-8; both Laplacian expansions cross-agree")


def test_criterion_7_riesz_projectors():
    tol = 1e-8
    rng = np.random.default_rng(707)
    z = np.zeros((2, 2))
    family = [
        split_spectrum_operator(),
        CommutingOperator(np.diag([1.0, 6.0]), np.diag([0.6, 0.0]),
                          np.diag([0.8, 0.0]), z),
    ]
    worst = 0.0
    for T in family:
        spheres = s_spectrum(T)
        J = random_imaginary_unit(rng)
        c0 = auto_contour(spheres, [0], J=J, N=512)
        c1 = auto_contour(spheres, [1], J=J, N=512)
        call = auto_contour(spheres, [0, 1], J=J, N=512)
        assert len(call.components) == 2
        Mt = T.as_matrix
        I = QuatMatrix.identity(T.n)
        sum_s = QuatMatrix.zeros(T.n)
        for kind in CalculusKind:
            for c in (c0, c1):
                P = riesz_projector(kind, T, c)
                worst = max(worst, (P @ P - P).norm())
                assert (P @ P - P).norm() <= tol, kind
                if kind is CalculusKind.P2:
                    assert (Mt @ P - P @ Mt).norm() <= tol
                if kind is CalculusKind.S:
                    sum_s = sum_s + P
            Pfull = riesz_projector(kind, T, call)
            assert rel(Pfull, I) <= tol, kind
        assert rel(sum_s, I) <= tol
    _passline(7, f"split-spectrum projectors: idempotency worst {worst:.2e} "
                 "<= 1e-8, order-2 kind commutes with T, full partitions "
                 "sum to the identity")


def test_criterion_8_wellposedness_and_invariances():
    rng = np.random.default_rng(808)
    tol = 1e-10

    # constant-shift invariance, connected and disconnected contours
    Tsplit = split_spectrum_operator()
    csplit = auto_contour(s_spectrum(Tsplit), [0, 1], N=256)
    Trand = random_commuting_operator(rng, 2)
    crand = enclosing_circle(s_spectrum(Trand), margin=0.6, N=256)
    worst_shift = 0.0
    for kind in (CalculusKind.P2, CalculusKind.Q):
        for T, c in ((Tsplit, csplit), (Trand, crand)):
            f = random_stem(rng, 4)
            shifted = f.add_constant(Quaternion(*rng.standard_normal(4)))
            worst_shift = max(worst_shift, rel(apply_calculus(kind, f, T, c),
                                               apply_calculus(kind, shifted, T, c)))
    assert worst_shift <= tol

    # J-independence over five random imaginary units
    f = random_stem(rng, 3)
    base = {kind: apply_calculus(kind, f, Trand,
                                 enclosing_circle(s_spectrum(Trand), 0.6, E1, 256))
            for kind in CalculusKind}
    proj_base = riesz_projector(CalculusKind.P2, Tsplit,
                                auto_contour(s_spectrum(Tsplit), [0], J=E1, N=256))
    worst_j = 0.0
    for _ in range(5):
        J = random_imaginary_unit(rng)
        cj = enclosing_circle(s_spectrum(Trand), 0.6, J, 256)
        for kind in CalculusKind:
            worst_j = max(worst_j, rel(apply_calculus(kind, f, Trand, cj), base[kind]))
        pj = riesz_projector(CalculusKind.P2, Tsplit,
                             auto_contour(s_spectrum(Tsplit), [0], J=J, N=256))
        worst_j = max(worst_j, rel(pj, proj_base))
    assert worst_j <= tol

    # contour deformation independence
    worst_d = 0.0
    for margin in (0.45, 0.75, 1.1):
        cd = enclosing_circle(s_spectrum(Trand), margin, E1, 256)
        for kind in CalculusKind:
            worst_d = max(worst_d, rel(apply_calculus(kind, f, Trand, cd), base[kind]))
    assert worst_d <= tol

    # left/right agreement on intrinsic stems, all four calculi
    coeffs = tuple(Quaternion(float(x)) for x in rng.standard_normal(5))
    worst_lr = 0.0
    for kind in CalculusKind:
        left = apply_calculus(kind, SlicePoly("left", coeffs), Trand, crand)
        right = apply_calculus(kind, SlicePoly("right", coeffs), Trand, crand)
        worst_lr = max(worst_lr, rel(left, right))
    assert worst_lr <= tol

    # vanishing integrals of the order-2 and harmonic kernels over
    # contours enclosing all, part, or none of the spectrum
    spheres = s_spectrum(Tsplit)
    worst_v = 0.0
    from sspectrum.contour import Circle

    contours = [csplit,
                auto_contour(spheres, [0], N=256),
                Contour(E1, (Circle(40.0, 2.0),), 256)]
    for c in contours:
        for kind, side in ((CalculusKind.P2, "left"),
                           (CalculusKind.P2, "right"),
                           (CalculusKind.Q, "left")):
            val = integrate(c, Tsplit, [(kind, SlicePoly.monomial(0, side=side))])[0]
            worst_v = max(worst_v, val.norm())
    assert worst_v <= tol

    _passline(8, f"constant shift {worst_shift:.2e}, J-independence "
                 f"{worst_j:.2e}, deformation {worst_d:.2e}, left/right "
                 f"{worst_lr:.2e}, vanishing integrals {worst_v:.2e}, "
                 "all <= 1e-10")


def test_criterion_9_cli_determinism():
    cmd = [sys.executable, "-m", "sspectrum", "selftest", "--seed", "0"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0, a.stderr.decode()
    assert b.returncode == 0
    assert a.stdout == b.stdout and len(a.stdout) > 0
    table = json.loads(a.stdout)
    assert all(entry["pass"] for entry in table)
    _passline(9, "selftest --seed 0 exits 0 twice with byte-identical output "
                 f"({len(table)} identities verified)")
