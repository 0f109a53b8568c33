import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import pair_per_node, rel
from sspectrum import (CalculusKind, CommutingOperator, Quaternion,
                       QuatMatrix, calculus, contour, enclosing_circle, identities,
                       kernel, kernels, qinv, qs_poly, s_spectrum, verify_all,
                       verify_integral, verify_pointwise, verify_seeded)
from sspectrum.contour import Circle, Contour
from sspectrum.errors import GeometryError, InputError
from sspectrum.identities import (INTEGRAL_IDENTITIES, POINTWISE_IDENTITIES,
                                  random_commuting_polynomial,
                                  random_commuting_operator,
                                  random_resolvent_point, random_stem,
                                  registry_names, reports_to_csv,
                                  split_spectrum_operator)

DATA = Path(__file__).parent / "data"
MANIFEST = json.loads((DATA / "identity_manifest.json").read_text())


def test_registry_matches_manifest():
    assert sorted(POINTWISE_IDENTITIES) == sorted(MANIFEST["pointwise"])
    assert sorted(INTEGRAL_IDENTITIES) == sorted(MANIFEST["integral"])
    assert registry_names() == MANIFEST["pointwise"] + MANIFEST["integral"]


def test_pseudo_split_at_zero_exact():
    T = CommutingOperator.zero(1)
    report = verify_pointwise("pseudo_split_left", T, Quaternion(2, 1, 0, 0))
    assert report.passed
    assert report.residual < 1e-15


def test_power_shift_at_zero():
    T = CommutingOperator.zero(1)
    s = Quaternion(1.5, 0.5, -0.25, 0.0)
    report = verify_pointwise("p2_kernel_power_shift_left", T, s, m=3)
    assert report.residual < 1e-12 * report.scale


def test_pointwise_seeded_all_pass(rng):
    for n in (1, 2, 3):
        T = random_commuting_operator(rng, n)
        s = random_resolvent_point(rng, T)
        p = random_resolvent_point(rng, T, avoid=s)
        for name in POINTWISE_IDENTITIES:
            opts = {}
            if name == "s_resolvent_eq_intertwined":
                opts["B"] = random_commuting_polynomial(rng, T)
            report = verify_pointwise(name, T, s, p, tol=1e-10, **opts)
            assert report.passed, (name, n, report.residual, report.scale)


def test_intertwined_reduces_to_plain(rng):
    T = random_commuting_operator(rng, 2)
    s = random_resolvent_point(rng, T)
    p = random_resolvent_point(rng, T, avoid=s)
    report = verify_pointwise("s_resolvent_eq_intertwined", T, s, p,
                              B=QuatMatrix.identity(2))
    plain = verify_pointwise("s_resolvent_eq", T, s, p)
    assert report.passed and plain.passed


def test_unknown_name():
    T = CommutingOperator.zero(1)
    with pytest.raises(InputError):
        verify_pointwise("no_such_identity", T, Quaternion(1))
    with pytest.raises(InputError, match="unknown integral identity"):
        verify_integral("no_such_identity", T, None, None, Contour(Quaternion(0, 1), (), 64))


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_random_commuting_operator_is_built_once(monkeypatch, rng, scale):
    # the commutation check runs in the constructor; one draw runs it once
    built = []

    class Counting(CommutingOperator):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(identities, "CommutingOperator", Counting)
    T = random_commuting_operator(rng, 3, scale=scale)
    assert built == [T]
    assert abs(T.norm() - scale) <= 1e-15 * scale


def test_verify_all_deterministic():
    a = verify_all(seed=0, nodes=64)
    b = verify_all(seed=0, nodes=64)
    assert a == b
    assert all(r.passed for r in a)


@pytest.mark.parametrize("seed", [0, 5])
def test_verify_seeded_matches_verify_all(seed):
    reports = verify_all(seed=seed, nodes=64)
    assert [r.name for r in reports] == registry_names()
    for report in reports:
        assert verify_seeded(report.name, seed=seed, nodes=64) == report


def test_verify_seeded_unknown_name():
    with pytest.raises(InputError):
        verify_seeded("no_such_identity")


def test_verify_all_zero_tol_fails_everything():
    reports = verify_all(seed=0, tol=0.0, nodes=64)
    assert all(r.residual > 0.0 for r in reports)
    assert not any(r.passed for r in reports)


def test_report_serialization():
    reports = verify_all(seed=1, nodes=64)
    assert {"name", "inputs", "residual", "scale", "tol", "pass"} <= set(reports[0].to_dict())
    csv = reports_to_csv(reports)
    lines = csv.strip().splitlines()
    assert lines[0] == "name,residual,scale,pass"
    assert len(lines) == len(reports) + 1
    for line, report in zip(lines[1:], reports):
        name, residual, scale, passed = line.split(",")
        # floats print as their repr, which re-reads to the same double
        assert name == report.name and passed == str(report.passed).lower()
        assert (residual, scale) == (repr(report.residual), repr(report.scale))
        assert (float(residual), float(scale)) == (report.residual, report.scale)


def _report_by_worst_pair(pairs, tol):
    """The rule _report followed before: residual and scale of the pair
    with the largest relative residual, NaN the largest."""
    scored = [((lhs - rhs).norm(), max(lhs.norm(), rhs.norm(), 1.0)) for lhs, rhs in pairs]
    r, s = max(scored, key=lambda rs: (math.isnan(rs[0] / rs[1]), rs[0] / rs[1]),
               default=(0.0, 1.0))
    return r, s, r <= tol * s and not math.isnan(r / s)


def test_report_scale_is_the_largest_over_pairs(rng):
    def noisy_pair(size, noise):
        A = QuatMatrix(size * rng.standard_normal((3, 3, 4)))
        return A, A + QuatMatrix(noise * size * rng.standard_normal((3, 3, 4)))

    pairs = [noisy_pair(size, noise) for size, noise in
             [(0.1, 3e-16), (5.0, 1e-15), (40.0, 2e-16), (2.0, 8e-16), (1.0, 0.0)]]
    largest = max(max(lhs.norm(), rhs.norm(), 1.0) for lhs, rhs in pairs)
    for _ in range(10):
        order = [pairs[k] for k in rng.permutation(len(pairs))]
        r, s, _ = _report_by_worst_pair(order, 0.0)
        for tol in (0.0, r / s * (1 - 1e-9), r / s * (1 + 1e-9), 1.0):
            report = identities._report("x", "", order, tol)
            assert report.passed == _report_by_worst_pair(order, tol)[2]
            assert report.scale == largest
            assert report.residual / report.scale == pytest.approx(r / s, rel=1e-15)
    # two pairs at one relative residual: a small change that swaps the
    # worst pair moved the old scale, and does not move the new one
    a = noisy_pair(1.0, 1e-9)
    b = (a[0] * 20.0, a[1] * 20.0)
    old, new = set(), set()
    for bump in (1.0 - 1e-6, 1.0 + 1e-6):
        bumped = [a, (b[0], b[0] + (b[1] - b[0]) * bump)]
        old.add(_report_by_worst_pair(bumped, 1e-8)[1])
        new.add(identities._report("x", "", bumped, 1e-8).scale)
    assert max(old) / min(old) == pytest.approx(20.0)
    assert max(new) - min(new) <= 1e-12 * max(new)


def test_report_nan_pair_fails():
    big = QuatMatrix(np.full((2, 2, 4), np.inf))
    ok = (QuatMatrix.zeros(2), QuatMatrix.zeros(2))
    with np.errstate(invalid="ignore"):
        report = identities._report("x", "", [ok, (big, big)], 1.0)
    assert not report.passed and math.isnan(report.residual)


def _power_sums_of_degree(T, s, m, side):
    """The two four-fold sums of the degree-m kernel shift, and T^m, each
    degree summed on its own: the loop that the registry's one pass over
    all degrees reproduces bit for bit."""
    n = T.n
    Qs = kernel(CalculusKind.Q, T, s)
    uT = T.vector_part
    Mt = T.as_matrix
    S = kernel(CalculusKind.S, T, s, side)
    A = QuatMatrix.zeros(n)
    Bm = QuatMatrix.zeros(n)
    tpow = QuatMatrix.identity(n)
    for i in range(m):
        spow = s ** (m - i - 1)
        if side == "left":
            A = A + (tpow @ S).rmul(spow)
            Bm = Bm + (tpow @ uT @ Qs).rmul(spow)
        else:
            A = A + (S @ tpow).lmul(spow)
            Bm = Bm + (Qs @ uT @ tpow).lmul(spow)
        tpow = tpow @ Mt
    return A * 4.0, Bm * 4.0, tpow


def p2_power_shift_alt_terms(T: CommutingOperator, s: Quaternion, m: int):
    """The closing rewriting of the degree-m sum, with its stated index
    bounds taken verbatim, and the main display's sum."""
    n = T.n
    Qs = kernel(CalculusKind.Q, T, s)
    Mt = T.as_matrix
    Tbar = T.conjugate.as_matrix
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
    _, B_main, _ = _power_sums_of_degree(T, s, m, "left")
    return B_main, B_alt


def _same_bytes(A: QuatMatrix, B: QuatMatrix) -> bool:
    return A.data.tobytes() == B.data.tobytes()


@pytest.mark.parametrize("side", ["left", "right"])
def test_power_shift_degrees_from_one_pass_bit_for_bit(rng, side):
    row = POINTWISE_IDENTITIES[f"p2_kernel_power_shift_{side}"]
    for n in (1, 2, 3):
        T = random_commuting_operator(rng, n)
        s = random_resolvent_point(rng, T)
        P2 = kernel(CalculusKind.P2, T, s, side)
        together = row.pairs(T, s, m=range(7))
        assert len(together) == 7
        for m, (lhs, rhs) in enumerate(together):
            (lhs_m, rhs_m), = row.pairs(T, s, m=m)
            assert _same_bytes(lhs, lhs_m) and _same_bytes(rhs, rhs_m), (n, m)
            A, Bm, tm = _power_sums_of_degree(T, s, m, side)
            want = P2.rmul(s ** m) - tm @ P2 if side == "left" else P2.lmul(s ** m) - P2 @ tm
            assert _same_bytes(lhs, want) and _same_bytes(rhs, A - Bm), (n, m)
        # a subset of degrees in any order keeps its own order
        picked = row.pairs(T, s, m=[5, 0, 2])
        for m, (lhs, rhs) in zip([5, 0, 2], picked):
            assert _same_bytes(lhs, together[m][0]) and _same_bytes(rhs, together[m][1])


def test_reports_equal_the_stored_reference():
    """verify_all at seeds 0..5 and the default nodes, against the reports
    of the per-kernel, per-degree and per-stem evaluation it replaced,
    stored in data/selftest_reference.json (numpy 2.4 on x86-64)."""
    reference = json.loads((DATA / "selftest_reference.json").read_text())
    assert sorted(reference) == [str(seed) for seed in range(6)]
    for seed, reports in reference.items():
        assert [r.to_dict() for r in verify_all(seed=int(seed))] == reports, seed


TWO_POINT_ROWS = {"s_resolvent_eq", "s_resolvent_eq_intertwined",
                  "p2_mixed_resolvent_eq", "p2_resolvent_eq", "q_resolvent_eq",
                  "q_resolvent_eq_legacy"}


@pytest.fixture
def counted(monkeypatch):
    """Counts of pencil inversions (kernels._pencil_term), of contour
    passes (integrate, as calculus and identities call it), of the
    distinct stem objects in each pass's requests, summed, of stem
    weight evaluations (contour._weights) and of enclosure checks
    (contour._check_encloses)."""
    counts = {"pencils": 0, "integrate": 0, "stems": 0, "weights": 0, "encloses": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    integrate = calculus.integrate

    def counting_integrate(c, T, requests, turns=None):
        requests = list(requests)
        counts["integrate"] += 1
        counts["stems"] += len({id(stem) for _, stem in requests})
        return integrate(c, T, requests, turns)

    monkeypatch.setattr(kernels, "_pencil_term", counting("pencils", kernels._pencil_term))
    monkeypatch.setattr(contour, "_weights", counting("weights", contour._weights))
    monkeypatch.setattr(contour, "_check_encloses",
                        counting("encloses", contour._check_encloses))
    monkeypatch.setattr(calculus, "integrate", counting_integrate)
    monkeypatch.setattr(identities, "integrate", counting_integrate)
    return counts


def test_pointwise_rows_invert_one_pencil_per_point(rng, counted):
    T = random_commuting_operator(rng, 3)
    s = random_resolvent_point(rng, T)
    p = random_resolvent_point(rng, T, avoid=s)
    for name, row in POINTWISE_IDENTITIES.items():
        for opts in row.draw(rng, T):
            counted["pencils"] = 0
            verify_pointwise(name, T, s, p, **opts)
            assert counted["pencils"] == (2 if name in TWO_POINT_ROWS else 1), name


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_verify_all_pencil_and_contour_counts(counted, seed):
    # the integral rows make one pass per (operator, contour, side): two
    # per product rule and per left/right row, one or two per vanishing
    # integral, one per projector; each pass evaluates each of its
    # stems' weights once and checks the enclosure once
    verify_all(seed=seed)
    assert counted == {"pencils": 60, "integrate": 21, "stems": 30, "weights": 30,
                       "encloses": 21}


def test_closing_rewrite_disagrees(rng):
    # the alternative index bounds for the degree-m sum do not reproduce it
    T = random_commuting_operator(rng, 2)
    s = random_resolvent_point(rng, T)
    for m in (2, 3, 4):
        B_main, B_alt = p2_power_shift_alt_terms(T, s, m)
        deviation = (B_main - B_alt).norm() / max(B_main.norm(), 1.0)
        assert deviation > 1e-3, m


def test_intertwining_cauchy_formula(rng):
    # (1/2pi) oint f(s) ds_J (conj(s) B - B p) (p^2 - 2 s0 p + |s|^2)^{-1}
    # equals B f(p) for intrinsic f, p inside the contour
    T = split_spectrum_operator()
    spheres = s_spectrum(T)
    c = enclosing_circle(spheres, margin=1.0, N=512)
    f = random_stem(rng, 3, intrinsic=True)
    p = Quaternion(0.5, 0.4, 0.3, 0.0)
    B = kernel(CalculusKind.P2, T, random_resolvent_point(rng, T))

    def K(s):
        return (B.lmul(s.conjugate()) - B.rmul(p)).rmul(qinv(qs_poly(s, p)))

    lhs = pair_per_node(c, K, f.evaluate, "right")[0] * (1.0 / (2.0 * math.pi))
    rhs = B.rmul(f(p))
    assert rel(lhs, rhs) < 1e-10


def test_product_rule_degenerates_for_constant_factor(rng):
    T = random_commuting_operator(rng, 2, zero_e3=True)
    c_in = enclosing_circle(s_spectrum(T), margin=0.5, N=256)
    c_out = enclosing_circle(s_spectrum(T), margin=1.0, N=256)
    one = random_stem(rng, 0, intrinsic=True)
    g = random_stem(rng, 3)
    report = verify_integral("p2_product_rule_left", T, one, g, c_in, c_out,
                             tol=1e-12)
    assert report.passed


def test_verify_integral_nesting_enforced(rng):
    T = random_commuting_operator(rng, 2, zero_e3=True)
    spheres = s_spectrum(T)
    inner = enclosing_circle(spheres, margin=1.0, N=64)
    outer = enclosing_circle(spheres, margin=0.5, N=64)
    f = random_stem(rng, 2, intrinsic=True)
    g = random_stem(rng, 2)
    with pytest.raises(GeometryError):
        verify_integral("q_product_rule", T, f, g, inner, outer)


def test_verify_integral_outer_contour_winds_once_about_the_inner(rng):
    """An outer contour doubled by a second circle of the same orientation
    holds the inner circle, but winds twice about it."""
    T = random_commuting_operator(rng, 2, zero_e3=True)
    spheres = s_spectrum(T)
    inner = enclosing_circle(spheres, margin=0.5, N=64)
    outer = enclosing_circle(spheres, margin=1.0, N=64)
    doubled = Contour(outer.J, outer.components + (Circle(0.0, 20.0),), 64)
    f = random_stem(rng, 2, intrinsic=True)
    g = random_stem(rng, 2)
    with pytest.raises(GeometryError):
        verify_integral("q_product_rule", T, f, g, inner, doubled)


def test_verify_integral_intrinsic_enforced(rng):
    T = random_commuting_operator(rng, 2, zero_e3=True)
    c = enclosing_circle(s_spectrum(T), margin=0.5, N=64)
    f = random_stem(rng, 2, intrinsic=False)
    from sspectrum.errors import PreconditionError

    with pytest.raises(PreconditionError):
        verify_integral("q_product_rule", T, f, random_stem(rng, 2), c)


def test_integral_rows_refuse_a_stem_they_do_not_take(rng):
    # the left product rule takes a left g, and the left/right agreement
    # an intrinsic f; verify_integral itself checks only f
    T = random_commuting_operator(rng, 2, zero_e3=True)
    c = enclosing_circle(s_spectrum(T), margin=0.5, N=64)
    f = random_stem(rng, 2, intrinsic=True)
    from sspectrum.errors import PreconditionError

    with pytest.raises(PreconditionError, match="takes a left stem g"):
        verify_integral("p2_product_rule_left", T, f, random_stem(rng, 2, side="right"), c)
    with pytest.raises(PreconditionError, match="needs an intrinsic stem"):
        INTEGRAL_IDENTITIES["intrinsic_left_right"].pairs(
            T, random_stem(rng, 2, intrinsic=False), None, c, c)


def test_power_shift_example_values():
    # at T = 0 both sides collapse to 4 s^(1-m) scalar multiples
    T = CommutingOperator.zero(1)
    s = Quaternion(2.0, 1.0, 0.0, 0.0)
    row = POINTWISE_IDENTITIES["p2_kernel_power_shift_left"]
    lhs, rhs = row.pairs(T, s, m=3)[0]
    expect = QuatMatrix.from_scalar(qinv(s * s) * 4.0, 1).rmul(s ** 3)
    assert rel(lhs, expect) < 1e-14
    assert rel(rhs, expect) < 1e-14


def test_random_operator_generator_properties(rng):
    T = random_commuting_operator(rng, 3, zero_e3=True, symmetric_base=True)
    assert T.has_zero_e3()
    assert T.has_real_component_spectra()
    assert abs(T.norm() - 1.0) < 1e-12
