import numpy as np
import pytest

from conftest import rel
from corpus import jordbloc, operator
from oracles import random_quaternion
from sspectrum import (CalculusKind, CommutingOperator, E1, Quaternion,
                       QuatMatrix, SlicePoly, apply_calculus, auto_contour,
                       enclosing_circle, integrate, riesz_projector,
                       s_spectrum, stem_moment)
from sspectrum.calculus import CALCULUS_TURNS, PREFACTOR
from sspectrum.contour import Circle, Contour, DiskPair
from sspectrum.errors import GeometryError, HypothesisError, PreconditionError
from sspectrum.identities import (random_commuting_operator, random_stem,
                                  split_spectrum_operator)
from sspectrum.quat import random_imaginary_unit

ALL_KINDS = tuple(CalculusKind)


def full_contour(T, margin=0.7, N=256, J=E1):
    return enclosing_circle(s_spectrum(T), margin=margin, J=J, N=N)


def test_apply_examples_at_zero():
    Z = CommutingOperator(*np.zeros((4, 1, 1)))
    c = full_contour(Z, margin=1.0, N=128)
    I = QuatMatrix.identity(1)
    assert rel(apply_calculus(CalculusKind.F, SlicePoly.monomial(2), Z, c), I * -4.0) < 1e-12
    assert rel(apply_calculus(CalculusKind.P2, SlicePoly.monomial(1), Z, c), I * 4.0) < 1e-12
    assert rel(apply_calculus(CalculusKind.Q, SlicePoly.monomial(1), Z, c), I * -2.0) < 1e-12
    assert apply_calculus(CalculusKind.S, SlicePoly.monomial(3), Z, c).norm() < 1e-12


def test_s_moment_property(rng):
    T = random_commuting_operator(rng, 3)
    c = full_contour(T)
    Mt = T.as_matrix
    cube = Mt @ Mt @ Mt
    got = apply_calculus(CalculusKind.S, SlicePoly.monomial(3), T, c)
    assert rel(got, cube) < 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_moment_agreement_left(rng, kind):
    T = random_commuting_operator(rng, 2)
    c = full_contour(T, N=512)
    a = random_quaternion(rng)
    for m in range(0, 6):
        stem = SlicePoly("left", tuple([Quaternion()] * m + [a]))
        got = apply_calculus(kind, stem, T, c)
        want = stem_moment(kind, T, m).rmul(a)
        assert rel(got, want) < 1e-8, (kind, m)


def test_moment_agreement_right(rng):
    T = random_commuting_operator(rng, 2)
    c = full_contour(T, N=512)
    a = random_quaternion(rng)
    for kind in ALL_KINDS:
        for m in (0, 1, 3):
            stem = SlicePoly("right", tuple([Quaternion()] * m + [a]))
            got = apply_calculus(kind, stem, T, c)
            want = stem_moment(kind, T, m).lmul(a)
            assert rel(got, want) < 1e-8, (kind, m)


def test_moment_closed_form_values():
    Z = CommutingOperator(*np.zeros((4, 2, 2)))
    I = QuatMatrix.identity(2)
    assert rel(stem_moment(CalculusKind.P2, Z, 1), I * 4.0) == 0.0
    assert stem_moment(CalculusKind.Q, Z, 0).norm() == 0.0
    assert stem_moment(CalculusKind.F, Z, 0).norm() == 0.0
    assert stem_moment(CalculusKind.F, Z, 1).norm() == 0.0
    assert rel(stem_moment(CalculusKind.S, Z, 0), I) == 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_negative_moment_index_is_refused(kind):
    with pytest.raises(PreconditionError, match="non-negative"):
        stem_moment(kind, CommutingOperator(*np.zeros((4, 2, 2))), -1)


@pytest.mark.parametrize("m", [2.5, 3.0, True, np.float64(2.0)])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_moment_index_that_is_not_an_integer_is_refused(kind, m):
    # once, 2.5 gave T^2 for S through the int() of the PAPoly key, and
    # True gave the first moment
    with pytest.raises(PreconditionError, match="non-negative integer"):
        stem_moment(kind, random_commuting_operator(np.random.default_rng(5), 2), m)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_numpy_integer_moment_index_is_an_int(kind):
    T = random_commuting_operator(np.random.default_rng(5), 2)
    assert stem_moment(kind, T, np.int64(3)) == stem_moment(kind, T, 3)


def test_apply_stems_takes_stems_of_one_side():
    # one integrate pass takes requests of one stem side, of any kinds
    T = split_spectrum_operator()
    c = full_contour(T, N=64)
    assert integrate(c, T, [], CALCULUS_TURNS) == []
    requests = [(CalculusKind.S, SlicePoly.monomial(1)),
                (CalculusKind.Q, SlicePoly.monomial(2, side="right"))]
    with pytest.raises(PreconditionError, match="common stem side"):
        integrate(c, T, requests, CALCULUS_TURNS)


def _displayed_moment(kind, T, m):
    """The closed-form moment of index m of each calculus as the paper
    displays it:

        S:  T^m
        Q:  -2 sum_{k=1..m} T^(m-k) conj(T)^(k-1)
        F:  -4 sum_{k=1..m-1} (m-k) T^(m-1-k) conj(T)^(k-1)
        P2: 2 ((m+1) T^m + sum_{k=0..m} T^(m-k) conj(T)^k)

    The S, Q and F moments are the values on q^m, the P2 moment the
    value on q^(m+1)."""
    n = T.n
    Mt, Mtbar = T.as_matrix, T.conjugate.as_matrix
    tpow, tbarpow = [QuatMatrix.identity(n)], [QuatMatrix.identity(n)]
    for _ in range(m + 1):
        tpow.append(tpow[-1] @ Mt)
        tbarpow.append(tbarpow[-1] @ Mtbar)
    if kind is CalculusKind.S:
        return tpow[m]
    acc = QuatMatrix.zeros(n)
    if kind is CalculusKind.Q:
        for k in range(1, m + 1):
            acc = acc + tpow[m - k] @ tbarpow[k - 1]
        return acc * -2.0
    if kind is CalculusKind.F:
        for k in range(1, m):
            acc = acc + (tpow[m - 1 - k] @ tbarpow[k - 1]) * float(m - k)
        return acc * -4.0
    acc = tpow[m] * float(m + 1)
    for k in range(0, m + 1):
        acc = acc + tpow[m - k] @ tbarpow[k]
    return acc * 2.0


def test_stem_moment_matches_the_displayed_sums(rng):
    for n in (1, 2, 3, 4):
        T = random_commuting_operator(rng, n, scale=float(rng.uniform(0.3, 3.0)))
        assert stem_moment(CalculusKind.P2, T, 0).norm() == 0.0
        for kind in ALL_KINDS:
            shift = 1 if kind is CalculusKind.P2 else 0
            for m in range(10):
                got = stem_moment(kind, T, m + shift)
                assert rel(got, _displayed_moment(kind, T, m)) <= 1e-13, (n, kind, m)


def test_p2_moment_index_alignment(rng):
    # the P2 moment of index m is the value on the stem q^(m+1)
    Z = CommutingOperator(*np.zeros((4, 1, 1)))
    c = full_contour(Z, margin=1.0, N=128)
    got = apply_calculus(CalculusKind.P2, SlicePoly.monomial(1), Z, c)
    assert rel(got, stem_moment(CalculusKind.P2, Z, 1)) < 1e-12

    T = random_commuting_operator(rng, 2)
    cT = full_contour(T, N=512)
    for m in range(0, 4):
        got = apply_calculus(CalculusKind.P2, SlicePoly.monomial(m + 1), T, cT)
        assert rel(got, stem_moment(CalculusKind.P2, T, m + 1)) < 1e-8


def test_apply_stems_matches_single(rng):
    """Every (kind, stem) request of one mixed-kind integrate pass, times
    the calculus prefactor, equals apply_calculus(kind, stem, T, c) bit
    for bit: on both sides, on a Circle, a DiskPair and a two-component
    contour, on operators with an eigenbasis and on a Jordan block,
    whose sums invert one pencil per node."""
    J = random_imaginary_unit(rng)
    basis = random_commuting_operator(rng, 3)
    two_spheres = CommutingOperator(np.diag([1.0, 1.2]), np.diag([1.0, 0.9]),
                                    np.zeros((2, 2)), np.zeros((2, 2)))
    split = split_spectrum_operator()
    jordan = operator(jordbloc(4, 0.2, 0.5), 0.3)
    assert jordan.eigenbasis is None
    assert basis.eigenbasis is not None and two_spheres.eigenbasis is not None
    cases = [(basis, full_contour(basis, J=J)),
             (two_spheres, Contour(J, (DiskPair(1.1, 1.0, 0.5),), 64)),
             (split, Contour(J, (DiskPair(0.0, 1.0, 0.5), Circle(5.0, 1.0)), 48)),
             (jordan, Contour(J, (Circle(0.2, 1.5),), 40))]
    for T, c in cases:
        for side in ("left", "right"):
            f, g = random_stem(rng, 3, side=side), random_stem(rng, 2, side=side)
            # repeated stems, kinds in no order, and one request twice
            requests = [(CalculusKind.P2, f), (CalculusKind.S, g), (CalculusKind.F, f),
                        (CalculusKind.Q, g), (CalculusKind.S, f), (CalculusKind.P2, g),
                        (CalculusKind.Q, f), (CalculusKind.F, g), (CalculusKind.S, g)]
            shared = integrate(c, T, requests, CALCULUS_TURNS)
            assert len(shared) == len(requests)
            for (kind, stem), val in zip(requests, shared):
                single = apply_calculus(kind, stem, T, c)
                assert (val * PREFACTOR[kind]).data.tobytes() == single.data.tobytes(), \
                    (T.n, c, side, kind)


def test_contour_must_enclose_spectrum(rng):
    T = split_spectrum_operator()
    partial = auto_contour(s_spectrum(T), [0], N=64)
    with pytest.raises(GeometryError):
        apply_calculus(CalculusKind.S, SlicePoly.monomial(1), T, partial)


def test_linearity(rng):
    T = random_commuting_operator(rng, 2)
    c = full_contour(T)
    f = random_stem(rng, 3)
    g = random_stem(rng, 2)
    a = random_quaternion(rng)
    fa_plus_g = SlicePoly("left", tuple(
        (f.coeffs[m] if m <= f.degree else Quaternion()) * a
        + (g.coeffs[m] if m <= g.degree else Quaternion())
        for m in range(max(f.degree, g.degree) + 1)))
    lhs = apply_calculus(CalculusKind.P2, fa_plus_g, T, c)
    rhs = (apply_calculus(CalculusKind.P2, f, T, c).rmul(a)
           + apply_calculus(CalculusKind.P2, g, T, c))
    assert rel(lhs, rhs) < 1e-12


# -- projectors ---------------------------------------------------------------


def test_projectors_identity_at_zero():
    Z = CommutingOperator(*np.zeros((4, 2, 2)))
    c = full_contour(Z, margin=1.0, N=128)
    for kind in ALL_KINDS:
        P = riesz_projector(kind, Z, c)
        assert rel(P, QuatMatrix.identity(2)) < 1e-12, kind


def test_split_family_projectors(rng):
    T = split_spectrum_operator()
    spheres = s_spectrum(T)
    J = random_imaginary_unit(rng)
    c0 = auto_contour(spheres, [0], J=J, N=256)
    c1 = auto_contour(spheres, [1], J=J, N=256)
    e00 = QuatMatrix.from_real(np.diag([1.0, 0.0]))
    e11 = QuatMatrix.from_real(np.diag([0.0, 1.0]))
    Mt = T.as_matrix
    for kind in ALL_KINDS:
        P0 = riesz_projector(kind, T, c0)
        P1 = riesz_projector(kind, T, c1)
        assert (P0 @ P0 - P0).norm() < 1e-8, kind
        assert (P1 @ P1 - P1).norm() < 1e-8, kind
        assert rel(P0, e00) < 1e-8, kind
        assert rel(P1, e11) < 1e-8, kind
    P = riesz_projector(CalculusKind.P2, T, c0)
    assert (Mt @ P - P @ Mt).norm() < 1e-8

    PS0 = riesz_projector(CalculusKind.S, T, c0)
    PS1 = riesz_projector(CalculusKind.S, T, c1)
    assert rel(PS0 + PS1, QuatMatrix.identity(2)) < 1e-8


def test_projector_empty_contour():
    T = split_spectrum_operator()
    c = Contour(E1, (), 64)
    assert riesz_projector(CalculusKind.S, T, c).norm() == 0.0


def test_projector_hypothesis_enforcement():
    z = np.zeros((2, 2))
    T3 = CommutingOperator(np.diag([0.0, 5.0]), z, z, np.diag([1.0, 0.0]))
    c = full_contour(T3, margin=0.8, N=64)
    with pytest.raises(HypothesisError):
        riesz_projector(CalculusKind.P2, T3, c)
    riesz_projector(CalculusKind.S, T3, c)

    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    Trot = CommutingOperator(rot, z, z, z)
    crot = full_contour(Trot, margin=0.8, N=64)
    with pytest.raises(HypothesisError):
        riesz_projector(CalculusKind.Q, Trot, crot)


def test_projector_boundary_through_spectrum():
    T = split_spectrum_operator()
    # circle of radius 1 around 0 passes through the sphere (0, 1)
    bad = Contour(E1, (Circle(0.0, 1.0),), 64)
    with pytest.raises(GeometryError):
        riesz_projector(CalculusKind.S, T, bad)


# -- well-posedness -----------------------------------------------------------


@pytest.mark.parametrize("kind", [CalculusKind.P2, CalculusKind.Q])
def test_constant_shift_invariance_connected(rng, kind):
    T = random_commuting_operator(rng, 2)
    c = full_contour(T)
    f = random_stem(rng, 3)
    shifted = SlicePoly(f.side, (f.coeffs[0] + random_quaternion(rng),) + f.coeffs[1:])
    a = apply_calculus(kind, f, T, c)
    b = apply_calculus(kind, shifted, T, c)
    assert rel(a, b) < 1e-10


@pytest.mark.parametrize("kind", [CalculusKind.P2, CalculusKind.Q])
def test_constant_shift_invariance_disconnected(rng, kind):
    T = split_spectrum_operator()
    c = auto_contour(s_spectrum(T), [0, 1], N=256)
    assert len(c.components) == 2
    f = random_stem(rng, 3)
    shifted = SlicePoly(f.side, (f.coeffs[0] + random_quaternion(rng),) + f.coeffs[1:])
    assert rel(apply_calculus(kind, f, T, c),
               apply_calculus(kind, shifted, T, c)) < 1e-10


def test_left_right_agreement_intrinsic(rng):
    T = random_commuting_operator(rng, 2)
    c = full_contour(T)
    coeffs = tuple(Quaternion(float(x)) for x in rng.standard_normal(4))
    for kind in ALL_KINDS:
        left = apply_calculus(kind, SlicePoly("left", coeffs), T, c)
        right = apply_calculus(kind, SlicePoly("right", coeffs), T, c)
        assert rel(left, right) < 1e-10, kind
