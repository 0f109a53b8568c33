import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qrel
from sspectrum import E1, E2, E3, ONE, Quaternion, qinv, qs_poly
from sspectrum.errors import InputError
from sspectrum.quat import SpectralSphere, imaginary_unit

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_multiplication_table():
    assert E1 * E2 == E3
    assert E2 * E3 == E1
    assert E3 * E1 == E2
    assert E2 * E1 == -E3
    for e in (E1, E2, E3):
        assert e * e == Quaternion(-1.0)


def test_qmul_examples():
    assert (ONE + E1) * (ONE - E1) == Quaternion(2.0)
    assert Quaternion(2, 1, 0, 0) * Quaternion(3, 0, 1, 0) == Quaternion(6, 3, 2, 1)


def test_conj_antihomomorphism(rng):
    for _ in range(50):
        a = Quaternion(*rng.standard_normal(4))
        b = Quaternion(*rng.standard_normal(4))
        assert qrel((a * b).conjugate(), b.conjugate() * a.conjugate()) < 1e-15


def test_norm_via_conjugate(rng):
    q = Quaternion(*rng.standard_normal(4))
    prod = q * q.conjugate()
    assert prod.vec_norm() < 1e-13
    assert abs(prod.w - q.norm_sq()) < 1e-12


@settings(max_examples=150, deadline=None)
@given(quats, quats)
def test_norm_multiplicative(a, b):
    assert abs((a * b).norm() - a.norm() * b.norm()) <= 1e-14 * max(
        1.0, a.norm() * b.norm())


@settings(max_examples=100, deadline=None)
@given(quats, quats, quats)
def test_associativity(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert qrel(lhs, rhs) < 1e-13


def test_qinv_examples():
    assert qinv(Quaternion(2)) == Quaternion(0.5)
    assert qinv(ONE + E1) == Quaternion(0.5, -0.5, 0, 0)
    assert qinv(E2) == -E2


def test_qinv_exact(rng):
    for _ in range(30):
        a = Quaternion(*rng.standard_normal(4))
        assert qrel(a * qinv(a), ONE) < 1e-15


def test_qinv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        qinv(Quaternion())


def test_qs_poly_examples():
    assert qs_poly(Quaternion(1), Quaternion(2)) == Quaternion(1.0)
    assert qs_poly(E1, E2) == Quaternion()
    assert qs_poly(E1, Quaternion(2)) == Quaternion(5.0)


def test_qs_poly_vanishes_exactly_on_sphere(rng):
    for _ in range(40):
        s = Quaternion(*rng.standard_normal(4))
        u, J, v = s.decompose()
        if J is None:
            continue
        # same sphere, different imaginary direction
        from sspectrum.quat import random_imaginary_unit

        p_on = Quaternion.embed(u, random_imaginary_unit(rng), v)
        assert qs_poly(s, p_on).norm() < 1e-12 * (1 + s.norm_sq())
        p_off = Quaternion.embed(u + 0.5, random_imaginary_unit(rng), v + 0.3)
        assert qs_poly(s, p_off).norm() > 1e-3


def test_decompose_embed_roundtrip(rng):
    for _ in range(50):
        q = Quaternion(*rng.standard_normal(4))
        u, J, v = q.decompose()
        assert J is not None
        back = Quaternion.embed(u, J, v)
        assert (q - back).norm() <= 1e-15 * max(1.0, q.norm())
        assert abs(J.norm() - 1.0) < 1e-14
        assert (J * J + ONE).norm() < 1e-14


def test_decompose_real_marker():
    u, J, v = Quaternion(3.5).decompose()
    assert (u, J, v) == (3.5, None, 0.0)


def test_powers():
    q = Quaternion(0.3, 1.0, -2.0, 0.5)
    assert q ** 0 == ONE
    assert qrel(q ** 3, q * q * q) < 1e-15
    with pytest.raises(ValueError):
        q ** -1


def test_imaginary_unit_validation():
    J = imaginary_unit([0.0, 0.6, 0.8, 0.0])
    assert abs(J.vec_norm() - 1.0) < 1e-15
    with pytest.raises(InputError):
        imaginary_unit([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(InputError):
        imaginary_unit([0.0, 2.0, 0.0, 0.0])


def test_spectral_sphere():
    sp = SpectralSphere(1.0, 2.0, 3)
    assert sp.distance(SpectralSphere(4.0, 6.0)) == 5.0
    assert sp.point_distance(1.0, -2.0) == 0.0
    pts = sp.trace_points(E1)
    assert pts[0] == Quaternion(1.0, 2.0, 0.0, 0.0)
    assert pts[1] == Quaternion(1.0, -2.0, 0.0, 0.0)
    assert len(SpectralSphere(0.5, 0.0).trace_points(E2)) == 1
    with pytest.raises(InputError):
        SpectralSphere(0.0, -1.0)
    with pytest.raises(InputError):
        SpectralSphere(0.0, 1.0, 0)


def test_norm_example():
    assert math.isclose((ONE + E1).norm(), math.sqrt(2.0))


@pytest.mark.parametrize("value", [
    [0.0, math.nan, 0.0, 0.0],
    [math.nan, 1.0, 0.0, 0.0],
    [0.0, 1.0, math.nan, 0.0],
    [math.nan, math.nan, math.nan],
])
def test_nan_imaginary_unit_is_rejected(value):
    with pytest.raises(InputError):
        imaginary_unit(value)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: Quaternion.from_array([1.0, 2.0, 3.0]), InputError, id="from_array-3"),
    pytest.param(lambda: Quaternion.from_array([1.0] * 5), InputError, id="from_array-5"),
    pytest.param(lambda: Quaternion(1.0) + "1", TypeError, id="add-str"),
    pytest.param(lambda: qinv(None), TypeError, id="qinv-None"),
])
def test_malformed_input_is_refused(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call, expect", [
    pytest.param(lambda: Quaternion(1.0, 2.0, 3.0, 4.0) + 2, Quaternion(3.0, 2.0, 3.0, 4.0),
                 id="add-int"),
    pytest.param(lambda: 0.5 + Quaternion(1.0, 2.0, 3.0, 4.0), Quaternion(1.5, 2.0, 3.0, 4.0),
                 id="radd-float"),
    pytest.param(lambda: Quaternion(1.0, 2.0, 3.0, 4.0) - 1, Quaternion(0.0, 2.0, 3.0, 4.0),
                 id="sub-int"),
    pytest.param(lambda: qinv(4), Quaternion(0.25), id="qinv-int"),
    pytest.param(lambda: qs_poly(1.0, E1), Quaternion(0.0, -2.0), id="qs_poly-float"),
])
def test_numbers_are_real_quaternions(call, expect):
    assert call() == expect
