import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qrel, random_unit_ball_quaternion
from oracles import (dconj_power, fd_fueter_oracle, pa_conjugate, pa_evaluate,
                     random_quaternion, same_terms)
from sspectrum import (E1, CommutingOperator, Quaternion, SlicePoly, fueter_apply,
                       stem_product, stem_shift)
from sspectrum.errors import InputError, IntrinsicError
from sspectrum.slicefn import (_POWER_RULES, FueterOp, PAPoly, load_stem, save_stem,
                               stem_from_dict, stem_to_dict)

ALL_OPS = (FueterOp.D, FueterOp.DBAR, FueterOp.DELTA)


def q_mono(n):
    return SlicePoly.monomial(n)


def test_first_order_constants():
    assert fueter_apply(q_mono(1), FueterOp.DBAR).terms == {(0, 0): Quaternion(4.0)}
    assert fueter_apply(q_mono(1), FueterOp.D).terms == {(0, 0): Quaternion(-2.0)}
    assert fueter_apply(q_mono(2), FueterOp.DELTA).terms == {(0, 0): Quaternion(-4.0)}
    # D q^2 = -2(q + qbar) = -4 q0
    dq2 = fueter_apply(q_mono(2), FueterOp.D)
    assert dq2.terms == {(1, 0): Quaternion(-2.0), (0, 1): Quaternion(-2.0)}


def _monomial_by_monomial(f, op):
    """fueter_apply as a sum of polynomials: one PAPoly per monomial, its
    real rule coefficients times the stem coefficient on the side the
    stem places it, added to the sum with the PAPoly zero filter after
    each."""
    acc = PAPoly({}, f.side)
    for m, a in enumerate(f.coeffs):
        if a.norm() == 0.0:
            continue
        base = PAPoly({k: Quaternion(r) for k, r in _POWER_RULES[op](m).items()}, f.side)
        scaled = PAPoly({k: c * a if f.side == "left" else a * c
                         for k, c in base.terms.items()}, f.side)
        out = dict(acc.terms)
        for key, c in scaled.terms.items():
            out[key] = out.get(key, Quaternion()) + c
        acc = PAPoly(out, f.side)
    return acc


def _coefficient(rng, kind):
    if kind == 0:
        return Quaternion()
    if kind == 1:
        return Quaternion(float(rng.standard_normal()))
    # 1e-170 squares to zero, so its norm is 0.0 and the monomial is skipped
    return random_quaternion(rng, (1.0, 1e-170, 1e150)[kind % 3])


def test_fueter_apply_equals_the_monomial_by_monomial_sum():
    rng = np.random.default_rng(23)
    bits = lambda P: (P.side, [(k, c.as_array().tobytes()) for k, c in P.terms.items()])
    for trial in range(3000):
        side = ("left", "right")[trial % 2]
        kinds = rng.integers(0, 6, size=trial % 9 + 1)
        f = SlicePoly(side, [_coefficient(rng, int(k)) for k in kinds])
        for op in ALL_OPS:
            assert bits(fueter_apply(f, op)) == bits(_monomial_by_monomial(f, op)), (trial, op)


def test_constants_killed():
    const = SlicePoly("left", [Quaternion(2, 1, -1, 3)])
    for op in ALL_OPS:
        assert fueter_apply(const, op).terms == {}


def test_dconj_power_examples():
    assert dconj_power(1).terms == {(0, 0): Quaternion(4.0)}
    assert dconj_power(2).terms == {(0, 1): Quaternion(6.0), (1, 0): Quaternion(2.0)}


def test_dconj_power_vs_fd(rng):
    for n in range(1, 8):
        poly = dconj_power(n)
        f = lambda q: (q.conjugate()) ** n
        for _ in range(10):
            q = random_unit_ball_quaternion(rng)
            fd = fd_fueter_oracle(f, q, FueterOp.D)
            exact = pa_evaluate(poly, q)
            assert (fd - exact).norm() <= 1e-5 * max(1.0, exact.norm())


def test_conjugation_mechanism_exact():
    # Dbar q^n equals the conjugate of D qbar^n, exactly, term by term
    for n in range(1, 11):
        lhs = fueter_apply(q_mono(n), FueterOp.DBAR)
        rhs = pa_conjugate(dconj_power(n))
        assert same_terms(lhs, rhs, 0.0)


def test_d_power_self_conjugate():
    # D q^n = Dbar qbar^n: the exponent multiset of D q^n is symmetric
    for n in range(1, 11):
        poly = fueter_apply(q_mono(n), FueterOp.D)
        assert same_terms(poly, pa_conjugate(poly), 0.0)


def test_exact_vs_fd_all_monomials(rng):
    worst = 0.0
    for n in range(0, 9):
        stem = q_mono(n)
        exact = {op: fueter_apply(stem, op) for op in ALL_OPS}
        for _ in range(12):
            q = random_unit_ball_quaternion(rng)
            for op in ALL_OPS:
                fd = fd_fueter_oracle(stem.evaluate, q, op)
                want = pa_evaluate(exact[op], q)
                err = (fd - want).norm() / max(1.0, want.norm())
                worst = max(worst, err)
    assert worst <= 1e-5


def test_fd_oracle_pinned_example():
    value = fd_fueter_oracle(q_mono(2).evaluate, Quaternion(1, 1, 0, 0),
                             FueterOp.DELTA, h=1e-4)
    assert (value - Quaternion(-4.0)).norm() <= 1e-6


def test_fd_oracle_on_constants(rng):
    f = lambda q: Quaternion(1.0, -2.0, 0.5, 0.0)
    q = random_quaternion(rng)
    for op in ALL_OPS:
        assert fd_fueter_oracle(f, q, op).norm() <= 1e-9


def test_delta_factorizes_via_fd(rng):
    # D applied to the Dbar image matches Delta within the fd tolerance
    stem = q_mono(4)
    dbar = fueter_apply(stem, FueterOp.DBAR)
    delta = fueter_apply(stem, FueterOp.DELTA)
    for _ in range(10):
        q = random_unit_ball_quaternion(rng)
        composed = fd_fueter_oracle(lambda p: pa_evaluate(dbar, p), q, FueterOp.D)
        want = pa_evaluate(delta, q)
        assert (composed - want).norm() <= 1e-4 * max(1.0, want.norm())


def test_realness_of_power_sums(rng):
    for n in range(1, 13):
        poly = PAPoly({(n - k, k - 1): Quaternion(1.0) for k in range(1, n + 1)})
        for _ in range(100):
            q = random_unit_ball_quaternion(rng)
            assert pa_evaluate(poly, q).vec_norm() <= 1e-12


def test_delta_recurrence_pointwise(rng):
    for n in range(1, 11):
        dn = fueter_apply(q_mono(n), FueterOp.DELTA)
        dn1 = fueter_apply(q_mono(n + 1), FueterOp.DELTA)
        dbn = fueter_apply(q_mono(n), FueterOp.DBAR)
        for _ in range(25):
            q = random_unit_ball_quaternion(rng)
            lhs = pa_evaluate(dn1, q)
            rhs = pa_evaluate(dn, q) * q.w - pa_evaluate(dbn, q)
            assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


def test_vector_weighted_cancellation(rng):
    # (Delta q^n) vec(q) + 2 D q^n + Dbar q^n = 0
    for n in range(1, 11):
        dn = fueter_apply(q_mono(n), FueterOp.DELTA)
        ddn = fueter_apply(q_mono(n), FueterOp.D)
        dbn = fueter_apply(q_mono(n), FueterOp.DBAR)
        for _ in range(25):
            q = random_unit_ball_quaternion(rng)
            vec_q = Quaternion(0.0, q.x, q.y, q.z)
            acc = (pa_evaluate(dn, q) * vec_q + pa_evaluate(ddn, q) * 2.0
                   + pa_evaluate(dbn, q))
            scale = max(1.0, pa_evaluate(dbn, q).norm())
            assert acc.norm() <= 1e-12 * scale


def test_coefficients_carried_on_correct_side(rng):
    a = Quaternion(0.3, 1.0, -0.7, 0.2)
    left = SlicePoly("left", (Quaternion(), Quaternion(), a))
    right = SlicePoly("right", (Quaternion(), Quaternion(), a))
    base = fueter_apply(q_mono(2), FueterOp.DBAR)
    for _ in range(10):
        q = random_quaternion(rng)
        at_q = pa_evaluate(base, q)
        assert qrel(pa_evaluate(fueter_apply(left, FueterOp.DBAR), q), at_q * a) < 1e-14
        assert qrel(pa_evaluate(fueter_apply(right, FueterOp.DBAR), q), a * at_q) < 1e-14


# -- stems -------------------------------------------------------------------


def test_stem_eval_sides():
    a = Quaternion(0, 1, 0, 0)
    f_left = SlicePoly("left", (Quaternion(), a))
    f_right = SlicePoly("right", (Quaternion(), a))
    q = Quaternion(0, 0, 1, 0)
    assert f_left(q) == q * a
    assert f_right(q) == a * q


def test_intrinsic_predicate():
    assert SlicePoly("left", [Quaternion(1.0), Quaternion(-2.0), Quaternion(3.0)]).is_intrinsic()
    assert not SlicePoly("left", [Quaternion(1.0), E1]).is_intrinsic()


def test_stem_product_requires_intrinsic():
    with pytest.raises(IntrinsicError):
        stem_product(SlicePoly("left", [E1]), SlicePoly.monomial(0))


def test_stem_product_examples(rng):
    g = SlicePoly("left", [Quaternion(1, 2, 0, 0), Quaternion(0, 0, 1, 0)])
    one = SlicePoly.monomial(0)
    assert stem_product(one, g).coeffs == g.coeffs

    a = Quaternion(0.5, 1, -1, 0)
    f = SlicePoly.monomial(2)
    qa = SlicePoly("left", (Quaternion(), a))
    prod = stem_product(f, qa)
    assert prod.degree == 3 and prod.coeffs[3] == a

    f2 = SlicePoly("left", [Quaternion(float(x)) for x in rng.standard_normal(3)])
    g2 = SlicePoly("left", tuple(random_quaternion(rng) for _ in range(4)))
    prod2 = stem_product(f2, g2)
    for _ in range(20):
        q = random_quaternion(rng)
        assert qrel(prod2(q), f2(q) * g2(q)) < 1e-13


def test_stem_shift(rng):
    assert stem_shift(SlicePoly.monomial(0)).coeffs == (Quaternion(), Quaternion(1.0))
    a = Quaternion(1, 2, 3, 4)
    fa = SlicePoly("left", (Quaternion(), a))
    assert stem_shift(fa).coeffs == (Quaternion(), Quaternion(), a)
    g = SlicePoly("right", tuple(random_quaternion(rng) for _ in range(3)))
    shifted = stem_shift(g)
    for _ in range(10):
        q = random_quaternion(rng)
        assert qrel(shifted(q), g(q) * q) < 1e-13


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_monomial_products_pointwise(i, j):
    f = q_mono(i)
    g = q_mono(j)
    q = Quaternion(0.4, -0.3, 0.2, 0.6)
    assert qrel(stem_product(f, g)(q), q ** (i + j)) < 1e-12


def test_stem_json_roundtrip(tmp_path):
    f = SlicePoly("right", (Quaternion(1, 2, 3, 4), Quaternion(0.5, 0, -1, 0)))
    path = tmp_path / "f.json"
    save_stem(f, path)
    assert load_stem(path) == f
    assert stem_from_dict(stem_to_dict(f)) == f


@pytest.mark.parametrize("side", ["left", "right"])
def test_at_nodes_equals_evaluate(side):
    rng = np.random.default_rng(11)
    for degree in (0, 1, 4):
        f = SlicePoly(side, [random_quaternion(rng) for _ in range(degree + 1)])
        pts = rng.standard_normal((40, 4))
        pts[::5, 1:] = 0.0
        got = f.at_nodes(pts)
        want = np.array([f.evaluate(Quaternion(*p)).as_array() for p in pts])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("side", ["left", "right"])
def test_at_operator_of_a_scalar_operator_is_evaluate(rng, side):
    for trial in range(20):
        f = SlicePoly(side, [random_quaternion(rng) for _ in range(1 + trial % 7)])
        q = random_unit_ball_quaternion(rng, 1.5)
        T = CommutingOperator(*q.as_array().reshape(4, 1, 1))
        polys = [fueter_apply(f, op) for op in ALL_OPS] + [dconj_power(1 + trial % 5)]
        for P in polys:
            want = pa_evaluate(P, q)
            got = Quaternion.from_array(P.at_operator(T).data[0, 0])
            assert (got - want).norm() <= 1e-13 * max(1.0, want.norm()), (trial, P)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: SlicePoly("left", [1.0]), InputError, id="stem-float-coefficient"),
    pytest.param(lambda: SlicePoly.monomial(0, [1.0, 2.0]), InputError, id="stem-array-of-2"),
    pytest.param(lambda: SlicePoly.monomial(-2), InputError, id="monomial-negative"),
    pytest.param(lambda: SlicePoly.monomial(2.5), InputError, id="monomial-float"),
    pytest.param(lambda: SlicePoly.monomial(2.0), InputError, id="monomial-integral-float"),
    pytest.param(lambda: SlicePoly.monomial(True), InputError, id="monomial-bool"),
    pytest.param(lambda: PAPoly({(1, 0): 1.0}, side="up"), InputError, id="papoly-side"),
    pytest.param(lambda: pa_conjugate(PAPoly({(1, 0): E1})), InputError,
                 id="papoly-conjugate-vector-coefficient"),
    pytest.param(lambda: dconj_power(0), InputError, id="dconj_power-0"),
    pytest.param(lambda: fd_fueter_oracle(q_mono(1), Quaternion(), FueterOp.D, h=0.0),
                 InputError, id="fd-step-0"),
    pytest.param(lambda: fd_fueter_oracle(q_mono(1), Quaternion(), FueterOp.D, h=-1e-3),
                 InputError, id="fd-step-negative"),
])
def test_malformed_input_is_refused(call, error):
    with pytest.raises(error):
        call()


def test_a_numpy_integer_monomial_degree_is_an_int():
    assert SlicePoly.monomial(np.int64(3)) == SlicePoly.monomial(3)


def test_stem_coefficients_may_be_quaternion_arrays():
    assert SlicePoly.monomial(1, [0.0, 1.0, 0.0, 0.0]).coeffs == (Quaternion(), E1)
    assert SlicePoly.monomial(0, 2).coeffs == (Quaternion(2.0),)


def test_papoly_repr_lists_its_terms_in_order():
    P = PAPoly({(1, 0): Quaternion(2.0), (0, 0): Quaternion(0.0, 1.0)}, "right")
    assert repr(P) == ("PAPoly({q^0 qbar^0: Quaternion(0.0, 1.0, 0.0, 0.0), "
                       "q^1 qbar^0: Quaternion(2.0, 0.0, 0.0, 0.0)}, side=right)")
