import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sspectrum import (E1, CalculusKind, CommutingOperator, Quaternion,
                       QuatMatrix, auto_contour, gram, qcs_op,
                       riesz_projector, s_spectrum)
from sspectrum import operators
from sspectrum.errors import (CommutationError, EigenvalueError, InputError,
                              SingularMatrixError)
from sspectrum.identities import random_commuting_operator, split_spectrum_operator
from sspectrum.operators import (load_operator, operator_from_dict,
                                 operator_to_dict, qcs_pencil_at, save_operator)
from sspectrum.qlinalg import solve_arr
from sspectrum.quat import random_imaginary_unit


def diag_op(d0, d1, d2=None, d3=None):
    n = len(d0)
    z = np.zeros((n, n))
    mk = lambda d: np.diag(d) if d is not None else z
    return CommutingOperator(np.diag(d0), np.diag(d1), mk(d2), mk(d3))


def test_no_eigenbasis_when_a_joint_eigenvalue_overflows():
    # T0's eigenvalue 2e308 lies beyond the float range: no basis, and the
    # spectrum is refused as a numeric failure
    with np.errstate(all="ignore"):
        T = CommutingOperator(np.full((2, 2), 1e308), *[np.zeros((2, 2))] * 3)
        assert operators.joint_eigenbasis(T) is None
        with pytest.raises(EigenvalueError):
            s_spectrum(T)


def test_commutation_checked():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(CommutationError):
        CommutingOperator(A, B, np.zeros((2, 2)), np.zeros((2, 2)))


def test_components_must_be_square_and_of_one_size():
    # the loader checks these first, so only direct construction reaches them
    z2 = np.zeros((2, 2))
    with pytest.raises(InputError, match="T1 must be a square matrix"):
        CommutingOperator(z2, np.zeros((2, 3)), z2, z2)
    with pytest.raises(InputError, match="one dimension"):
        CommutingOperator(z2, z2, np.zeros((3, 3)), z2)


def test_conj_op():
    T = CommutingOperator.from_quaternion(E1)
    assert np.allclose(T.conjugate().T1, -T.T1)
    Treal = diag_op([1.0, 2.0], [0.0, 0.0])
    assert np.allclose(Treal.conjugate().T0, Treal.T0)
    T2 = diag_op([1.0, 0.0], [2.0, 3.0], [0.5, 0.5])
    back = T2.conjugate().conjugate()
    for a, b in zip(back.components, T2.components):
        assert np.array_equal(a, b)


def test_conj_identities(rng):
    from sspectrum.identities import random_commuting_operator

    T = random_commuting_operator(rng, 3)
    Tbar = T.conjugate()
    # T + conj(T) = 2 T0 and T conj(T) = gram
    s = (T.as_matrix() + Tbar.as_matrix())
    assert np.allclose(s.data[..., 0], 2 * T.T0)
    assert np.linalg.norm(s.data[..., 1:]) < 1e-14
    prod = T.as_matrix() @ Tbar.as_matrix()
    assert np.allclose(prod.data[..., 0], gram(T), atol=1e-12)
    assert np.linalg.norm(prod.data[..., 1:]) < 1e-12


def test_gram_examples():
    T = CommutingOperator.from_quaternion(E1)
    assert np.allclose(gram(T), [[1.0]])
    assert np.allclose(gram(CommutingOperator.zero(2)), np.zeros((2, 2)))
    T2 = diag_op([0.0, 5.0], [1.0, 0.0])
    assert np.allclose(gram(T2), np.diag([1.0, 25.0]))


def test_spectrum_examples():
    sp = s_spectrum(CommutingOperator.from_quaternion(E1))
    assert len(sp) == 1 and abs(sp[0].u) < 1e-12 and abs(sp[0].v - 1) < 1e-12

    sp = s_spectrum(CommutingOperator.from_quaternion(Quaternion(2.5)))
    assert len(sp) == 1 and abs(sp[0].u - 2.5) < 1e-12 and sp[0].v == 0.0

    sp = s_spectrum(diag_op([0.0, 5.0], [1.0, 0.0]))
    assert [(round(s.u, 9), round(s.v, 9)) for s in sp] == [(0.0, 1.0), (5.0, 0.0)]


def test_scalar_spectrum_is_the_quaternion_sphere(rng):
    for _ in range(10):
        q = Quaternion(*rng.standard_normal(4))
        sp = s_spectrum(CommutingOperator.from_quaternion(q))
        assert len(sp) == 1
        assert abs(sp[0].u - q.w) < 1e-9 * (1 + q.norm())
        assert abs(sp[0].v - q.vec_norm()) < 1e-9 * (1 + q.norm())


def test_spectrum_conj_invariant(rng):
    from sspectrum.identities import random_commuting_operator

    T = random_commuting_operator(rng, 3)
    a = [(s.u, s.v, s.multiplicity) for s in s_spectrum(T)]
    b = [(s.u, s.v, s.multiplicity) for s in s_spectrum(T.conjugate())]
    assert a == b


def test_qcs_op():
    s = Quaternion(0.7, -0.3, 0.2, 0.1)
    assert (qcs_op(CommutingOperator.zero(2), s)
            - QuatMatrix.from_scalar(s * s, 2)).norm() < 1e-15
    T = CommutingOperator.from_quaternion(E1)
    assert (qcs_op(T, Quaternion(2)).entry(0, 0) - Quaternion(5)).norm() < 1e-15


def test_qcs_op_real_point_is_real(rng):
    from sspectrum.identities import random_commuting_operator

    T = random_commuting_operator(rng, 3)
    Q = qcs_op(T, Quaternion(1.7))
    assert np.linalg.norm(Q.data[..., 1:]) == 0.0
    K = gram(T)
    assert np.allclose(Q.data[..., 0], 1.7 ** 2 * np.eye(3) - 2 * 1.7 * T.T0 + K)


def test_qcs_pencil_batch_matches_scalar(rng):
    from sspectrum.identities import random_commuting_operator

    T = random_commuting_operator(rng, 3)
    pts = rng.standard_normal((6, 4))
    batch = qcs_pencil_at(T, pts)
    for i in range(6):
        single = qcs_op(T, Quaternion(*pts[i]))
        assert (QuatMatrix(batch[i]) - single).norm() < 1e-13


def test_on_sphere_singular_off_sphere_solvable(rng):
    T = diag_op([0.0, 5.0], [1.0, 0.0])
    I = QuatMatrix.identity(2)
    for sp in s_spectrum(T):
        J = random_imaginary_unit(rng)
        on = Quaternion.embed(sp.u, J, sp.v) if sp.v > 0 else Quaternion(sp.u)
        with pytest.raises(SingularMatrixError):
            solve_arr(qcs_op(T, on).data, I.data)
        off = Quaternion.embed(sp.u + 0.1, J, sp.v + 0.1)
        solve_arr(qcs_op(T, off).data, I.data)


def test_json_roundtrip(tmp_path):
    T = diag_op([0.0, 5.0], [1.0, 0.0], [0.0, 2.0])
    path = tmp_path / "op.json"
    save_operator(T, path)
    back = load_operator(path)
    for a, b in zip(T.components, back.components):
        assert np.array_equal(a, b)


def test_omitted_components_default_zero(tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"T1": [[1.0]]}))
    T = load_operator(path)
    assert T.n == 1
    assert np.array_equal(T.T0, [[0.0]])
    assert np.array_equal(T.T1, [[1.0]])
    sp = s_spectrum(T)
    assert abs(sp[0].u) < 1e-12 and abs(sp[0].v - 1.0) < 1e-12


def test_bad_documents():
    with pytest.raises(InputError):
        operator_from_dict({"T0": [[1.0, 2.0]]})
    with pytest.raises(InputError):
        operator_from_dict({})
    with pytest.raises(InputError):
        operator_from_dict({"T0": [[1.0]], "T1": [[1.0, 0.0], [0.0, 1.0]]})


@pytest.mark.parametrize("n", [operators.MAX_DIMENSION + 1, 10 ** 5])
def test_dimension_beyond_the_bound_is_refused_before_allocation(monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(InputError, match="'n' must be an integer in 1..2048"):
        operator_from_dict({"n": n})


def test_component_beyond_the_bound_is_refused(monkeypatch):
    monkeypatch.setattr(operators, "MAX_DIMENSION", 2)
    assert operator_from_dict({"T0": np.eye(2).tolist()}).n == 2
    with pytest.raises(InputError, match="component T1 has dimension 3, above 2"):
        operator_from_dict({"T1": np.eye(3).tolist()})


def test_roundtrip_dict():
    T = diag_op([1.0], [2.0])
    assert operator_from_dict(operator_to_dict(T)).n == 1


def test_hypothesis_predicates():
    T = diag_op([0.0, 5.0], [1.0, 0.0])
    assert T.has_zero_e3()
    assert T.has_real_component_spectra()
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    z = np.zeros((2, 2))
    skew = CommutingOperator(rot, z, z, z)
    assert not skew.has_real_component_spectra()
    T3 = CommutingOperator(z, z, z, np.eye(2))
    assert not T3.has_zero_e3()


# -- repeated roots of the pencil ---------------------------------------------


def similar_op(V, d, b):
    """T0 = V diag(d) V^-1 and T1 = V diag(b) V^-1, T2 = T3 = 0."""
    Vi = np.linalg.inv(V)
    z = np.zeros((len(d), len(d)))
    return CommutingOperator(V @ np.diag(d) @ Vi, V @ np.diag(b) @ Vi, z, z)


def test_real_points_of_non_normal_operators():
    # every real point is a double root that rounding splits; each must
    # come back as one point of multiplicity 2
    for seed in range(200):
        rng = np.random.default_rng(seed)
        V = rng.standard_normal((3, 3))
        d = rng.standard_normal(3)
        sp = s_spectrum(similar_op(V, d, np.zeros(3)))
        assert [(s.v, s.multiplicity) for s in sp] == [(0.0, 2)] * 3, seed
        assert np.allclose([s.u for s in sp], np.sort(d), atol=1e-6), seed


def test_non_normal_real_example():
    z = np.zeros((2, 2))
    sp = s_spectrum(CommutingOperator(np.array([[1.0, 2.0], [3.0, 4.0]]), z, z, z))
    root = np.sqrt(33.0) / 2.0
    assert [(s.v, s.multiplicity) for s in sp] == [(0.0, 2), (0.0, 2)]
    assert np.allclose([s.u for s in sp], [2.5 - root, 2.5 + root], atol=1e-12)


def without_basis(T):
    """A copy of T whose cached eigenbasis is None, so that s_spectrum
    and has_real_component_spectra read the joint eigenvalues off the
    Schur route."""
    copy = CommutingOperator(*T.components)
    vars(copy)["eigenbasis"] = None
    return copy


def shifted_identity(shift):
    """T0 = Q (2 I + shift E) Q^T at n = 32, E the upper shift and Q a
    random orthogonal matrix; T1 = T2 = T3 = 0."""
    n = 32
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
    T0 = Q @ (2.0 * np.eye(n) + shift * np.diag(np.ones(n - 1), 1)) @ Q.T
    z = np.zeros((n, n))
    return CommutingOperator(T0, z, z, z)


@pytest.mark.parametrize("shift", [0.0, 1.0])
def test_repeated_root_clustering_is_batched(monkeypatch, shift):
    # 2 I (shift 0) and 2 I plus a nilpotent Jordan part (shift 1) at
    # n = 32 through the Schur route: one real point of multiplicity 64,
    # from the n eigenvalues of C, which rounding splits so far that every
    # pair of them may be a midpoint candidate
    n = 32
    T = without_basis(shifted_identity(shift))
    batches = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda M, **kw: batches.append(len(M)) or svd(M, **kw))
    sp = s_spectrum(T)
    assert [(s.v, s.multiplicity) for s in sp] == [(0.0, 2 * n)]
    assert abs(sp[0].u - 2.0) < 1e-8
    m = n
    assert all(b * m * m <= operators.BATCH_ENTRIES for b in batches)
    assert sum(batches) < m * (m - 1) // 4


def test_shifted_identity_through_the_basis_route(monkeypatch):
    # 2 I conjugated by Q: the joint eigenvalues agree to rounding, so the
    # basis route gives one real point without a Schur form
    T = shifted_identity(0.0)
    monkeypatch.setattr(operators, "_schur_values", None)
    sp = s_spectrum(T)
    assert [(s.v, s.multiplicity) for s in sp] == [(0.0, 64)]
    assert abs(sp[0].u - 2.0) <= 1e-14


@pytest.mark.parametrize("rotated", [False, True])
def test_jordan_block_with_a_scalar_vector_part(rotated):
    # T0 = 2 I + 10 E (n = 12), E the upper shift, has the one eigenvalue
    # 2 and T1 = 0.5 I the one eigenvalue 0.5: the joint eigenvalue
    # (2, 0.5) twelve times, so the one sphere (2, 0.5) of multiplicity 12
    n = 12
    T0 = 2.0 * np.eye(n) + 10.0 * np.eye(n, k=1)
    if rotated:
        Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((n, n)))
        T0 = Q @ T0 @ Q.T
    z = np.zeros((n, n))
    T = CommutingOperator(T0, 0.5 * np.eye(n), z, z)
    assert T.eigenbasis is None
    spheres = s_spectrum(T)
    assert [sp.multiplicity for sp in spheres] == [n]
    assert abs(spheres[0].u - 2.0) <= 1e-12 and abs(spheres[0].v - 0.5) <= 1e-12


def test_schur_route_equals_the_basis_route_on_random_operators():
    # both routes give the spheres of the same joint eigenvalues; the
    # basis route is trusted to JOINT_SPECTRUM_BOUND at unit scale
    rng = np.random.default_rng(2026)
    on_basis = 0
    for _ in range(200):
        T = random_commuting_operator(rng, int(rng.integers(1, 9)),
                                      zero_e3=bool(rng.integers(2)),
                                      symmetric_base=bool(rng.integers(2)),
                                      scale=float(rng.uniform(0.1, 10.0)))
        on_basis += takes_basis_route(T)
        got = [(sp.u, sp.v, sp.multiplicity) for sp in s_spectrum(T)]
        want = [(sp.u, sp.v, sp.multiplicity) for sp in s_spectrum(without_basis(T))]
        assert [k for _, _, k in got] == [k for _, _, k in want]
        tol = operators.JOINT_SPECTRUM_BOUND * max(abs(complex(u, v)) for u, v, _ in want)
        for (u, v, _), (wu, wv, _) in zip(got, want):
            assert abs(u - wu) <= tol and abs(v - wv) <= tol
            assert (v == 0.0) == (wv == 0.0)
    assert on_basis >= 190


def test_schur_route_refuses_components_it_does_not_triangularise(rng):
    # joint eigenvalues (m, 0) and (0, 1) meet at m in the combination
    # T0 + m T1 + ..., whose Schur vectors are then arbitrary in their
    # plane and leave T0 and T1 far from triangular: a numeric failure,
    # not spheres read off the wrong diagonal
    m = operators.EIGENBASIS_MIX[1]
    R = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    z = np.zeros((2, 2))
    T = CommutingOperator(R @ np.diag([m, 0.0]) @ R.T, R @ np.diag([0.0, 1.0]) @ R.T, z, z)
    with pytest.raises(EigenvalueError, match="from triangular"):
        s_spectrum(T)


JOINT = st.tuples(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                  st.sampled_from([0.0, 0.7, -0.7, 1.5]))


@settings(max_examples=50, deadline=None)
@given(st.lists(JOINT, min_size=1, max_size=5), st.integers(0, 2**32 - 1))
def test_similarity_transformed_spectrum(joint, seed):
    # joint eigenvalues (d_i, b_i) from a grid, so real, complex and
    # repeated ones all occur, under a non-orthogonal V of condition <= 3
    n = len(joint)
    G = np.random.default_rng(seed).standard_normal((n, n))
    V = np.eye(n) + 0.5 * G / max(np.linalg.norm(G, 2), 1e-12)
    T = similar_op(V, [d for d, _ in joint], [b for _, b in joint])
    expect = Counter()
    for d, b in joint:
        expect[(d, abs(b))] += 2 if b == 0.0 else 1
    spheres = s_spectrum(T)
    assert len(spheres) == len(expect)
    for (u, v), m in expect.items():
        sp = min(spheres, key=lambda sp: sp.point_distance(u, v))
        assert sp.point_distance(u, v) < 1e-8
        assert sp.multiplicity == m
        assert (sp.v == 0.0) == (v == 0.0)
    # the S-projector of the first sphere has the rank of its joint eigenvalues
    P = riesz_projector(CalculusKind.S, T, auto_contour(spheres, [0]))
    assert (P @ P - P).norm() <= 1e-8 * max(P.norm(), 1.0)
    rank = sum(1 for d, b in joint if spheres[0].point_distance(d, b) < 1e-8)
    assert abs(np.trace(P.data[..., 0]) - rank) < 1e-6


def takes_basis_route(T):
    basis = T.eigenbasis
    return (basis is not None and basis.kappa * max(basis.residual, operators.EPS)
            <= operators.JOINT_SPECTRUM_BOUND)


# a joint eigenvalue (a, b cos phi, b sin phi, 0) lies on the sphere (a, |b|)
POINT = st.tuples(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                  st.sampled_from([0.0, 0.7, 1.5]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(POINT, st.integers(1, 3), st.booleans(),
                          st.sampled_from([0.0, 0.6, 1.0])), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
# draws with a repeated joint eigenvalue on which the basis is refused
@example([((0.0, 0.0), 3, False, 0.0), ((-1.0, 1.5), 3, False, 1.0)], 485)
@example([((2.0, 1.5), 3, True, 0.0), ((2.0, 1.5), 1, False, 0.0),
          ((2.0, 1.5), 1, False, 0.0)], 110211878)
@example([((0.0, 0.0), 1, False, 0.0), ((0.0, 0.0), 1, False, 0.0),
          ((-1.0, 0.0), 1, False, 0.0), ((-1.0, 0.0), 1, False, 0.0)], 1875)
def test_both_routes_give_the_constructed_spheres(draws, seed):
    # T = V diag(joint eigenvalues) V^-1 under a non-orthogonal V of
    # condition <= 3: each drawn point (a, b) is taken m times, as the
    # sign pair (a, +-b) where paired, with its vector part turned by phi
    # into the (e1, e2) plane
    joint, expect = [], Counter()
    for (a, b), m, paired, phi in draws:
        for k in range(m):
            sign = -1.0 if paired and k % 2 else 1.0
            joint.append((a, sign * b * np.cos(phi), sign * b * np.sin(phi)))
            expect[(a, b)] += 2 if b == 0.0 else 1
    n = len(joint)
    G = np.random.default_rng(seed).standard_normal((n, n))
    V = np.eye(n) + 0.5 * G / max(np.linalg.norm(G, 2), 1e-12)
    Vi = np.linalg.inv(V)
    lam = np.array(joint).T
    T = CommutingOperator(*(V @ np.diag(d) @ Vi for d in lam), np.zeros((n, n)))
    # a repeated joint eigenvalue may leave np.linalg.eig a near-singular
    # basis, which joint_eigenbasis refuses, and T takes the Schur route
    if len(set(joint)) == n:
        assert takes_basis_route(T)
    for spheres in (s_spectrum(T), s_spectrum(without_basis(T))):
        assert len(spheres) == len(expect)
        for (u, v), m in expect.items():
            sp = min(spheres, key=lambda sp: sp.point_distance(u, v))
            assert sp.point_distance(u, v) < 1e-8
            assert sp.multiplicity == m
            assert (sp.v == 0.0) == (v == 0.0)


@pytest.mark.parametrize("symmetric_base", [False, True])
def test_realness_from_the_basis_matches_eigvals(symmetric_base):
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(40):
        T = random_commuting_operator(rng, int(rng.integers(1, 7)),
                                      zero_e3=True, symmetric_base=symmetric_base)
        assert T.eigenbasis is not None
        real = T.has_real_component_spectra()
        assert without_basis(T).has_real_component_spectra() == real
        seen.add(real)
    assert seen == ({True} if symmetric_base else {False, True})


@pytest.mark.parametrize("rotated", range(4))
def test_realness_reads_every_component(rotated):
    # one component is the rotation R, with spectrum +-i; the others are
    # multiples of I, which commute with it
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    comps = [(k + 1.0) * np.eye(2) for k in range(4)]
    comps[rotated] = R
    T = CommutingOperator(*comps)
    assert T.eigenbasis is not None
    assert not T.has_real_component_spectra()
    assert not without_basis(T).has_real_component_spectra()


@pytest.mark.parametrize("v", [0.6e-8, 0.9e-8])
def test_roots_within_the_tolerance_of_the_axis_are_one_real_point(v):
    # the roots +-iv of the joint eigenvalue (0, v) lie closer than
    # PAIRING_RTOL to the real axis but more than PAIRING_RTOL apart
    T = diag_op([0.0, 1.0], [v, 0.0])
    for spheres in (s_spectrum(T), s_spectrum(without_basis(T))):
        assert [(sp.v, sp.multiplicity) for sp in spheres] == [(0.0, 2), (0.0, 2)]
        assert abs(spheres[0].u) < 1e-15 and abs(spheres[1].u - 1.0) < 1e-15


def test_unpaired_roots_are_refused(monkeypatch):
    # joint eigenvalues that are not closed under conjugation cannot come
    # from real components: their roots do not pair up across the axis,
    # which the Schur route reports as a numeric failure
    lam = np.array([[1.0 + 1.0j], [0.0], [0.0], [0.0]])
    assert operators._joint_points(lam, np.ones(1, dtype=int)) is None
    monkeypatch.setattr(operators, "_schur_values", lambda comps: (lam, np.ones(1, dtype=int)))
    with pytest.raises(EigenvalueError, match="do not pair up"):
        s_spectrum(without_basis(diag_op([1.0], [0.0])))


def test_spectrum_computed_once_per_operator(monkeypatch):
    T = diag_op([0.0, 5.0], [1.0, 0.0])
    calls = []
    compute = operators.s_spectrum
    monkeypatch.setattr(operators, "s_spectrum",
                        lambda *args: calls.append(args) or compute(*args))
    assert T.spheres == T.spheres == tuple(compute(T))
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_components_rejected(bad):
    M = np.array([[1.0, bad], [0.0, 2.0]])
    z = np.zeros((2, 2))
    with pytest.raises(InputError):
        CommutingOperator(M, z, z, z)
    with pytest.raises(InputError):
        CommutingOperator(z, M, z, z)


@pytest.mark.parametrize("step0, step1", [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)])
def test_equal_u_ordered_by_v(tmp_path, capsys, step0, step1):
    # joint eigenvalues (-1, 0) and (-1, 0.7) with u moved by one ulp either
    # way: the real point comes first and --cluster 0 selects it
    ulp = lambda x, k: x if k == 0 else np.nextafter(x, np.inf * k)
    V = np.array([[1.0, 0.3], [-0.2, 1.0]])
    Vi = np.linalg.inv(V)
    T = CommutingOperator(V @ np.diag([ulp(-1.0, step0), ulp(-1.0, step1)]) @ Vi,
                          V @ np.diag([0.0, 0.7]) @ Vi, np.zeros((2, 2)), np.zeros((2, 2)))
    spheres = s_spectrum(T)
    assert [sp.v == 0.0 for sp in spheres] == [True, False]
    assert [sp.multiplicity for sp in spheres] == [2, 1]
    from sspectrum.cli import main
    op = tmp_path / "op.json"
    op.write_text(json.dumps(operator_to_dict(T)))
    assert main(["projector", "--operator", str(op), "--cluster", "0", "--nodes", "64"]) == 0
    P = np.array(json.loads(capsys.readouterr().out)["projector"])[..., 0]
    assert np.abs(P - V @ np.diag([1.0, 0.0]) @ Vi).max() < 1e-8


@pytest.mark.parametrize("joint, expect", [
    ([(0.0, 0.0)] * 3 + [(0.0, 0.7), (0.0, 0.0)], [(0.0, 0.0, 8), (0.0, 0.7, 1)]),
    ([(-1.0, 0.0), (0.5, 0.0), (0.5, 0.0), (2.0, 0.0), (-1.0, 0.0)],
     [(-1.0, 0.0, 4), (0.5, 0.0, 4), (2.0, 0.0, 2)]),
])
def test_root_at_a_midpoint_does_not_join_the_pair(joint, expect):
    # the midpoint of +-0.7i (of -1 and 2) is another root, so it is an
    # eigenvalue whatever the pair is; the pair stays apart
    n = len(joint)
    for seed in range(20):
        G = np.random.default_rng(seed).standard_normal((n, n))
        V = np.eye(n) + 0.5 * G / np.linalg.norm(G, 2)
        T = similar_op(V, [d for d, _ in joint], [b for _, b in joint])
        got = [(sp.u, sp.v, sp.multiplicity) for sp in s_spectrum(T)]
        assert len(got) == len(expect), seed
        for (u, v, k), (eu, ev, ek) in zip(got, expect):
            assert abs(u - eu) < 1e-7 and abs(v - ev) < 1e-7 and k == ek, seed


def test_scaled_split_spectrum():
    # at 1e6 and above, and at 1e-8, the four roots once merged into one
    # real point (2.5 r, 0) of multiplicity 4
    for k in [-8] + list(range(-150, 151, 5)):
        r = 10.0 ** k
        T = CommutingOperator(*(C * r for C in split_spectrum_operator().components))
        got = [(sp.u / r, sp.v / r, sp.multiplicity) for sp in s_spectrum(T)]
        assert len(got) == 2, k
        (u0, v0, m0), (u1, v1, m1) = got
        assert abs(u0) <= 1e-12 and abs(v0 - 1.0) <= 1e-12 and m0 == 1, k
        assert abs(u1 - 5.0) <= 1e-12 and v1 == 0.0 and m1 == 2, k


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2), st.integers(-60, 60), st.integers(0, 2**32 - 1))
def test_spectrum_scales_exactly_by_powers_of_two(n, draw, k, seed):
    rng = np.random.default_rng(seed)
    if draw == 0:  # one in three with a real spectral point
        G = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        b[0] = 0.0
        T = similar_op(np.eye(n) + 0.5 * G / max(np.linalg.norm(G, 2), 1e-12),
                       rng.standard_normal(n), b)
    else:
        T = random_commuting_operator(rng, n, scale=float(rng.uniform(0.1, 10.0)))
    scaled = CommutingOperator(*(np.ldexp(C, k) for C in T.components))
    assert [(sp.u, sp.v, sp.multiplicity) for sp in s_spectrum(scaled)] == [
        (math.ldexp(sp.u, k), math.ldexp(sp.v, k), sp.multiplicity) for sp in s_spectrum(T)]


def test_eigenbasis_diagonalises_every_component(rng):
    T = random_commuting_operator(rng, 6)
    basis = T.eigenbasis
    assert basis is not None and basis is T.eigenbasis
    assert np.allclose(basis.V @ basis.W, np.eye(6), atol=1e-12)
    for C, lam in zip(T.components, basis.values):
        assert np.allclose(basis.V @ np.diag(lam) @ basis.W, C, atol=1e-12)


def test_eigenbasis_of_a_jordan_block_is_none():
    J = 2.0 * np.eye(5) + np.eye(5, k=1)
    z = np.zeros((5, 5))
    assert CommutingOperator(J, 0.3 * J @ J, z, z).eigenbasis is None


def test_eigenbasis_refused_where_the_mix_merges_joint_eigenvalues(rng):
    # joint eigenvalues (m, 0) and (0, 1) meet at m in T0 + m T1, so the
    # eigenvectors of the mix are arbitrary in their plane
    m = operators.EIGENBASIS_MIX[1]
    R = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    z = np.zeros((2, 2))
    T = CommutingOperator(R @ np.diag([m, 0.0]) @ R.T, R @ np.diag([0.0, 1.0]) @ R.T, z, z)
    assert T.eigenbasis is None
