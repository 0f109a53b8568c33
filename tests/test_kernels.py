import math
import tracemalloc

import numpy as np
import pytest

from conftest import qrel, rel
from sspectrum import (CalculusKind, CommutingOperator, Quaternion, QuatMatrix,
                       SlicePoly, kernel, kernel_forms, kernels, p2_series, qinv,
                       s_series)
from sspectrum.errors import DivergenceError, InputError, SingularMatrixError
from sspectrum.identities import (random_commuting_operator,
                                  random_resolvent_point)
from sspectrum.contour import Circle, Contour, DiskPair, integrate, slice_nodes
from sspectrum.kernels import (cauchy_kernel_left, cauchy_kernel_right,
                               f_kernel_left, f_kernel_right, kernel_at_nodes,
                               kernel_sum, p2_kernel_left, p2_kernel_right,
                               pseudo_kernel)
from sspectrum.operators import qcs_op, qcs_pencil_at, s_spectrum
from sspectrum.qlinalg import (eye_arr, matmul, real_adjoint, scal_left,
                               scal_right, solve_arr)
from sspectrum.quat import E1, qs_poly, random_quaternion
from sspectrum.slicefn import FueterOp, fd_fueter_oracle

ZERO1 = CommutingOperator.zero(1)
Q, S, F, P2 = CalculusKind.Q, CalculusKind.S, CalculusKind.F, CalculusKind.P2
# Q^-1 (two-sided) and the left and right forms of the S, F and P2 kernels
KERNELS = [(Q, "left"), (S, "left"), (S, "right"), (F, "left"), (F, "right"),
           (P2, "left"), (P2, "right")]


def test_closed_forms_at_zero_operator():
    s = Quaternion(1.2, 0.4, -0.3, 0.2)
    si = qinv(s)
    cases = {
        (Q, "left"): si * si,
        (S, "left"): si,
        (S, "right"): si,
        (F, "left"): si * si * si * -4.0,
        (F, "right"): si * si * si * -4.0,
        (P2, "left"): si * si * 4.0,
        (P2, "right"): si * si * 4.0,
    }
    for (kind, side), expect in cases.items():
        got = kernel(kind, ZERO1, s, side).entry(0, 0)
        assert qrel(got, expect) < 1e-14, (kind, side)


def test_s_left_form_i_form_ii_cross_check():
    # scalar operator e1 at s=2: form II against the noncommutative form I
    T = CommutingOperator.from_quaternion(E1)
    got = kernel(S, T, Quaternion(2)).entry(0, 0)
    assert qrel(got, Quaternion(0.4, 0.2, 0, 0)) < 1e-15
    q = E1
    form1 = qinv(q * q - Quaternion(4.0) * q + Quaternion(4.0)) * (Quaternion(2) - q)
    assert qrel(got, form1) < 1e-15


def test_scalar_reduction_all_kinds(rng):
    fns = {
        (Q, "left"): pseudo_kernel,
        (S, "left"): cauchy_kernel_left,
        (S, "right"): cauchy_kernel_right,
        (F, "left"): f_kernel_left,
        (F, "right"): f_kernel_right,
        (P2, "left"): p2_kernel_left,
        (P2, "right"): p2_kernel_right,
    }
    for _ in range(15):
        q = random_quaternion(rng)
        s = random_quaternion(rng, 2.0)
        if qs_poly(q, s).norm() < 0.5:
            continue
        T = CommutingOperator.from_quaternion(q)
        for (kind, side), fn in fns.items():
            got = kernel(kind, T, s, side).entry(0, 0)
            assert qrel(got, fn(s, q)) < 1e-12, (kind, side)


def test_on_spectrum_raises(rng):
    T = random_commuting_operator(rng, 2)
    sp = s_spectrum(T)[0]
    s_on = Quaternion.embed(sp.u, E1, sp.v) if sp.v > 0 else Quaternion(sp.u)
    with pytest.raises(SingularMatrixError):
        kernel(S, T, s_on)


def test_batch_matches_single(rng):
    T = random_commuting_operator(rng, 3)
    pts = np.stack([random_resolvent_point(rng, T).as_array() for _ in range(6)])
    for kind, side in KERNELS:
        batch = kernel_at_nodes(kind, T, pts, side)
        for i in range(6):
            single = kernel(kind, T, Quaternion(*pts[i]), side)
            assert rel(QuatMatrix(batch[i]), single) < 1e-13


def test_batch_across_chunks_matches_single(rng):
    # at n = 32 a chunk holds 64 nodes, so 70 nodes take two
    T = random_commuting_operator(rng, 32)
    pts = _mixed_nodes(rng, T, 70)
    batch = kernel_at_nodes(P2, T, pts, "right")
    for i in (0, 63, 64, 69):
        single = kernel(P2, T, Quaternion(*pts[i]), "right")
        assert rel(QuatMatrix(batch[i]), single) < 1e-13


def test_f_kernel_shift_spot(rng):
    # F_L(s,T) s - T F_L(s,T) = -4 Q^-1 on random draws
    for n in (1, 2, 3):
        T = random_commuting_operator(rng, n)
        s = random_resolvent_point(rng, T)
        FL = kernel(F, T, s)
        Qinv = kernel(Q, T, s)
        lhs = FL.rmul(s) - T.as_matrix @ FL
        assert rel(lhs, Qinv * -4.0) < 1e-12


def test_pseudo_resolvent_split_spot(rng):
    for n in (1, 2, 3):
        T = random_commuting_operator(rng, n)
        s = random_resolvent_point(rng, T)
        Qinv = kernel(Q, T, s)
        uT = T.vector_part
        left = (kernel(P2, T, s)
                + uT @ kernel(F, T, s)) * 0.25
        right = (kernel(P2, T, s, "right")
                 + kernel(F, T, s, "right") @ uT) * 0.25
        assert rel(Qinv, left) < 1e-12
        assert rel(Qinv, right) < 1e-12


def test_p2_kernel_shift_spot(rng):
    T = random_commuting_operator(rng, 3)
    s = random_resolvent_point(rng, T)
    P2L = kernel(P2, T, s)
    lhs = P2L.rmul(s) - T.as_matrix @ P2L
    rhs = (kernel(S, T, s)
           - T.vector_part @ kernel(Q, T, s)) * 4.0
    assert rel(lhs, rhs) < 1e-12


def test_fueter_image_of_cauchy_kernel_is_pseudo_kernel(rng):
    # scalar case: applying the Fueter operator to s -> S_L^-1(s, .) in the
    # second variable lands on -2 Q^-1, and the right kernels mirror it
    worst = 0.0
    for _ in range(15):
        s = random_quaternion(rng, 2.0)
        q = random_quaternion(rng, 0.5)
        if qs_poly(q, s).norm() < 0.4:
            continue
        expect = pseudo_kernel(s, q) * -2.0
        fd_left = fd_fueter_oracle(lambda qq: cauchy_kernel_left(s, qq), q,
                                   FueterOp.D, side="left")
        fd_right = fd_fueter_oracle(lambda qq: cauchy_kernel_right(s, qq), q,
                                    FueterOp.D, side="right")
        worst = max(worst,
                    (fd_left - expect).norm() / max(1.0, expect.norm()),
                    (fd_right - expect).norm() / max(1.0, expect.norm()))
    assert worst < 1e-5


def test_p2_right_kernel_reading(rng):
    # the right P2 kernel must be built from F_R; the F_L variant fails
    # against the right-applied conjugate-Fueter difference quotient
    worst_fr = 0.0
    best_fl = math.inf
    for _ in range(15):
        s = random_quaternion(rng, 2.0)
        q = random_quaternion(rng, 0.5)
        if qs_poly(q, s).norm() < 0.4:
            continue
        fd = fd_fueter_oracle(lambda qq: cauchy_kernel_right(s, qq), q,
                              FueterOp.DBAR, side="right")
        via_fr = p2_kernel_right(s, q)
        fl = f_kernel_left(s, q)
        via_fl = -(s * fl) + fl * q.w
        worst_fr = max(worst_fr, (fd - via_fr).norm() / max(1.0, via_fr.norm()))
        best_fl = min(best_fl, (fd - via_fl).norm() / max(1.0, via_fl.norm()))
    assert worst_fr < 1e-5
    assert best_fl > 1e-3


def test_p2_left_kernel_is_dbar_image(rng):
    worst = 0.0
    for _ in range(15):
        s = random_quaternion(rng, 2.0)
        q = random_quaternion(rng, 0.5)
        if qs_poly(q, s).norm() < 0.4:
            continue
        fd = fd_fueter_oracle(lambda qq: cauchy_kernel_left(s, qq), q,
                              FueterOp.DBAR, side="left")
        expect = p2_kernel_left(s, q)
        worst = max(worst, (fd - expect).norm() / max(1.0, expect.norm()))
    assert worst < 1e-5


def test_integral_representation_sign_pattern(rng):
    # the alternating-sign two-term expansion of the order-2 integral
    # representation agrees with the assembled P2 kernel at n = 1
    import math

    from sspectrum import (SlicePoly, apply_calculus, enclosing_circle, integrate,
                           stem_shift)
    from sspectrum.operators import s_spectrum

    q = Quaternion(0.2, 0.3, -0.1, 0.25)
    T = CommutingOperator.from_quaternion(q)
    c = enclosing_circle(s_spectrum(T), margin=1.0, N=256)
    f = SlicePoly.left(Quaternion(0.5, 1, 0, 0), Quaternion(0, 0, 2, 0),
                       Quaternion(1, 0, 0, 3))
    i0 = integrate(c, T, [(F, f)])[0]
    i1 = integrate(c, T, [(F, stem_shift(f))])[0]
    two_term = (i1 * -1.0 + i0.rmul(Quaternion(q.w))) * (1.0 / (2.0 * math.pi))
    direct = apply_calculus(CalculusKind.P2, f, T, c)
    assert rel(two_term, direct) < 1e-12


# -- series ------------------------------------------------------------------


def test_p2_series_at_zero():
    s = Quaternion(1.1, 0.2, 0.3, -0.4)
    expect = QuatMatrix.from_scalar(qinv(s * s) * 4.0, 1)
    for N in (1, 5, 20):
        assert rel(p2_series(ZERO1, s, N), expect) < 1e-14
    assert p2_series(ZERO1, s, 0).norm() == 0.0


def test_s_series_at_zero():
    s = Quaternion(1.4, -0.2, 0.0, 0.3)
    expect = QuatMatrix.from_scalar(qinv(s), 1)
    assert rel(s_series(ZERO1, s, 0), expect) < 1e-15
    assert rel(s_series(ZERO1, s, 25), expect) < 1e-15


@pytest.mark.parametrize("side", ["left", "right"])
def test_series_converge_to_kernels(rng, side):
    T = random_commuting_operator(rng, 3, scale=0.6)
    nrm = T.as_matrix.norm()
    s = Quaternion(2.0 * nrm, 0.9 * nrm, -0.5 * nrm, 0.0)
    assert T.as_matrix.norm() <= s.norm() / 2.0
    kp = kernel(P2, T, s, side)
    ks = kernel(S, T, s, side)
    assert rel(p2_series(T, s, 60, side), kp) < 1e-10
    assert rel(s_series(T, s, 60, side), ks) < 1e-10


def test_series_domain_error(rng):
    T = random_commuting_operator(rng, 2, scale=2.0)
    with pytest.raises(DivergenceError):
        p2_series(T, Quaternion(0.5), 10)
    with pytest.raises(DivergenceError):
        s_series(T, Quaternion(0.5), 10)


# -- complex slice path against the quaternion elimination -------------------


def _elimination_kernel(kind, side, T, s_arr):
    """The kernels assembled entrywise in quaternion arithmetic from the
    modulus-pivot elimination solve_arr and the 16-product matmul."""
    n = T.n
    pencil = qcs_pencil_at(T, s_arr)
    Qinv = solve_arr(pencil, np.broadcast_to(eye_arr(n), pencil.shape))
    if kind is Q:
        return Qinv
    B = np.broadcast_to(-np.stack((T.T0, -T.T1, -T.T2, -T.T3), axis=-1), Qinv.shape).copy()
    B[:, np.arange(n), np.arange(n), :] += s_arr[:, None, :]
    if kind is S:
        return matmul(B, Qinv) if side == "left" else matmul(Qinv, B)
    T0 = np.broadcast_to(QuatMatrix.from_real(T.T0).data, Qinv.shape)
    Qinv2 = matmul(Qinv, Qinv)
    FK = -4.0 * (matmul(B, Qinv2) if side == "left" else matmul(Qinv2, B))
    if kind is F:
        return FK
    if side == "left":
        return -scal_right(FK, s_arr) + matmul(T0, FK)
    return -scal_left(s_arr, FK) + matmul(T0, FK)


def _adjoint_kernel(kind, side, T, s):
    """The same kernel built in the real 4n x 4n representation, where
    every quaternion matrix product is a real one."""
    n = T.n
    sI = real_adjoint(QuatMatrix.from_scalar(s, n))
    Qinv = np.linalg.inv(real_adjoint(qcs_op(T, s)))
    B = sI - real_adjoint(T.conjugate.as_matrix)
    T0 = real_adjoint(QuatMatrix.from_real(T.T0))
    return {
        (Q, "left"): Qinv,
        (S, "left"): B @ Qinv,
        (S, "right"): Qinv @ B,
        (F, "left"): -4.0 * B @ Qinv @ Qinv,
        (F, "right"): -4.0 * Qinv @ Qinv @ B,
        (P2, "left"): 4.0 * (B @ Qinv @ Qinv @ sI - T0 @ B @ Qinv @ Qinv),
        (P2, "right"): 4.0 * (sI @ Qinv @ Qinv @ B - T0 @ Qinv @ Qinv @ B),
    }[(kind, side)]


def _mixed_nodes(rng, T, count):
    """Resolvent points with random imaginary units, every third one real."""
    pts = []
    for k in range(count):
        q = random_resolvent_point(rng, T, min_dist=0.5)
        pts.append([q.w, 0.0, 0.0, 0.0] if k % 3 == 0 else q.as_array())
    return np.array(pts)


@pytest.mark.parametrize("n", [1, 4, 8, 32])
def test_slice_kernels_match_elimination_oracle(rng, n):
    T = random_commuting_operator(rng, n)
    pts = _mixed_nodes(rng, T, 6 if n == 32 else 12)
    assert np.any(pts[:, 1:].any(axis=1)) and not np.all(pts[:, 1:].any(axis=1))
    for kind, side in KERNELS:
        got = kernel_at_nodes(kind, T, pts, side)
        want = _elimination_kernel(kind, side, T, pts)
        for i in range(len(pts)):
            assert rel(QuatMatrix(got[i]), QuatMatrix(want[i])) < 1e-12, (kind, side, i)
        # the elimination oracle itself against the real representation
        for i in (0, 1):
            rho_want = real_adjoint(QuatMatrix(want[i]))
            rho_ref = _adjoint_kernel(kind, side, T, Quaternion(*pts[i]))
            err = np.linalg.norm(rho_want - rho_ref) / max(np.linalg.norm(rho_ref), 1.0)
            assert err < 1e-12, (kind, side, i)


@pytest.mark.parametrize("n, bad", [(8, 41), (32, 66)])
def test_node_on_sphere_in_large_batch_raises(rng, n, bad):
    # at n = 32 the 70 nodes span two chunks, so the index crosses one
    T = random_commuting_operator(rng, n)
    pts = _mixed_nodes(rng, T, 70)
    sp = s_spectrum(T)[0]
    J = Quaternion(0.0, 0.6, 0.0, 0.8)
    pts[bad] = Quaternion.embed(sp.u, J, sp.v).as_array() if sp.v > 0 else [sp.u, 0, 0, 0]
    for kind, side in ((Q, "left"), (P2, "right")):
        with pytest.raises(SingularMatrixError) as err:
            kernel_at_nodes(kind, T, pts, side)
        assert err.value.batch_index == bad
    kernel_at_nodes(S, T, np.delete(pts, bad, axis=0))


# every (kind, side), Q^-1 on both of its sides
FORMS = [(kind, side) for kind in CalculusKind for side in ("left", "right")]


def _real_resolvent_point(rng, T):
    """A real point (b = 0) at distance >= 0.3 from every sphere."""
    while True:
        u = rng.uniform(-2.0, 2.0)
        if all(sp.point_distance(u, 0.0) >= 0.3 for sp in s_spectrum(T)):
            return Quaternion(u)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_forms_equal_one_form_calls_bit_for_bit(rng, n):
    T = random_commuting_operator(rng, n)
    points = [random_resolvent_point(rng, T) for _ in range(3)]
    points.append(_real_resolvent_point(rng, T))
    for s in points:
        # shuffled, with repeats: each answer depends on its own form only
        forms = [FORMS[k] for k in rng.integers(0, len(FORMS), 12)] + FORMS
        for (kind, side), got in zip(forms, kernel_forms(T, s, forms)):
            one = kernel(kind, T, s, side)
            batch = kernel_at_nodes(kind, T, s.as_array(), side)
            assert got.data.tobytes() == one.data.tobytes() == batch.tobytes(), \
                (kind, side, s)


def test_kernel_forms_invert_one_pencil(monkeypatch, rng):
    calls = []
    original = kernels._pencil_term

    def counting(kind, T0, K, z, index):
        calls.append(len(z))
        return original(kind, T0, K, z, index)

    monkeypatch.setattr(kernels, "_pencil_term", counting)
    T = random_commuting_operator(rng, 3)
    kernel_forms(T, random_resolvent_point(rng, T), FORMS)
    assert calls == [1]


def test_kernel_forms_on_a_sphere_raise_as_one_form_calls(rng):
    T = random_commuting_operator(rng, 3)
    J = Quaternion(0.0, 0.6, 0.0, 0.8)
    for sp in s_spectrum(T):
        s = Quaternion.embed(sp.u, J, sp.v) if sp.v > 0 else Quaternion(sp.u)
        with pytest.raises(SingularMatrixError) as many:
            kernel_forms(T, s, FORMS)
        for kind, side in FORMS:
            with pytest.raises(SingularMatrixError) as one:
                kernel(kind, T, s, side)
            assert str(one.value) == str(many.value)
            assert one.value.batch_index == many.value.batch_index == 0


def test_kernel_forms_check_every_side(rng):
    T = random_commuting_operator(rng, 2)
    with pytest.raises(InputError):
        kernel_forms(T, random_resolvent_point(rng, T), [(S, "left"), (Q, "up")])


# -- the eigenbasis sum in blocks of upper nodes ------------------------------


def _one_pass_moments(T, z, rows):
    """kernels._eigen_moments as one pass over all nodes and their
    conjugates at once, with (n, 2U) work arrays, row by row: the
    reference that the blocked sum equals bit for bit when the U upper
    nodes fit in one block."""
    basis = T.eigenbasis
    if basis is None:
        return None
    n = T.n
    lam = basis.values[:, :, None]
    nodes = np.concatenate((z, np.conj(z)))
    q = nodes * (nodes - 2.0 * lam[0]) + np.sum(lam * lam, axis=0)
    size = np.abs(q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = n * basis.kappa * basis.kappa * (np.max(size, axis=0) / np.min(size, axis=0))
    if not np.all(bound <= kernels.COND_LIMIT):
        return None
    moments = []
    for kind, c, c_conj in rows:
        P = kernels._DEGREE[kind] + 1
        g = 1.0 / q
        if kind in kernels._FACTOR:
            g *= g
            g *= kernels._FACTOR[kind]
        zp = np.ones((len(nodes), P), dtype=np.complex128)
        for p in range(1, P):
            zp[:, p] = zp[:, p - 1] * nodes
        a = np.concatenate((c, c_conj), axis=1)[..., None] * zp[:, None, :]
        D = g @ a.reshape(len(c), len(nodes), 4 * P)
        D = np.moveaxis(D, 1, -1).reshape(len(c), 4, P, n)
        moments.append((basis.V * D[..., None, :]) @ basis.W)
    return moments


def _blocked_and_one_pass(monkeypatch, contour, kind, T, stems):
    """integrate's values with the blocked sum and with the one-pass
    reference, which must take the eigenbasis path, and the contour's
    number of upper nodes."""
    taken = []

    def one_pass_moments(*args):
        taken.append(_one_pass_moments(*args))
        return taken[-1]

    requests = [(kind, g) for g in stems]
    blocked = integrate(contour, T, requests)
    with monkeypatch.context() as m:
        m.setattr(kernels, "_eigen_moments", one_pass_moments)
        one_pass = integrate(contour, T, requests)
    assert len(taken) == 1 and taken[0] is not None
    return blocked, one_pass, len(slice_nodes(contour)[2])


def _contours(N):
    """A Circle, a DiskPair and both together, clear of the spectra of
    random_commuting_operator (norm 1), all with N nodes per circle."""
    J = Quaternion(0.0, 0.6, 0.0, 0.8)
    return [Contour(J, [Circle(0.2, 3.0)], N),
            Contour(J, [DiskPair(0.5, 6.0, 2.0)], N),
            Contour(J, [Circle(0.0, 2.5, -1), DiskPair(-1.0, 5.0, 1.5)], N)]


def _stems(rng, n, side):
    """1 to 3 random quadratic stems on side."""
    return [SlicePoly(side, [random_quaternion(rng) for _ in range(3)])
            for _ in range(1 + n % 3)]


@pytest.mark.parametrize("n", range(1, 13))
def test_eigen_sum_in_one_block_equals_the_one_pass_sum_bit_for_bit(monkeypatch, rng, n):
    T = random_commuting_operator(rng, n)
    assert T.eigenbasis is not None
    seen = set()
    # upper nodes: Circle N // 2 + 1, DiskPair N, both 3 N / 2 + 1
    for contour in [_contours(510)[0], *_contours(256)[:2], *_contours(168), *_contours(8)]:
        for kind, side in FORMS:
            blocked, one_pass, U = _blocked_and_one_pass(
                monkeypatch, contour, kind, T, _stems(rng, n, side))
            seen.add(U)
            for b, o in zip(blocked, one_pass):
                assert b.data.tobytes() == o.data.tobytes(), (contour, kind, side)
    assert seen == {256, 129, 85, 168, 253, 5, 8, 13}


def test_eigen_sum_across_blocks_matches_the_one_pass_sum(monkeypatch, rng):
    worst, seen = 0.0, set()
    for n in (1, 3, 7, 12):
        T = random_commuting_operator(rng, n)
        # upper nodes 257 and 512 (Circle at N = 512 and 1022), and 601
        # and 901 (Circle and DiskPair at N = 400 and 600): one node past
        # a block, two whole blocks, and three and four blocks, the last
        # partial.  Each contour winds about the spectrum, so that no
        # value is the near-zero sum of a holomorphic integrand.
        for contour in (_contours(512)[0], _contours(1022)[0], _contours(400)[2],
                        _contours(600)[2]):
            for kind, side in FORMS:
                blocked, one_pass, U = _blocked_and_one_pass(
                    monkeypatch, contour, kind, T, _stems(rng, n, side))
                seen.add(U)
                for b, o in zip(blocked, one_pass):
                    err = (b - o).norm() / o.norm()
                    worst = max(worst, err)
                    assert err < 1e-13, (n, contour, kind, side, err)
    assert seen == {257, 512, 601, 901}
    assert 0.0 < worst


@pytest.mark.parametrize("kind", list(CalculusKind))
def test_a_failing_node_in_the_last_block_takes_the_per_node_path(monkeypatch, kind):
    # A diagonal operator, kappa_2(V) = 1, with the sphere (0, 1), and
    # upper nodes on |z| = 4 but the last, which sits in the third block.
    # At z = i + delta, |q| = 2 delta at that sphere and at most 5 at the
    # other joint values, so the bound n kappa^2 max|q| / min|q| is
    # 2e12 > COND_LIMIT, while the diagonal pencil's condition, 5e11,
    # passes: the per-node path gives the value.  At z = i it raises.
    T = CommutingOperator(np.diag([0.0, 0.5, -1.0, 2.0]), np.diag([1.0, 0.7, 0.3, 0.0]),
                          np.zeros((4, 4)), np.zeros((4, 4)))
    assert T.eigenbasis is not None and T.eigenbasis.kappa == 1.0
    U = 3 * kernels.EIGEN_BLOCK - 40
    near = 4.0 * np.exp(1j * np.pi * np.arange(U) / U)
    on = near.copy()
    near[-1], on[-1] = 5e-12 + 1j, 1j
    c, c_conj = np.random.default_rng(7).standard_normal((2, 2, U, 4))
    index = np.arange(U) + 1000
    J = Quaternion(0.0, 0.0, 1.0, 0.0).as_array()
    assert kernels._eigen_moments(T, near[:-1], [(kind, c[:, :-1], c_conj[:, :-1])]) is not None
    assert kernels._eigen_moments(T, near, [(kind, c, c_conj)]) is None
    rows = [(kind, c, c_conj)]
    for side in ("left", "right"):
        got, = kernel_sum(T, J, near, side, rows, index)
        with pytest.raises(SingularMatrixError) as err:
            kernel_sum(T, J, on, side, rows, index)
        with monkeypatch.context() as m:
            m.setattr(kernels, "_eigen_moments", _one_pass_moments)
            want, = kernel_sum(T, J, near, side, rows, index)
            with pytest.raises(SingularMatrixError) as one_pass:
                kernel_sum(T, J, on, side, rows, index)
        assert got.tobytes() == want.tobytes()
        assert err.value.batch_index == one_pass.value.batch_index == U - 1 + 1000
        assert str(err.value) == str(one_pass.value)


def test_eigen_sum_work_arrays_do_not_grow_with_the_nodes(rng):
    n, U = 32, 1 << 14
    T = random_commuting_operator(rng, n)
    z = 3.0 * np.exp(1j * np.pi * np.arange(U) / U)
    c, c_conj = rng.standard_normal((2, 1, U, 4))
    J = E1.as_array()
    index = np.arange(U)
    # the eigenbasis is cached on T before tracing, and the sum takes it
    assert kernels._eigen_moments(T, z, [(P2, c, c_conj)]) is not None
    tracemalloc.start()
    try:
        kernel_sum(T, J, z, "left", [(P2, c, c_conj)], index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A block of 256 upper nodes and their conjugates has work arrays of
    # n x 512 complex entries, 16 B each: 256 KiB at n = 32.  Live at
    # once are q, |q|, g and the temporaries of q's expression, and the
    # n x n moments afterwards take less.  Eight such arrays bound the
    # sum; one pass over all 2 x 16,384 nodes allocates 16 MiB per array.
    assert peak < 8 * n * 512 * 16, peak
