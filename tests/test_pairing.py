"""The node-contracted pairing of contour.integrate against the per-node
oracle: the kernel at every node, contracted with per-node 4 x 4 products."""

import json
from functools import partial

import numpy as np
import pytest

from conftest import pair_per_node
from corpus import jordbloc, operator
from oracles import node_arrays
from sspectrum import Quaternion, SlicePoly, integrate
from sspectrum import kernels, operators
from sspectrum.cli import main
from sspectrum.contour import Circle, Contour, DiskPair, contour_to_dict, slice_nodes
from sspectrum.errors import PreconditionError, SingularMatrixError
from sspectrum.identities import random_commuting_operator
from sspectrum.kernels import CalculusKind, kernel
from sspectrum.operators import CommutingOperator, operator_to_dict
from sspectrum.qlinalg import in_plane, qmul_arr
from sspectrum.quat import random_imaginary_unit


class _Callable:
    """A quaternion-valued callable stem on side, with the batched
    at_nodes that integrate reads, evaluated one node at a time."""

    def __init__(self, fn, side):
        self.fn, self.side = fn, side

    def __call__(self, s):
        return self.fn(s)

    def at_nodes(self, s_arr):
        return np.stack([self.fn(Quaternion.from_array(s)).as_array() for s in s_arr])


def _contours(rng):
    """A Circle of odd N, a DiskPair of even N with orientation -1, and
    both in one contour.  T's spectrum lies within radius 1 of 0, so the
    circles around 0 enclose it and the DiskPair alone gives about 0."""
    J = random_imaginary_unit(rng)
    return [
        Contour(J, (Circle(0.2, 2.5),), 33),
        Contour(J, (DiskPair(0.5, 3.0, 1.0, -1),), 24),
        Contour(J, (DiskPair(-0.3, 4.0, 1.5), Circle(0.0, 1.8, -1)), 40),
    ]


def _stems(rng, side):
    a, b, c = (Quaternion(*rng.standard_normal(4)) for _ in range(3))
    return [
        SlicePoly(side, (a, b, c)),              # non-intrinsic
        SlicePoly(side, (c, a)),
        _Callable(lambda s: a * s * b + s * s * c, side),   # quaternion-valued
    ]


@pytest.mark.parametrize("kind", list(CalculusKind))
@pytest.mark.parametrize("side", ["left", "right"])
def test_pairing_matches_stack_oracle(rng, kind, side):
    T = random_commuting_operator(rng, 3)
    for c in _contours(rng):
        for f in _stems(rng, side):
            got = integrate(c, T, [(kind, f)])[0]
            want, scale = pair_per_node(c, partial(kernel, kind, T, side=side), f, side)
            assert (got - want).norm() <= 1e-12 * scale, (kind, side, c)


def _jordan_operator(n):
    """T0 a Jordan block, T1 = 0.3 T0^2: no eigenbasis, so kernel_sum
    inverts one pencil per node."""
    T = operator(jordbloc(n, 0.2, 0.5), 0.3)
    assert T.eigenbasis is None
    return T


def test_pairing_matches_stack_oracle_across_chunks(rng):
    # at n = 32 a chunk holds 64 nodes; 130 inverted nodes take three
    T = _jordan_operator(32)
    c = Contour(random_imaginary_unit(rng), (DiskPair(0.0, 3.0, 1.0),), 130)
    f = SlicePoly("right", [Quaternion(0.3, -1.0, 0.2, 0.5), Quaternion(1.0, 0.0, 2.0, 0.0)])
    for kind in (CalculusKind.P2, CalculusKind.S):
        got = integrate(c, T, [(kind, f)])[0]
        want, scale = pair_per_node(c, partial(kernel, kind, T, side="right"), f, "right")
        assert (got - want).norm() <= 1e-12 * scale, kind


def test_list_of_stems_gives_each_single_value(rng):
    T = random_commuting_operator(rng, 4)
    c = _contours(rng)[2]
    stems = [SlicePoly("left", [Quaternion(*rng.standard_normal(4)) for _ in range(3)])
             for _ in range(3)]
    many = integrate(c, T, [(CalculusKind.F, g) for g in stems])
    assert [integrate(c, T, [(CalculusKind.F, g)])[0] for g in stems] == many


def test_stems_of_two_sides_are_refused(rng):
    T = random_commuting_operator(rng, 3)
    c = _contours(rng)[0]
    assert integrate(c, T, []) == []
    for stems in ([SlicePoly.monomial(0), SlicePoly.monomial(0, side="right")],
                  [SlicePoly.monomial(0, side="right"), _Callable(lambda s: s, "left")]):
        with pytest.raises(PreconditionError, match="common stem side"):
            integrate(c, T, [(CalculusKind.S, g) for g in stems])


def _paired_on_side(c, kind, T, f, side):
    """The pairing with the side given apart from the stem, as integrate
    formed it when it took one: f's weights on side, then kernel_sum's
    side form."""
    z, w, upper, mirror = slice_nodes(c)
    J = c.J.as_array()
    s_arr, w_arr = in_plane(z, J), in_plane(w, J)
    fvals = f.at_nodes(s_arr)
    weights = (qmul_arr(w_arr, fvals) if side == "left" else qmul_arr(fvals, w_arr))[None]
    paired = mirror >= 0
    c_conj = np.zeros((1, len(upper), 4))
    c_conj[:, paired] = weights[:, mirror[paired]]
    return kernels.kernel_sum(T, J, z[upper], side, [(kind, weights[:, upper], c_conj)],
                              upper)[0][0]


@pytest.mark.parametrize("kind", list(CalculusKind))
def test_the_stem_side_picks_the_kernel_form_bit_for_bit(rng, kind):
    # a Circle and a DiskPair, on an operator with an eigenbasis and on
    # a Jordan block without one, which inverts one pencil per node
    for T in (random_commuting_operator(rng, 3), _jordan_operator(4)):
        for c in _contours(rng)[:2]:
            for side in ("left", "right"):
                f = SlicePoly(side, [Quaternion(*rng.standard_normal(4)) for _ in range(4)])
                got = integrate(c, T, [(kind, f)])[0]
                want = _paired_on_side(c, kind, T, f, side)
                assert got.data.tobytes() == want.tobytes(), (kind, side, c)


@pytest.mark.parametrize("N", [8, 9, 64, 65])
def test_node_set_exactly_conjugate_symmetric(N):
    J = random_imaginary_unit(np.random.default_rng(N))
    c = Contour(J, (Circle(0.5, 1.0, -1), DiskPair(0.1, 2.0, 0.5)), N)
    s, w = node_arrays(c)
    z, zw, upper, mirror = slice_nodes(c)
    assert np.array_equal(s[:, 0], z.real)
    assert np.array_equal(s[:, 1:], z.imag[:, None] * c.J.as_array()[1:])
    conj = lambda a: a * np.array([1.0, -1.0, -1.0, -1.0])
    paired = mirror >= 0
    for arr in (s, w):
        assert np.array_equal(arr[mirror[paired]], conj(arr[upper[paired]]))
        assert np.array_equal(arr[upper[~paired]], conj(arr[upper[~paired]]))
    # every node is an inverted node or the mirror of exactly one
    covered = np.concatenate((upper, mirror[paired]))
    assert np.array_equal(np.sort(covered), np.arange(len(s)))
    # the circle's real nodes are k = 0 and, for even N, k = N / 2
    assert list(upper[~paired]) == ([0, N // 2] if N % 2 == 0 else [0])
    # a DiskPair's lower circle mirrors its upper circle
    k = np.arange(N)
    assert np.array_equal(s[2 * N + (N - k) % N], conj(s[N + k]))


@pytest.mark.parametrize("N, comps, expect", [
    (64, (Circle(0.0, 2.0),), 33),
    (65, (Circle(0.0, 2.0),), 33),
    (64, (DiskPair(0.0, 3.0, 1.0),), 64),
    (64, (Circle(0.0, 2.0), DiskPair(0.0, 5.0, 1.0)), 97),
])
def test_pencil_inversions_halved(monkeypatch, N, comps, expect):
    # one inversion per upper node and pass, however many kinds and
    # stems the pass serves
    inverted = []
    original = kernels._pencil_term

    def counting(T, z, index):
        inverted.extend(index.tolist())
        return original(T, z, index)

    monkeypatch.setattr(kernels, "_pencil_term", counting)
    T = _jordan_operator(3)
    c = Contour(random_imaginary_unit(np.random.default_rng(6)), comps, N)
    f = SlicePoly("left", [Quaternion(1.0), Quaternion(2.0)])
    g = SlicePoly("left", [Quaternion(0.5), Quaternion(-1.0), Quaternion(3.0)])
    for requests in ([(CalculusKind.P2, f)],
                     [(kind, f) for kind in CalculusKind],
                     [(kind, h) for kind in CalculusKind for h in (f, g)]):
        inverted.clear()
        integrate(c, T, requests)
        assert len(inverted) == expect == len(set(inverted)), requests


@pytest.mark.parametrize("kind", list(CalculusKind))
def test_diagonalisable_operator_inverts_no_pencil(monkeypatch, kind):
    def refuse(*args):
        pytest.fail("a pencil was inverted")

    monkeypatch.setattr(kernels, "_pencil_term", refuse)
    T = random_commuting_operator(np.random.default_rng(5), 3)
    c = Contour(random_imaginary_unit(np.random.default_rng(6)),
                (Circle(0.0, 2.0), DiskPair(0.0, 5.0, 1.0)), 64)
    for side in ("left", "right"):
        integrate(c, T, [(kind, SlicePoly.monomial(2, side=side))])


@pytest.mark.parametrize("argv", [
    ["apply", "--calculus", "p2", "--function", "FUNCTION"],
    ["projector", "--calculus", "s"],
    ["projector", "--calculus", "q", "--cluster", "0"],
])
def test_eigenbasis_computed_once_per_command(monkeypatch, tmp_path, capsys, argv):
    # the spectrum, the realness test of the Q projector and the contour
    # sum all read the one basis, so a command runs one eig and no eigvals
    computed = []
    original = operators.joint_eigenbasis

    def counting(T):
        computed.append(T)
        return original(T)

    monkeypatch.setattr(operators, "joint_eigenbasis", counting)
    calls = []
    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name,
                            _f=getattr(np.linalg, name), **kw: calls.append(_name) or _f(*a, **kw))
    T = random_commuting_operator(np.random.default_rng(8), 4, zero_e3=True,
                                  symmetric_base=True)
    op, fn = tmp_path / "op.json", tmp_path / "f.json"
    op.write_text(json.dumps(operator_to_dict(T)))
    fn.write_text(json.dumps({"side": "left", "coeffs": [[0, 0, 0, 0], [1, 2, 0, 0]]}))
    argv = [str(fn) if a == "FUNCTION" else a for a in argv]
    assert main(argv + ["--operator", str(op)]) == 0
    capsys.readouterr()
    assert len(computed) == 1
    assert calls == ["eig"]


def _spectrum_through(z):
    """A diagonal operator whose first sphere is a + bJ at the slice
    value z = a + ib, with a second point at 3."""
    return CommutingOperator(np.diag([z.real, 3.0]), np.diag([z.imag, 0.0]),
                             np.zeros((2, 2)), np.zeros((2, 2)))


@pytest.mark.parametrize("hit, first", [(37, 37), (62, 50)])
def test_node_on_spectrum_names_its_index(hit, first):
    # 16 nodes per circle: the DiskPair holds nodes 0-31, the circles
    # 32-47 and 48-63; node 62 (k = 14) is the conjugate of node 50
    # (k = 2), which comes first and fails with it
    c = Contour(random_imaginary_unit(np.random.default_rng(7)),
                (DiskPair(0.0, 5.0, 1.0), Circle(0.0, 1.0), Circle(10.0, 1.0)), 16)
    T = _spectrum_through(slice_nodes(c)[0][hit])
    for kind in (CalculusKind.Q, CalculusKind.P2, CalculusKind.S):
        with pytest.raises(SingularMatrixError) as err:
            integrate(c, T, [(kind, SlicePoly.monomial(0))])
        assert err.value.batch_index == first
        assert f"node {first} " in str(err.value)


def test_ill_conditioned_node_exits_4(tmp_path, capsys):
    # a sphere 1e-6 outside node 3 of 16 clears the boundary check, and
    # the point at 1e4 makes |Q| about 1e8, so the condition exceeds 1e12
    c = Contour(Quaternion(0.0, 0.0, 1.0, 0.0), (Circle(0.0, 1.0),), 16)
    z = slice_nodes(c)[0][3] * (1.0 + 1e-6)
    T = CommutingOperator(np.diag([z.real, 1e4]), np.diag([z.imag, 0.0]),
                          np.zeros((2, 2)), np.zeros((2, 2)))
    op, ct = tmp_path / "op.json", tmp_path / "c.json"
    op.write_text(json.dumps(operator_to_dict(T)))
    ct.write_text(json.dumps(contour_to_dict(c)))
    code = main(["projector", "--operator", str(op), "--contour", str(ct)])
    err = json.loads(capsys.readouterr().err)
    assert code == 4 and err["exit"] == 4
    assert err["error"] == "SingularMatrixError"
    assert "pencil at node 3 " in err["message"]
