import itertools
import math
import time

import numpy as np
import pytest

import corpus
from conftest import pair_per_node, rel
from oracles import node_arrays
from sspectrum import (CalculusKind, CommutingOperator, E1, E2, Quaternion,
                       QuatMatrix, SlicePoly, SpectralSphere, apply_calculus,
                       auto_contour, enclosing_circle, integrate, qinv,
                       riesz_projector, stem_moment)
from sspectrum.contour import (MAX_NODES, Circle, Contour, DiskPair,
                               _axis_centered_radius, _min_enclosing_circle,
                               contour_from_dict, contour_to_dict, default_margin,
                               load_contour, save_contour)
from sspectrum.errors import GeometryError, InputError
from sspectrum.identities import random_commuting_operator
from sspectrum.operators import s_spectrum
from sspectrum.quat import random_imaginary_unit


def unit_circle(N=64, J=E1):
    return Contour(J, (Circle(0.0, 1.0),), N)


def test_node_formula():
    c = Contour(E1, (Circle(0.0, 1.0),), 8)
    s, w = node_arrays(c)
    assert len(s) == len(w) == 8
    s0, w0 = Quaternion.from_array(s[0]), Quaternion.from_array(w[0])
    assert (s0 - Quaternion(1.0)).norm() < 1e-15
    assert (w0 - Quaternion(2 * math.pi / 8)).norm() < 1e-15
    s2, w2 = Quaternion.from_array(s[2]), Quaternion.from_array(w[2])
    assert (s2 - E1).norm() < 1e-14
    assert (w2 - E1 * (2 * math.pi / 8)).norm() < 1e-14


def test_weights_sum_to_zero():
    for comp in (Circle(0.7, 2.0), DiskPair(1.0, 2.0, 0.5)):
        _, w = node_arrays(Contour(E2, (comp,), 128))
        assert np.abs(w.sum(axis=0)).max() < 1e-13


def test_node_set_conjugation_symmetric():
    J = random_imaginary_unit(np.random.default_rng(3))
    c = Contour(J, (Circle(0.5, 1.0), DiskPair(0.0, 2.0, 0.5)), 32)
    s, _ = node_arrays(c)
    conj = s.copy()
    conj[:, 1:] *= -1.0
    a = sorted(map(tuple, np.round(s, 12)))
    b = sorted(map(tuple, np.round(conj, 12)))
    assert a == b


def test_all_nodes_in_plane():
    J = random_imaginary_unit(np.random.default_rng(4))
    c = Contour(J, (DiskPair(0.3, 1.5, 0.4),), 16)
    s, _ = node_arrays(c)
    # s = u + J v: vector part parallel to J
    vecs = s[:, 1:]
    Jv = np.array([J.x, J.y, J.z])
    cross = np.cross(vecs, Jv)
    assert np.abs(cross).max() < 1e-14


def test_discrete_orthogonality():
    c = unit_circle(64)
    for k in range(-5, 6):
        K = lambda s, k=k: QuatMatrix.identity(1).rmul(s ** k if k >= 0 else qinv(s) ** (-k))
        val, _ = pair_per_node(c, K, lambda s: Quaternion(1.0), "left")
        got = Quaternion.from_array(val.data[0, 0]) * (1.0 / (2.0 * math.pi))
        expect = Quaternion(1.0) if k == -1 else Quaternion()
        assert (got - expect).norm() < 1e-13, k


def test_orientation_flips_sign():
    plus = Contour(E1, (Circle(0.0, 1.0, 1),), 64)
    minus = Contour(E1, (Circle(0.0, 1.0, -1),), 64)
    K = lambda s: QuatMatrix.identity(1).rmul(qinv(s))
    f = lambda s: Quaternion(1.0)
    a, _ = pair_per_node(plus, K, f, "left")
    b, _ = pair_per_node(minus, K, f, "left")
    assert rel(a, b * -1.0) < 1e-14


def test_right_pairing_order():
    # f(s) w K(s): with K constant e1 and f constant e2 the order matters
    c = unit_circle(16)
    K = lambda s: QuatMatrix.identity(1).rmul(E1)
    f = lambda s: E2
    val, _ = pair_per_node(c, K, f, "right")
    # sum of weights is zero, but e2 w e1 does not vanish termwise; the
    # quadrature still sums to zero because weights cancel pairwise
    assert val.norm() < 1e-13


def test_vanishing_integral_off_spectrum(rng):
    # pseudo resolvent integrated over a contour avoiding the spectrum
    T = random_commuting_operator(rng, 2)
    far = Contour(E1, (Circle(50.0, 1.0),), 128)
    val = integrate(far, T, [(CalculusKind.Q, SlicePoly.monomial(0))])[0]
    assert val.norm() < 1e-10


def test_empty_contour():
    c = Contour(E1, (), 64)
    val = integrate(c, CommutingOperator(*np.zeros((4, 2, 2))),
                    [(CalculusKind.Q, SlicePoly.monomial(0))])[0]
    assert val.norm() == 0.0
    assert enclosing_circle([], 0.5).components == ()


def test_geometry_validation():
    with pytest.raises(GeometryError):
        Contour(E1, (Circle(0.0, -1.0),), 64)
    with pytest.raises(GeometryError):
        Contour(E1, (DiskPair(0.0, 1.0, 1.5),), 64)
    with pytest.raises(InputError):
        Contour(E1, (Circle(0.0, 1.0),), 4)
    with pytest.raises(InputError, match="Circle or DiskPair"):
        Contour(E1, ("x",), 64)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [
    pytest.param(lambda x: Circle(x, 1.0), id="Circle-center"),
    pytest.param(lambda x: Circle(0.0, x), id="Circle-radius"),
    pytest.param(lambda x: DiskPair(x, 2.0, 0.5), id="DiskPair-u"),
    pytest.param(lambda x: DiskPair(0.0, x, 0.5), id="DiskPair-v"),
    pytest.param(lambda x: DiskPair(0.0, 2.0, x), id="DiskPair-radius"),
])
def test_non_finite_geometry_is_refused(make, value):
    # a NaN passed both radius tests, and the contour failed later, as a
    # GeometryError "nan from its boundary"
    with pytest.raises(InputError, match="finite"):
        Contour(E1, (make(value),), 64)


def test_an_enclosing_circle_of_nan_margin_is_refused():
    with pytest.raises(InputError, match="finite"):
        enclosing_circle([SpectralSphere(0.0, 1.0)], math.nan)


@pytest.mark.parametrize("components, nodes", [
    ((Circle(0.0, 1.0, True),), 64),
    ((Circle(0.0, 1.0, 1.0),), 64),
    ((DiskPair(0.0, 2.0, 0.5, True),), 64),
    ((Circle(0.0, 3.0),), 16.0),
    ((), True),
])
def test_contour_integer_fields_must_be_ints(components, nodes):
    # each built and then failed in save/load or in the node ring
    with pytest.raises(InputError):
        Contour(E1, components, nodes)


# -- auto contour -------------------------------------------------------------


def test_auto_contour_disk_pair_example():
    # v = 3 exceeds the default margin, a quarter of the gap sqrt(34)
    spheres = [SpectralSphere(0.0, 3.0), SpectralSphere(5.0, 0.0)]
    c = auto_contour(spheres, [0])
    assert len(c.components) == 1
    comp = c.components[0]
    assert isinstance(comp, DiskPair)
    assert comp.radius <= 1.5
    assert c.winding(5.0, 0.0)[0] == 0
    assert c.winding(0.0, 3.0)[0] == 1
    assert c.winding(0.0, -3.0)[0] == 1


def test_auto_contour_select_none():
    c = auto_contour([SpectralSphere(0.0, 1.0)], [])
    assert c.components == ()


def test_a_sphere_listed_twice_gets_one_component():
    spheres = [SpectralSphere(0.0, 2.0), SpectralSphere(0.0, 2.0), SpectralSphere(4.0, 0.0)]
    margin = default_margin(spheres)
    for selection, components in (([0, 1], (DiskPair(0.0, 2.0, margin),)),
                                  ([0, 1, 2], (DiskPair(0.0, 2.0, margin),
                                               Circle(4.0, margin)))):
        c = auto_contour(spheres, selection)
        assert c.components == components
        assert c == _per_sphere_contour(spheres, selection)


def test_contour_winding_counts_orientation():
    annulus = Contour(E1, (Circle(0.0, 3.0), Circle(0.0, 1.0, -1)), 64)
    assert annulus.winding(0.0, 0.0) == (0, 1.0)
    assert annulus.winding(2.0, 0.0) == (1, 1.0)
    assert annulus.winding(5.0, 0.0) == (0, 2.0)
    nested = Contour(E1, (Circle(0.0, 3.0), DiskPair(0.0, 1.0, 0.5)), 64)
    assert nested.winding(0.0, -1.0) == (2, 0.5)
    assert Contour(E1, (), 64).winding(0.0, 0.0) == (0, math.inf)


def _winding_loop(c, u, v):
    """The scalar reference of Contour.winding: one point, one loop over
    the circles."""
    turns, gap = 0, math.inf
    for comp in c.components:
        for (cu, cv, r) in comp.plane_circles():
            d = math.hypot(u - cu, v - cv)
            gap = min(gap, abs(d - r))
            if d < r:
                turns += comp.orientation
    return turns, gap


def test_winding_table_matches_the_scalar_loop():
    rng = np.random.default_rng(21)
    for trial in range(200):
        comps = []
        for _ in range(rng.integers(0, 5)):
            orientation = int(rng.choice([-1, 1]))
            if rng.random() < 0.5:
                comps.append(Circle(float(rng.normal()), float(rng.uniform(0.1, 3.0)),
                                    orientation))
            else:
                v = float(rng.uniform(0.5, 4.0))
                comps.append(DiskPair(float(rng.normal()), v,
                                      float(rng.uniform(0.05, 0.95)) * v, orientation))
        c = Contour(E1, tuple(comps), 64)
        pts = [tuple(p) for p in rng.normal(scale=3.0, size=(20, 2))]
        # the centre and four points on each circle, at offsets that are
        # exact in floats, so both hypots give the same distance
        for (cu, cv, r) in c.plane_circles():
            pts += [(cu, cv), (cu + r, cv), (cu - r, cv), (cu, cv + r), (cu, cv - r)]
        u, v = np.array(pts).T
        turns, gap = c.winding(u, v)
        assert turns.dtype.kind == "i"
        # every contour is closed under conjugation, which check_winding
        # relies on to look up u + Jv alone
        mirrored = c.winding(u, -v)
        assert np.array_equal(mirrored[0], turns) and np.array_equal(mirrored[1], gap)
        scale = max(np.abs(pts).max(), max((r for (_, _, r) in c.plane_circles()), default=0.0))
        for k, (a, b) in enumerate(pts):
            t, g = _winding_loop(c, a, b)
            assert turns[k] == t, (trial, k)
            assert gap[k] == g if g == math.inf else abs(gap[k] - g) <= 1e-15 * scale, (trial, k)


def test_auto_contour_keeps_overlapping_circles_that_hold_no_sphere():
    """A real cluster's circle reaches into a disk pair's circles without
    covering a sphere of the other, so the contour winds once about every
    sphere and its P2 value agrees with the closed form.  The contour is
    the one that single linkage at margin 0.5 gave; at the default
    margin auto_contour's per-sphere components can at most touch."""
    T0 = np.diag([0.0, 1.5, 3.0, 4.5, 6.0, 7.5, 9.0, 3.6, 5.4])
    T1 = np.diag([0.0] * 7 + [5.6, 5.6])
    z = np.zeros((9, 9))
    T = CommutingOperator(T0, T1, z, z)
    c = Contour(E1, (Circle(4.5, 5.0), DiskPair(4.5, 5.6, 1.4)))
    (cu, cv, r), (du, dv, dr) = c.plane_circles()[:2]
    assert math.hypot(cu - du, cv - dv) < r + dr
    for sp in T.spheres:
        assert c.winding(sp.u, sp.v)[0] == 1
    val = apply_calculus(CalculusKind.P2, SlicePoly.monomial(3), T, c)
    assert rel(val, stem_moment(CalculusKind.P2, T, 3)) < 1e-9


# -- one component around a partial selection --------------------------------


def _brute_enclosing_circle(points):
    """Oracle: the smallest circle containing a small set of plane points,
    by trying the circle on every pair and through every triple."""
    pts = [np.array(p, dtype=float) for p in points]
    if len(pts) == 1:
        return pts[0], 0.0

    def covers(center, r2):
        return all(np.sum((p - center) ** 2) <= r2 * (1.0 + 1e-12) + 1e-12 for p in pts)

    best_c, best_r2 = None, math.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            c = 0.5 * (pts[i] + pts[j])
            r2 = float(np.sum((pts[i] - c) ** 2))
            if r2 < best_r2 and covers(c, r2):
                best_c, best_r2 = c, r2
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                c = _circumcenter(pts[i], pts[j], pts[k])
                if c is None:
                    continue
                r2 = float(np.sum((pts[i] - c) ** 2))
                if r2 < best_r2 and covers(c, r2):
                    best_c, best_r2 = c, r2
    return best_c, math.sqrt(best_r2)


def _circumcenter(a, b, c):
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if abs(d) < 1e-14:
        return None
    ux = ((a @ a) * (b[1] - c[1]) + (b @ b) * (c[1] - a[1]) + (c @ c) * (a[1] - b[1])) / d
    uy = ((a @ a) * (c[0] - b[0]) + (b @ b) * (a[0] - c[0]) + (c @ c) * (b[0] - a[0])) / d
    return np.array([ux, uy])


def _old_default_margin(spheres):
    """The margin rule as it was first written, two distance calls a pair."""
    gaps = [spheres[i].distance(spheres[j])
            for i in range(len(spheres)) for j in range(i + 1, len(spheres))
            if spheres[i].distance(spheres[j]) > 0.0]
    if gaps:
        return 0.25 * min(gaps)
    reach = max((math.hypot(sp.u, sp.v) for sp in spheres), default=0.0)
    return 0.5 * (1.0 + reach)


def _cluster(points, threshold):
    """Single-linkage clusters of half-plane points, as lists of indexes
    in order of their first point; merge when closer than threshold."""
    m = len(points)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if math.hypot(points[i][0] - points[j][0],
                          points[i][1] - points[j][1]) < threshold:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=min)


def _per_sphere_contour(spheres, selection, J=E1, N=256):
    """Reference: the rule auto_contour once had for whole-spectrum and
    single-sphere selections, one disk pair or real-centred circle the
    default margin beyond each single-linkage cluster of the selected
    spheres at gap threshold 4 * margin."""
    margin = _old_default_margin(spheres)
    pts = [(sp.u, sp.v) for i, sp in enumerate(spheres) if i in set(selection)]
    components = []
    for group in _cluster(pts, 4.0 * margin):
        gpts = [pts[i] for i in group]
        center, r = _brute_enclosing_circle(gpts)
        if center is not None and center[1] - (r + margin) > 0.0:
            components.append(DiskPair(float(center[0]), float(center[1]), r + margin))
        else:
            c, rr = _axis_centered_radius(gpts)
            components.append(Circle(float(c), rr + margin))
    return Contour(J, tuple(components), N)


def _clustered_operator(seed, n, clusters, on_axis=False, selected=None):
    """(T, V, a, b, selection): T0 = V diag(a) V^-1 and T1 = V diag(b) V^-1,
    T2 = T3 = 0, for a random non-orthogonal V (condition number at most
    3), whose joint eigenvalues a + b e1 lie in clusters about 3 apart,
    0.12 or more from each other; with on_axis, cluster 0 sits near the
    real axis and holds a real point.  selection indexes, in s_spectrum's
    order, the spheres of one cluster of ceil(n / 2)."""
    rng = np.random.default_rng(seed)
    if selected is None:
        selected = int(rng.integers(clusters))
    others = [c for c in range(clusters) if c != selected]
    sizes = [0] * clusters
    sizes[selected] = n - n // 2
    for k in range(n // 2):
        sizes[others[k % len(others)]] += 1
    points, labels = [], []
    for c in range(clusters):
        axis = on_axis and c == 0
        cu = 3.0 * c + rng.uniform(-0.5, 0.5)
        cv = 0.3 if axis else rng.uniform(0.9, 2.0)
        here = [(cu, 0.0)] if axis else []
        while len(here) < sizes[c]:
            u, v = cu + rng.uniform(-0.4, 0.4), cv + rng.uniform(-0.4, 0.4)
            if v >= 0.1 and all(math.hypot(u - p, v - q) >= 0.12 for p, q in points + here):
                here.append((u, v))
        points += here
        labels += [c] * len(here)
    a = np.array([p[0] for p in points])
    b = np.array([p[1] for p in points]) * rng.choice((-1.0, 1.0), size=n)
    G = rng.standard_normal((n, n))
    V = np.eye(n) + 0.5 * G / np.linalg.norm(G, 2)
    Vinv = np.linalg.inv(V)
    z = np.zeros((n, n))
    T = CommutingOperator(V @ np.diag(a) @ Vinv, V @ np.diag(b) @ Vinv, z, z)
    order = sorted(range(n), key=lambda k: points[k])
    got = [(sp.u, sp.v) for sp in T.spheres]
    assert np.allclose(got, [points[k] for k in order], atol=1e-9)
    selection = [pos for pos, k in enumerate(order) if labels[k] == selected]
    return T, V, a, b, selection


CLUSTERED = [(seed, n, clusters, on_axis)
             for seed, (n, clusters, on_axis) in enumerate(
                 [(8, 2, False), (12, 3, False), (5, 2, False), (12, 2, True),
                  (8, 3, True), (8, 2, False), (12, 3, False), (8, 2, True)])]


def _far_root(spheres, selection, center):
    """(D, conjugate): the distance from center to the nearest root that a
    disk pair around the selection must leave out, and whether it is the
    conjugate of a selected sphere."""
    cu, cv = center
    out = [math.hypot(sp.u - cu, w - cv) for i, sp in enumerate(spheres)
           if i not in selection for w in (sp.v, -sp.v)]
    conj = [math.hypot(spheres[i].u - cu, -spheres[i].v - cv) for i in selection]
    return min(out + conj), min(conj) < min(out)


def test_a_clustered_selection_gets_one_disk_pair_of_radius_sqrt_r_d():
    nearest_conjugate = 0
    for seed, n, clusters, on_axis in CLUSTERED:
        T, _, _, _, selection = _clustered_operator(seed, n, clusters, on_axis, 1)
        spheres = T.spheres
        center, r = _brute_enclosing_circle([(spheres[i].u, spheres[i].v)
                                             for i in selection])
        D, conjugate = _far_root(spheres, selection, center)
        nearest_conjugate += conjugate
        c = auto_contour(spheres, selection)
        assert len(c.components) == 1, seed
        (comp,) = c.components
        assert isinstance(comp, DiskPair)
        assert abs(comp.u - center[0]) <= 1e-12 * r and abs(comp.v - center[1]) <= 1e-12 * r
        assert abs(comp.radius - math.sqrt(r * D)) <= 1e-12 * comp.radius, seed
    # the conjugates of the selected spheres set D in some draws
    assert 0 < nearest_conjugate < len(CLUSTERED)


def test_a_cluster_on_the_axis_gets_one_real_centred_circle():
    T, _, _, _, selection = _clustered_operator(3, 12, 2, True, 0)
    spheres = T.spheres
    pts = [(spheres[i].u, spheres[i].v) for i in selection]
    c, r = _axis_centered_radius(pts)
    D = min(math.hypot(sp.u - c, sp.v) for i, sp in enumerate(spheres) if i not in selection)
    assert auto_contour(spheres, selection).components == (Circle(c, math.sqrt(r * D)),)


def test_an_excluded_sphere_inside_the_selection_keeps_the_per_sphere_contour():
    ring = [SpectralSphere(math.cos(t), 3.0 + math.sin(t))
            for t in np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)]
    spheres = ring + [SpectralSphere(0.0, 3.0), SpectralSphere(4.0, 1.0)]
    selection = range(5)
    c = auto_contour(spheres, selection)
    assert c == _per_sphere_contour(spheres, selection)
    assert len(c.components) == 5


def test_a_cluster_too_near_the_axis_keeps_the_per_sphere_contour():
    # the selection's circle would cross the axis, and the real-centred
    # circle around it passes within margin of the excluded sphere above
    spheres = [SpectralSphere(0.0, 0.1), SpectralSphere(0.6, 0.1),
               SpectralSphere(0.3, 0.6)]
    (_, cv), r = _min_enclosing_circle([(0.0, 0.1), (0.6, 0.1)])
    assert math.sqrt(r * math.hypot(0.3, 0.2)) >= cv
    c = auto_contour(spheres, [0, 1])
    assert c == _per_sphere_contour(spheres, [0, 1])
    assert len(c.components) == 2


def test_few_nodes_keep_the_per_sphere_contour_where_the_rule_would_not_converge():
    fell_back = kept = 0
    for (seed, n, clusters, on_axis), selected in itertools.product(CLUSTERED, (None, 1)):
        T, _, _, _, selection = _clustered_operator(seed, n, clusters, on_axis, selected)
        spheres = T.spheres
        center, r = _brute_enclosing_circle([(spheres[i].u, spheres[i].v)
                                             for i in selection])
        D, _ = _far_root(spheres, selection, center)
        c = auto_contour(spheres, selection, N=32)
        if 32 * math.log(D / math.sqrt(r * D)) < -math.log(np.finfo(float).eps):
            assert c == _per_sphere_contour(spheres, selection, N=32), seed
            fell_back += 1
        elif center[1] > math.sqrt(r * D):
            assert len(c.components) == 1, seed
            kept += 1
    assert fell_back >= len(CLUSTERED) and kept >= 1


def test_whole_and_single_sphere_selections_keep_the_per_sphere_contour():
    """4 * default_margin is the smallest gap between distinct spheres,
    measured as _cluster measures it, so single linkage never joined two
    spheres and each selected sphere gets its own component."""
    rng = np.random.default_rng(19)
    cases = [_clustered_operator(*case)[0] for case in CLUSTERED]
    cases += [random_commuting_operator(rng, n) for n in (2, 3, 4, 1, 8, 16, 32, 64)]
    cases += [CommutingOperator(*(s * C for C in corpus.operator(B, t1).components))
              for B in corpus.BASES.values() for t1 in (0.0, 0.3)
              for s in (2.0 ** -40, 1.0, 2.0 ** 40)]
    for T in cases:
        spheres = T.spheres
        everything = range(len(spheres))
        assert auto_contour(spheres, everything) == _per_sphere_contour(spheres, everything)
        for i in everything:
            assert auto_contour(spheres, [i]) == _per_sphere_contour(spheres, [i])


def test_default_margin_is_the_old_rule_bit_for_bit():
    rng = np.random.default_rng(23)
    for m in range(1, 12):
        spheres = [SpectralSphere(float(u), abs(float(v)))
                   for u, v in rng.standard_normal((m, 2))]
        spheres += spheres[:m // 3]            # zero gaps are skipped
        assert default_margin(spheres) == _old_default_margin(spheres)


def _scaled(comp, s):
    if isinstance(comp, Circle):
        return Circle(s * comp.center, s * comp.radius, comp.orientation)
    return DiskPair(s * comp.u, s * comp.v, s * comp.radius, comp.orientation)


@pytest.mark.parametrize("N", [32, 256])
def test_the_contour_of_a_power_of_two_times_t_is_scaled_exactly(N):
    for seed, n, clusters, on_axis in CLUSTERED[:5]:
        T, _, _, _, selection = _clustered_operator(seed, n, clusters, on_axis,
                                                    0 if on_axis else None)
        c = auto_contour(T.spheres, selection, N=N)
        for k in range(-60, 61, 4):
            s = 2.0 ** k
            Ts = CommutingOperator(*(s * C for C in T.components))
            cs = auto_contour(Ts.spheres, selection, N=N)
            assert cs.components == tuple(_scaled(comp, s) for comp in c.components), (seed, k)


def _shapes(rng, m, shape):
    """m plane points: scattered, with duplicates, on a line, or on a circle."""
    if shape == 0:
        return rng.standard_normal((m, 2))
    if shape == 1:
        P = rng.standard_normal((m, 2))
        P[rng.integers(0, m, size=m // 2 + 1)] = P[0]
        return P
    if shape == 2:
        return rng.standard_normal(2) + rng.standard_normal(m)[:, None] * rng.standard_normal(2)
    t = rng.uniform(0.0, 2.0 * math.pi, m)
    return rng.standard_normal(2) + rng.uniform(0.5, 2.0) * np.c_[np.cos(t), np.sin(t)]


def test_welzl_matches_the_brute_force_circle():
    rng = np.random.default_rng(29)
    for trial in range(500):
        pts = [tuple(p) for p in _shapes(rng, int(rng.integers(1, 13)), trial % 4)]
        (cu, cv), r = _min_enclosing_circle(pts)
        c0, r0 = _brute_enclosing_circle(pts)
        scale = max(r0, abs(c0[0]), abs(c0[1]))
        assert abs(r - r0) <= 1e-12 * scale, trial
        assert math.hypot(cu - c0[0], cv - c0[1]) <= 1e-12 * scale, trial
        assert max(math.hypot(u - cu, v - cv) for u, v in pts) <= r * (1.0 + 1e-12), trial


def test_welzl_is_fast_on_many_points():
    pts = [tuple(p) for p in np.random.default_rng(31).standard_normal((2048, 2))]
    start = time.perf_counter()
    (cu, cv), r = _min_enclosing_circle(pts)
    assert time.perf_counter() - start < 0.5
    assert max(math.hypot(u - cu, v - cv) for u, v in pts) <= r * (1.0 + 1e-12)


@pytest.mark.parametrize("kind", list(CalculusKind))
def test_projector_on_the_auto_contour_is_the_exact_projector(kind):
    """On real joint eigenvalues a + b e1 both roots of each lie on one
    sphere, so the projector is V diag(chi) V^-1, chi the winding number
    about each sphere."""
    for seed, n, clusters, on_axis in CLUSTERED[:5]:
        T, V, a, b, selection = _clustered_operator(seed, n, clusters, on_axis,
                                                    0 if on_axis else None)
        for N in (64, 256, 1024):
            c = auto_contour(T.spheres, selection, N=N)
            chi = c.winding(a, np.abs(b))[0]
            assert chi.sum() == len(selection)
            exact = QuatMatrix.from_real(V @ np.diag(chi.astype(float)) @ np.linalg.inv(V))
            P = riesz_projector(kind, T, c)
            assert (P - exact).norm() <= 1e-11 * exact.norm(), (seed, N)


# -- stability of calculus outputs under discretization choices ---------------


def test_s_calculus_of_one_is_identity(rng):
    T = random_commuting_operator(rng, 2)
    c = enclosing_circle(s_spectrum(T), margin=0.6, N=256)
    val = apply_calculus(CalculusKind.S, SlicePoly.monomial(0), T, c)
    assert rel(val, QuatMatrix.identity(2)) < 1e-9


def test_j_independence(rng):
    T = random_commuting_operator(rng, 2)
    f = SlicePoly("left", [Quaternion(c) for c in (0.2, 1.0, -0.5, 0.3)])
    vals = []
    for _ in range(3):
        J = random_imaginary_unit(rng)
        c = enclosing_circle(s_spectrum(T), margin=0.6, J=J, N=256)
        vals.append(apply_calculus(CalculusKind.P2, f, T, c))
    assert rel(vals[0], vals[1]) < 1e-10
    assert rel(vals[0], vals[2]) < 1e-10


def test_contour_deformation_independence(rng):
    T = random_commuting_operator(rng, 2)
    f = SlicePoly.monomial(2)
    spheres = s_spectrum(T)
    a = apply_calculus(CalculusKind.F, f, T, enclosing_circle(spheres, 0.5, N=256))
    b = apply_calculus(CalculusKind.F, f, T, enclosing_circle(spheres, 0.9, N=256))
    assert rel(a, b) < 1e-10


def _ternary_axis_radius(points):
    """Oracle: 200 rounds of ternary search for the real centre c that
    minimizes the max distance from (c, 0) to the points."""
    lo, hi = min(u for u, _ in points), max(u for u, _ in points)
    radius_at = lambda c: max(math.hypot(u - c, v) for u, v in points)
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if radius_at(m1) <= radius_at(m2):
            hi = m2
        else:
            lo = m1
    c = 0.5 * (lo + hi)
    return c, radius_at(c)


def test_axis_centered_radius_against_ternary_search():
    rng = np.random.default_rng(77)
    for _ in range(400):
        m = int(rng.integers(1, 10))
        scale = 10.0 ** rng.uniform(-3, 3)
        u = rng.standard_normal(m) * scale
        v = np.abs(rng.standard_normal(m)) * scale
        v[rng.random(m) < 0.3] = 0.0          # real points
        if rng.random() < 0.2:
            u[:] = u[0]                        # one vertical line
        pts = [(float(a), float(b)) for a, b in zip(u, v)]
        sym = pts + [(a, -b) for a, b in pts if b != 0.0]
        c0, r0 = _ternary_axis_radius(sym)
        c, r = _axis_centered_radius(sym)
        assert (c, r) == _axis_centered_radius(pts)   # mirrors change nothing
        assert r == max(math.hypot(a - c, b) for a, b in sym)
        assert r <= r0 * (1.0 + 1e-15)
        assert abs(c - c0) <= 1e-7 * max(r0, abs(c0))


def test_axis_centered_radius_exact_cases():
    assert _axis_centered_radius([(2.0, 3.0)]) == (2.0, 3.0)
    assert _axis_centered_radius([(0.0, 1.0), (2.0, 1.0)]) == (1.0, math.sqrt(2.0))
    # the tall point dominates: the centre sits under it
    assert _axis_centered_radius([(0.0, 5.0), (1.0, 0.0), (-1.0, 0.0)]) == (0.0, 5.0)


def _unique_axis_radius(points):
    """_axis_centered_radius as first written, its candidates from
    np.unique."""
    u, v = np.asarray(points, dtype=float).T
    i, j = np.nonzero(u[:, None] < u[None, :])
    crossings = 0.5 * ((u[i] + u[j]) + (v[i] - v[j]) * (v[i] + v[j]) / (u[i] - u[j]))
    candidates = np.unique(np.concatenate([u, crossings]))
    radius_at = lambda c: float(np.max(np.hypot(u - c, v)))
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if radius_at(candidates[mid]) <= radius_at(candidates[mid + 1]):
            hi = mid
        else:
            lo = mid + 1
    c = float(candidates[lo])
    return c, radius_at(c)


def _axis_point_sets(rng, trial):
    """Plane points (u, v), v >= 0, of seven kinds, at scales 2^-40..2^40."""
    kind, m = trial % 7, int(rng.integers(2, 10))
    if kind == 0:                                   # a single point
        P = rng.standard_normal((1, 2))
    elif kind == 1:                                 # repeated u, different v
        P = np.c_[rng.choice(rng.integers(-3, 4, 3), m), rng.standard_normal(m)]
    elif kind == 2:                                 # a crossing lands on a u
        a, b = rng.integers(-4, 5, 2)
        w = float(rng.integers(1, 4))
        P = np.array([(a, w), (b, w), (0.5 * (a + b), rng.integers(0, 3))])
    elif kind == 3:                                 # +0.0 and -0.0
        P = np.c_[rng.choice([0.0, -0.0, 1.0, -1.0], m), rng.integers(0, 3, m)]
    elif kind == 6:                                 # NaN crossings
        return [(float(u), 1e308) for u in rng.standard_normal(3)]
    else:                                           # collinear, cocircular
        P = _shapes(rng, m, kind - 2)
    P = P * 2.0 ** int(rng.choice([-40, -1, 0, 1, 40]))
    return [(float(u), abs(float(v))) for u, v in P]


def test_axis_centered_radius_is_the_np_unique_one_bit_for_bit():
    rng = np.random.default_rng(97)
    negative_zero = 0
    for trial in range(500):
        pts = _axis_point_sets(rng, trial)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _axis_centered_radius(pts), _unique_axis_radius(pts)
        assert np.array(got).tobytes() == np.array(want).tobytes(), (trial, pts)
        negative_zero += got[0] == 0.0 and math.copysign(1.0, got[0]) < 0
    assert negative_zero > 0


# -- serialization ------------------------------------------------------------


def test_contour_json_roundtrip(tmp_path):
    c = Contour(E2, (Circle(0.5, 1.5, -1), DiskPair(0.0, 2.0, 0.3)), 48)
    path = tmp_path / "c.json"
    save_contour(c, path)
    back = load_contour(path)
    assert back == c
    assert contour_from_dict(contour_to_dict(c)) == c


def test_contour_bad_documents():
    with pytest.raises(InputError):
        contour_from_dict({"circles": []})
    with pytest.raises(InputError):
        contour_from_dict({"J": [0, 1, 0, 0], "circles": [{"radius": 1.0}]})


def test_node_count_is_bounded_on_every_contour():
    # building a contour allocates no nodes, so the bound itself is cheap to try
    circle = Circle(0.0, 1.0)
    assert Contour(E1, (circle,), MAX_NODES).nodes_per_circle == MAX_NODES
    with pytest.raises(InputError, match="at most"):
        Contour(E1, (circle,), MAX_NODES + 1)
    with pytest.raises(InputError, match="at most"):
        Contour(E1, (circle,), MAX_NODES).with_nodes(MAX_NODES + 1)
    with pytest.raises(InputError, match="at most"):
        auto_contour([SpectralSphere(0.0, 1.0)], [0], N=MAX_NODES + 1)
    with pytest.raises(InputError, match="at most"):
        contour_from_dict({"J": [0, 1, 0, 0], "circles": [{"center": 0.0, "radius": 1.0}],
                           "nodes": MAX_NODES + 1})


@pytest.mark.parametrize("boundary", [
    [(0.0, 0.0), (1.0, 1.0), (3.0, 3.0)],
    [(2.0, 0.5), (-1.0, 0.5), (0.5, 0.5)],
    [(0.0, 1.0), (0.0, 4.0), (0.0, 2.0)],
])
def test_collinear_triple_gets_the_circle_on_its_farthest_pair(boundary):
    from sspectrum.contour import _circle_through

    (cu, cv), r = _circle_through(boundary)
    ends = max(itertools.combinations(boundary, 2),
               key=lambda pair: math.dist(*pair))
    assert (cu, cv) == (0.5 * (ends[0][0] + ends[1][0]), 0.5 * (ends[0][1] + ends[1][1]))
    assert r == pytest.approx(0.5 * math.dist(*ends), rel=1e-15)
    for u, v in boundary:
        assert math.hypot(u - cu, v - cv) <= r * (1 + 1e-15)
