"""Discretized slice contours and the two one-sided quadrature pairings.

A contour lives in one plane C_J and is a union of circles, each either
centered on the real axis or given as a conjugate disk pair expanding to
circles around u + Jv and u - Jv.  The trapezoid rule on a circle is
spectrally accurate for integrands holomorphic in a surrounding annulus,
which every kernel is away from the S-spectrum, so node counts in the
hundreds already reach 1e-12 territory.

Node and weight convention for a circle centered at z0 with radius r:

    s_k = z0 + r exp(J theta_k),  theta_k = 2 pi k / N
    w_k = orientation * (2 pi / N) * r * exp(J theta_k)

which realizes the oriented measure ds (-J) under s(theta).  The cosines
and sines of the second half of the ring are the exact mirror of the
first, so the node set of every circle and disk pair is closed under
conjugation bit for bit, and ``integrate`` hands ``kernel_sum`` only
the nodes on or above the real axis of C_J, with the weights of their
conjugates.

A contour suits a computation when its winding number about each
spectral point, ``Contour.winding``, meets the caller's rule with the
boundary clear of the point; ``check_winding`` enforces both.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import (GeometryError, InputError, NumericError, PreconditionError,
                     read_document, read_numbers)
from .kernels import CalculusKind, kernel_sum
from .operators import CommutingOperator
from .qlinalg import QuatMatrix, in_plane, qmul_arr
from .quat import E1, Quaternion, imaginary_unit

__all__ = [
    "Circle",
    "DiskPair",
    "Contour",
    "check_winding",
    "integrate",
    "auto_contour",
    "enclosing_circle",
    "load_contour",
    "save_contour",
]

DEFAULT_NODES = 256
MIN_NODES = 8
# 16 times the 4096 nodes that the trapezoid rule was seen to need on
# random n = 4 operators; each circle allocates arrays of this length
MAX_NODES = 65_536


@dataclass(frozen=True)
class Circle:
    """Circle centered on the real axis."""

    center: float
    radius: float
    orientation: int = 1

    def plane_circles(self):
        return ((self.center, 0.0, self.radius),)


@dataclass(frozen=True)
class DiskPair:
    """Conjugate pair of circles around u + Jv and u - Jv, v > 0."""

    u: float
    v: float
    radius: float
    orientation: int = 1

    def plane_circles(self):
        return ((self.u, self.v, self.radius), (self.u, -self.v, self.radius))


@dataclass(frozen=True)
class Contour:
    J: Quaternion
    components: tuple
    nodes_per_circle: int = DEFAULT_NODES

    def __post_init__(self):
        object.__setattr__(self, "J", imaginary_unit(self.J))
        object.__setattr__(self, "components", tuple(self.components))
        for comp in self.components:
            if not isinstance(comp, (Circle, DiskPair)):
                raise InputError("contour components must be Circle or DiskPair")
            if comp.radius <= 0.0:
                raise GeometryError("circle radii must be positive")
            if isinstance(comp, DiskPair) and comp.radius >= comp.v:
                raise GeometryError(
                    "disk pair radius must stay below v to avoid the real axis")
            # type(...) is int: True or 1.0 would pass, and be saved as such
            if type(comp.orientation) is not int or comp.orientation not in (-1, 1):
                raise InputError(f"orientation {comp.orientation!r} is not +1 or -1")
        check_nodes(self.nodes_per_circle)
        if self.components and self.nodes_per_circle < MIN_NODES:
            raise InputError(f"need at least {MIN_NODES} nodes per circle")

    def with_nodes(self, N: int) -> "Contour":
        return Contour(self.J, self.components, N)

    def plane_circles(self):
        """All circles as (center u, center v, radius) triples in C_J."""
        out = []
        for comp in self.components:
            out.extend(comp.plane_circles())
        return out

    @cached_property
    def _circle_table(self):
        """(4, C): centre u, centre v, radius and orientation of every
        circle in C_J, in plane_circles order."""
        return np.array([(cu, cv, r, comp.orientation) for comp in self.components
                         for (cu, cv, r) in comp.plane_circles()],
                        dtype=np.float64).reshape(-1, 4).T

    def winding(self, u, v):
        """(turns, gap) of the points u + Jv, for u and v numbers or
        arrays that broadcast together: the winding number of each, the
        sum of the orientations of the circles containing it, as ints,
        and its distance to the nearest boundary circle, inf for a
        contour without circles.  One table over points and circles."""
        cu, cv, r, orientation = self._circle_table
        d = np.hypot(np.subtract.outer(u, cu), np.subtract.outer(v, cv))
        turns = ((d < r) @ orientation).astype(int)
        return turns, np.abs(d - r).min(axis=-1, initial=np.inf)


def check_nodes(N) -> None:
    """Raise InputError unless N is an int of at most MAX_NODES: the one
    test of a node count, for contours and --nodes alike."""
    if type(N) is not int:
        raise InputError(f"nodes per circle {N!r} is not an integer")
    if N > MAX_NODES:
        raise InputError(f"at most {MAX_NODES} nodes per circle, got {N}")


def check_winding(c: Contour, points, turns, what: str) -> None:
    """Raise GeometryError unless, for every (u, v, clearance) in points,
    c winds about both u + Jv and u - Jv a number of times in turns, and
    every boundary circle passes farther than clearance from them.  Every
    contour is closed under conjugation, and its table at u - Jv is the
    one at u + Jv bit for bit, so only u + Jv is looked up."""
    u, v, clearance = np.array(points, dtype=np.float64).reshape(-1, 3).T
    t, gap = c.winding(u, v)
    bad = (t[:, None] != sorted(turns)).all(axis=-1) | ~(gap > clearance)
    if bad.any():
        k = int(np.argmax(bad))
        raise GeometryError(
            f"contour winds {t[k]} times about {what} ({u[k]}, {v[k]}), "
            f"{gap[k]:.3e} from its boundary; needs a winding number in "
            f"{sorted(turns)} and a distance above {clearance[k]:.3e}")


def node_arrays(c: Contour):
    """Vectorized nodes: two (M, 4) arrays of points and weights.

    The node set is exactly closed under conjugation in C_J (see
    slice_nodes), so a DiskPair's lower circle mirrors its upper circle
    bit for bit."""
    z, w, _, _ = slice_nodes(c)
    J = c.J.as_array()
    return in_plane(z, J), in_plane(w, J)


def _ring(N):
    """cos and sin of 2 pi k / N, k < N, with the second half the exact
    mirror of the first: cos[N - k] == cos[k], sin[N - k] == -sin[k],
    and sin == 0 at k = 0 and k = N / 2."""
    half = N // 2
    theta = 2.0 * np.pi * np.arange(half + 1) / N
    cos, sin = np.cos(theta), np.sin(theta)
    if N % 2 == 0:
        cos[half], sin[half] = -1.0, 0.0
    tail = slice((N + 1) // 2 - 1, 0, -1)
    return np.concatenate((cos, cos[tail])), np.concatenate((sin, -sin[tail]))


def slice_nodes(c: Contour):
    """Nodes and weights as complex numbers a + ib standing for a + bJ in
    C_J, and their pairing under conjugation, from the contour's
    structure: (z, w, upper, mirror).

    z and w are (M,) in node_arrays order.  upper (U,) indexes the nodes
    on or above the real axis, and mirror (U,) the conjugate node of
    each, or -1 for a real node: node N - k of a Circle mirrors node k,
    nodes 0 and N / 2 are real, and node (N - k) mod N of a DiskPair's
    lower circle mirrors node k of its upper circle.
    """
    N = c.nodes_per_circle
    cos, sin = _ring(N)
    zs, ws, upper, mirror = [], [], [], []
    base = 0
    for comp in c.components:
        circles = comp.plane_circles()
        for (cu, cv, r) in circles:
            scale = comp.orientation * 2.0 * np.pi / N * r
            zs.append(_complex(cu + r * cos, cv + r * sin))
            ws.append(_complex(scale * cos, scale * sin))
        if isinstance(comp, Circle):
            top = np.arange(N // 2 + 1)
            upper.append(base + top)
            mirror.append(np.where((top == 0) | (2 * top == N), -1, base + N - top))
        else:
            k = np.arange(N)
            upper.append(base + k)
            mirror.append(base + N + (N - k) % N)
        base += len(circles) * N
    if not zs:
        empty = np.zeros(0, dtype=np.complex128)
        return empty, empty, np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    return (np.concatenate(zs), np.concatenate(ws),
            np.concatenate(upper), np.concatenate(mirror))


def _complex(re, im):
    out = np.empty(len(re), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def integrate(c: Contour, kind: CalculusKind, T: CommutingOperator, stems):
    """Discrete pairings of one kind's kernel of T with a list of stems
    of one side, from one pass over the kernel: one value per stem.

    The stems' side picks the kernel's form: left stems accumulate
    K_L(s_k) w_k f(s_k), right stems f(s_k) w_k K_R(s_k).  No prefactor
    is applied.  Each stem has a ``side`` and a batched ``at_nodes``
    method; stems of two sides raise PreconditionError, and no stems
    give [].  The pairing goes through kernels.kernel_sum, which is
    handed the nodes on or above the real axis and folds in their
    conjugates from the contour's structure.  It sums in T's joint
    eigenbasis, one eig per operator, and inverts one pencil per node
    only where T has no eigenbasis or the basis's condition bound fails
    at a node.  Results are reproducible for a fixed machine and BLAS
    thread count.  Stem values or sums that overflow raise NumericError.
    """
    stems = list(stems)
    if not stems:
        return []
    side = stems[0].side
    if any(g.side != side for g in stems):
        raise PreconditionError("integrate needs a common stem side")
    z, w, upper, mirror = slice_nodes(c)
    if len(z) == 0:
        return [QuatMatrix.zeros(T.n) for _ in stems]
    J = c.J.as_array()
    s_arr, w_arr = in_plane(z, J), in_plane(w, J)
    weights = np.stack([_weights(g, s_arr, w_arr) for g in stems])
    if not np.all(np.isfinite(weights)):
        raise NumericError("stem values at the contour nodes are not finite")
    paired = mirror >= 0
    c_conj = np.zeros((len(stems), len(upper), 4))
    c_conj[:, paired] = weights[:, mirror[paired]]
    vals = kernel_sum(kind, T, J, z[upper], weights[:, upper], side, c_conj, upper)
    if not np.all(np.isfinite(vals)):
        raise NumericError("the contour sum is not finite")
    return [QuatMatrix(v) for v in vals]


def _weights(f, s_arr, w_arr):
    """w_k f(s_k) (left stem) or f(s_k) w_k (right stem) at every node, (M, 4)."""
    fvals = f.at_nodes(s_arr)
    return qmul_arr(w_arr, fvals) if f.side == "left" else qmul_arr(fvals, w_arr)


# ---------------------------------------------------------------------------
# automatic contour construction around spectral spheres


def _min_enclosing_circle(points):
    """((u, v), r): the smallest circle containing the plane points, by
    Welzl's move-to-front algorithm, expected linear in their number.

    The points are visited in a fixed pseudo-random order, and every
    point found outside moves to the front, so the result is the same on
    every call.  Only products, sums and square roots of the coordinates
    enter, so scaling the points by a power of two scales the circle by
    it exactly."""
    pts = [(float(u), float(v)) for u, v in points]
    random.Random(0).shuffle(pts)
    return _mtf_circle(pts, len(pts), ())


def _mtf_circle(pts, end, boundary):
    """Smallest circle through the boundary points (at most three) that
    contains pts[:end]; moves each point it finds outside to the front."""
    (cu, cv), r = _circle_through(boundary)
    if len(boundary) == 3:
        return (cu, cv), r
    r2 = _cover2(r)
    for i in range(end):
        pu, pv = p = pts[i]
        if (pu - cu) * (pu - cu) + (pv - cv) * (pv - cv) > r2:
            (cu, cv), r = _mtf_circle(pts, i, boundary + (p,))
            r2 = _cover2(r)
            pts.insert(0, pts.pop(i))
    return (cu, cv), r


def _cover2(r):
    """Squared distance up to which a point counts as inside a circle of
    radius r: 1e-12 r beyond it, so rounding in a circumcentre cannot put
    its own boundary points outside; -1 for the empty circle."""
    return r * r * (1.0 + 1e-12) if r >= 0.0 else -1.0


def _circle_through(boundary):
    """Smallest circle through up to three points; a collinear triple gets
    the circle on its farthest pair.  No points give the empty circle,
    radius -1."""
    if not boundary:
        return (0.0, 0.0), -1.0
    if len(boundary) == 1:
        return boundary[0], 0.0
    if len(boundary) == 3:
        (au, av), (bu, bv), (qu, qv) = boundary
        bu, bv, qu, qv = bu - au, bv - av, qu - au, qv - av
        d = 2.0 * (bu * qv - bv * qu)
        if d != 0.0:
            b2, q2 = bu * bu + bv * bv, qu * qu + qv * qv
            cu, cv = (qv * b2 - bv * q2) / d, (bu * q2 - qu * b2) / d
            r = max(math.sqrt(cu * cu + cv * cv),
                    math.sqrt((cu - bu) ** 2 + (cv - bv) ** 2),
                    math.sqrt((cu - qu) ** 2 + (cv - qv) ** 2))
            return (au + cu, av + cv), r
        a, b, q = boundary
        boundary = max(((a, b), (a, q), (b, q)),
                       key=lambda pair: (pair[0][0] - pair[1][0]) ** 2
                       + (pair[0][1] - pair[1][1]) ** 2)
    (au, av), (bu, bv) = boundary
    cu, cv = 0.5 * (au + bu), 0.5 * (av + bv)
    return (cu, cv), math.sqrt((au - cu) ** 2 + (av - cv) ** 2)


def _axis_centered_radius(points):
    """Minimize over real c the max distance from (c, 0) to the points.

    The squared distances (u_i - c)^2 + v_i^2 are parabolas in c of equal
    curvature, so their strictly convex maximum is least at some u_i or
    where two parabolas cross; bisection over those candidates finds it.
    The candidates are deduplicated by np.unique's own sort and adjacent
    test, which keep the same NaN and the same one of +-0.0; a call of
    np.unique would import numpy.ma, a megabyte no command otherwise
    needs.
    """
    u, v = np.asarray(points, dtype=float).T
    i, j = np.nonzero(u[:, None] < u[None, :])
    crossings = 0.5 * ((u[i] + u[j]) + (v[i] - v[j]) * (v[i] + v[j]) / (u[i] - u[j]))
    s = np.sort(np.concatenate([u, crossings]))
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = (s[1:] != s[:-1]) & ~np.isnan(s[:-1])
    candidates = s[keep]
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


def default_margin(spheres) -> float:
    """0.25 of the smallest gap between distinct spheres; for a single
    sphere, half of (1 + its distance from the origin)."""
    gaps = [d for i in range(len(spheres)) for j in range(i + 1, len(spheres))
            if (d := spheres[i].distance(spheres[j])) > 0.0]
    if gaps:
        return 0.25 * min(gaps)
    reach = max((math.hypot(sp.u, sp.v) for sp in spheres), default=0.0)
    return 0.5 * (1.0 + reach)


def auto_contour(spheres, selection, J: Quaternion = E1,
                 N: int = DEFAULT_NODES) -> Contour:
    """Union of circles that winds once about exactly the selected spheres.

    The margin is default_margin(spheres).  A selection of two or more
    spheres that leaves at least one out gets one component around all
    of it where its N-node trapezoid rule converges to rounding and it
    clears every sphere by margin (_one_component).  Otherwise, and for
    whole-spectrum and single-sphere selections, each distinct selected
    sphere (u, v) gets the conjugate disk pair of radius margin around
    it where v > margin, and the real-centred circle of radius v + margin
    otherwise.  The result is checked with check_winding: it winds once
    about every selected sphere and not at all about an excluded one,
    with every boundary clear of both by margin (1 - 1e-9).  A component
    whose geometry overflows the float range raises NumericError.
    """
    spheres = list(spheres)
    chosen = set(int(i) for i in selection)
    selection = sorted(chosen)
    for i in selection:
        if not 0 <= i < len(spheres):
            raise InputError(f"selection index {i} out of range")
    margin = default_margin(spheres)
    if margin <= 0.0:
        raise GeometryError("the spheres are too close for a positive margin")
    selected = [spheres[i] for i in selection]
    excluded = [sp for i, sp in enumerate(spheres) if i not in chosen]
    if not selected:
        return Contour(J, (), N)

    pts = [(sp.u, sp.v) for sp in selected]
    one = None
    if len(selected) >= 2 and excluded:
        try:
            one = _one_component(pts, [(sp.u, sp.v) for sp in excluded], margin, N)
        except OverflowError as exc:
            raise NumericError("the contour around the selected spheres "
                               "overflows the float range") from exc
    if one is not None:
        components = (one,)
    else:
        components = tuple(DiskPair(float(u), float(v), margin) if v - margin > 0.0
                           else Circle(float(u), float(v) + margin)
                           for u, v in dict.fromkeys(pts))
    contour = Contour(J, components, N)
    slack = margin * (1.0 - 1e-9)
    check_winding(contour, [(sp.u, sp.v, slack) for sp in selected], {1}, "selected sphere")
    check_winding(contour, [(sp.u, sp.v, slack) for sp in excluded], {0}, "excluded sphere")
    return contour


def _one_component(inner, outer, margin, N):
    """One circle or disk pair around every inner point (u, v) that
    leaves every outer point outside, or None where its N-node rule
    would not converge to rounding or it would pass within margin of a
    point.

    The kernels have poles at both roots u + Jv and u - Jv of every
    sphere.  With the roots to enclose within r of the centre and the
    nearest root to leave out D from it, the trapezoid rule on radius R
    errs by about (r/R)^N + (R/D)^N (Trefethen & Weideman, SIAM Rev.
    2014), which R = sqrt(r D) balances; the component is kept when that
    error is below eps, N ln(D/R) >= ln(1/eps).  The centre is the inner
    points' smallest enclosing circle, and the component a disk pair
    when R stays below its v, with the conjugates of the inner points
    among the roots to leave out.  Otherwise it is a real-centred circle
    around them, which encloses their conjugates too.
    """
    (cu, cv), r = _min_enclosing_circle(inner)
    roots = outer + [(u, -v) for u, v in outer + inner]
    D = min(math.hypot(u - cu, v - cv) for u, v in roots)
    R = math.sqrt(r * D)
    if R < cv:
        component = DiskPair(cu, cv, R)
    else:
        cu, r = _axis_centered_radius(inner)
        D = min(math.hypot(u - cu, v) for u, v in outer)
        R = math.sqrt(r * D)
        component = Circle(cu, R)
    if (R - r > margin and D - R > margin
            and N * math.log(D / R) >= -math.log(sys.float_info.epsilon)):
        return component
    return None


def enclosing_circle(spheres, margin: float, J: Quaternion = E1,
                     N: int = DEFAULT_NODES) -> Contour:
    """One real-centered circle around the whole spectrum, margin beyond it."""
    spheres = list(spheres)
    if not spheres:
        return Contour(J, (), N)
    c, r = _axis_centered_radius([(sp.u, sp.v) for sp in spheres])
    return Contour(J, (Circle(float(c), r + margin),), N)


# ---------------------------------------------------------------------------
# file format


def contour_from_dict(doc) -> Contour:
    """Parse a contour document; every schema violation is an InputError."""
    if not (isinstance(doc, dict) and isinstance(doc.get("circles"), list)
            and isinstance(doc.get("J"), list)):
        raise InputError("contour document needs a list 'circles' and an array 'J'")
    try:
        comps = [_component_from_dict(item) for item in doc["circles"]]
    except KeyError as exc:
        raise InputError(f"bad contour document: {type(exc).__name__}: {exc}") from exc
    J = read_numbers(doc["J"], "contour 'J'")
    if J.ndim != 1:
        raise InputError("contour 'J' must be a flat array")
    return Contour(imaginary_unit(J), tuple(comps), doc.get("nodes", DEFAULT_NODES))


def _component_from_dict(item):
    if not isinstance(item, dict):
        raise InputError("each circle must be an object")
    orientation = item.get("orientation", 1)
    if "center" in item:
        return Circle(_finite(item, "center"), _finite(item, "radius"), orientation)
    if "u" in item:
        return DiskPair(_finite(item, "u"), _finite(item, "v"),
                        _finite(item, "radius"), orientation)
    raise InputError("each circle needs 'center' or a ('u', 'v') pair")


def _finite(item, key) -> float:
    value = read_numbers(item[key], f"circle '{key}'")
    if value.ndim != 0:
        raise InputError(f"circle '{key}' must be a number")
    return float(value)


def contour_to_dict(c: Contour) -> dict:
    return {"J": [c.J.w, c.J.x, c.J.y, c.J.z],
            "circles": [asdict(comp) for comp in c.components],
            "nodes": c.nodes_per_circle}


def load_contour(path) -> Contour:
    return contour_from_dict(read_document(path, "contour"))


def save_contour(c: Contour, path) -> None:
    with open(path, "w") as fh:
        json.dump(contour_to_dict(c), fh)
