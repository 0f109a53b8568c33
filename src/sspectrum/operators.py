"""Operators T = T0 + T1 e1 + T2 e2 + T3 e3 with commuting real components.

The S-spectrum of such an operator is where the real quadratic pencil
Q(s) = s^2 I - 2 s T0 + K, K = T0^2 + T1^2 + T2^2 + T3^2, is singular.
One rule (s_spectrum) makes its spheres from the joint eigenvalues of
the components.  They are read off the joint eigenbasis
(``joint_eigenbasis``) where it is accurate enough, so that one eig
serves the spectrum and every contour sum, and otherwise off one complex
Schur form of a generic combination of the components (a Jordan block,
or a basis too ill-conditioned for the bound).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (CommutationError, EigenvalueError, InputError,
                     read_document, read_numbers)
from .qlinalg import QuatMatrix
from .quat import Quaternion, SpectralSphere

__all__ = [
    "CommutingOperator",
    "gram",
    "qcs_op",
    "s_spectrum",
    "load_operator",
    "save_operator",
]

COMMUTATION_RTOL = 1e-10
PAIRING_RTOL = 1e-8
# sigma_min(C - z I) below this multiple of eps |C|_F makes z an
# eigenvalue of the matrix C to working precision.  Halfway points inside
# a split multiple eigenvalue measured at most 0.42 on Jordan blocks of
# sizes 2-6 under random similarities of condition <= 3, and at least
# 1.2e8 between distinct eigenvalues 1e-6 apart.
CLUSTER_SIGMA_RTOL = 100.0
EPS = float(np.finfo(np.float64).eps)
# Matrix entries per batch (items times n^2) of the midpoint tests here
# and of the kernels' per-node path, so that each work array stays
# within a megabyte however many pairs or nodes.
BATCH_ENTRIES = 1 << 16
REAL_SPECTRUM_RTOL = 1e-8
# The largest n of an operator document: the spectrum of a random operator
# took 0.6-0.9 s at n = 512 and 3-5 s at n = 1024 on 2 CPUs (the basis's
# eig, or the Schur route) and grows as n^3, to about 40 s at 2048.  A
# Jordan block under a rotation is slower, one n x n SVD per midpoint
# test: 5 s at n = 256.
MAX_DIMENSION = 2048
# Weights of the combination whose eigenvectors are the joint eigenbasis:
# 1, sqrt(5) - 2, sqrt(2) - 1 and sqrt(3) - 1 are linearly independent
# over the rationals, so two joint eigenvalues whose components differ
# by small rationals (every hand-written operator) stay apart in it.
EIGENBASIS_MIX = (1.0, 0.2360679774997897, 0.41421356237309515, 0.7320508075688772)
# The square root of kernels.COND_LIMIT: above it the kernels' per-node
# bound n kappa_2(V)^2 max|q| / min|q| exceeds COND_LIMIT at every node
# of every contour, so the basis could never be used.
EIGENBASIS_KAPPA_LIMIT = 1e6
# The residual of a basis is a backward error: values computed through it
# are those of an operator within this multiple of ||T|| of T.  The
# benchmark's operators leave at most 5.5e-13 (n = 32, kappa_2(V) = 80);
# 1e-10 keeps the perturbation two decades below the default --tol 1e-8.
EIGENBASIS_RTOL = 1e-10
# s_spectrum reads the spheres off a basis only when kappa_2(V) times its
# residual (at least eps) at unit scale, a first-order (Bauer-Fike) bound
# on the error of the joint eigenvalues, stays two decades below the
# distance at which two of them are linked as one point.
JOINT_SPECTRUM_BOUND = 1e-2 * PAIRING_RTOL


@dataclass(frozen=True)
class CommutingOperator:
    """Finite-dimensional operator with pairwise commuting components."""

    T0: np.ndarray
    T1: np.ndarray
    T2: np.ndarray
    T3: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        comps = []
        n = None
        for name in ("T0", "T1", "T2", "T3"):
            M = np.asarray(getattr(self, name), dtype=np.float64)
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise InputError(f"component {name} must be a square matrix")
            if n is None:
                n = M.shape[0]
            elif M.shape[0] != n:
                raise InputError("all components must share one dimension")
            if not np.all(np.isfinite(M)):
                raise InputError(f"component {name} has non-finite entries")
            M = M.copy()
            M.setflags(write=False)
            object.__setattr__(self, name, M)
            comps.append(M)
        object.__setattr__(self, "n", n)
        _check_commutation(comps)

    @cached_property
    def spheres(self) -> tuple:
        """The S-spectrum, s_spectrum(self), computed on first use and
        kept: the operator is immutable."""
        return tuple(s_spectrum(self))

    @cached_property
    def eigenbasis(self) -> Eigenbasis | None:
        """joint_eigenbasis(self), computed on first use and kept like
        spheres; None when T is not diagonalisable to working precision."""
        return joint_eigenbasis(self)

    @cached_property
    def _unit(self):
        """(p, signs, comps): 2^p the power of two nearest ||T|| (2^0 for
        T = 0); signs (4,), 1 for T0 and for each of T1..T3 the sign of
        its first nonzero entry; comps (4, n, n) the components times
        signs / 2^p.  Both steps are exact and Q(s) depends only on T0
        and the T_i^2, so s_spectrum, which reads only comps, gives
        2^k s_spectrum(T) for 2^k T and s_spectrum(T) for conj(T) bit
        for bit."""
        S = np.array(self.components)
        # ||T|| from the components brought below 1 by 2^-e, so it cannot overflow
        e = math.frexp(float(np.abs(S).max()))[1]
        norm = math.sqrt(float((np.ldexp(S, -e) ** 2).sum()))
        p = e + math.floor(math.log2(norm) + 0.5) if norm > 0.0 else 0
        vector = S[1:].reshape(3, -1)
        first = vector[np.arange(3), np.argmax(vector != 0.0, axis=1)]
        signs = np.where(np.concatenate(([1.0], first)) < 0.0, -1.0, 1.0)
        return p, signs, np.ldexp(S, -p) * signs[:, None, None]

    @property
    def components(self):
        return (self.T0, self.T1, self.T2, self.T3)

    def norm(self) -> float:
        return float(np.sqrt(sum(np.sum(C * C) for C in self.components)))

    def conjugate(self) -> "CommutingOperator":
        return CommutingOperator(self.T0, -self.T1, -self.T2, -self.T3)

    def as_matrix(self) -> QuatMatrix:
        """T as a quaternion matrix acting by left multiplication."""
        return QuatMatrix(np.stack(self.components, axis=-1))

    def vector_part(self) -> QuatMatrix:
        """underline(T) = T1 e1 + T2 e2 + T3 e3 as a quaternion matrix."""
        zero = np.zeros_like(self.T0)
        return QuatMatrix(np.stack((zero, self.T1, self.T2, self.T3), axis=-1))

    @staticmethod
    def zero(n: int) -> "CommutingOperator":
        z = np.zeros((n, n))
        return CommutingOperator(z, z, z, z)

    @staticmethod
    def from_quaternion(q: Quaternion) -> "CommutingOperator":
        """The 1 x 1 operator given by a quaternion scalar."""
        return CommutingOperator([[q.w]], [[q.x]], [[q.y]], [[q.z]])

    def has_zero_e3(self) -> bool:
        scale = max(self.norm(), 1.0)
        return float(np.linalg.norm(self.T3)) <= 1e-10 * scale

    def has_real_component_spectra(self) -> bool:
        """Whether every component matrix has (numerically) real spectrum,
        read off the joint eigenvalues that s_spectrum reads its spheres
        off: values[i] are T_i's eigenvalues."""
        p, values = self._unit[0], self._joint[0]
        for i, C in enumerate(self.components):
            scale = max(float(np.linalg.norm(C)), 1.0)
            if np.ldexp(np.max(np.abs(values[i].imag)), p) > REAL_SPECTRUM_RTOL * scale:
                return False
        return True

    @cached_property
    def _joint(self):
        """(values, points): the joint eigenvalues (4, k) of T / 2^p that
        s_spectrum reads its spheres off, each standing for one or more
        of T's, and those spheres as (u, v, k) points at the same scale.
        They come from the eigenbasis when it passes the bound and its
        roots pair up, otherwise from _schur_values."""
        p, _, comps = self._unit
        basis = self.eigenbasis
        if basis is not None and basis.kappa * max(basis.residual, EPS) <= JOINT_SPECTRUM_BOUND:
            values = _ldexp(basis.values, -p)
            points = _joint_points(values, np.ones(self.n, dtype=int))
            if points is not None:
                return values, points
        values, weight = _schur_values(comps)
        points = _joint_points(values, weight)
        if points is None:
            raise EigenvalueError("the roots above and below the real axis do not pair up")
        return values, points


def _check_commutation(comps):
    norms = [float(np.linalg.norm(C)) for C in comps]
    for i in range(4):
        for j in range(i + 1, 4):
            bound = COMMUTATION_RTOL * norms[i] * norms[j]
            defect = float(np.linalg.norm(comps[i] @ comps[j] - comps[j] @ comps[i]))
            if defect > bound:
                raise CommutationError(
                    f"components T{i} and T{j} do not commute: "
                    f"defect {defect:.3e} exceeds {bound:.3e}")


@dataclass(frozen=True)
class Eigenbasis:
    """A common eigenbasis of the components: T_i = V diag(values[i]) W
    for i = 0..3, with W = V^-1, V (n, n) of unit columns, values (4, n)
    the joint eigenvalues, kappa the 2-norm condition number of V and
    residual the Frobenius norm of the stack T_i V - V diag(values[i])
    for T / 2^p, the scaling to about unit norm that s_spectrum uses."""

    V: np.ndarray
    W: np.ndarray
    values: np.ndarray
    kappa: float
    residual: float


def joint_eigenbasis(T: CommutingOperator) -> Eigenbasis | None:
    """The eigenvectors of C = sum_i EIGENBASIS_MIX[i] T_i as a common
    eigenbasis of all four components, or None when they do not
    diagonalise T to working precision.

    Commuting components share their eigenvectors wherever C has
    distinct eigenvalues, and a generic real combination separates
    joint eigenvalues that agree in some component.  The combination is
    fixed, not drawn, so that every value computed through the basis is
    reproducible bit for bit.  Should it merge two distinct joint
    eigenvalues all the same, the basis of the merged eigenspace fails
    the residual test below and the caller takes its exact route.

    The basis is computed from T's components scaled to unit norm,
    with T1..T3 sign-normalised (CommutingOperator._unit), so that
    s_spectrum, which reads its spheres off it, is exact under scaling
    by 2^k and under conjugation.  The joint eigenvalues are the
    diagonals of W T_i V, scaled back to T.  The basis is refused when
    kappa_2(V) exceeds EIGENBASIS_KAPPA_LIMIT (a defective or nearly
    defective T, such as a Jordan block), when the residual
    ||T_i V - V diag(values[i])||_F, summed in squares over i, exceeds
    EIGENBASIS_RTOL ||T||, or when a joint eigenvalue of T lies beyond
    the float range.
    """
    p, signs, comps = T._unit
    C = np.dot(EIGENBASIS_MIX, comps.reshape(4, -1)).reshape(T.n, T.n)
    try:
        V = np.linalg.eig(C)[1]
        sigma = np.linalg.svd(V, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa = float(sigma[0] / sigma[-1])
        if not kappa <= EIGENBASIS_KAPPA_LIMIT:
            return None
        W = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return None
    TV = comps @ V
    unit = np.sum(W.T * TV, axis=-2)
    residual = float(np.linalg.norm(TV - V * unit[:, None, :]))
    if not residual <= EIGENBASIS_RTOL * np.linalg.norm(comps):
        return None
    with np.errstate(over="ignore"):
        values = _ldexp(unit * signs[:, None], p)
    if not np.all(np.isfinite(values)):
        return None
    return Eigenbasis(V, W, values, kappa, residual)


def _ldexp(x, p):
    """x 2^p, exact as np.ldexp is, for a real or complex array x."""
    if np.iscomplexobj(x):
        return np.ldexp(np.ascontiguousarray(x).view(np.float64), p).view(np.complex128)
    return np.ldexp(x, p)


def gram(T: CommutingOperator) -> np.ndarray:
    """K = T0^2 + T1^2 + T2^2 + T3^2, the T*conj(T) coefficient of the
    quadratic pencil (valid under the commutation invariant)."""
    return sum(C @ C for C in T.components)


def qcs_op(T: CommutingOperator, s: Quaternion) -> QuatMatrix:
    """The pseudo S-resolvent pencil s^2 I - s (T + conj(T)) + T conj(T).

    T + conj(T) = 2 T0 and T conj(T) = gram(T) are real matrices, so the
    quaternion scalar s acts on real entries and the side is immaterial.
    """
    return QuatMatrix(qcs_pencil_at(T, s.as_array()[None, :])[0])


def qcs_pencil_at(T: CommutingOperator, s_arr: np.ndarray) -> np.ndarray:
    """Batched pencil evaluation: s_arr (N, 4) -> (N, n, n, 4)."""
    n = T.n
    N = s_arr.shape[0]
    out = np.zeros((N, n, n, 4))
    out[..., 0] = gram(T)
    two_t0 = 2.0 * T.T0
    out -= s_arr[:, None, None, :] * two_t0[None, :, :, None]
    s2 = np.stack([
        s_arr[:, 0] ** 2 - s_arr[:, 1] ** 2 - s_arr[:, 2] ** 2 - s_arr[:, 3] ** 2,
        2 * s_arr[:, 0] * s_arr[:, 1],
        2 * s_arr[:, 0] * s_arr[:, 2],
        2 * s_arr[:, 0] * s_arr[:, 3],
    ], axis=-1)
    idx = np.arange(n)
    out[:, idx, idx, :] += s2[:, None, :]
    return out


def s_spectrum(T: CommutingOperator):
    """All spheres of the S-spectrum, sorted by u and, among spheres whose
    u agree within PAIRING_RTOL (1 + |u|), by v.

    The spectrum is computed for T / 2^p, 2^p the power of two nearest
    ||T||, so that the tolerances read at unit scale; scaling by 2^p is
    exact, so s_spectrum(2^k T) is 2^k s_spectrum(T) bit for bit.  The
    multiplicity of a sphere counts its roots above the real axis, and
    that of a real point both roots of each joint eigenvalue on it.

    In a basis in which every component is triangular the pencil is
    triangular with diagonal q_j(s), so its roots are those of the
    scalars q_j for the joint eigenvalues lam_j in C^4 (_joint_points).
    Two joint eigenvalues are one point when they lie within
    PAIRING_RTOL (1 + |lam|) of each other; each point's weighted mean
    gives the roots lam_0 +- sqrt(-sum_i lam_i^2), and roots within
    PAIRING_RTOL (1 + |r|) of each other, or that close to the real axis,
    join.  The roots come from C^4, not from the sums of squares, so a
    real point is off the axis by about eps, not sqrt(eps).

    The joint eigenvalues are read off T.eigenbasis when it exists,
    kappa_2(V) max(residual, eps) <= JOINT_SPECTRUM_BOUND and the roots
    above and below the axis pair up; otherwise they are the cluster means
    of one complex Schur form (_schur_values).  EigenvalueError (exit 4)
    when the Schur route fails or its roots do not pair up, or when a
    sphere lies beyond the float range.
    """
    p = T._unit[0]
    try:
        return [SpectralSphere(math.ldexp(u, p), math.ldexp(v, p), k)
                for u, v, k in T._joint[1]]
    except OverflowError as exc:
        raise EigenvalueError(f"spectrum beyond the float range: {exc}") from exc


def _joint_points(lam, weight):
    """The (u, v, k) points of s_spectrum from the joint eigenvalues lam
    (4, m) at unit scale, lam[:, j] standing for weight[j] of T's, or None
    when the roots above and below the real axis do not pair up."""
    count, mean = _merge(lam.astype(np.complex128), weight)
    w = np.sqrt(-(mean[1:] ** 2).sum(axis=0))
    roots = np.concatenate((mean[0] + w, mean[0] - w))
    roots = np.where(np.abs(roots.imag) <= PAIRING_RTOL * (1.0 + np.abs(roots)),
                     roots.real, roots)
    weight, centre = _merge(roots[None, :], np.concatenate((count, count)))
    centre = centre[0]
    real = np.abs(centre.imag) <= PAIRING_RTOL * (1.0 + np.abs(centre))
    upper = ~real & (centre.imag > 0.0)
    if weight[upper].sum() != weight[~real & ~upper].sum():
        return None
    keep = real | upper
    return _in_order(list(zip(centre.real[keep].tolist(),
                              np.where(real, 0.0, centre.imag)[keep].tolist(),
                              weight[keep].tolist())))


def _merge(X, weight):
    """Single-linkage clusters of the columns of X (d, m), two columns
    joining when within PAIRING_RTOL (1 + the larger norm) of each
    other: the clusters' total weights (k,) and weighted means (d, k)."""
    size = np.sqrt((np.abs(X) ** 2).sum(axis=0))
    reach = PAIRING_RTOL * (1.0 + np.maximum.outer(size, size))
    gap2 = sum(np.abs(x[:, None] - x) ** 2 for x in X)
    near = gap2 <= reach * reach
    m = len(size)
    if np.count_nonzero(near) == m:
        return weight, X
    # each column takes the least label among its neighbours, then the
    # label of that label, until no label changes; a cluster's label is
    # then its first column
    label = np.arange(m)
    while True:
        new = np.where(near, label, m).min(axis=1)
        new = new[new]
        if (new == label).all():
            break
        label = new
    member = label == np.flatnonzero(label == np.arange(m))[:, None]
    total = member @ weight
    return total, ((X * weight) @ member.T) / total


def _schur_values(comps):
    """Joint eigenvalues of the unit-scale components comps (4, n, n) from
    the complex Schur form C = Z R Z^H of C = sum_i EIGENBASIS_MIX[i]
    comps[i]: the means (4, k) of diag(Z^H comps[i] Z) over clusters of
    diag(R), and the clusters' sizes (k,).

    Commuting matrices are triangular in one unitary basis, and the Schur
    vectors of a generic combination are one (Corless, Gianni and Trager,
    ISSAC 1997).  Rounding splits an m-fold eigenvalue of C into m about
    eps^(1/m) * scale apart, so diag(R) is clustered before it is
    averaged: two eigenvalues are one when they lie within PAIRING_RTOL
    (1 + |lam|) of each other, or when the point halfway between them is
    itself an eigenvalue of C to working precision,
    sigma_min(C - z I) <= CLUSTER_SIGMA_RTOL eps ||C||_F.  Only pairs
    whose first-order perturbation discs overlap, and that are not yet in
    one cluster, are tested, by increasing gap.  A cluster's mean of
    diag(Z^H T_i Z) is the mean of T_i's eigenvalues on the cluster's
    spectral subspace, well conditioned where the single eigenvalues are
    not.  EigenvalueError when the Schur form fails, or when the
    strictly lower parts of the Z^H comps[i] Z exceed EIGENBASIS_RTOL ||T||.
    """
    import scipy.linalg  # only operators without a usable basis pay for the import

    n = comps.shape[-1]
    C = np.dot(EIGENBASIS_MIX, comps.reshape(4, -1)).reshape(n, n)
    try:
        R, Z = scipy.linalg.schur(C, output="complex")
    except np.linalg.LinAlgError as exc:
        raise EigenvalueError(f"Schur form failed: {exc}") from exc
    D = Z.conj().T @ comps @ Z
    lower = float(np.linalg.norm(np.tril(D, -1)))
    if not lower <= EIGENBASIS_RTOL * np.linalg.norm(comps):
        raise EigenvalueError(
            f"the components are {lower:.3e} from triangular in one Schur basis")
    lam = np.diag(R)
    # eigenvalue condition numbers |x_k| |w_k| / |w_k x_k| from the right
    # and left eigenvectors of R, x_k zero below k and w_k zero above, so
    # that w_k x_k = x_k[k] = w_k[k] = 1: one back and one forward
    # substitution serve every eigenvalue at once
    X = np.eye(n, dtype=np.complex128)
    W = np.eye(n, dtype=np.complex128)
    with np.errstate(all="ignore"):
        for a in range(n - 2, -1, -1):
            X[a, a + 1:] = -(R[a, a + 1:] @ X[a + 1:, a + 1:]) / (lam[a] - lam[a + 1:])
        for b in range(1, n):
            W[:b, b] = -(W[:b, :b] @ R[:b, b]) / (lam[b] - lam[:b])
        kappa = np.linalg.norm(X, axis=0) * np.linalg.norm(W, axis=1)
        sigma_tol = CLUSTER_SIGMA_RTOL * EPS * np.linalg.norm(C)
        radius = sigma_tol * np.where(np.isfinite(kappa), kappa, np.inf)
    i, j = np.triu_indices(n, 1)
    gap = np.abs(lam[i] - lam[j])
    near = gap <= PAIRING_RTOL * (1.0 + np.maximum(np.abs(lam[i]), np.abs(lam[j])))
    test = ~near & (gap <= radius[i] + radius[j])

    parent = list(range(n))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for a, b in zip(i[near], j[near]):
        parent[find(a)] = find(b)

    def join_eigenvalue_midpoints(pairs):
        mid = 0.5 * (lam[i[pairs]] + lam[j[pairs]])
        # an eigenvalue of another cluster nearer the midpoint than the
        # pair itself makes the midpoint an eigenvalue whatever the pair
        # is (-1 and 2 about 0.5), so the test says nothing
        label = np.array([find(k) for k in range(n)])
        dist = np.abs(lam[None, :] - mid[:, None])
        for ends in (i[pairs], j[pairs]):
            dist[label[None, :] == label[ends][:, None]] = np.inf
        clear = ~(np.min(dist, axis=1) < 0.5 * gap[pairs])
        pairs, mid = pairs[clear], mid[clear]
        shifted = C[None, :, :] - mid[:, None, None] * np.eye(n)
        joined = pairs[np.linalg.svd(shifted, compute_uv=False)[:, -1] <= sigma_tol]
        for a, b in zip(i[joined], j[joined]):
            parent[find(a)] = find(b)

    # midpoint tests by increasing gap, a bounded number of (n, n)
    # matrices at a time; a pair already in one cluster needs no test
    batch = max(1, BATCH_ENTRIES // (n * n))
    pairs = []
    for k in np.flatnonzero(test)[np.argsort(gap[test], kind="stable")]:
        if find(i[k]) != find(j[k]):
            pairs.append(k)
        if len(pairs) == batch:
            join_eigenvalue_midpoints(np.array(pairs))
            pairs = []
    if pairs:
        join_eigenvalue_midpoints(np.array(pairs))
    label = np.array([find(k) for k in range(n)])
    member = label == np.unique(label)[:, None]
    size = member.sum(axis=1)
    return (np.diagonal(D, axis1=-2, axis2=-1) @ member.T) / size, size


def _in_order(points):
    """(u, v, k) points sorted by u, where a run of u that agree within
    PAIRING_RTOL (1 + |u|) counts as one u and is sorted by v, so
    rounding noise in u cannot put a sphere before the real point below
    it."""
    points = sorted(points)
    out, start = [], 0
    for k in range(1, len(points) + 1):
        if k == len(points) or abs(points[k][0] - points[k - 1][0]) > PAIRING_RTOL * (
                1.0 + max(abs(points[k][0]), abs(points[k - 1][0]))):
            out.extend(sorted(points[start:k], key=lambda p: (p[1], p[0])))
            start = k
    return out


# ---------------------------------------------------------------------------
# file format: {"n": int, "T0": [[...]], ...}; omitted components are zero


def operator_from_dict(doc) -> CommutingOperator:
    if not isinstance(doc, dict):
        raise InputError("operator document must be a JSON object")
    n = doc.get("n")
    if "n" in doc and (type(n) is not int or not 1 <= n <= MAX_DIMENSION):
        raise InputError(f"'n' must be an integer in 1..{MAX_DIMENSION}, got {n!r}")
    comps = {}
    for name in ("T0", "T1", "T2", "T3"):
        if name in doc:
            M = read_numbers(doc[name], f"component {name}")
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise InputError(f"component {name} must be a square matrix")
            if M.shape[0] > MAX_DIMENSION:
                raise InputError(f"component {name} has dimension {M.shape[0]}, "
                                 f"above {MAX_DIMENSION}")
            comps[name] = M
            if n is None:
                n = M.shape[0]
    if n is None:
        raise InputError("operator document needs 'n' or at least one component")
    zero = np.zeros((n, n))
    for name in ("T0", "T1", "T2", "T3"):
        comps.setdefault(name, zero)
        if comps[name].shape[0] != n:
            raise InputError(f"component {name} has dimension "
                             f"{comps[name].shape[0]}, expected {n}")
    return CommutingOperator(comps["T0"], comps["T1"], comps["T2"], comps["T3"])


def operator_to_dict(T: CommutingOperator) -> dict:
    return {
        "n": T.n,
        "T0": T.T0.tolist(),
        "T1": T.T1.tolist(),
        "T2": T.T2.tolist(),
        "T3": T.T3.tolist(),
    }


def load_operator(path) -> CommutingOperator:
    return operator_from_dict(read_document(path, "operator"))


def save_operator(T: CommutingOperator, path) -> None:
    with open(path, "w") as fh:
        json.dump(operator_to_dict(T), fh)
