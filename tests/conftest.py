import numpy as np
import pytest

from oracles import node_arrays
from sspectrum import QuatMatrix, Quaternion
from sspectrum.qlinalg import product_matrices, qmul_arr


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rel(A: QuatMatrix, B: QuatMatrix) -> float:
    """Relative difference against max(|A|, |B|, 1)."""
    return (A - B).norm() / max(A.norm(), B.norm(), 1.0)


def qrel(a: Quaternion, b: Quaternion) -> float:
    return (a - b).norm() / max(a.norm(), b.norm(), 1.0)


def pair_per_node(c, K, f, side):
    """Oracle of contour.integrate for any callable kernel K: calls K and
    f once per node of c and returns sum_k K(s_k) (w_k f(s_k)) (side
    'left') or sum_k (f(s_k) w_k) K(s_k) (side 'right'), each term the
    (n^2, 4) block of K(s_k) times the 4 x 4 real matrix of the product
    with the weight, together with sum_k |K(s_k)| |w_k f(s_k)|, the
    scale of its rounding."""
    s_arr, w_arr = node_arrays(c)
    points = [Quaternion.from_array(s) for s in s_arr]
    kvals = np.stack([K(s).data for s in points])
    fvals = np.stack([f(s).as_array() for s in points])
    if side == "left":
        weights = qmul_arr(w_arr, fvals)
        R = product_matrices(weights, "right")
    else:
        weights = qmul_arr(fvals, w_arr)
        R = product_matrices(weights, "left")
    count, n = kvals.shape[:2]
    terms = np.matmul(kvals.reshape(count, n * n, 4), R)
    scale = np.sum(np.linalg.norm(kvals.reshape(count, -1), axis=1)
                   * np.linalg.norm(weights, axis=1))
    return QuatMatrix(terms.sum(axis=0).reshape(n, n, 4)), scale


def random_unit_ball_quaternion(rng, radius: float = 1.0) -> Quaternion:
    """Uniform-ish draw with |q| <= radius (for absolute-tolerance checks)."""
    while True:
        c = rng.uniform(-1.0, 1.0, 4)
        if c @ c <= 1.0:
            return Quaternion(*(radius * c))
