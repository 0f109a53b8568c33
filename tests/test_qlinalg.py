import numpy as np
import pytest

from conftest import rel
from sspectrum import E1, E2, E3, Quaternion, QuatMatrix, real_adjoint
from sspectrum.errors import SingularMatrixError
from sspectrum.qlinalg import matmul, product_matrices, qinv_arr, qmul_arr, solve_arr


def random_qm(rng, n, scale=1.0):
    return QuatMatrix(rng.standard_normal((n, n, 4)) * scale)


def test_identity_neutral(rng):
    A = random_qm(rng, 3)
    I = QuatMatrix.identity(3)
    assert rel(I @ A, A) == 0.0
    assert rel(A @ I, A) == 0.0


def test_unit_product_diagonal():
    A = QuatMatrix.from_scalar(E1, 1)
    B = QuatMatrix.from_scalar(E2, 1)
    assert (A @ B).entry(0, 0) == E3


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        QuatMatrix.identity(2) @ QuatMatrix.identity(3)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: qinv_arr(np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]])),
                 ZeroDivisionError, id="qinv_arr-zero"),
    pytest.param(lambda: solve_arr(np.zeros((2, 3, 4)), np.zeros((2, 1, 4))),
                 ValueError, id="solve_arr-A-not-square"),
    pytest.param(lambda: solve_arr(np.zeros((2, 2, 3)), np.zeros((2, 1, 4))),
                 ValueError, id="solve_arr-A-not-quaternion"),
    pytest.param(lambda: solve_arr(np.zeros((2, 2, 4)), np.zeros((3, 1, 4))),
                 ValueError, id="solve_arr-B-rows"),
    pytest.param(lambda: QuatMatrix(np.zeros((2, 3, 4))), ValueError, id="QuatMatrix-not-square"),
    pytest.param(lambda: QuatMatrix(np.zeros((2, 2))), ValueError, id="QuatMatrix-not-quaternion"),
])
def test_malformed_input_is_refused(call, error):
    with pytest.raises(error):
        call()


def test_left_right_scalar_actions_differ():
    A = QuatMatrix.from_scalar(E2, 2)
    assert (A.lmul(E1) - A.rmul(E1)).norm() > 1.0
    assert A.lmul(E1).entry(0, 0) == E1 * E2
    assert A.rmul(E1).entry(0, 0) == E2 * E1


def test_solve_identity(rng):
    B = random_qm(rng, 3)
    X = QuatMatrix(solve_arr(QuatMatrix.identity(3).data, B.data))
    assert rel(X, B) < 1e-15


def test_solve_scalar_example():
    A = QuatMatrix.from_scalar(Quaternion(1, 1, 0, 0), 1)
    B = QuatMatrix.identity(1)
    X = QuatMatrix(solve_arr(A.data, B.data))
    assert (X.entry(0, 0) - Quaternion(0.5, -0.5, 0, 0)).norm() < 1e-15


def test_solve_residual(rng):
    for n in (2, 3, 4):
        A = random_qm(rng, n)
        B = random_qm(rng, n)
        X = QuatMatrix(solve_arr(A.data, B.data))
        assert (A @ X - B).norm() <= 1e-11 * B.norm()
        assert (A @ X - B).norm() <= 1e-10 * A.norm() * X.norm()


def test_inverse_roundtrip(rng):
    A = random_qm(rng, 4)
    inverse = QuatMatrix(solve_arr(A.data, QuatMatrix.identity(4).data))
    assert rel(A @ inverse, QuatMatrix.identity(4)) < 1e-12


def test_singular_raises_with_pivot_index():
    data = np.zeros((2, 2, 4))
    data[0, 0, 0] = 1.0
    data[0, 1, 1] = 2.0
    # second row a left multiple of the first: e2 * row0, e2 * 2e1 = -2e3
    data[1, 0, 2] = 1.0
    data[1, 1, 3] = -2.0
    A = QuatMatrix(data)
    with pytest.raises(SingularMatrixError) as err:
        solve_arr(A.data, QuatMatrix.identity(2).data)
    assert err.value.pivot_index == 1


def test_batched_solve_matches_single(rng):
    n = 3
    batch = rng.standard_normal((5, n, n, 4))
    rhs = rng.standard_normal((5, n, n, 4))
    X = solve_arr(batch, rhs)
    for i in range(5):
        Xi = QuatMatrix(solve_arr(batch[i], rhs[i]))
        assert rel(QuatMatrix(X[i]), Xi) < 1e-13


def test_norms():
    assert QuatMatrix.zeros(3).norm() == 0.0
    assert abs(QuatMatrix.identity(4).norm() - 2.0) < 1e-15
    assert abs(QuatMatrix.from_scalar(Quaternion(1, 1, 0, 0), 1).norm()
               - np.sqrt(2.0)) < 1e-15


def test_real_adjoint_identity_and_unit():
    assert np.allclose(real_adjoint(QuatMatrix.identity(3)), np.eye(12))
    rho = real_adjoint(QuatMatrix.from_scalar(E1, 1))
    assert np.allclose(rho @ rho, -np.eye(4))


def test_real_adjoint_homomorphism(rng):
    A = random_qm(rng, 3)
    B = random_qm(rng, 3)
    lhs = real_adjoint(A @ B)
    rhs = real_adjoint(A) @ real_adjoint(B)
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * max(1.0, np.linalg.norm(rhs))


def test_real_adjoint_vector_action(rng):
    n = 3
    A = random_qm(rng, n)
    x = rng.standard_normal((n, 4))
    # quaternionic product A x against the stacked real coordinates
    Ax = np.sum(qmul_arr(A.data, x[None, :, :]), axis=1)
    rho = real_adjoint(A)
    assert np.allclose(rho @ x.reshape(-1), Ax.reshape(-1), atol=1e-12)


def test_inverse_agrees_with_adjoint_oracle(rng):
    n = 3
    A = random_qm(rng, n)
    via_elimination = QuatMatrix(solve_arr(A.data, QuatMatrix.identity(n).data))
    rho_inv = np.linalg.inv(real_adjoint(A))
    # map back: block (i, j) of rho holds the quaternion in its first column
    mapped = np.zeros((n, n, 4))
    for i in range(n):
        for j in range(n):
            mapped[i, j, :] = rho_inv[4 * i:4 * i + 4, 4 * j]
    assert rel(QuatMatrix(mapped), via_elimination) <= 1e-10


# ---------------------------------------------------------------------------
# the complex-pair products on every operand layout

# e_i e_j = sign e_k over the basis 1, e1, e2, e3: _TABLE[i][j] = (k, sign)
_TABLE = [[(0, 1), (1, 1), (2, 1), (3, 1)],
          [(1, 1), (0, -1), (3, 1), (2, -1)],
          [(2, 1), (3, -1), (0, -1), (1, 1)],
          [(3, 1), (2, 1), (1, -1), (0, -1)]]


def _table_mul(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = np.zeros(a.shape)
    for i in range(4):
        for j in range(4):
            k, sign = _TABLE[i][j]
            out[..., k] += sign * a[..., i] * b[..., j]
    return out


def _table_matmul(A, B):
    return np.sum(_table_mul(A[..., :, :, None, :], B[..., None, :, :, :]), axis=-3)


def _layouts(rng):
    """(name, quaternion array) in the layouts the pair view must read:
    contiguous, a strided last axis, transposed matrices, broadcast,
    a (1, 1, 4) scalar, a read-only QuatMatrix.data and integers."""
    return [
        ("contiguous", rng.standard_normal((3, 3, 4))),
        ("strided", rng.standard_normal((3, 3, 8))[..., ::2]),
        ("transposed", rng.standard_normal((3, 3, 4)).transpose(1, 0, 2)),
        ("broadcast", np.broadcast_to(rng.standard_normal(4), (3, 3, 4))),
        ("scalar", rng.standard_normal((1, 1, 4))),
        ("read-only", random_qm(rng, 3).data),
        ("integer", rng.integers(-5, 6, size=(3, 3, 4))),
    ]


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_qmul_arr_matches_the_table_on_every_layout(rng):
    for (name_a, a) in _layouts(rng):
        for (name_b, b) in _layouts(rng):
            got = qmul_arr(a, b)
            assert got.dtype == np.float64 and got.shape == np.broadcast_shapes(a.shape, b.shape)
            assert _close(got, _table_mul(a, b)), (name_a, name_b)


def test_matmul_matches_the_table_and_the_adjoint_on_every_layout(rng):
    for (name_a, A) in _layouts(rng):
        for (name_b, B) in _layouts(rng):
            if A.shape[-2] != B.shape[-3]:
                continue
            got = matmul(A, B)
            assert _close(got, _table_matmul(A, B)), (name_a, name_b)
            rho = real_adjoint(QuatMatrix(A)) @ real_adjoint(QuatMatrix(B))
            assert _close(real_adjoint(QuatMatrix(got)), rho), (name_a, name_b)


def test_matmul_broadcasts_a_batch(rng):
    A = np.broadcast_to(rng.standard_normal((3, 3, 4)), (5, 3, 3, 4))
    B = rng.standard_normal((5, 3, 3, 4))
    assert _close(matmul(A, B), _table_matmul(A, B))
    assert _close(matmul(A[0], B), _table_matmul(A[0], B))


def test_product_matrices_match_the_table_on_every_layout(rng):
    x = rng.standard_normal((3, 3, 4))
    for name, q in _layouts(rng):
        R, L = product_matrices(q, "right"), product_matrices(q, "left")
        assert R.shape == q.shape + (4,)
        assert _close(np.einsum("...i,...ij->...j", x, R), _table_mul(x, q)), name
        assert _close(np.einsum("...i,...ij->...j", x, L), _table_mul(q, x)), name
