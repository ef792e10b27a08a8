import numpy as np
import pytest

from helpers import orthonormalize
from slicescale.numerics import factor_linear, null_space, symmetric_eigs


def projector(basis):
    return basis @ basis.T


def span_projector(vectors):
    Q = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    return Q @ np.linalg.pinv(Q)


class TestOrthonormalize:
    def test_already_orthonormal(self):
        basis = orthonormalize([[1.0, 0.0], [0.0, 1.0]])
        assert basis.shape == (2, 2)
        np.testing.assert_allclose(basis, np.eye(2), atol=1e-14)

    def test_rank_one_span(self):
        basis = orthonormalize([[1.0, 1.0], [2.0, 2.0]])
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(
            basis[:, 0], np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-14
        )

    def test_plane_span_matches_hand_gram_schmidt(self):
        # Gram-Schmidt by hand: q1 = (1,1,0)/sqrt(2), q2 = (1,-1,2)/sqrt(6)
        basis = orthonormalize([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        assert basis.shape == (3, 2)
        hand = np.column_stack([
            np.array([1.0, 1.0, 0.0]) / np.sqrt(2),
            np.array([1.0, -1.0, 2.0]) / np.sqrt(6),
        ])
        P = projector(basis)
        np.testing.assert_allclose(P, hand @ hand.T, atol=1e-12)
        np.testing.assert_allclose(P @ P, P, atol=1e-12)

    def test_array_input_used_unchanged(self):
        # rows of a 2-d array are the vectors; the signs are fixed on the
        # factor, never on the caller's array
        rng = np.random.default_rng(8)
        A = rng.standard_normal((3, 6))
        before = A.copy()
        basis = orthonormalize(A)
        np.testing.assert_array_equal(A, before)
        np.testing.assert_array_equal(basis, orthonormalize(A.tolist()))
        assert np.all(np.diag(basis.T @ A.T) > 0)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no vectors"):
            orthonormalize([])

    def test_all_zero_vectors(self):
        basis = orthonormalize([np.zeros(3), np.zeros(3)])
        assert basis.shape == (3, 0)

    def test_more_vectors_than_dimension(self):
        rng = np.random.default_rng(7)
        basis = orthonormalize(rng.standard_normal((5, 3)))
        assert basis.shape == (3, 3)
        np.testing.assert_allclose(projector(basis), np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_spans(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 7, 4
        A = rng.standard_normal((n, k))
        basis = orthonormalize(A.T)
        assert basis.shape == (n, k)
        np.testing.assert_allclose(
            projector(basis), span_projector(A.T.tolist()), atol=1e-10
        )


def gram(A):
    """A^T A, symmetrized so that it is exactly symmetric."""
    M = A.T @ A
    return 0.5 * (M + M.T)


class TestNullSpace:
    """Null spaces of Gram matrices A^T A, whose kernel is that of A."""

    def test_single_equation(self):
        basis = null_space(gram(np.array([[1.0, 1.0]])))
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(
            np.abs(basis[:, 0]), np.ones(2) / np.sqrt(2), atol=1e-14
        )

    def test_trivial_kernel(self):
        basis = null_space(np.eye(3))
        assert basis.shape == (3, 0)

    def test_two_by_four(self):
        A = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        basis = null_space(gram(A))
        assert basis.shape == (4, 2)
        np.testing.assert_allclose(A @ basis, 0.0, atol=1e-10)
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_residuals_and_dimension(self, seed):
        rng = np.random.default_rng(100 + seed)
        m, n = rng.integers(1, 6), rng.integers(2, 9)
        A = rng.standard_normal((m, n))
        basis = null_space(gram(A))
        rank = np.linalg.matrix_rank(A)
        assert basis.shape == (n, n - rank)
        if basis.size:
            assert np.abs(A @ basis).max() <= 1e-10

    def test_rank_deficient_rows(self):
        A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 0.0]])
        basis = null_space(gram(A))
        assert basis.shape == (3, 1)
        assert np.abs(A @ basis).max() <= 1e-10

    @pytest.mark.parametrize("A", [
        np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]]),
        np.array([[1.0, 1.0]]),
    ], ids=["asymmetric", "not-square"])
    def test_asymmetric_rejected(self, A):
        with pytest.raises(ValueError):
            null_space(A)


class TestProjector:
    def test_single_axis(self):
        basis = orthonormalize([[1.0, 0.0]])
        np.testing.assert_allclose(
            projector(basis), [[1.0, 0.0], [0.0, 0.0]], atol=1e-15
        )

    def test_empty_basis(self):
        basis = np.zeros((2, 0))
        np.testing.assert_allclose(projector(basis), np.zeros((2, 2)))

    def test_hand_projection_dim4(self):
        w = np.array([1.0, -1.0, -1.0, 1.0]) / 2
        basis = w.reshape(-1, 1)
        P = projector(basis)
        x = np.array([1.0, -1.0, 0.0, 0.0])
        np.testing.assert_allclose(P @ x, [0.5, -0.5, -0.5, 0.5], atol=1e-14)
        np.testing.assert_allclose(
            (np.eye(4) - P) @ x, [0.5, -0.5, 0.5, -0.5], atol=1e-14
        )

    def test_coords_and_project(self):
        # coordinates are M^T v and the projection is M M^T v
        basis = orthonormalize([[1.0, 1.0, 0.0]])
        v = np.array([2.0, 0.0, 7.0])
        np.testing.assert_allclose(basis.T @ v, [np.sqrt(2)], atol=1e-12)
        np.testing.assert_allclose(projector(basis) @ v, [1.0, 1.0, 0.0],
                                   atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_idempotent(self, seed):
        rng = np.random.default_rng(200 + seed)
        A = rng.standard_normal((6, 3))
        P = projector(orthonormalize(A.T))
        assert np.abs(P @ P - P).max() <= 1e-10
        assert np.abs(P - P.T).max() <= 1e-10


class TestSymmetricEigs:
    def test_diagonal(self):
        vals = symmetric_eigs(np.diag([2.0, 5.0]))
        np.testing.assert_allclose(vals, [2.0, 5.0])

    def test_classic_2x2(self):
        vals = symmetric_eigs(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(vals, [1.0, 3.0], atol=1e-12)

    def test_restricted_scaling_hessian(self):
        # ambient Hessian of the all-ones 2x2 problem at zero, restricted to
        # the product of hyperplanes orthogonal to (1,1): cross term vanishes
        H = np.array([
            [2.0, 0.0, 1.0, 1.0],
            [0.0, 2.0, 1.0, 1.0],
            [1.0, 1.0, 2.0, 0.0],
            [1.0, 1.0, 0.0, 2.0],
        ])
        q1 = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)
        q2 = np.array([0.0, 0.0, 1.0, -1.0]) / np.sqrt(2)
        Q = np.column_stack([q1, q2])
        vals = symmetric_eigs(Q.T @ H @ Q)
        np.testing.assert_allclose(vals, [2.0, 2.0], atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            symmetric_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_against_numpy_oracle(self, n):
        rng = np.random.default_rng(300 + n)
        M = rng.standard_normal((n, n))
        M = M + M.T
        vals = symmetric_eigs(M)
        assert vals.shape == (n,)
        assert np.all(np.diff(vals) >= 0)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(M), atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_eigenvalue_sum_is_trace(self, seed):
        rng = np.random.default_rng(400 + seed)
        M = rng.standard_normal((6, 6))
        M = M + M.T
        vals = symmetric_eigs(M)
        assert abs(vals.sum() - np.trace(M)) <= 1e-9 * max(1.0, abs(np.trace(M)))


class TestQrSolve:
    def test_solve_linear(self):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        b = rng.standard_normal(4)
        np.testing.assert_allclose(factor_linear(A).dot(b),
                                   np.linalg.solve(A, b), atol=1e-10)

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            factor_linear(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_factors_serve_many_right_hand_sides(self):
        rng = np.random.default_rng(43)
        A = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        factors = factor_linear(A)
        for _ in range(3):
            b = rng.standard_normal(5)
            got = factors.dot(b)
            # the stored inverse applied by one product, the same bits on
            # every call
            np.testing.assert_array_equal(got, factors.dot(b))
            np.testing.assert_allclose(got, np.linalg.solve(A, b), atol=1e-10)
