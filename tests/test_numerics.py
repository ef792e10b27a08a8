import numpy as np
import pytest

from slicescale.numerics import (OrthonormalBasis, null_space, orthonormalize,
                                 projector_onto, solve_linear, symmetric_eigs)


def span_projector(vectors):
    Q = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    return Q @ np.linalg.pinv(Q)


class TestOrthonormalize:
    def test_already_orthonormal(self):
        basis = orthonormalize([[1.0, 0.0], [0.0, 1.0]])
        assert basis.size == 2
        np.testing.assert_allclose(basis.matrix, np.eye(2), atol=1e-14)

    def test_rank_one_span(self):
        basis = orthonormalize([[1.0, 1.0], [2.0, 2.0]])
        assert basis.size == 1
        np.testing.assert_allclose(
            basis.matrix[:, 0], np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-14
        )

    def test_plane_span_matches_hand_gram_schmidt(self):
        # Gram-Schmidt by hand: q1 = (1,1,0)/sqrt(2), q2 = (1,-1,2)/sqrt(6)
        basis = orthonormalize([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        assert basis.size == 2
        hand = np.column_stack([
            np.array([1.0, 1.0, 0.0]) / np.sqrt(2),
            np.array([1.0, -1.0, 2.0]) / np.sqrt(6),
        ])
        P = projector_onto(basis)
        np.testing.assert_allclose(P, hand @ hand.T, atol=1e-12)
        np.testing.assert_allclose(P @ P, P, atol=1e-12)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no vectors"):
            orthonormalize([])

    def test_all_zero_vectors(self):
        basis = orthonormalize([np.zeros(3), np.zeros(3)])
        assert basis.size == 0

    def test_more_vectors_than_dimension(self):
        rng = np.random.default_rng(7)
        basis = orthonormalize(rng.standard_normal((5, 3)))
        assert basis.size == 3
        np.testing.assert_allclose(projector_onto(basis), np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_spans(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 7, 4
        A = rng.standard_normal((n, k))
        basis = orthonormalize(A.T)
        assert basis.size == k
        np.testing.assert_allclose(
            projector_onto(basis), span_projector(A.T.tolist()), atol=1e-10
        )


class TestNullSpace:
    def test_single_equation(self):
        basis = null_space(np.array([[1.0, 1.0]]))
        assert basis.size == 1
        np.testing.assert_allclose(
            np.abs(basis.matrix[:, 0]), np.ones(2) / np.sqrt(2), atol=1e-14
        )

    def test_trivial_kernel(self):
        basis = null_space(np.eye(3))
        assert basis.size == 0

    def test_two_by_four(self):
        A = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        basis = null_space(A)
        assert basis.size == 2
        np.testing.assert_allclose(A @ basis.matrix, 0.0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_residuals_and_dimension(self, seed):
        rng = np.random.default_rng(100 + seed)
        m, n = rng.integers(1, 6), rng.integers(2, 9)
        A = rng.standard_normal((m, n))
        basis = null_space(A)
        rank = np.linalg.matrix_rank(A)
        assert basis.size == n - rank
        if basis.size:
            assert np.abs(A @ basis.matrix).max() <= 1e-10

    def test_column_signs_fixed(self):
        # the entry of largest magnitude of every basis vector is positive,
        # whichever sign LAPACK returned it with
        rng = np.random.default_rng(600)
        M = rng.standard_normal((6, 6))
        for Q in (null_space(rng.standard_normal((2, 6))).matrix,
                  symmetric_eigs(M + M.T)[1].matrix):
            lead = Q[np.abs(Q).argmax(axis=0), np.arange(Q.shape[1])]
            assert np.all(lead > 0)

    def test_rank_deficient_rows(self):
        A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 0.0]])
        basis = null_space(A)
        assert basis.size == 1
        assert np.abs(A @ basis.matrix).max() <= 1e-10


class TestProjector:
    def test_single_axis(self):
        basis = orthonormalize([[1.0, 0.0]])
        np.testing.assert_allclose(
            projector_onto(basis), [[1.0, 0.0], [0.0, 0.0]], atol=1e-15
        )

    def test_empty_basis(self):
        basis = OrthonormalBasis(2)
        np.testing.assert_allclose(projector_onto(basis), np.zeros((2, 2)))

    def test_hand_projection_dim4(self):
        w = np.array([1.0, -1.0, -1.0, 1.0]) / 2
        basis = OrthonormalBasis(4, w.reshape(-1, 1))
        P = projector_onto(basis)
        x = np.array([1.0, -1.0, 0.0, 0.0])
        np.testing.assert_allclose(P @ x, [0.5, -0.5, -0.5, 0.5], atol=1e-14)
        np.testing.assert_allclose(
            (np.eye(4) - P) @ x, [0.5, -0.5, 0.5, -0.5], atol=1e-14
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_idempotent(self, seed):
        rng = np.random.default_rng(200 + seed)
        A = rng.standard_normal((6, 3))
        P = projector_onto(orthonormalize(A.T))
        assert np.abs(P @ P - P).max() <= 1e-10
        assert np.abs(P - P.T).max() <= 1e-10


class TestSymmetricEigs:
    def test_diagonal(self):
        vals, _ = symmetric_eigs(np.diag([2.0, 5.0]))
        np.testing.assert_allclose(vals, [2.0, 5.0])

    def test_classic_2x2(self):
        vals, vecs = symmetric_eigs(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(vals, [1.0, 3.0], atol=1e-12)
        assert vecs.size == 2

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
        vals, _ = symmetric_eigs(Q.T @ H @ Q)
        np.testing.assert_allclose(vals, [2.0, 2.0], atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            symmetric_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_against_numpy_oracle(self, n):
        rng = np.random.default_rng(300 + n)
        M = rng.standard_normal((n, n))
        M = M + M.T
        vals, vecs = symmetric_eigs(M)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(M), atol=1e-9)
        recon = vecs.matrix @ np.diag(vals) @ vecs.matrix.T
        norm = np.sqrt((M * M).sum())
        assert np.sqrt(((recon - M) ** 2).sum()) <= 1e-9 * max(norm, 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_eigenvalue_sum_is_trace(self, seed):
        rng = np.random.default_rng(400 + seed)
        M = rng.standard_normal((6, 6))
        M = M + M.T
        vals, _ = symmetric_eigs(M)
        assert abs(vals.sum() - np.trace(M)) <= 1e-9 * max(1.0, abs(np.trace(M)))


class TestQrSolve:
    def test_solve_linear(self):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        b = rng.standard_normal(4)
        np.testing.assert_allclose(solve_linear(A, b), np.linalg.solve(A, b),
                                   atol=1e-10)

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))


class TestOrthonormalBasis:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            OrthonormalBasis(2, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_coords_and_project(self):
        basis = orthonormalize([[1.0, 1.0, 0.0]])
        v = np.array([2.0, 0.0, 7.0])
        np.testing.assert_allclose(basis.coords(v), [np.sqrt(2)], atol=1e-12)
        np.testing.assert_allclose(basis.project(v), [1.0, 1.0, 0.0], atol=1e-12)
