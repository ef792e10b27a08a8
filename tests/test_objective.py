import tracemalloc

import numpy as np
import pytest

from helpers import (ambient_point, fd_gradient, fd_hessian,
                     random_compatible_targets, random_pattern_tensor,
                     random_positive_tensor)
from slicescale.blockmin import BlockVector
from slicescale.numerics import symmetric_eigs
from slicescale.objective import (ScalingPoint, ScalingProblem,
                                  ambient_second_moments, build_frame)
from slicescale.tensor import DenseTensor, SliceTargets, rank_one_target


def ones_problem():
    return ScalingProblem(DenseTensor(np.ones((2, 2))),
                          SliceTargets([[1.0, 1.0], [1.0, 1.0]]))


def identity_pattern_problem(diag=(1.0, 1.0)):
    return ScalingProblem(DenseTensor(np.diag(diag)),
                          SliceTargets([[1.0, 1.0], [1.0, 1.0]]))


def random_cube_problem(seed):
    rng = np.random.default_rng(seed)
    tensor = random_positive_tensor(rng, (2, 2, 2))
    targets = random_compatible_targets(rng, (2, 2, 2))
    return ScalingProblem(tensor, targets), rng


class TestBuildFrame:
    def test_positive_matrix_has_no_gauge(self):
        p = ones_problem()
        frame = p.frame
        assert frame.gauge_dim == 0
        assert frame.working_dim == 2
        assert frame.reduced_dim == 2
        for j in range(2):
            assert frame.mode_bases[j].shape == (2, 1)

    def test_identity_pattern_gauge(self):
        frame = identity_pattern_problem().frame
        assert frame.gauge_dim == 1
        assert frame.reduced_dim == 1
        gauge = frame.gauge_basis[:, 0]
        expected = np.array([1.0, -1.0, -1.0, 1.0]) / 2
        np.testing.assert_allclose(np.outer(gauge, gauge),
                                   np.outer(expected, expected), atol=1e-12)

    def test_projectors_symmetric_idempotent(self):
        for problem in (ones_problem(), identity_pattern_problem()):
            for P in (problem.frame.reduced_projector,
                      problem.frame.support_complement_projector):
                assert np.abs(P - P.T).max() <= 1e-12
                assert np.abs(P @ P - P).max() <= 1e-12

    def test_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            build_frame(DenseTensor(np.ones((2, 2))), SliceTargets.uniform((3, 3)))

    @pytest.mark.parametrize("seed", range(6))
    def test_projected_mode_dims_on_random_patterns(self, seed):
        rng = np.random.default_rng(900 + seed)
        dims = (3, 3) if seed % 2 else (2, 3, 2)
        tensor = random_pattern_tensor(rng, dims)
        targets = random_compatible_targets(rng, dims)
        frame = build_frame(tensor, targets)
        for j, m in enumerate(dims):
            assert frame.projected_mode_bases[j].shape == (sum(dims), m - 1)
        assert frame.reduced_dim == frame.working_dim - frame.gauge_dim

    def test_working_basis_block_structure(self):
        frame = ones_problem().frame
        Q = frame.working_basis
        assert Q.shape == (4, 2)
        np.testing.assert_allclose(Q.T @ Q, np.eye(2), atol=1e-12)
        # each column supported on one block
        assert np.abs(Q[2:, 0]).max() == 0.0
        assert np.abs(Q[:2, 1]).max() == 0.0


def incidence_matrix(tensor):
    """R: one row per nonzero entry, ones at that entry's per-mode positions."""
    offsets = np.concatenate([[0], np.cumsum(tensor.dims)])
    idx = np.argwhere(tensor.support)
    R = np.zeros((len(idx), offsets[-1]))
    for j in range(tensor.d):
        R[np.arange(len(idx)), offsets[j] + idx[:, j]] = 1.0
    return R


def target_matrix(targets):
    """T: row j holds target s_j in mode j's block and zeros elsewhere."""
    offsets = np.concatenate([[0], np.cumsum(targets.dims)])
    T = np.zeros((targets.d, offsets[-1]))
    for j, s in enumerate(targets.vectors):
        T[j, offsets[j]:offsets[j + 1]] = s
    return T


def masses(rng, m, total):
    v = rng.uniform(0.5, 1.5, m)
    return v * (total / v.sum())


def block_diagonal_case(seed):
    rng = np.random.default_rng(seed)
    sizes = [(3, 4), (5, 2), (2, 3)]
    array = np.zeros((sum(p for p, _ in sizes), sum(q for _, q in sizes)))
    i = j = 0
    for p, q in sizes:
        array[i:i + p, j:j + q] = rng.uniform(0.2, 1.0, (p, q))
        i, j = i + p, j + q
    # equal row and column mass per block, so the gauge is nontrivial
    rows = np.concatenate([masses(rng, p, p + q) for p, q in sizes])
    cols = np.concatenate([masses(rng, q, p + q) for p, q in sizes])
    return DenseTensor(array), SliceTargets([rows, cols])


def bidiagonal_case(seed, n=200):
    # a path-shaped support: the smallest nonzero singular value of R, about
    # pi / N, is the smallest over connected supports with N = 2 n vertices
    rng = np.random.default_rng(seed)
    array = (np.diag(rng.uniform(0.2, 1.0, n))
             + np.diag(rng.uniform(0.2, 1.0, n - 1), 1))
    return DenseTensor(array), SliceTargets.uniform((n, n))


def pattern_case(dims, seed):
    rng = np.random.default_rng(seed)
    tensor = random_pattern_tensor(rng, dims, density=0.35)
    return tensor, random_compatible_targets(rng, dims)


KERNEL_CASES = {
    **{f"pattern-d{len(dims)}-seed{seed}": (pattern_case, dims, seed)
       for dims in [(6, 7), (4, 3, 5), (3, 4, 2, 3)]
       for seed in range(1210, 1213)},
    "block-diagonal": (block_diagonal_case, 1200),
    "bidiagonal-200": (bidiagonal_case, 1201),
}


def kernel_case(name):
    make, *args = KERNEL_CASES[name]
    return make(*args)


class TestFrameKernelOracle:
    """Frame subspaces against ranks of the explicit incidence matrix R."""

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_kernel_and_gauge_dimensions(self, name):
        tensor, targets = kernel_case(name)
        frame = build_frame(tensor, targets)
        R = incidence_matrix(tensor)
        T = target_matrix(targets)
        N = sum(tensor.dims)
        np.testing.assert_array_equal(
            ambient_second_moments(tensor.support.astype(float)), R.T @ R)
        K, G = frame.support_kernel_basis, frame.gauge_basis
        assert K.shape == (N, N - np.linalg.matrix_rank(R))
        assert G.shape == (N, N - np.linalg.matrix_rank(np.vstack([R, T])))
        assert np.abs(R @ K).max() <= 1e-10
        if G.shape[1]:
            assert np.abs(R @ G).max() <= 1e-10
            assert np.abs(T @ G).max() <= 1e-10 * np.abs(T).max()
        for B in (K, G):
            np.testing.assert_allclose(B.T @ B, np.eye(B.shape[1]), atol=1e-12)

    def test_block_diagonal_gauge_dimension(self):
        # three blocks: one shift per block in the kernel; equal row and
        # column mass per block leaves all but one of them in the gauge
        frame = build_frame(*kernel_case("block-diagonal"))
        assert frame.support_kernel_basis.shape[1] == 3
        assert frame.gauge_dim == 2

    def test_dense_frame_memory_stays_quadratic_in_ambient_dim(self):
        # The incidence matrix R of a dense 150 x 150 input alone would take
        # nnz * N * 8 bytes, about 54 MB; the Gram route needs O(N^2).
        rng = np.random.default_rng(1300)
        dims = (150, 150)
        tensor = random_positive_tensor(rng, dims)
        targets = random_compatible_targets(rng, dims)
        N = sum(dims)
        tracemalloc.start()
        try:
            build_frame(tensor, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * N * N * 8


class TestObjective:
    def test_zero_gives_total(self):
        p = ones_problem()
        assert p.objective(BlockVector.zeros((2, 2))) == pytest.approx(4.0)

    def test_hand_value(self):
        # entries 2, 2, 0.5, 0.5 sum to 5
        p = ones_problem()
        x = BlockVector([[np.log(2.0), -np.log(2.0)], [0.0, 0.0]])
        assert p.objective(x) == pytest.approx(5.0)

    def test_gauge_translation_invariance(self):
        p = identity_pattern_problem((2.0, 5.0))
        frame = p.frame
        rng = np.random.default_rng(3)
        z = BlockVector(frame.split(frame.gauge_basis[:, 0]))
        for _ in range(5):
            x = BlockVector(frame.split(
                frame.working_basis @ rng.uniform(-2, 2, frame.working_dim)))
            fx = p.objective(x)
            assert p.objective(x + z) == pytest.approx(fx, rel=1e-10)
            assert p.objective(x + 3.7 * z) == pytest.approx(fx, rel=1e-10)


class TestGradients:
    def test_ambient_gradient_is_slice_sums(self):
        p, rng = random_cube_problem(11)
        x = ambient_point(rng, (2, 2, 2))
        scaled = p.scaled(x)
        for j in range(3):
            got = p.block_gradient_ambient(x, j)
            want = scaled.array.sum(axis=tuple(a for a in range(3) if a != j))
            np.testing.assert_array_equal(got, want)

    def test_identity_scaled_gradient(self):
        p = identity_pattern_problem()
        x = BlockVector([[np.log(2.0), 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(p.block_gradient_ambient(x, 0), [2.0, 1.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_fd_gradient(self, seed):
        p, rng = random_cube_problem(20 + seed)
        frame = p.frame
        for _ in range(4):
            x = ambient_point(rng, (2, 2, 2), radius=1.5)
            vec = x.concat()

            def f(v):
                return p.objective(BlockVector(frame.split(v)))

            analytic = p.ambient_gradient(x)
            numeric = fd_gradient(f, vec, h=1e-5)
            denom = np.abs(analytic).max()
            assert np.abs(analytic - numeric).max() <= 1e-6 * denom

    def test_restricted_gradient_zero_at_proportional_point(self):
        tg = SliceTargets([[2.0, 1.0], [1.5, 1.5]])
        p = ScalingProblem(rank_one_target(tg), tg)
        x = BlockVector.zeros((2, 2))
        for j in range(2):
            assert np.abs(p.restricted_gradient(x, j)).max() <= 1e-14

    def test_restricted_gradient_hand_value(self):
        p = ones_problem()
        x = BlockVector([[np.log(2.0), -np.log(2.0)], [0.0, 0.0]])
        g = p.restricted_gradient(x, 0)
        assert abs(g).max() == pytest.approx(3.0 / np.sqrt(2), rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_norm_pythagoras(self, seed):
        # squared working-space gradient norm equals the sum over modes
        p, rng = random_cube_problem(40 + seed)
        frame = p.frame
        x = ambient_point(rng, (2, 2, 2))
        ghat = p.ambient_gradient(x)
        full_sq = float(((frame.working_basis.T @ ghat) ** 2).sum())
        parts = sum(float((p.restricted_gradient(x, j) ** 2).sum())
                    for j in range(3))
        assert full_sq == pytest.approx(parts, rel=1e-12)


class TestWGradient:
    def test_matches_restricted_without_gauge(self):
        p, rng = random_cube_problem(50)
        x = ambient_point(rng, (2, 2, 2))
        for j in range(3):
            a = p.w_gradient(x, j)
            b = p.restricted_gradient(x, j)
            np.testing.assert_allclose(np.abs(a), np.abs(b), atol=1e-12)

    def test_identity_pattern_zero_at_origin(self):
        p = identity_pattern_problem()
        x = BlockVector.zeros((2, 2))
        for j in range(2):
            assert np.abs(p.w_gradient(x, j)).max() <= 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_reduced_norm_bounded_by_w_norms(self, seed):
        rng = np.random.default_rng(60 + seed)
        tensor = random_pattern_tensor(rng, (3, 3))
        targets = random_compatible_targets(rng, (3, 3))
        p = ScalingProblem(tensor, targets)
        frame = p.frame
        coeffs = rng.uniform(-1, 1, frame.reduced_dim)
        x = BlockVector(frame.split(frame.reduced_basis @ coeffs))
        ghat = p.ambient_gradient(x)
        reduced_sq = float(((frame.reduced_basis.T @ ghat) ** 2).sum())
        w_sq = sum(float((p.w_gradient(x, j) ** 2).sum()) for j in range(2))
        assert reduced_sq <= w_sq + 1e-10 * max(1.0, w_sq)

    @pytest.mark.parametrize("seed", range(4))
    def test_restricted_bounded_by_w_per_mode(self, seed):
        rng = np.random.default_rng(70 + seed)
        tensor = random_pattern_tensor(rng, (2, 4))
        targets = random_compatible_targets(rng, (2, 4))
        p = ScalingProblem(tensor, targets)
        frame = p.frame
        coeffs = rng.uniform(-1, 1, frame.reduced_dim)
        x = BlockVector(frame.split(frame.reduced_basis @ coeffs))
        for j in range(2):
            restricted = np.sqrt((p.restricted_gradient(x, j) ** 2).sum())
            w_norm = np.sqrt((p.w_gradient(x, j) ** 2).sum())
            assert restricted <= w_norm + 1e-10 * max(1.0, w_norm)


class TestHessian:
    def test_ones_ambient_hessian(self):
        p = ones_problem()
        H = p.hessian_ambient(BlockVector.zeros((2, 2)))
        expected = np.array([
            [2.0, 0.0, 1.0, 1.0],
            [0.0, 2.0, 1.0, 1.0],
            [1.0, 1.0, 2.0, 0.0],
            [1.0, 1.0, 0.0, 2.0],
        ])
        np.testing.assert_allclose(H, expected)

    def test_ones_restricted_is_twice_identity(self):
        p = ones_problem()
        H = p.hessian_restricted(BlockVector.zeros((2, 2)),
                                 p.frame.working_basis)
        np.testing.assert_allclose(H, 2.0 * np.eye(2), atol=1e-12)

    def test_diagonal_is_concatenated_slice_sums(self):
        p, rng = random_cube_problem(80)
        x = ambient_point(rng, (2, 2, 2))
        H = p.hessian_ambient(x)
        np.testing.assert_allclose(np.diag(H), p.ambient_gradient(x), rtol=1e-14)

    @pytest.mark.parametrize("seed", range(2))
    def test_fd_hessian(self, seed):
        p, rng = random_cube_problem(90 + seed)
        frame = p.frame
        x = ambient_point(rng, (2, 2, 2), radius=1.2)
        vec = x.concat()

        def f(v):
            return p.objective(BlockVector(frame.split(v)))

        H = p.hessian_ambient(x)
        H_fd = fd_hessian(f, vec, h=1e-4)
        assert np.abs(H - H_fd).max() <= 1e-4 * np.abs(H).max()

    @pytest.mark.parametrize("seed", range(3))
    def test_strict_convexity_on_reduced_space(self, seed):
        rng = np.random.default_rng(100 + seed)
        if seed % 2:
            tensor = random_pattern_tensor(rng, (3, 3))
            targets = random_compatible_targets(rng, (3, 3))
        else:
            tensor = random_positive_tensor(rng, (2, 3))
            targets = random_compatible_targets(rng, (2, 3))
        p = ScalingProblem(tensor, targets)
        frame = p.frame
        for _ in range(4):
            coeffs = rng.uniform(-1, 1, frame.reduced_dim)
            coeffs *= 5.0 / max(5.0, np.abs(coeffs).max())
            x = BlockVector(frame.split(frame.reduced_basis @ coeffs))
            H = p.hessian_restricted(x, frame.reduced_basis)
            vals, _ = symmetric_eigs(H)
            assert vals[0] > 0


class TestScalingPoint:
    def test_valid_point(self):
        p = ones_problem()
        x = BlockVector([[1.0, -1.0], [0.5, -0.5]])
        pt = ScalingPoint(p.frame, x)
        assert pt.in_reduced_space

    def test_rejects_off_hyperplane(self):
        p = ones_problem()
        with pytest.raises(ValueError, match="orthogonal"):
            ScalingPoint(p.frame, BlockVector([[1.0, 0.0], [0.0, 0.0]]))

    def test_gauge_component_not_reduced(self):
        p = identity_pattern_problem()
        z = BlockVector(p.frame.split(p.frame.gauge_basis[:, 0]))
        pt = ScalingPoint(p.frame, z)
        assert not pt.in_reduced_space
        with pytest.raises(ValueError, match="reduced"):
            ScalingPoint(p.frame, z, require_reduced=True)
