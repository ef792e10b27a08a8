import tracemalloc

import numpy as np
import pytest

from helpers import (ambient_point, fd_gradient, fd_hessian,
                     in_plane_gradient, projected_mode_bases,
                     random_compatible_targets, random_pattern_tensor,
                     random_positive_tensor, reduced_projector,
                     reference_bases, slice_sum_gradient, two_step_gauge)
from slicescale import objective
from slicescale.blockmin import BlockVector
from slicescale.numerics import null_space, symmetric_eigs
from slicescale.objective import (ScalingProblem, ambient_second_moments,
                                  build_frame)
from slicescale.scaler import solve
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
        assert p.gauge_dim == 0
        bases = reference_bases(p)
        assert bases.working_basis.shape[1] == 2
        assert bases.reduced_basis.shape[1] == 2
        for j in range(2):
            assert bases.mode_bases[j].shape == (2, 1)

    def test_identity_pattern_gauge(self):
        p = identity_pattern_problem()
        assert p.gauge_dim == 1
        assert reference_bases(p).reduced_basis.shape[1] == 1
        gauge = p.gauge_basis[:, 0]
        expected = np.array([1.0, -1.0, -1.0, 1.0]) / 2
        np.testing.assert_allclose(np.outer(gauge, gauge),
                                   np.outer(expected, expected), atol=1e-12)

    def test_projectors_symmetric_idempotent(self):
        # the projector matrix is built in the test: the problem keeps none,
        # and its ambient project() must apply the same map
        for problem in (ones_problem(), identity_pattern_problem()):
            P = reduced_projector(problem)
            assert np.abs(P - P.T).max() <= 1e-12
            assert np.abs(P @ P - P).max() <= 1e-12
            np.testing.assert_allclose(problem.project(np.eye(4)), P,
                                       rtol=0, atol=1e-12)

    def test_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            build_frame(DenseTensor(np.ones((2, 2))), SliceTargets.uniform((3, 3)))
        with pytest.raises(ValueError, match="dims"):
            ScalingProblem(DenseTensor(np.ones((2, 2))),
                           SliceTargets.uniform((3, 3)))

    @pytest.mark.parametrize("seed", range(6))
    def test_projected_mode_dims_on_random_patterns(self, seed):
        rng = np.random.default_rng(900 + seed)
        dims = (3, 3) if seed % 2 else (2, 3, 2)
        tensor = random_pattern_tensor(rng, dims)
        targets = random_compatible_targets(rng, dims)
        p = ScalingProblem(tensor, targets)
        bases = projected_mode_bases(p)
        for j, m in enumerate(dims):
            assert bases[j].shape == (sum(dims), m - 1)
        assert (reference_bases(p).reduced_basis.shape[1]
                == sum(dims) - len(dims) - p.gauge_dim)

    def test_working_basis_block_structure(self):
        Q = reference_bases(ones_problem()).working_basis
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
    """The support kernel and the gauge against ranks of the explicit
    incidence matrix R."""

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_kernel_and_gauge_dimensions(self, name):
        tensor, targets = kernel_case(name)
        G = build_frame(tensor, targets)
        R = incidence_matrix(tensor)
        T = target_matrix(targets)
        N = sum(tensor.dims)
        gram = ambient_second_moments(tensor.support.astype(float))
        np.testing.assert_array_equal(gram, R.T @ R)
        K = null_space(gram)
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
        tensor, targets = kernel_case("block-diagonal")
        G = build_frame(tensor, targets)
        kernel = null_space(ambient_second_moments(tensor.support.astype(float)))
        assert kernel.shape[1] == 3
        assert G.shape[1] == 2

    @staticmethod
    def traced_dense_frame():
        """Build the gauge basis of a dense 150 x 150 input with one zero
        entry under tracemalloc; returns (bytes retained by the basis, peak
        bytes, N). The zero keeps build_frame on its Gram path, which full
        support skips."""
        rng = np.random.default_rng(1300)
        dims = (150, 150)
        array = rng.uniform(0.1, 1.0, dims)
        array[0, 0] = 0.0
        tensor = DenseTensor(array)
        targets = random_compatible_targets(rng, dims)
        tracemalloc.start()
        try:
            G = build_frame(tensor, targets)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.shape[1] == 0
        return retained, peak, sum(dims)

    def test_dense_frame_memory_stays_quadratic_in_ambient_dim(self):
        # The incidence matrix R of a dense 150 x 150 input alone would take
        # nnz * N * 8 bytes, about 54 MB; the Gram route needs O(N^2). The
        # measured peak is about 2 N^2 doubles: the Gram matrix and the
        # eigenvectors eigh returns for it.
        _, peak, N = self.traced_dense_frame()
        assert peak < 2.5 * N * N * 8

    def test_dense_frame_retains_no_projector(self):
        # A connected support has a one-dimensional kernel and no gauge, so
        # build_frame keeps no N x N or N x n array.
        retained, _, N = self.traced_dense_frame()
        assert retained <= 0.1 * N * N * 8


def block_diagonal_pattern(rng, d, equal_masses):
    """Two or three positive blocks along the diagonal of a d-mode tensor.
    With ``equal_masses`` every mode gives each block the same target mass,
    which leaves shifts between blocks in the gauge; otherwise the targets
    are random and compatible."""
    sizes = rng.integers(1, 4, size=(int(rng.integers(2, 4)), d))
    dims = tuple(int(m) for m in sizes.sum(axis=0))
    array = np.zeros(dims)
    start = np.zeros(d, dtype=int)
    for block in sizes:
        index = tuple(slice(a, a + m) for a, m in zip(start, block))
        array[index] = rng.uniform(0.2, 1.0, tuple(block))
        start += block
    if not equal_masses:
        return DenseTensor(array), random_compatible_targets(rng, dims)
    block_mass = rng.uniform(1.0, 3.0, len(sizes))
    vectors = [np.concatenate([masses(rng, m, mass) for m, mass
                               in zip(sizes[:, j], block_mass)])
               for j in range(d)]
    return DenseTensor(array), SliceTargets(vectors)


class TestGaugeAgainstTwoStep:
    """The one-null-space gauge against the support kernel followed by its
    part orthogonal to the targets (tests/helpers.two_step_gauge)."""

    @staticmethod
    def draw(kind, rng):
        d = int(rng.integers(2, 5))
        if kind == "random":
            dims = tuple(int(m) for m in rng.integers(2, 6, d))
            return (random_pattern_tensor(rng, dims, density=0.5),
                    random_compatible_targets(rng, dims))
        return block_diagonal_pattern(rng, d, equal_masses=kind == "blocks")

    @pytest.mark.parametrize("target_scale", [1e-12, 1.0, 1e12])
    @pytest.mark.parametrize("kind", ["random", "blocks", "blocks-random-mass"])
    def test_same_gauge(self, kind, target_scale):
        rng = np.random.default_rng(2400)
        gauge_dims = []
        for _ in range(25):
            tensor, targets = self.draw(kind, rng)
            targets = SliceTargets([target_scale * s for s in targets.vectors])
            G = build_frame(tensor, targets)
            ref = two_step_gauge(tensor, targets)
            assert G.shape == ref.shape
            assert np.abs(G @ G.T - ref @ ref.T).max() <= 1e-10
            gauge_dims.append(G.shape[1])
        if kind == "blocks":
            assert min(gauge_dims) >= 1


def gram_path_gauge(tensor, targets):
    """The gauge as the null space of the support Gram matrix plus the outer
    product of each unit target in its diagonal block, for any support."""
    gram = ambient_second_moments(tensor.support.astype(float))
    offsets = np.concatenate([[0], np.cumsum(targets.dims)])
    for j, s in enumerate(targets.vectors):
        block = slice(offsets[j], offsets[j + 1])
        unit = s / np.linalg.norm(s)
        gram[block, block] += np.outer(unit, unit)
    return null_space(gram)


class TestFullSupportFrame:
    """Full support takes no factorization: its N x 0 gauge agrees with the
    Gram path, and a single zero entry sends build_frame back to that path."""

    @staticmethod
    def spread_targets(rng, dims):
        # entries from 1e-6 to 1 in every mode, rescaled to a common total
        vectors = []
        for m in dims:
            v = 10.0 ** rng.uniform(-6.0, 0.0, m)
            v[:2] = 1e-6, 1.0
            vectors.append(v)
        total = vectors[0].sum()
        return SliceTargets([v * (total / v.sum()) for v in vectors])

    @staticmethod
    def count_null_spaces(monkeypatch):
        calls = []

        def counted(A):
            calls.append(A.shape)
            return null_space(A)

        monkeypatch.setattr(objective.numerics, "null_space", counted)
        return calls

    @pytest.mark.parametrize("targets_kind", [1e-12, 1.0, 1e12, "spread"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_equals_gram_path(self, monkeypatch, d, targets_kind):
        rng = np.random.default_rng(2500 + d)
        calls = self.count_null_spaces(monkeypatch)
        for _ in range(5):
            dims = tuple(int(m) for m in rng.integers(2, 6, d))
            tensor = random_positive_tensor(rng, dims)
            if targets_kind == "spread":
                targets = self.spread_targets(rng, dims)
            else:
                targets = random_compatible_targets(rng, dims)
                targets = SliceTargets([targets_kind * s for s in targets.vectors])
            G = build_frame(tensor, targets)
            assert G.shape[1] == 0
            assert G.shape == (sum(dims), 0)
            assert not calls
            assert gram_path_gauge(tensor, targets).shape == (sum(dims), 0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_one_zero_entry_takes_the_gram_path(self, monkeypatch, d):
        rng = np.random.default_rng(2510 + d)
        dims = tuple(int(m) for m in rng.integers(2, 6, d))
        array = rng.uniform(0.1, 1.0, dims)
        array[tuple(int(rng.integers(m)) for m in dims)] = 0.0
        tensor = DenseTensor(array)
        targets = random_compatible_targets(rng, dims)
        calls = self.count_null_spaces(monkeypatch)
        basis = build_frame(tensor, targets)
        assert calls == [(sum(dims), sum(dims))]
        G = gram_path_gauge(tensor, targets)
        assert basis.shape == G.shape
        np.testing.assert_array_equal(basis, G)

    def test_positive_solve_allocates_no_ambient_square(self):
        # A seeded 400 x 400 positive matrix: building the problem and
        # solving it peaks below one N x N float64 array (N = 800,
        # 4.88 MiB). The Gram path alone peaks near two of them.
        rng = np.random.default_rng(2520)
        dims = (400, 400)
        tensor = random_positive_tensor(rng, dims)
        targets = random_compatible_targets(rng, dims)
        N = sum(dims)
        tracemalloc.start()
        try:
            solution = solve(ScalingProblem(tensor, targets))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert solution.status == "converged"
        assert peak < N * N * 8


class TestObjective:
    def test_zero_gives_total(self):
        p = ones_problem()
        assert p.scaled(BlockVector.zeros((2, 2))).total == pytest.approx(4.0)

    def test_hand_value(self):
        # entries 2, 2, 0.5, 0.5 sum to 5
        p = ones_problem()
        x = BlockVector([[np.log(2.0), -np.log(2.0)], [0.0, 0.0]])
        assert p.scaled(x).total == pytest.approx(5.0)

    def test_gauge_translation_invariance(self):
        p = identity_pattern_problem((2.0, 5.0))
        rng = np.random.default_rng(3)
        z = p.gauge_basis[:, 0]
        working = reference_bases(p).working_basis
        for _ in range(5):
            x = BlockVector(p.split(
                working @ rng.uniform(-2, 2, working.shape[1])))
            fx = p.scaled(x).total
            for shift in (z, 3.7 * z):
                moved = BlockVector.from_concat(p.block_dims, x.concat() + shift)
                assert p.scaled(moved).total == pytest.approx(fx, rel=1e-10)


class TestGradients:
    def test_ambient_gradient_is_slice_sums(self):
        p, rng = random_cube_problem(11)
        x = ambient_point(rng, (2, 2, 2))
        scaled = p.scaled(x)
        got = p.split(slice_sum_gradient(p, x))
        for j in range(3):
            want = scaled.array.sum(axis=tuple(a for a in range(3) if a != j))
            np.testing.assert_array_equal(got[j], want)

    def test_identity_scaled_gradient(self):
        p = identity_pattern_problem()
        x = BlockVector([[np.log(2.0), 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(slice_sum_gradient(p, x)[:2], [2.0, 1.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_fd_gradient(self, seed):
        p, rng = random_cube_problem(20 + seed)
        for _ in range(4):
            x = ambient_point(rng, (2, 2, 2), radius=1.5)
            vec = x.concat()

            def f(v):
                return p.scaled(BlockVector(p.split(v))).total

            analytic = slice_sum_gradient(p, x)
            numeric = fd_gradient(f, vec, h=1e-5)
            denom = np.abs(analytic).max()
            assert np.abs(analytic - numeric).max() <= 1e-6 * denom

    def test_restricted_gradient_zero_at_proportional_point(self):
        tg = SliceTargets([[2.0, 1.0], [1.5, 1.5]])
        p = ScalingProblem(rank_one_target(tg), tg)
        x = BlockVector.zeros((2, 2))
        for j in range(2):
            assert np.abs(in_plane_gradient(p, x, j)).max() <= 1e-14

    def test_restricted_gradient_hand_value(self):
        p = ones_problem()
        x = BlockVector([[np.log(2.0), -np.log(2.0)], [0.0, 0.0]])
        g = in_plane_gradient(p, x, 0)
        assert np.linalg.norm(g) == pytest.approx(3.0 / np.sqrt(2), rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_norm_pythagoras(self, seed):
        # squared working-space gradient norm equals the sum over modes
        p, rng = random_cube_problem(40 + seed)
        x = ambient_point(rng, (2, 2, 2))
        ghat = slice_sum_gradient(p, x)
        working = reference_bases(p).working_basis
        full_sq = float(((working.T @ ghat) ** 2).sum())
        parts = sum(float((in_plane_gradient(p, x, j) ** 2).sum())
                    for j in range(3))
        assert full_sq == pytest.approx(parts, rel=1e-12)


def w_norm(p, x, j):
    """Block-j gradient norm the scaling problem reports: on a gauge
    instance, the norm of the coordinates along the projected mode-j basis."""
    return p.evaluate(x)[1][j]


class TestWGradient:
    def test_matches_restricted_without_gauge(self):
        p, rng = random_cube_problem(50)
        x = ambient_point(rng, (2, 2, 2))
        for j in range(3):
            b = in_plane_gradient(p, x, j)
            assert w_norm(p, x, j) == pytest.approx(np.linalg.norm(b),
                                                    rel=0, abs=1e-12)

    def test_identity_pattern_zero_at_origin(self):
        p = identity_pattern_problem()
        x = BlockVector.zeros((2, 2))
        for j in range(2):
            assert w_norm(p, x, j) <= 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_reduced_norm_bounded_by_w_norms(self, seed):
        rng = np.random.default_rng(60 + seed)
        tensor = random_pattern_tensor(rng, (3, 3))
        targets = random_compatible_targets(rng, (3, 3))
        p = ScalingProblem(tensor, targets)
        reduced = reference_bases(p).reduced_basis
        coeffs = rng.uniform(-1, 1, reduced.shape[1])
        x = BlockVector(p.split(reduced @ coeffs))
        ghat = slice_sum_gradient(p, x)
        reduced_sq = float(((reduced.T @ ghat) ** 2).sum())
        w_sq = sum(w_norm(p, x, j) ** 2 for j in range(2))
        assert reduced_sq <= w_sq + 1e-10 * max(1.0, w_sq)

    @pytest.mark.parametrize("seed", range(4))
    def test_restricted_bounded_by_w_per_mode(self, seed):
        rng = np.random.default_rng(70 + seed)
        tensor = random_pattern_tensor(rng, (2, 4))
        targets = random_compatible_targets(rng, (2, 4))
        p = ScalingProblem(tensor, targets)
        reduced = reference_bases(p).reduced_basis
        coeffs = rng.uniform(-1, 1, reduced.shape[1])
        x = BlockVector(p.split(reduced @ coeffs))
        for j in range(2):
            restricted = np.sqrt((in_plane_gradient(p, x, j) ** 2).sum())
            w = w_norm(p, x, j)
            assert restricted <= w + 1e-10 * max(1.0, w)


class TestHessian:
    def test_ones_ambient_hessian(self):
        p = ones_problem()
        H = ambient_second_moments(p.scaled(BlockVector.zeros((2, 2))).array)
        expected = np.array([
            [2.0, 0.0, 1.0, 1.0],
            [0.0, 2.0, 1.0, 1.0],
            [1.0, 1.0, 2.0, 0.0],
            [1.0, 1.0, 0.0, 2.0],
        ])
        np.testing.assert_allclose(H, expected)

    def test_ones_restricted_is_twice_identity(self):
        p = ones_problem()
        Q = reference_bases(p).working_basis
        ones = p.scaled(BlockVector.zeros((2, 2))).array
        H = Q.T @ ambient_second_moments(ones) @ Q
        np.testing.assert_allclose(H, 2.0 * np.eye(2), atol=1e-12)

    def test_diagonal_is_concatenated_slice_sums(self):
        p, rng = random_cube_problem(80)
        x = ambient_point(rng, (2, 2, 2))
        H = ambient_second_moments(p.scaled(x).array)
        np.testing.assert_allclose(np.diag(H), slice_sum_gradient(p, x),
                                   rtol=1e-14)

    @pytest.mark.parametrize("seed", range(2))
    def test_fd_hessian(self, seed):
        p, rng = random_cube_problem(90 + seed)
        x = ambient_point(rng, (2, 2, 2), radius=1.2)
        vec = x.concat()

        def f(v):
            return p.scaled(BlockVector(p.split(v))).total

        H = ambient_second_moments(p.scaled(x).array)
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
        Q = reference_bases(p).reduced_basis
        for _ in range(4):
            coeffs = rng.uniform(-1, 1, Q.shape[1])
            coeffs *= 5.0 / max(5.0, np.abs(coeffs).max())
            x = BlockVector(p.split(Q @ coeffs))
            H = Q.T @ ambient_second_moments(p.scaled(x).array) @ Q
            vals = symmetric_eigs(H)
            assert vals[0] > 0

