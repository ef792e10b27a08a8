import numpy as np
import pytest

from helpers import (alternating_scaling, random_compatible_targets,
                     random_positive_tensor)
from slicescale import blockmin
from slicescale.blockmin import BlockVector
from slicescale.objective import ScalingProblem, SubspaceFrame
from slicescale.scaler import (ProjectedScalingBlockProblem,
                               StandardScalingBlockProblem,
                               closed_form_block_update, normalize,
                               random_reduced_point, sinkhorn_reference, solve,
                               solve_modified, solve_positive_case)
from slicescale.tensor import (DenseTensor, SliceTargets, rank_one_target,
                               slice_sums)


def problem_of(array, targets=None):
    tensor = DenseTensor(array)
    if targets is None:
        targets = SliceTargets.uniform(tensor.dims)
    return ScalingProblem(tensor, targets)


class TestClosedFormUpdate:
    def test_ones_matrix_recenters(self):
        p = problem_of(np.ones((2, 2)))
        x = BlockVector.zeros((2, 2))
        np.testing.assert_allclose(closed_form_block_update(p, x, 0),
                                   [0.0, 0.0], atol=1e-15)

    def test_hand_2x2(self):
        p = problem_of([[2.0, 1.0], [1.0, 1.0]])
        x = BlockVector.zeros((2, 2))
        update = closed_form_block_update(p, x, 0)
        expected = np.array([0.5 * np.log(2.0 / 3.0), 0.5 * np.log(3.0 / 2.0)])
        np.testing.assert_allclose(update, expected, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_post_update_stationarity(self, seed):
        rng = np.random.default_rng(1100 + seed)
        tensor = random_positive_tensor(rng, (2, 3))
        targets = random_compatible_targets(rng, (2, 3))
        p = ScalingProblem(tensor, targets)
        x = BlockVector([rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 3)])
        for j in range(2):
            updated = x.with_block(j, closed_form_block_update(p, x, j))
            assert np.abs(p.restricted_gradient(updated, j)).max() <= 1e-12
            # the update lies in the target hyperplane
            assert abs(updated.blocks[j] @ targets.vectors[j]) <= 1e-12


class TestSolvePositive:
    def test_rank_one_converges_immediately(self):
        tg = SliceTargets([[1.5, 0.5], [0.7, 1.3]])
        sol = solve_positive_case(ScalingProblem(rank_one_target(tg), tg))
        assert sol.status == blockmin.CONVERGED
        assert sol.trace.n_steps == 0
        assert sol.proportionality == pytest.approx(1.0)

    def test_matches_alternating_oracle(self):
        p = problem_of([[1.0, 2.0], [3.0, 4.0]])
        sol = solve_positive_case(p, tol=1e-12)
        oracle = alternating_scaling([[1.0, 2.0], [3.0, 4.0]], [1, 1], [1, 1], 200)
        np.testing.assert_allclose(sol.scaled.array, oracle, atol=1e-8)
        assert sol.method == "greedy-standard"

    @pytest.mark.parametrize("seed", range(3))
    def test_random_cubes(self, seed):
        rng = np.random.default_rng(1200 + seed)
        p = ScalingProblem(random_positive_tensor(rng, (3, 3, 3)),
                           SliceTargets.uniform((3, 3, 3)))
        sol = solve_positive_case(p, tol=1e-10)
        assert sol.status == blockmin.CONVERGED
        for k in range(3):
            assert sol.residuals[k] <= 1e-8

    def test_rejects_gauge_instances(self):
        p = problem_of(np.diag([1.0, 1.0]))
        with pytest.raises(ValueError, match="gauge"):
            solve_positive_case(p)

    def test_ambient_start_accepted(self):
        p = problem_of([[1.0, 2.0], [3.0, 4.0]])
        x0 = BlockVector([[0.3, -0.3], [-0.1, 0.1]])
        sol = solve_positive_case(p, x0=x0, tol=1e-12)
        assert sol.status == blockmin.CONVERGED

    def test_bad_start_dims(self):
        p = problem_of([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="dims"):
            solve_positive_case(p, x0=BlockVector.zeros((3, 3)))


class TestSolveModified:
    def test_identity_pattern_immediate(self):
        p = problem_of(np.eye(2))
        sol = solve_modified(p, tol=1e-12)
        assert sol.status == blockmin.CONVERGED
        assert sol.trace.n_steps == 0
        np.testing.assert_allclose(sol.scaled.array, np.eye(2), atol=1e-12)

    def test_unequal_diagonal_3x3(self):
        p = problem_of(np.diag([2.0, 3.0, 5.0]))
        sol = solve_modified(p, tol=1e-12)
        assert sol.status == blockmin.CONVERGED
        np.testing.assert_allclose(sol.scaled.array, np.eye(3), atol=1e-8)
        assert sol.method == "greedy-projected"

    def test_anti_diagonal(self):
        p = problem_of([[0.0, 3.0], [7.0, 0.0]])
        sol = solve_modified(p, tol=1e-12)
        assert sol.status == blockmin.CONVERGED
        np.testing.assert_allclose(sol.scaled.array, [[0.0, 1.0], [1.0, 0.0]],
                                   atol=1e-10)

    def test_iterates_stay_reduced(self):
        p = problem_of(np.diag([2.0, 3.0, 5.0]))
        rng = np.random.default_rng(5)
        x0 = random_reduced_point(p.frame, rng)
        sol = solve_modified(p, x0=x0, tol=1e-12)
        wp = sol.working_problem
        for y in sol.trace.iterates:
            assert p.frame.reduced_residual(wp.to_ambient(y)) <= 1e-12

    def test_rejects_positive_instances(self):
        p = problem_of([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="no gauge"):
            solve_modified(p)

    def test_rejects_start_outside_reduced_space(self):
        p = problem_of(np.eye(2))
        z = BlockVector(p.frame.split(2.0 * p.frame.gauge_basis[:, 0]))
        with pytest.raises(ValueError, match="reduced"):
            solve_modified(p, x0=z)


class TestSolveDispatch:
    def test_routes_by_gauge_dim(self):
        assert solve(problem_of([[1.0, 2.0], [3.0, 4.0]])).method == "greedy-standard"
        assert solve(problem_of(np.eye(2))).method == "greedy-projected"

    def test_unscalable_hits_gradient_floor(self):
        p = problem_of([[1.0, 1.0], [0.0, 1.0]])
        sol = solve(p, tol=1e-10, max_iters=1500)
        assert sol.status == blockmin.MAX_ITERS_REACHED
        assert sol.trace.full_grad_norms[-1] > 100 * 1e-10
        assert sol.scaled is None

    def test_post_step_stationarity_recorded(self):
        sol = solve(problem_of([[1.0, 2.0], [3.0, 4.0]]), tol=1e-12)
        assert all(v <= 1e-12 for v in sol.trace.post_step_block_norms)


class TestNormalize:
    def test_ones_matrix(self):
        p = problem_of(np.ones((2, 2)))
        out, factor, residuals = normalize(p, BlockVector.zeros((2, 2)))
        assert factor == pytest.approx(2.0)
        np.testing.assert_allclose(out.array, 0.5)
        assert max(residuals) <= 1e-15

    def test_rank_one_factor_one(self):
        tg = SliceTargets([[2.0, 1.0], [1.5, 1.5]])
        p = ScalingProblem(rank_one_target(tg), tg)
        _, factor, _ = normalize(p, BlockVector.zeros((2, 2)))
        assert factor == pytest.approx(1.0)

    def test_gate_rejects_unconverged_point(self):
        p = problem_of([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="not converged"):
            normalize(p, BlockVector.zeros((2, 2)))

    def test_doubly_stochastic_sums(self):
        sol = solve(problem_of([[1.0, 2.0], [3.0, 4.0]]), tol=1e-12)
        out = sol.scaled
        np.testing.assert_allclose(slice_sums(out, 0), [1.0, 1.0], atol=1e-8)
        np.testing.assert_allclose(slice_sums(out, 1), [1.0, 1.0], atol=1e-8)


class TestZeroPatternPreservation:
    @pytest.mark.parametrize("array", [
        [[1.0, 1.0], [1.0, 1.0]],
        [[0.0, 3.0], [7.0, 0.0]],
        [[2.0, 0.0], [0.0, 5.0]],
    ])
    def test_output_pattern_equals_input(self, array):
        p = problem_of(array)
        sol = solve(p, tol=1e-12)
        assert sol.status == blockmin.CONVERGED
        assert sol.scaled.same_pattern(p.tensor)


class TestSinkhornReference:
    def test_ones_one_round(self):
        final, iterates = sinkhorn_reference(np.ones((2, 2)), [1, 1], [1, 1], 1)
        np.testing.assert_allclose(final, 0.5)
        assert len(iterates) == 2

    def test_hundred_rounds_doubly_stochastic(self):
        final, _ = sinkhorn_reference([[1.0, 2.0], [3.0, 4.0]], [1, 1], [1, 1], 100)
        np.testing.assert_allclose(final.sum(axis=1), [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(final.sum(axis=0), [1.0, 1.0], atol=1e-12)

    def test_iterate_equivalence_to_greedy(self):
        # scaled greedy iterates match oracle half-steps up to one global factor
        p = problem_of([[1.0, 2.0], [3.0, 4.0]])
        sol = solve_positive_case(p, tol=1e-300, max_iters=20)
        _, oracle = sinkhorn_reference([[1.0, 2.0], [3.0, 4.0]], [1, 1], [1, 1], 10)
        wp = sol.working_problem
        for k in range(1, 21):
            Bk = p.scaled(wp.to_ambient(sol.trace.iterates[k])).array
            ratio = Bk / oracle[k - 1]
            assert ratio.max() / ratio.min() - 1.0 <= 1e-10


class TestProportionality:
    @pytest.mark.parametrize("seed", range(3))
    def test_slice_sums_share_one_factor(self, seed):
        rng = np.random.default_rng(1300 + seed)
        tensor = random_positive_tensor(rng, (4, 3))
        targets = random_compatible_targets(rng, (4, 3))
        p = ScalingProblem(tensor, targets)
        sol = solve(p, tol=1e-12)
        assert sol.status == blockmin.CONVERGED
        raw = p.scaled(sol.x_star.blocks)
        ratios = np.concatenate([
            slice_sums(raw, k) / targets.vectors[k] for k in range(2)
        ])
        assert (ratios.max() - ratios.min()) / ratios.mean() <= 1e-6
        assert sol.proportionality == pytest.approx(raw.total / targets.total)


class TestWorkingProblems:
    def test_standard_coordinates_roundtrip(self):
        p = problem_of([[1.0, 2.0], [3.0, 4.0]])
        wp = StandardScalingBlockProblem(p)
        x = BlockVector([[0.4, -0.4], [-0.2, 0.2]])
        np.testing.assert_allclose(
            wp.to_ambient(wp.from_ambient(x)).concat(), x.concat(), atol=1e-14
        )

    def test_projected_update_projects(self):
        p = problem_of(np.diag([2.0, 3.0, 5.0]))
        wp = ProjectedScalingBlockProblem(p)
        y = BlockVector.zeros(wp.block_dims)
        v = wp.partial_minimizer(y, 0)
        y2 = wp.apply_update(y, 0, v)
        assert p.frame.reduced_residual(wp.to_ambient(y2)) <= 1e-12


def random_orthogonal(rng, k):
    """Seeded random orthogonal k x k matrix, reflections included."""
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return q


def rotated_frame(frame, rng):
    """The same subspaces as ``frame``, every basis turned by a random
    orthogonal change of coordinates."""

    def turn(basis):
        return basis @ random_orthogonal(rng, basis.shape[1])

    mode_bases = [turn(b) for b in frame.mode_bases]
    working = np.zeros_like(frame.working_basis)
    col = 0
    for j, b in enumerate(mode_bases):
        working[frame.block_slice(j), col:col + b.shape[1]] = b
        col += b.shape[1]
    return SubspaceFrame(frame.targets, mode_bases, working,
                         turn(frame.support_kernel_basis),
                         turn(frame.gauge_basis), turn(frame.reduced_basis),
                         [turn(b) for b in frame.projected_mode_bases])


def gauge_instance(rng):
    array = np.zeros((7, 7))
    array[:3, :4] = np.exp(rng.uniform(-2.0, 2.0, (3, 4)))
    array[3:, 4:] = np.exp(rng.uniform(-2.0, 2.0, (4, 3)))
    rows = np.concatenate([np.full(3, 3.5 / 3), np.full(4, 3.5 / 4)])
    cols = np.concatenate([np.full(4, 3.5 / 4), np.full(3, 3.5 / 3)])
    return DenseTensor(array), SliceTargets([rows, cols])


class TestOrientationInvariance:
    """Nothing a solve reports depends on how the frame's bases are turned."""

    @pytest.mark.parametrize("case", ["positive", "gauge"])
    def test_solve_ignores_basis_orientation(self, case):
        rng = np.random.default_rng(1400)
        if case == "positive":
            dims = (4, 5, 3)
            tensor = random_positive_tensor(rng, dims)
            targets = random_compatible_targets(rng, dims)
        else:
            tensor, targets = gauge_instance(rng)
        plain = ScalingProblem(tensor, targets)
        turned = ScalingProblem(tensor, targets,
                                frame=rotated_frame(plain.frame, rng))
        assert (plain.frame.gauge_dim > 0) == (case == "gauge")
        a, b = solve(plain, tol=1e-11), solve(turned, tol=1e-11)
        assert a.status == b.status == blockmin.CONVERGED
        assert a.trace.n_steps == b.trace.n_steps > 0
        assert a.trace.chosen_blocks == b.trace.chosen_blocks
        np.testing.assert_allclose(b.trace.objectives, a.trace.objectives,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            b.trace.full_grad_norms, a.trace.full_grad_norms, rtol=0,
            atol=1e-12 * a.trace.full_grad_norms[0])
        np.testing.assert_allclose(b.scaled.array, a.scaled.array,
                                   rtol=1e-12, atol=0)
        # the working coordinates themselves do differ
        assert not np.allclose(a.trace.iterates[-1].concat(),
                               b.trace.iterates[-1].concat())
