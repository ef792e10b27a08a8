import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import (PerStepRescaleProblem, alternating_scaling,
                     in_plane_gradient, objective_decrease_reference, per_step_rescale_reference,
                     random_compatible_targets, random_positive_tensor,
                     reduced_residual, reference_bases, sinkhorn_reference)
from slicescale import blockmin, objective, tensor
from slicescale.blockmin import BlockVector
from slicescale.objective import ScalingProblem
from slicescale.scaler import (closed_form_block_update, normalize,
                               random_reduced_point, solve)
from slicescale.tensor import (DenseTensor, ScalingOverflowError,
                               SliceTargets, rank_one_target, slice_sums)


def problem_of(array, targets=None):
    tensor = DenseTensor(array)
    if targets is None:
        targets = SliceTargets.uniform(tensor.dims)
    return ScalingProblem(tensor, targets)


def fresh_copy(problem):
    """A new ScalingProblem of the same tensor and targets."""
    return ScalingProblem(problem.tensor, problem.targets)


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
            assert np.abs(in_plane_gradient(p, updated, j)).max() <= 1e-12
            # the update lies in the target hyperplane
            assert abs(updated.blocks[j] @ targets.vectors[j]) <= 1e-12


class TestSolvePositive:
    def test_rank_one_converges_immediately(self):
        tg = SliceTargets([[1.5, 0.5], [0.7, 1.3]])
        sol = solve(ScalingProblem(rank_one_target(tg), tg))
        assert sol.method == "greedy-standard"
        assert sol.status == blockmin.CONVERGED
        assert sol.trace.n_steps == 0
        assert sol.proportionality == pytest.approx(1.0)

    def test_matches_alternating_oracle(self):
        p = problem_of([[1.0, 2.0], [3.0, 4.0]])
        sol = solve(p, tol=1e-12)
        oracle = alternating_scaling([[1.0, 2.0], [3.0, 4.0]], [1, 1], [1, 1], 200)
        np.testing.assert_allclose(sol.scaled.array, oracle, atol=1e-8)
        assert sol.method == "greedy-standard"

    @pytest.mark.parametrize("seed", range(3))
    def test_random_cubes(self, seed):
        rng = np.random.default_rng(1200 + seed)
        p = ScalingProblem(random_positive_tensor(rng, (3, 3, 3)),
                           SliceTargets.uniform((3, 3, 3)))
        sol = solve(p, tol=1e-10)
        assert sol.method == "greedy-standard"
        assert sol.status == blockmin.CONVERGED
        for k in range(3):
            assert sol.residuals[k] <= 1e-8

    def test_ambient_start_accepted(self):
        p = problem_of([[1.0, 2.0], [3.0, 4.0]])
        x0 = BlockVector([[0.3, -0.3], [-0.1, 0.1]])
        sol = solve(p, x0=x0, tol=1e-12)
        assert sol.method == "greedy-standard"
        assert sol.status == blockmin.CONVERGED

    def test_bad_start_dims(self):
        p = problem_of([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="dims"):
            solve(p, x0=BlockVector.zeros((3, 3)))
        # starts are ambient blocks; hyperplane coordinates are refused
        with pytest.raises(ValueError, match="dims"):
            solve(p, x0=BlockVector.zeros((1, 1)))

    def test_guard_reads_ambient_exponents(self):
        # Block 0 of the start is Q_0 z, with Q_0 a 6 x 5 basis of
        # the hyperplane orthogonal to the all-ones target and z = +-10
        # following the signs of the row of Q_0 with the largest 1-norm. Its
        # coordinates have sup norm 10; its entry in that row is 10 times the
        # row's 1-norm. Each column of Q_0 is a zero-sum unit vector, with
        # 1-norm at least sqrt(2), so that row's 1-norm is at least
        # 5 sqrt(2) / 6 > 1. A guard between the two sup norms stops the run
        # before its first step only if it reads the exponents.
        p = problem_of(np.random.default_rng(1500).uniform(0.5, 1.5, (6, 6)))
        Q = reference_bases(p).mode_bases[0]
        row = int(np.abs(Q).sum(axis=1).argmax())
        z = 10.0 * np.where(Q[row] < 0, -1.0, 1.0)
        x0 = BlockVector([Q @ z, np.zeros(6)])
        coords_sup = float(np.abs(Q.T @ x0.blocks[0]).max())
        assert coords_sup < np.abs(x0.concat()).max()
        guard = 0.5 * (coords_sup + np.abs(x0.concat()).max())
        sol = solve(p, x0=x0, divergence_guard=guard)
        assert sol.method == "greedy-standard"
        assert sol.status == blockmin.DIVERGING
        assert sol.trace.n_steps == 0

    def test_guard_none_is_the_default_and_inf_turns_it_off(self):
        # No scaling gives this support unit row and column sums, so the
        # exponents drift without bound. None applies the default guard
        # min(1e3, 560 / 2) = 280, and the run diverges where an explicit
        # 280 stops it; inf never stops it.
        array = [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        for guard in (None, 280.0):
            sol = solve(problem_of(array), divergence_guard=guard)
            assert sol.status == blockmin.DIVERGING
            assert sol.trace.n_steps == 605
        sol = solve(problem_of(array), divergence_guard=math.inf,
                    max_iters=300)
        assert sol.status == blockmin.MAX_ITERS_REACHED
        assert sol.trace.n_steps == 300


class TestSolveModified:
    def test_identity_pattern_immediate(self):
        p = problem_of(np.eye(2))
        sol = solve(p, tol=1e-12)
        assert sol.method == "greedy-projected"
        assert sol.status == blockmin.CONVERGED
        assert sol.trace.n_steps == 0
        np.testing.assert_allclose(sol.scaled.array, np.eye(2), atol=1e-12)

    def test_unequal_diagonal_3x3(self):
        p = problem_of(np.diag([2.0, 3.0, 5.0]))
        sol = solve(p, tol=1e-12)
        assert sol.status == blockmin.CONVERGED
        np.testing.assert_allclose(sol.scaled.array, np.eye(3), atol=1e-8)
        assert sol.method == "greedy-projected"

    def test_anti_diagonal(self):
        p = problem_of([[0.0, 3.0], [7.0, 0.0]])
        sol = solve(p, tol=1e-12)
        assert sol.method == "greedy-projected"
        assert sol.status == blockmin.CONVERGED
        np.testing.assert_allclose(sol.scaled.array, [[0.0, 1.0], [1.0, 0.0]],
                                   atol=1e-10)

    def test_iterates_stay_reduced(self):
        p = problem_of(np.diag([2.0, 3.0, 5.0]))
        rng = np.random.default_rng(5)
        x0 = random_reduced_point(p, rng)
        sol = solve(p, x0=x0, tol=1e-12)
        assert sol.method == "greedy-projected"
        assert sol.trace.n_steps > 0
        assert sol.trace.iterates[-1] is sol.x_star
        for x in sol.trace.iterates:
            assert reduced_residual(p, x) <= 1e-12
        # the loop's gauge drift leaves the final point also when no iterate
        # is recorded
        bare = solve(p, x0=x0, tol=1e-12, record_iterates=False)
        assert bare.trace.iterates is None
        assert reduced_residual(p, bare.x_star) <= 1e-12
        np.testing.assert_array_equal(bare.x_star.concat(),
                                      sol.x_star.concat())

    def test_rejects_start_outside_reduced_space(self):
        p = problem_of(np.eye(2))
        z = BlockVector(p.split(2.0 * p.gauge_basis[:, 0]))
        with pytest.raises(ValueError, match="reduced"):
            solve(p, x0=z)


class TestStartChecks:
    """``solve`` checks a given start against the problem before running."""

    def test_valid_point(self):
        p = problem_of(np.ones((2, 2)))
        x0 = BlockVector([[1.0, -1.0], [0.5, -0.5]])
        sol = solve(p, x0=x0)
        assert sol.status == blockmin.CONVERGED
        assert sol.trace.iterates[0] is x0

    def test_rejects_off_hyperplane(self):
        p = problem_of(np.ones((2, 2)))
        with pytest.raises(ValueError, match="orthogonal"):
            solve(p, x0=BlockVector([[1.0, 0.0], [0.0, 0.0]]))

    def test_gauge_component_not_reduced(self):
        p = problem_of(np.eye(2))
        z = BlockVector(p.split(p.gauge_basis[:, 0]))
        with pytest.raises(ValueError, match="reduced"):
            solve(p, x0=z)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("array", [np.ones((2, 2)), np.eye(2)],
                             ids=["positive", "gauge"])
    def test_rejects_non_finite_start(self, array, value, monkeypatch):
        p = problem_of(array)
        calls = []
        monkeypatch.setattr(objective, "scale", lambda *args: calls.append(args))
        x0 = BlockVector([[value, -value], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="start must be finite"):
                solve(p, x0=x0)
        assert calls == []


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

    def test_residuals_are_the_stop_value(self):
        # normalize refuses no point; at an unconverged one its residuals
        # are the relative mismatch the problem reports there
        p = problem_of([[1.0, 2.0], [3.0, 4.0]])
        x = BlockVector.zeros((2, 2))
        _, factor, residuals = normalize(p, x)
        assert factor == pytest.approx(5.0)
        np.testing.assert_allclose(residuals, [0.4, 0.2], rtol=1e-14)
        p.evaluate(x)
        assert p.stop_value(x, None) == pytest.approx(max(residuals),
                                                      rel=1e-14)

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
        assert np.array_equal(sol.scaled.support, p.tensor.support)


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
        sol = solve(p, tol=1e-300, max_iters=20)
        assert sol.method == "greedy-standard"
        _, oracle = sinkhorn_reference([[1.0, 2.0], [3.0, 4.0]], [1, 1], [1, 1], 10)
        assert sol.trace.n_steps == 20 or sol.status == blockmin.CONVERGED
        for k in range(1, 21):
            # a run whose gradient reaches exactly zero stops early at a
            # point that the later half steps of the oracle keep fixed
            x = sol.trace.iterates[min(k, sol.trace.n_steps)]
            Bk = p.scaled(x).array
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
    @pytest.mark.parametrize("start", ["zero", "random"])
    def test_steps_commute_with_the_gauge(self, start):
        # A step replaces one block and leaves the reduced space on a gauge
        # instance; projecting the point back changes no slice sum, so the
        # loop reads the same mass, block-gradient norms and stop value.
        p = problem_of(np.diag([2.0, 3.0, 5.0]))
        x = (BlockVector.zeros(p.block_dims) if start == "zero"
             else random_reduced_point(p, np.random.default_rng(2600)))
        for j in (0, 1, 0):
            x, _ = p.step(x, j)
            y = BlockVector(p.split(p.project(x.concat())))
            assert reduced_residual(p, x) > 1e-3
            mass, norms = p.evaluate(x)
            stop = p.stop_value(x, 0.0)
            mass_y, norms_y = p.evaluate(y)
            assert mass_y == pytest.approx(mass, rel=1e-13, abs=0)
            np.testing.assert_allclose(norms_y, norms, rtol=0,
                                       atol=1e-13 * mass)
            assert p.stop_value(y, 0.0) == pytest.approx(stop, rel=1e-13,
                                                         abs=1e-13)


def random_orthogonal(rng, k):
    """Seeded random orthogonal k x k matrix, reflections included."""
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return q


def gauge_instance(rng, shapes=((3, 4), (4, 3))):
    """A block-diagonal matrix with one block of each shape, entries
    exp(U(-2, 2)), and targets that give every block mass 3.5; its gauge
    has dimension len(shapes) - 1."""
    rows, cols = zip(*shapes)
    array = np.zeros((sum(rows), sum(cols)))
    r = c = 0
    for m, n in shapes:
        array[r:r + m, c:c + n] = np.exp(rng.uniform(-2.0, 2.0, (m, n)))
        r, c = r + m, c + n
    return DenseTensor(array), SliceTargets([
        np.concatenate([np.full(m, 3.5 / m) for m in sizes])
        for sizes in (rows, cols)])


class TestOrientationInvariance:
    """Nothing a solve reports depends on how the gauge basis is turned."""

    @pytest.mark.parametrize("case", ["positive", "gauge", "sign-flip"])
    def test_solve_ignores_basis_orientation(self, case, monkeypatch):
        rng = np.random.default_rng(1400)
        if case == "positive":
            dims = (4, 5, 3)
            tensor = random_positive_tensor(rng, dims)
            targets = random_compatible_targets(rng, dims)
        elif case == "gauge":
            tensor, targets = gauge_instance(rng)
        else:
            tensor, targets = gauge_instance(rng, ((3, 2), (2, 3), (2, 2)))
        plain = ScalingProblem(tensor, targets)
        if case == "sign-flip":
            # the same basis with its first column negated
            G = plain.gauge_basis * [-1.0, 1.0]
        else:
            # the same gauge, its basis turned by a random orthogonal
            # change of coordinates
            G = plain.gauge_basis @ random_orthogonal(rng, plain.gauge_dim)
        monkeypatch.setattr(objective, "build_frame", lambda *args: G)
        turned = ScalingProblem(tensor, targets)
        assert turned.gauge_basis is G
        assert (plain.gauge_dim > 0) == (case != "positive")
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
        # the iterates are ambient exponents, so they agree as well
        xa, xb = a.trace.iterates[-1], b.trace.iterates[-1]
        np.testing.assert_allclose(xb.concat(), xa.concat(), rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(xa.concat()).max()))
        if case == "sign-flip":
            # a sign flip is exact in IEEE arithmetic, and it cancels in
            # G G^T and in the block-gradient norms, so every bit agrees
            for f in dataclasses.fields(a.trace):
                if f.name != "iterates":
                    assert getattr(b.trace, f.name) == getattr(a.trace, f.name)
            assert len(b.trace.iterates) == len(a.trace.iterates)
            for xa, xb in zip(a.trace.iterates, b.trace.iterates):
                np.testing.assert_array_equal(xb.concat(), xa.concat())
            np.testing.assert_array_equal(b.x_star.concat(), a.x_star.concat())
            np.testing.assert_array_equal(b.scaled.array, a.scaled.array)


def seeded_case(case, rng):
    """A positive matrix, a positive 3-mode cube or a block-diagonal gauge
    instance, with random compatible targets for the positive ones."""
    if case == "gauge":
        return ScalingProblem(*gauge_instance(rng))
    dims = {"matrix": (12, 12), "cube": (5, 4, 6)}[case]
    return ScalingProblem(random_positive_tensor(rng, dims),
                          random_compatible_targets(rng, dims))


def steep_kernel_problem():
    """Unnormalized 20 x 20 Gibbs kernel exp(-C/0.005) of jittered grids,
    unit targets: the kernel of
    ``TestObjectiveDecrease.test_strict_descent_on_steep_kernel``."""
    rng = np.random.default_rng(1700)
    n = 20
    grid = np.linspace(0.0, 1.0, n)
    x = grid + rng.uniform(-0.3, 0.3, n) / n
    y = grid + rng.uniform(-0.3, 0.3, n) / n
    cost = (x[:, None] - y[None, :]) ** 2
    kernel = np.exp(-cost / cost.max() / 0.005)
    return ScalingProblem(DenseTensor(kernel), SliceTargets.uniform((n, n)))


class TestOneRescalePerStep:
    """A solve rescales the tensor once per rebase of the problem's
    factored state and once in normalize, with or without a gauge."""

    @pytest.mark.parametrize("case", ["matrix", "gauge"])
    def test_scale_call_budget(self, case, monkeypatch):
        problem = seeded_case(case, np.random.default_rng(1500))
        calls = []
        real_scale = objective.scale

        def counting_scale(tensor, x):
            calls.append(x)
            return real_scale(tensor, x)

        monkeypatch.setattr(objective, "scale", counting_scale)
        sol = solve(problem, tol=1e-10)
        assert sol.status == blockmin.CONVERGED
        assert sol.method == ("greedy-projected" if case == "gauge"
                              else "greedy-standard")
        assert sol.trace.n_steps > 10
        rebases = problem.rebases
        assert rebases == 1
        assert len(calls) <= rebases + 2


class TestZeroStartRebase:
    """The rebase at the zero start takes the tensor itself as its kernel:
    no exponents are built until normalize."""

    @pytest.mark.parametrize("start, builds", [("zero", 1), ("random", 3)])
    def test_exponent_builds(self, start, builds, monkeypatch):
        rng = np.random.default_rng(1550)
        problem = problem_of(rng.uniform(0.1, 1.0, (12, 12)),
                             random_compatible_targets(rng, (12, 12)))
        x0 = (None if start == "zero"
              else random_reduced_point(problem, np.random.default_rng(5)))
        calls = []
        real_exponents = tensor._exponents

        def counting_exponents(t, blocks):
            calls.append(t)
            return real_exponents(t, blocks)

        monkeypatch.setattr(tensor, "_exponents", counting_exponents)
        sol = solve(problem, x0=x0, tol=1e-10)
        assert sol.status == blockmin.CONVERGED
        assert problem.rebases == 1
        # zero start: normalize alone; random start: the rebase's rescale
        # and support exponent, then normalize
        assert len(calls) == builds
        assert all(t is problem.tensor for t in calls)


class TestObjectiveDecrease:
    """The recorded drop against the entrywise oracle in tests/helpers.py."""

    @pytest.mark.parametrize("case", ["matrix", "cube", "gauge"])
    def test_matches_entrywise_reference(self, case):
        problem = seeded_case(case, np.random.default_rng(1600))
        x0 = random_reduced_point(problem, np.random.default_rng(1601))
        _, trace, _ = blockmin.run(problem, x0, 1e-10, 400, record_iterates=True)
        assert trace.n_steps > 10
        eps = np.finfo(float).eps
        for k in range(trace.n_steps):
            ref, mass = objective_decrease_reference(
                problem, trace.iterates[k], trace.iterates[k + 1])
            got = trace.objective_decreases[k]
            # on the gauge case the iterates carry the gauge drift of the
            # steps, which changes no entry on the support
            assert abs(got - ref) <= 8 * eps * mass

    def test_strict_descent_on_steep_kernel(self):
        rng = np.random.default_rng(1700)
        n = 20
        grid = np.linspace(0.0, 1.0, n)
        x = grid + rng.uniform(-0.3, 0.3, n) / n
        y = grid + rng.uniform(-0.3, 0.3, n) / n
        cost = (x[:, None] - y[None, :]) ** 2
        kernel = np.exp(-cost / cost.max() / 0.005)
        problem = ScalingProblem(DenseTensor(kernel), SliceTargets.uniform((n, n)))
        tol = 1e-10
        _, trace, _ = blockmin.run(problem, BlockVector.zeros((n, n)), tol,
                                   10000)
        assert trace.n_steps > 100
        for k in range(trace.n_steps):
            if trace.full_grad_norms[k] > tol:
                assert trace.objective_decreases[k] > 0.0, k


class TestRescaleMemo:
    """Reusing a problem gives exactly what a fresh one gives."""

    @staticmethod
    def run_from(wp, x0):
        x, trace, status = blockmin.run(wp, x0, 1e-10, 300, record_iterates=True)
        return (status, trace.chosen_blocks, trace.objectives,
                trace.full_grad_norms, trace.objective_decreases,
                [v.concat().tolist() for v in trace.iterates])

    @pytest.mark.parametrize("case", ["matrix", "gauge"])
    def test_reused_problem_matches_fresh(self, case):
        problem = seeded_case(case, np.random.default_rng(1800))
        rng = np.random.default_rng(1801)
        starts = [random_reduced_point(problem, rng) for _ in range(2)]
        for x0 in starts:
            assert self.run_from(problem, x0) == self.run_from(
                fresh_copy(problem), x0)

    @staticmethod
    def solve_record(problem, x0):
        """Everything one solve reports, and the rebases it made."""
        before = problem.rebases
        sol = solve(problem, x0=x0, tol=1e-10)
        trace = sol.trace
        return (sol.status, sol.method, trace.chosen_blocks, trace.objectives,
                trace.full_grad_norms, trace.stop_values,
                trace.post_step_block_norms, trace.objective_decreases,
                [v.concat().tolist() for v in trace.iterates],
                sol.scaled.array.tobytes(), problem.rebases - before)

    @pytest.mark.parametrize("case", ["matrix", "gauge"])
    def test_repeated_solves_match_fresh(self, case):
        problem = seeded_case(case, np.random.default_rng(2600))
        assert (problem.gauge_dim > 0) == (case == "gauge")
        x0 = random_reduced_point(problem, np.random.default_rng(2601))
        for start in (None, x0, None):
            assert self.solve_record(problem, start) == self.solve_record(
                fresh_copy(problem), start)
        # a start at the end point of a solve, where the state sits
        end = solve(problem, tol=1e-10).x_star
        assert self.solve_record(problem, end) == self.solve_record(
            fresh_copy(problem), end)

    @pytest.mark.parametrize("case", ["matrix", "gauge"])
    def test_calls_off_the_cached_point(self, case):
        problem = seeded_case(case, np.random.default_rng(1900))
        rng = np.random.default_rng(1901)
        cached, other = (random_reduced_point(problem, rng)
                         for _ in range(2))
        twin = BlockVector(cached.blocks)
        assert twin is not cached
        wp = problem
        for j in range(problem.d):
            for x in (other, twin, cached):
                # a step moves the state on, so it is put back at cached
                wp.evaluate(cached)
                got, drop = wp.step(x, j)
                ref, ref_drop = fresh_copy(problem).step(x, j)
                np.testing.assert_array_equal(got.concat(), ref.concat())
                assert drop == ref_drop


class TestFactoredState:
    """Runs on the factored state against the loop that rescales the tensor
    at every step (tests/helpers.per_step_rescale_reference)."""

    @staticmethod
    def assert_parity(problem, x0, tol=1e-10):
        _, trace, status = blockmin.run(problem, x0, tol, 10000, None)
        _, ref, ref_status = per_step_rescale_reference(problem, x0, tol, 10000)
        assert status == ref_status == blockmin.CONVERGED
        assert trace.n_steps == ref.n_steps > 10
        assert trace.chosen_blocks == ref.chosen_blocks
        np.testing.assert_allclose(trace.objectives, ref.objectives,
                                   rtol=1e-12, atol=0)
        # a gradient norm carries rounding of order eps times the mass, which
        # near convergence is a large part of the norm itself
        mass = np.asarray(ref.objectives)
        gap = np.abs(np.subtract(trace.full_grad_norms, ref.full_grad_norms))
        assert np.all(gap <= 1e-12 * mass)
        gap = np.abs(np.subtract(trace.objective_decreases,
                                 ref.objective_decreases))
        assert np.all(gap <= 1e-12 * mass[:-1])
        for k, drop in enumerate(trace.objective_decreases):
            if trace.full_grad_norms[k] > tol:
                assert drop > 0.0, k

    @pytest.mark.parametrize("case", ["matrix", "cube", "gauge"])
    def test_matches_per_step_rescale(self, case):
        problem = seeded_case(case, np.random.default_rng(2000))
        x0 = random_reduced_point(problem, np.random.default_rng(2001))
        self.assert_parity(problem, x0)
        assert problem.rebases == 1

    def test_steep_kernel_across_rebases(self):
        problem = steep_kernel_problem()
        # a far start, so the exponents travel well past the rebase distance
        x0 = random_reduced_point(problem, np.random.default_rng(2200),
                                  radius=20.0)
        self.assert_parity(problem, x0)
        assert problem.rebases >= 2

    @pytest.mark.parametrize("dims", [(5, 4, 6), (3, 4, 2, 3)])
    def test_far_start_across_rebases(self, dims):
        # a 3- and a 4-mode tensor from a far start: the advances run the
        # cofactors of every mode but the moved one, the rebases all of them
        rng = np.random.default_rng(2100 + len(dims))
        problem = ScalingProblem(random_positive_tensor(rng, dims),
                                 random_compatible_targets(rng, dims))
        x0 = random_reduced_point(problem, rng, radius=20.0)
        self.assert_parity(problem, x0)
        assert problem.rebases >= 2

    def test_overflow_at_the_same_step(self):
        # No scaling gives this support unit row and column sums (rows 1 and
        # 2 hold mass only in column 0), so the exponents drift until one on
        # the support passes EXP_LIMIT.
        problem = problem_of([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0],
                              [1.0, 0.0, 0.0]])
        assert problem.gauge_dim == 0

        def steps_to_overflow(wp):
            steps = []
            update = wp.step

            def counted(x, j):
                steps.append(j)
                return update(x, j)

            wp.step = counted
            with pytest.raises(ScalingOverflowError):
                blockmin.run(wp, BlockVector.zeros((3, 3)), 1e-300, 10000, None)
            return steps

        ref = steps_to_overflow(PerStepRescaleProblem(problem))
        assert len(ref) >= 1
        assert steps_to_overflow(problem) == ref
        assert problem.rebases < len(ref)


class TestSinkhornObservation:
    """For a matrix the greedy choice alternates after step 0: the moved
    block's norm is set to exactly 0, so every later step takes the other
    block, and the run is Sinkhorn's alternating sequence (the paper's main
    observation)."""

    @pytest.mark.parametrize("case", ["ot", "positive", "gauge"])
    def test_matrix_runs_alternate_and_match_sinkhorn(self, case):
        rng = np.random.default_rng(2300)
        if case == "ot":
            problem = steep_kernel_problem()
        elif case == "positive":
            dims = (7, 9)
            problem = ScalingProblem(random_positive_tensor(rng, dims),
                                     random_compatible_targets(rng, dims))
        else:
            problem = ScalingProblem(*gauge_instance(rng))
        tol = 1e-10
        sol = solve(problem, tol=tol)
        assert sol.status == blockmin.CONVERGED
        assert (sol.method == "greedy-projected") == (case == "gauge")
        blocks = sol.trace.chosen_blocks
        assert len(blocks) > 10
        assert all(a != b for a, b in zip(blocks, blocks[1:]))
        rows, cols = problem.targets.vectors
        reference = alternating_scaling(problem.tensor.array, rows, cols,
                                        4 * len(blocks) + 100)
        peak = max(float(s.max()) for s in problem.targets.vectors)
        assert np.abs(sol.scaled.array - reference).max() <= 10 * tol * peak


class TestBlockOwnership:
    """A step's fresh block update becomes the next iterate's block without
    a copy, as read-only; an array from a caller is still copied."""

    @pytest.mark.parametrize("case", ["matrix", "cube", "gauge"])
    def test_iterates_are_read_only_and_unshared(self, case):
        problem = seeded_case(case, np.random.default_rng(2400))
        sol = solve(problem, tol=1e-10)
        iterates = sol.trace.iterates
        assert len(iterates) > 10
        for x in iterates:
            assert not any(b.flags.writeable for b in x.blocks)
        for old, new in zip(iterates, iterates[1:]):
            for a in old.blocks:
                for b in new.blocks:
                    assert a is b or not np.shares_memory(a, b)

    def test_caller_arrays_are_copied(self):
        problem = seeded_case("matrix", np.random.default_rng(2401))
        wp = problem
        x = BlockVector.zeros(problem.tensor.dims)
        adopted, _ = wp.step(x, 0)
        fresh = adopted.blocks[0]
        assert not fresh.flags.writeable
        assert not any(np.shares_memory(fresh, a) for a in x.blocks)
        assert adopted.blocks[1] is x.blocks[1]
        source = fresh.copy()
        y = x.with_block(0, source)
        assert y.blocks[0] is not source
        source[0] += 1.0
        assert y.blocks[0][0] == fresh[0]


class TestStepAllocations:
    def test_greedy_steps_allocate_no_kernel_sized_array(self):
        # Each step works on vectors of length m_k: after the first rebase
        # has built the kernel, no step may allocate an m x m' array.
        dims = (300, 300)
        rng = np.random.default_rng(2500)
        wp = ScalingProblem(random_positive_tensor(rng, dims),
                            random_compatible_targets(rng, dims))
        x0 = BlockVector.zeros(dims)
        wp.evaluate(x0)
        tracemalloc.start()
        try:
            _, trace, status = blockmin.run(wp, x0, 1e-10, 1000,
                                            record_iterates=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == blockmin.CONVERGED
        assert trace.n_steps > 2
        assert wp.rebases == 1
        assert peak < 8 * dims[0] * dims[1]
