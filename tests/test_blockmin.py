import math

import numpy as np
import pytest

from helpers import alternating_scaling
from slicescale import blockmin, numerics
from slicescale.blockmin import (BlockVector, IterateTrace,
                                 NumericalOverflowError, QuadraticBlockProblem,
                                 estimate_alpha_beta, rate_certificate, run)
from slicescale.objective import ScalingProblem
from slicescale.tensor import DenseTensor, SliceTargets


class FixedGradientProblem(blockmin.BlockProblem):
    """Mock with prescribed block gradient norms, for selection tests."""

    def __init__(self, norms):
        self._norms = norms

    @property
    def block_dims(self):
        return tuple(1 for _ in self._norms)

    def evaluate(self, x):
        return 0.0, list(self._norms)

    def step(self, x, j):
        return x.with_block(j, x.blocks[j]), None


class DriftProblem(blockmin.BlockProblem):
    """Mock whose updates run off to infinity (objective still decreasing)."""

    block_dims = (1, 1)

    def evaluate(self, x):
        return -(x.blocks[0][0] + x.blocks[1][0]), [1.0, 1.0]

    def step(self, x, j):
        return x.with_block(j, x.blocks[j] + 100.0), None


class BlowUpProblem(blockmin.BlockProblem):
    """Mock whose objective overflows once the iterate is large."""

    block_dims = (1, 1)

    def evaluate(self, x):
        v = x.blocks[0][0]
        return math.inf if v > 500 else -v, [1.0, 1.0]

    def step(self, x, j):
        return x.with_block(j, x.blocks[j] + 400.0), None


def ones_scaling_problem():
    tensor = DenseTensor(np.ones((2, 2)))
    targets = SliceTargets([[1.0, 1.0], [1.0, 1.0]])
    return ScalingProblem(tensor, targets)


class TestBlockVector:
    def test_roundtrip_and_ops(self):
        x = BlockVector.from_concat((2, 3), [1, 2, 3, 4, 5])
        assert tuple(b.size for b in x.blocks) == (2, 3)
        np.testing.assert_array_equal(x.concat(), [1, 2, 3, 4, 5])
        y = x.with_block(0, [9, 9])
        np.testing.assert_array_equal(y.concat(), [9, 9, 3, 4, 5])
        assert np.abs(x.concat()).max() == 5.0

    def test_zeros(self):
        assert np.abs(BlockVector.zeros((1, 4)).concat()).max() == 0.0

    def test_with_block_shares_untouched_blocks(self):
        x = BlockVector([[1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0]])
        source = np.array([8.0, 9.0, 10.0])
        y = x.with_block(1, source)
        assert y.blocks[0] is x.blocks[0] and y.blocks[2] is x.blocks[2]
        # the new block is a copy, so later writes to the source miss it
        source[0] = -1.0
        np.testing.assert_array_equal(y.concat(), [1, 2, 8, 9, 10, 6, 7])
        np.testing.assert_array_equal(x.concat(), [1, 2, 3, 4, 5, 6, 7])
        for b in y.blocks:
            assert not b.flags.writeable
            with pytest.raises(ValueError):
                b[0] = 0.0
        with pytest.raises(ValueError, match="wrong length"):
            x.with_block(0, [1.0, 2.0, 3.0])


class TestExtreme:
    """The arg-index extremes equal the ufunc reductions they replace."""

    VECTORS = [
        [3.0, -1.0, 2.5],
        [2.0, 7.0, 7.0, -7.0, 7.0],  # ties
        [1.0, np.nan, 5.0, np.nan],  # NaN propagates
        [-np.inf, 4.0, np.inf, 0.0],
        [-np.inf, -np.inf],
        [np.inf],
        [-0.0, 0.0, -0.0],
        [1e-300, -1e308, 1e308],
    ]

    @staticmethod
    def same(a, b):
        # equal values, both NaN counting as equal; the sign of a zero may
        # differ, which no caller can see
        return a == b or (math.isnan(a) and math.isnan(b))

    @pytest.mark.parametrize("values", VECTORS)
    def test_matches_the_reductions(self, values):
        v = np.array(values)
        for arg, reduce in ((np.ndarray.argmax, np.maximum.reduce),
                            (np.ndarray.argmin, np.minimum.reduce)):
            got = blockmin._extreme(v, arg)
            assert type(got) is float
            assert self.same(got, float(reduce(v)))
        assert self.same(blockmin._extreme(v), float(np.maximum.reduce(v)))
        # the guard's sup norm reads the absolute values
        assert self.same(blockmin._sup_norm(v),
                         float(np.maximum.reduce(np.absolute(v))))

    def test_empty_block(self):
        empty = np.zeros(0)
        for arg, reduce in ((np.ndarray.argmax, np.maximum.reduce),
                            (np.ndarray.argmin, np.minimum.reduce)):
            with pytest.raises(ValueError):
                reduce(empty)
            with pytest.raises(ValueError):
                blockmin._extreme(empty, arg)
        assert blockmin._sup_norm(empty) == 0.0


def one_step(problem, x0):
    """A single greedy step of ``run``: (iterate, trace)."""
    x, trace, _ = run(problem, x0, 1e-12, max_iters=1)
    return x, trace


class TestSelectBlock:
    def test_argmax(self):
        p = FixedGradientProblem([0.5, 1.2, 0.3])
        _, trace = one_step(p, BlockVector.zeros(p.block_dims))
        assert trace.chosen_blocks[0] == 1

    def test_tie_goes_to_first(self):
        p = FixedGradientProblem([0.7, 0.7])
        _, trace = one_step(p, BlockVector.zeros(p.block_dims))
        assert trace.chosen_blocks[0] == 0

    def test_all_zero_degenerate(self):
        # a zero gradient is stationary: no block is chosen
        p = FixedGradientProblem([0.0, 0.0])
        _, trace = one_step(p, BlockVector.zeros(p.block_dims))
        assert trace.chosen_blocks == []


class TestStep:
    def test_separable_quadratic(self):
        # f = x1^2 + 4 x2^2, gradient (2, 8) at (1, 1): update block 2
        p = QuadraticBlockProblem(np.diag([2.0, 8.0]), np.zeros(2))
        x, trace = one_step(p, BlockVector([[1.0], [1.0]]))
        assert trace.chosen_blocks[0] == 1
        np.testing.assert_allclose(x.concat(), [1.0, 0.0], atol=1e-15)

    def test_already_optimal_unchanged(self):
        p = QuadraticBlockProblem(np.diag([2.0, 8.0]), np.zeros(2))
        x, trace = one_step(p, BlockVector([[0.0], [0.0]]))
        assert trace.chosen_blocks == []
        np.testing.assert_allclose(x.concat(), [0.0, 0.0], atol=1e-15)

    def test_ones_matrix_closed_form(self):
        # one block update from u = (ln 2, -ln 2), v = 0 recenters u to zero
        wp = ones_scaling_problem()
        u = np.array([np.log(2.0), -np.log(2.0)])
        x, trace = one_step(wp, BlockVector([u, np.zeros(2)]))
        assert trace.chosen_blocks[0] == 0
        np.testing.assert_allclose(x.blocks[0], [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(x.blocks[1], [0.0, 0.0], atol=1e-14)


class TestQuadraticValidation:
    @pytest.mark.parametrize("matrix, linear", [
        ([[2.0, np.nan], [np.nan, 2.0]], [0.0, 0.0]),
        ([[np.inf, 0.0], [0.0, 2.0]], [0.0, 0.0]),
        ([[2.0, 0.0], [0.0, 2.0]], [np.nan, 0.0]),
        ([[2.0, 0.0], [0.0, 2.0]], [0.0, -np.inf]),
    ], ids=["nan-matrix", "inf-matrix", "nan-linear", "inf-linear"])
    def test_non_finite_refused(self, matrix, linear):
        # a NaN pair compares unequal in the symmetry test, and the run
        # would report overflow at step 0 instead of the bad input
        with pytest.raises(ValueError, match="must be finite"):
            QuadraticBlockProblem(matrix, linear)


class TestRun:
    def test_separable_quadratic_two_steps(self):
        p = QuadraticBlockProblem(np.diag([2.0, 2.0]), np.zeros(2))
        x, trace, status = run(p, BlockVector([[3.0], [5.0]]), 1e-12, 100)
        assert status == blockmin.CONVERGED
        assert trace.n_steps <= 2
        np.testing.assert_allclose(x.concat(), [0.0, 0.0], atol=1e-14)

    def test_ones_matrix_zero_steps(self):
        wp = ones_scaling_problem()
        x, trace, status = run(wp, BlockVector.zeros(wp.block_dims), 1e-10, 50)
        assert status == blockmin.CONVERGED
        assert trace.n_steps == 0

    def test_matrix_scaling_matches_alternating_oracle(self):
        tensor = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        targets = SliceTargets([[1.0, 1.0], [1.0, 1.0]])
        problem = ScalingProblem(tensor, targets)
        x, trace, status = run(problem, BlockVector.zeros(problem.block_dims),
                               1e-12, 500)
        assert status == blockmin.CONVERGED
        scaled = problem.scaled(x)
        final = scaled.array / (scaled.total / targets.total)
        oracle = alternating_scaling([[1.0, 2.0], [3.0, 4.0]], [1, 1], [1, 1], 200)
        np.testing.assert_allclose(final, oracle, atol=1e-8)

    def test_validation(self):
        p = QuadraticBlockProblem(np.eye(2), np.zeros(2))
        x0 = BlockVector.zeros((1, 1))
        with pytest.raises(ValueError, match="tol"):
            run(p, x0, 0.0, 10)
        with pytest.raises(ValueError, match="max_iters"):
            run(p, x0, 1e-8, 0)

    @pytest.mark.parametrize("tol", [math.inf, float("nan"), -1.0])
    def test_invalid_tol_rejected(self, tol):
        # an infinite tol would stop every run at its start as converged
        p = QuadraticBlockProblem(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="positive and finite"):
            run(p, BlockVector([[1.0], [1.0]]), tol, 10)

    @pytest.mark.parametrize("guard", [float("nan"), 0.0, -1.0])
    def test_invalid_guard_rejected(self, guard):
        p = QuadraticBlockProblem(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="guard"):
            run(p, BlockVector([[1.0], [1.0]]), 1e-8, 10, divergence_guard=guard)

    @pytest.mark.parametrize("guard", [None, math.inf])
    def test_guard_disabled(self, guard):
        _, trace, status = run(DriftProblem(), BlockVector.zeros((1, 1)),
                               1e-12, 50, divergence_guard=guard)
        assert status == blockmin.MAX_ITERS_REACHED
        assert trace.n_steps == 50

    def test_divergence_guard(self):
        x, trace, status = run(DriftProblem(), BlockVector.zeros((1, 1)),
                               1e-12, 1000, divergence_guard=1e3)
        assert status == blockmin.DIVERGING
        assert np.abs(x.concat()).max() > 1e3

    @pytest.mark.parametrize("guard", [280.0, 1e200])
    def test_guard_compares_the_largest_entry_exactly(self, guard):
        # the guard reads the sup norm of the iterate: an entry one ulp past
        # it trips the guard, in any block and of either sign, and entries at
        # the guard itself do not
        above = np.nextafter(guard, math.inf)
        p = FixedGradientProblem([1.0, 1.0, 1.0])
        for blocks, tripped in [([[1e-9], [above], [0.0]], True),
                                ([[-above], [0.0], [0.0]], True),
                                ([[guard], [-guard], [guard]], False)]:
            _, trace, status = run(p, BlockVector(blocks), 1e-12, 1,
                                   divergence_guard=guard)
            assert (status == blockmin.DIVERGING) == tripped
            assert trace.n_steps == (0 if tripped else 1)

    def test_max_iters_reached(self):
        p = QuadraticBlockProblem(np.array([[2.0, 1.0], [1.0, 2.0]]), np.ones(2))
        _, trace, status = run(p, BlockVector([[5.0], [5.0]]), 1e-14, 2)
        assert status == blockmin.MAX_ITERS_REACHED
        assert trace.n_steps == 2

    def test_overflow_error_carries_iterate(self):
        with pytest.raises(NumericalOverflowError, match="numerical overflow") as exc:
            run(BlowUpProblem(), BlockVector.zeros((1, 1)), 1e-12, 100,
                divergence_guard=None)
        assert exc.value.iterate is not None

    def test_trace_shapes_and_records(self):
        p = QuadraticBlockProblem(np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros(2))
        _, trace, status = run(p, BlockVector([[1.0], [1.0]]), 1e-12, 100,
                               record_iterates=True)
        assert status == blockmin.CONVERGED
        k = trace.n_steps
        assert len(trace.objectives) == k + 1
        assert len(trace.block_grad_norms) == k + 1
        assert len(trace.full_grad_norms) == k + 1
        assert len(trace.iterates) == k + 1
        assert len(trace.post_step_block_norms) == k
        assert len(trace.objective_decreases) == k


class TestRunInvariants:
    @pytest.fixture
    def quad_trace(self):
        p = QuadraticBlockProblem(np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros(2))
        x, trace, status = run(p, BlockVector([[1.0], [1.0]]), 1e-12, 200,
                               record_iterates=True)
        assert status == blockmin.CONVERGED
        return p, trace

    def test_strict_descent(self, quad_trace):
        _, trace = quad_trace
        tol = 1e-12
        for k in range(trace.n_steps):
            if trace.full_grad_norms[k] > tol:
                assert trace.objective_decreases[k] > 0.0
        for k in range(trace.n_steps):
            assert trace.objectives[k + 1] <= trace.objectives[k]

    def test_zeroed_block(self, quad_trace):
        _, trace = quad_trace
        for k, j in enumerate(trace.chosen_blocks):
            assert trace.post_step_block_norms[k] <= 1e-12
            assert trace.block_grad_norms[k + 1][j] == 0.0

    def test_greedy_lower_bound(self, quad_trace):
        # squared form of the argmax bound: d * g_j^2 >= sum of block norms^2
        _, trace = quad_trace
        d = 2
        for k, j in enumerate(trace.chosen_blocks):
            norms = trace.block_grad_norms[k]
            ss = sum(v * v for v in norms)
            g = norms[j]
            assert d * g * g >= ss
            if k >= 1:
                assert (d - 1) * g * g >= ss

    def test_chosen_block_is_argmax(self, quad_trace):
        _, trace = quad_trace
        for k, j in enumerate(trace.chosen_blocks):
            assert j == int(np.argmax(trace.block_grad_norms[k]))


class CountingQuadratic(QuadraticBlockProblem):
    """Records every call the engine makes; with ``plain_drop`` its steps
    return None for the drop."""

    def __init__(self, matrix, linear, block_dims, plain_drop=False):
        super().__init__(matrix, linear, block_dims)
        self.plain_drop = plain_drop
        self.calls = []

    def evaluate(self, x):
        self.calls.append(("evaluate", x))
        return super().evaluate(x)

    def stop_value(self, x, grad_norm):
        self.calls.append(("stop_value", x))
        return super().stop_value(x, grad_norm)

    def step(self, x, j):
        self.calls.append(("step", x, j))
        x_new, drop = super().step(x, j)
        return x_new, None if self.plain_drop else drop


class TestEngineContract:
    """run calls evaluate, then stop_value, once at each visited point, and
    step once per step at the point it has just evaluated."""

    A = [[4.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 2.0]]
    b = [1.0, -2.0, 0.5]

    @pytest.mark.parametrize("max_iters, status", [
        (3, blockmin.MAX_ITERS_REACHED), (500, blockmin.CONVERGED)])
    def test_one_call_of_each_per_point_and_step(self, max_iters, status):
        p = CountingQuadratic(self.A, self.b, (1, 2))
        _, trace, got = run(p, BlockVector([[3.0], [-1.0, 2.0]]), 1e-12,
                            max_iters, record_iterates=True)
        assert got == status
        assert trace.n_steps > 2
        expected = []
        for k, x in enumerate(trace.iterates):
            expected += [("evaluate", x), ("stop_value", x)]
            if k < trace.n_steps:
                expected.append(("step", x, trace.chosen_blocks[k]))
        # BlockVector compares by identity: each call saw the very iterate
        assert p.calls == expected

    def test_no_drop_records_the_objective_difference(self):
        runs = []
        for plain in (False, True):
            p = CountingQuadratic(self.A, self.b, (1, 2), plain_drop=plain)
            x0 = BlockVector([[3.0], [-1.0, 2.0]])
            runs.append(run(p, x0, 1e-12, 500)[1])
        exact, plain = runs
        assert plain.chosen_blocks == exact.chosen_blocks
        assert plain.objectives == exact.objectives
        objectives = plain.objectives
        assert plain.objective_decreases == [
            a - b for a, b in zip(objectives, objectives[1:])]
        assert len(exact.objective_decreases) == exact.n_steps > 2


def diagonal_certificate(spectrum, grad0_norm, n_steps):
    """rate_certificate of the diagonal quadratic with Hessian diag(spectrum),
    one block per entry, for a run of ``n_steps`` steps that starts at
    full-gradient norm ``grad0_norm``."""
    p = QuadraticBlockProblem(np.diag(spectrum), np.zeros(len(spectrum)))
    trace = IterateTrace(full_grad_norms=[grad0_norm],
                         chosen_blocks=[0] * n_steps)
    return rate_certificate(p, trace, [BlockVector.zeros(p.block_dims)])


class TestBounds:
    # eigvalsh returns the entries of these diagonal matrices exactly, so
    # alpha and beta are the spectrum's extremes
    def test_kappa_one_first_step(self):
        alpha, beta, kappa, curve = diagonal_certificate([2.0, 2.0], 1.0, 2)
        assert (alpha, beta, kappa) == (2.0, 2.0, 1.0)
        lead = 1.0 / (2 * 2.0)
        assert curve[0] == pytest.approx(lead * 0.5)
        assert curve[1] == 0.0  # one-step convergence predicted

    def test_arithmetic_d2_kappa2(self):
        alpha, beta, kappa, curve = diagonal_certificate([1.0, 2.0], 1.0, 3)
        assert (alpha, beta, kappa) == (1.0, 2.0, 2.0)
        assert len(curve) == 3
        assert curve[2] == pytest.approx(0.5 * 0.75 * 0.25)

    @pytest.mark.parametrize("d, beta", [(4, 10.0), (3, 40.0), (2, 300.0)])
    def test_curve_matches_step_by_step_product(self, d, beta):
        # the bound is lead * first * later**(k-1), the product of the
        # per-step contractions taken one at a time
        spectrum = [1.0] + [beta] * (d - 1)
        alpha, got_beta, kappa, curve = diagonal_certificate(spectrum, 2.0, 2000)
        assert (alpha, got_beta, kappa) == (1.0, beta, beta)
        assert len(curve) == 2000
        later = 1.0 - 1.0 / ((d - 1) * kappa)
        value = curve[0]
        for k in range(2, 2001):
            value *= later
            assert abs(curve[k - 1] - value) <= 1e-12 * value

    def test_invalid_data(self):
        p = QuadraticBlockProblem(np.eye(2), np.zeros(2), block_dims=(2,))
        trace = IterateTrace(full_grad_norms=[1.0], chosen_blocks=[0])
        with pytest.raises(ValueError, match="at least 2 blocks"):
            rate_certificate(p, trace, [BlockVector.zeros(p.block_dims)])


class TestEstimateAlphaBeta:
    def test_constant_hessian(self):
        # f = x1^2 + 4 x2^2 has constant Hessian diag(2, 8)
        p = QuadraticBlockProblem(np.diag([2.0, 8.0]), np.zeros(2))
        alpha, beta = estimate_alpha_beta(p, [BlockVector([[1.0], [1.0]])])
        assert (alpha, beta) == (pytest.approx(2.0), pytest.approx(8.0))

    def test_ones_scaling_at_zero(self):
        wp = ones_scaling_problem()
        alpha, beta = estimate_alpha_beta(wp, [BlockVector.zeros(wp.block_dims)])
        assert alpha == pytest.approx(2.0, abs=1e-10)
        assert beta == pytest.approx(2.0, abs=1e-10)

    def test_not_convex_rejected(self):
        p = QuadraticBlockProblem(np.diag([1.0, -1.0]), np.zeros(2))
        with pytest.raises(ValueError, match="not strictly convex at sample"):
            estimate_alpha_beta(p, [BlockVector.zeros((1, 1))])

    @pytest.mark.parametrize("low, reason", [
        (-1e-3, "not strictly convex at sample"),
        (1e-20, "alpha below eigvalsh resolution"),
        (-1e-20, "alpha below eigvalsh resolution"),
    ], ids=["negative", "below-resolution", "negative-below-resolution"])
    def test_skip_reason(self, low, reason):
        # the resolution of eigvalsh here is 2 * eps * 1 ~ 4.4e-16
        p = QuadraticBlockProblem(np.diag([low, 1.0]), np.zeros(2))
        with pytest.raises(ValueError, match=reason):
            estimate_alpha_beta(p, [BlockVector.zeros((1, 1))])

    def test_empty_points(self):
        p = QuadraticBlockProblem(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="nonempty"):
            estimate_alpha_beta(p, [])

    def test_iterate_sampling_orders(self):
        tensor = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        targets = SliceTargets([[1.0, 1.0], [1.0, 1.0]])
        wp = ScalingProblem(tensor, targets)
        y, trace, _ = run(wp, BlockVector.zeros(wp.block_dims), 1e-12, 500,
                          record_iterates=True)
        alpha, beta = estimate_alpha_beta(wp, trace.iterates)
        assert 0 < alpha <= beta

    def test_projected_problem_hessian(self):
        p = ScalingProblem(DenseTensor(np.diag([2.0, 3.0, 5.0])),
                           SliceTargets.uniform((3, 3)))
        assert p.gauge_dim > 0
        alpha, beta = estimate_alpha_beta(p, [BlockVector.zeros(p.block_dims)])
        assert 0 < alpha <= beta


def midpoint_convexity_ok(problem, center, rng, trials=16, radius=1.0):
    """Stochastic midpoint-convexity check of ``evaluate``'s objective.

    Draws random pairs within ``radius`` of the center and verifies
    f((x+y)/2) <= (f(x)+f(y))/2 up to rounding slack.
    """
    def f(x):
        return problem.evaluate(x)[0]

    dims, c = tuple(b.size for b in center.blocks), center.concat()
    for _ in range(trials):
        u = c + np.concatenate([rng.uniform(-radius, radius, m) for m in dims])
        v = c + np.concatenate([rng.uniform(-radius, radius, m) for m in dims])
        fx = f(BlockVector.from_concat(dims, u))
        fy = f(BlockVector.from_concat(dims, v))
        mid = f(BlockVector.from_concat(dims, 0.5 * (u + v)))
        if mid > 0.5 * (fx + fy) + 1e-9 * (abs(fx) + abs(fy) + 1.0):
            return False
    return True


class TestConvexityCheck:
    def test_quadratic_convex(self):
        p = QuadraticBlockProblem(np.array([[2.0, 1.0], [1.0, 2.0]]), np.ones(2))
        rng = np.random.default_rng(0)
        assert midpoint_convexity_ok(p, BlockVector.zeros((1, 1)), rng)

    def test_scaling_objective_convex(self):
        wp = ones_scaling_problem()
        rng = np.random.default_rng(1)
        assert midpoint_convexity_ok(wp, BlockVector.zeros(wp.block_dims), rng)


class UncachedQuadratic(QuadraticBlockProblem):
    """Refactors the diagonal block and recomputes the gradient at every
    step."""

    def step(self, x, j):
        start = sum(self.block_dims[:j])
        s = slice(start, start + self.block_dims[j])
        g = (self.matrix @ x.concat() + self.linear)[s]
        newton = numerics.factor_linear(self.matrix[s, s]).dot(g)
        return x.with_block(j, x.blocks[j] - newton), 0.5 * float(g @ newton)


class TestQuadraticCaches:
    """Cached block factors and the kept gradient change no bit of a run."""

    @staticmethod
    def spd_instance(seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((30, 30))
        return m.T @ m + 0.5 * np.eye(30), rng.standard_normal(30)

    def test_trace_equals_uncached_reference(self):
        A, b = self.spd_instance(2300)
        runs = []
        for cls in (QuadraticBlockProblem, UncachedQuadratic):
            p = cls(A, b, (10, 10, 10))
            x, trace, status = run(p, BlockVector.zeros((10, 10, 10)), 1e-10,
                                   100000, divergence_guard=None)
            assert status == blockmin.CONVERGED
            runs.append((x.concat().tolist(), trace.chosen_blocks,
                         trace.objectives, trace.full_grad_norms,
                         trace.block_grad_norms, trace.post_step_block_norms,
                         trace.objective_decreases))
        assert len(runs[0][1]) > 100
        assert runs[0] == runs[1]

    def test_calls_off_the_evaluated_point(self):
        A, b = self.spd_instance(2301)
        rng = np.random.default_rng(2302)
        p = QuadraticBlockProblem(A, b, (10, 10, 10))
        ref = UncachedQuadratic(A, b, (10, 10, 10))
        evaluated, other = (BlockVector(rng.standard_normal((3, 10)))
                            for _ in range(2))
        p.evaluate(evaluated)
        for j in (2, 0, 2):
            for x in (other, evaluated):
                new, drop = p.step(x, j)
                ref_new, ref_drop = ref.step(x, j)
                assert drop == ref_drop
                np.testing.assert_array_equal(new.concat(), ref_new.concat())

    def test_fresh_update_is_adopted_and_caller_arrays_copied(self):
        A, b = self.spd_instance(2303)
        p = QuadraticBlockProblem(A, b, (10, 10, 10))
        x = BlockVector.zeros((10, 10, 10))
        for j in (1, 0):
            adopted, _ = p.step(x, j)
            fresh = adopted.blocks[j]
            assert not fresh.flags.writeable
            assert not any(np.shares_memory(fresh, a) for a in x.blocks)
            assert all(a is c for k, (a, c) in
                       enumerate(zip(x.blocks, adopted.blocks)) if k != j)
            source = fresh.copy()
            copied = x.with_block(j, source)
            assert copied.blocks[j] is not source
            source[0] += 1.0
            assert copied.blocks[j][0] == fresh[0]

    def test_singular_block_refused_at_first_use(self):
        A = np.eye(4)
        A[2:, 2:] = [[1.0, 1.0], [1.0, 1.0]]
        p = QuadraticBlockProblem(A, np.ones(4), (2, 2))
        x = BlockVector.zeros((2, 2))
        p.step(x, 0)
        for _ in range(2):
            with pytest.raises(ValueError, match="singular"):
                p.step(x, 1)
