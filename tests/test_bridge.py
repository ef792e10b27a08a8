import numpy as np
import pytest

from slicescale import blockmin
from slicescale.bridge import BridgeProblem, reduce_to_scaling, solve_bridge
from slicescale.feasibility import InfeasibleScalingError, verify_witness
from slicescale.objective import ScalingProblem
from slicescale.scaler import random_reduced_point
from slicescale.tensor import DenseTensor, SliceTargets


def column_stochastic_example():
    return BridgeProblem(
        matrix=[[0.5, 0.25], [0.5, 0.75]],
        source=[0.5, 0.5],
        target=[0.6, 0.4],
        column_sums=[1.0, 1.0],
    )


class TestBridgeProblem:
    def test_validation_zero_column(self):
        with pytest.raises(ValueError, match="zero row or zero column"):
            BridgeProblem([[1.0, 0.0], [1.0, 0.0]], [0.5, 0.5], [1.0, 1.0],
                          [1.0, 1.0])

    def test_validation_marginals(self):
        with pytest.raises(ValueError, match="incompatible marginals"):
            BridgeProblem([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], [0.6, 0.6],
                          [1.0, 1.0])

    def test_validation_positivity(self):
        with pytest.raises(ValueError, match="positive"):
            BridgeProblem([[0.5, 0.5], [0.5, 0.5]], [0.0, 1.0], [0.5, 0.5],
                          [1.0, 1.0])


class TestReduce:
    def test_hand_arithmetic(self):
        reduced, rows, cols = reduce_to_scaling(column_stochastic_example())
        np.testing.assert_allclose(reduced, [[0.25, 0.125], [0.25, 0.375]])
        np.testing.assert_allclose(rows, [0.6, 0.4])
        np.testing.assert_allclose(cols, [0.5, 0.5])

    def test_unit_source_is_identity_reduction(self):
        p = BridgeProblem([[0.5, 0.3], [0.5, 0.7]], [1.0, 1.0], [0.9, 1.1],
                          [1.0, 1.0])
        reduced, rows, cols = reduce_to_scaling(p)
        np.testing.assert_allclose(reduced, p.matrix)
        np.testing.assert_allclose(rows, p.target)
        np.testing.assert_allclose(cols, p.column_sums)


class TestSolveBridge:
    def test_column_stochastic_output(self):
        tol = 1e-12
        result = solve_bridge(column_stochastic_example(), tol=tol)
        assert result.status == blockmin.CONVERGED
        B = result.matrix
        np.testing.assert_allclose(B @ [0.5, 0.5], [0.6, 0.4], atol=1e-8)
        np.testing.assert_allclose(B.sum(axis=0), [1.0, 1.0], atol=1e-8)
        assert result.source_residual <= 10 * tol
        assert result.column_residual <= 10 * tol

    def test_already_consistent_matrix_unchanged(self):
        A = np.array([[0.3, 0.6], [0.7, 0.4]])
        a = np.array([0.5, 0.5])
        b = A @ a
        p = BridgeProblem(A, a, b, np.ones(2))
        result = solve_bridge(p, tol=1e-12)
        assert result.status == blockmin.CONVERGED
        np.testing.assert_allclose(result.matrix, A, atol=1e-10)
        assert result.source_residual <= 1e-10
        assert result.column_residual <= 1e-10

    def test_identity_pattern_recovers_identity(self):
        a = np.array([0.4, 0.6])
        p = BridgeProblem(np.diag([2.0, 5.0]), a, a, np.ones(2))
        result = solve_bridge(p, tol=1e-12)
        assert result.status == blockmin.CONVERGED
        np.testing.assert_allclose(result.matrix, np.eye(2), atol=1e-8)

    def test_output_keeps_pattern(self):
        p = BridgeProblem([[0.5, 0.5], [0.5, 0.0], [0.0, 0.5]],
                          [0.5, 0.5], [0.4, 0.3, 0.3], [1.0, 1.0])
        result = solve_bridge(p, tol=1e-12)
        assert result.status == blockmin.CONVERGED
        assert ((result.matrix > 0) == (np.asarray(p.matrix) > 0)).all()

    def test_infeasible_raises_with_witness(self):
        p = BridgeProblem([[1.0, 1.0], [0.0, 1.0]], [0.5, 0.5], [0.4, 0.6],
                          [1.0, 1.0])
        with pytest.raises(InfeasibleScalingError) as exc:
            solve_bridge(p)
        report = exc.value.report
        assert report.witness is not None
        reduced, rows, cols = reduce_to_scaling(p)
        assert verify_witness(DenseTensor(reduced),
                              SliceTargets([rows, cols]), report.witness)

    def test_uniqueness_across_starts(self):
        p = column_stochastic_example()
        first = solve_bridge(p, tol=1e-12)
        reduced, rows, cols = reduce_to_scaling(p)
        scaling = ScalingProblem(DenseTensor(reduced),
                                 SliceTargets([rows, cols]))
        rng = np.random.default_rng(77)
        second = solve_bridge(p, tol=1e-12,
                              x0=random_reduced_point(scaling, rng))
        assert np.abs(first.matrix - second.matrix).max() <= 1e-7
