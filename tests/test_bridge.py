import json

import numpy as np
import pytest

from slicescale import blockmin, cli
from slicescale.bridge import BridgeProblem, solve_bridge
from slicescale.feasibility import InfeasibleScalingError, verify_witness
from slicescale.objective import ScalingProblem
from slicescale.scaler import random_reduced_point


COLUMN_STOCHASTIC = {"matrix": [[0.5, 0.25], [0.5, 0.75]],
                     "source": [0.5, 0.5], "target": [0.6, 0.4],
                     "column_sums": [1.0, 1.0]}


def column_stochastic_example():
    return BridgeProblem(**COLUMN_STOCHASTIC)


class TestBridgeProblem:
    @pytest.mark.parametrize("changes, message", [
        ({"matrix": [[0.5, -0.25], [0.5, 0.75]]}, "nonnegative"),
        # -1e-200 * 1e-200 rounds to -0.0, which the scaled tensor cannot flag
        ({"matrix": [[-1e-200, 0.25], [0.5, 0.75]], "source": [1e-200, 1.0]},
         "nonnegative"),
        ({"matrix": [[0.0, 0.0], [0.5, 0.75]]}, "zero slice in mode 0"),
        ({"matrix": [[0.5, 0.0], [0.5, 0.0]]}, "zero slice in mode 1"),
        ({"target": [1.0, 0.0]}, "positive and finite"),
        ({"column_sums": [2.0, 0.0]}, "positive and finite"),
        ({"target": [0.6, 0.6]}, "incompatible slice-sum totals"),
        ({"matrix": [[0.5, np.nan], [0.5, 0.75]]}, "finite"),
        ({"matrix": [[0.5, np.inf], [0.5, 0.75]]}, "finite"),
        ({"source": [np.nan, 0.5]}, "positive and finite"),
        ({"source": [np.inf, 0.5]}, "positive and finite"),
        ({"target": [np.nan, 0.4]}, "positive and finite"),
        ({"target": [np.inf, 0.4]}, "positive and finite"),
        ({"column_sums": [np.nan, 1.0]}, "positive and finite"),
        ({"column_sums": [np.inf, 1.0]}, "positive and finite"),
    ], ids=["negative-entry", "negative-entry-underflow", "zero-row",
            "zero-column", "zero-target", "zero-column-sum", "incompatible",
            "nan-matrix", "inf-matrix", "nan-source", "inf-source",
            "nan-target", "inf-target", "nan-column-sum", "inf-column-sum"])
    def test_refused_at_construction(self, changes, message, tmp_path):
        data = dict(COLUMN_STOCHASTIC, **changes)
        with pytest.raises(ValueError, match=message):
            BridgeProblem(**data)
        path = tmp_path / "bridge.json"
        path.write_text(json.dumps(data))
        assert cli.main(["bridge", str(path)]) == cli.EXIT_INVALID

    def test_validation_zero_column(self):
        with pytest.raises(ValueError, match="zero slice in mode 1"):
            BridgeProblem([[1.0, 0.0], [1.0, 0.0]], [0.5, 0.5], [1.0, 1.0],
                          [1.0, 1.0])

    def test_validation_marginals(self):
        with pytest.raises(ValueError, match="incompatible slice-sum totals"):
            BridgeProblem([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], [0.6, 0.6],
                          [1.0, 1.0])

    def test_validation_positivity(self):
        with pytest.raises(ValueError, match="positive"):
            BridgeProblem([[0.5, 0.5], [0.5, 0.5]], [0.0, 1.0], [0.5, 0.5],
                          [1.0, 1.0])


class TestReduce:
    def test_hand_arithmetic(self):
        p = column_stochastic_example()
        rows, cols = p.targets.vectors
        np.testing.assert_allclose(p.tensor.array, [[0.25, 0.125], [0.25, 0.375]])
        np.testing.assert_allclose(rows, [0.6, 0.4])
        np.testing.assert_allclose(cols, [0.5, 0.5])

    def test_unit_source_is_identity_reduction(self):
        p = BridgeProblem([[0.5, 0.3], [0.5, 0.7]], [1.0, 1.0], [0.9, 1.1],
                          [1.0, 1.0])
        rows, cols = p.targets.vectors
        np.testing.assert_allclose(p.tensor.array, p.matrix)
        np.testing.assert_allclose(rows, p.target)
        np.testing.assert_allclose(cols, p.column_sums)


class TestSolveBridge:
    def test_column_stochastic_output(self):
        tol = 1e-12
        result = solve_bridge(column_stochastic_example(), tol=tol)
        assert result.solution.status == blockmin.CONVERGED
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
        assert result.solution.status == blockmin.CONVERGED
        np.testing.assert_allclose(result.matrix, A, atol=1e-10)
        assert result.source_residual <= 1e-10
        assert result.column_residual <= 1e-10

    def test_identity_pattern_recovers_identity(self):
        a = np.array([0.4, 0.6])
        p = BridgeProblem(np.diag([2.0, 5.0]), a, a, np.ones(2))
        result = solve_bridge(p, tol=1e-12)
        assert result.solution.status == blockmin.CONVERGED
        np.testing.assert_allclose(result.matrix, np.eye(2), atol=1e-8)

    def test_output_keeps_pattern(self):
        p = BridgeProblem([[0.5, 0.5], [0.5, 0.0], [0.0, 0.5]],
                          [0.5, 0.5], [0.4, 0.3, 0.3], [1.0, 1.0])
        result = solve_bridge(p, tol=1e-12)
        assert result.solution.status == blockmin.CONVERGED
        assert ((result.matrix > 0) == (np.asarray(p.matrix) > 0)).all()

    def test_infeasible_raises_with_witness(self):
        p = BridgeProblem([[1.0, 1.0], [0.0, 1.0]], [0.5, 0.5], [0.4, 0.6],
                          [1.0, 1.0])
        with pytest.raises(InfeasibleScalingError) as exc:
            solve_bridge(p)
        report = exc.value.report
        assert report.witness is not None
        assert verify_witness(p.tensor, p.targets, report.witness)

    def test_uniqueness_across_starts(self):
        p = column_stochastic_example()
        first = solve_bridge(p, tol=1e-12)
        scaling = ScalingProblem(p.tensor, p.targets)
        rng = np.random.default_rng(77)
        second = solve_bridge(p, tol=1e-12,
                              x0=random_reduced_point(scaling, rng))
        assert np.abs(first.matrix - second.matrix).max() <= 1e-7
