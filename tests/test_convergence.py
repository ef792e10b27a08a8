"""One convergence contract: ``tol`` bounds the largest relative slice-sum
mismatch max_k ||sigma_k S / F - s_k||_inf / ||s_k||_inf, so a run that
reports ``converged`` normalizes whatever the tensor's mass, and an
unscalable input keeps a mismatch that no ``tol`` below it accepts."""

import json

import numpy as np
import pytest

from helpers import reduced_residual, relative_mismatch
from slicescale import blockmin, cli
from slicescale.objective import ScalingProblem
from slicescale.scaler import solve
from slicescale.tensor import DenseTensor, SliceTargets


def problem_of(array, targets=None):
    tensor = DenseTensor(array)
    if targets is None:
        targets = SliceTargets.uniform(tensor.dims)
    return ScalingProblem(tensor, targets)


def unscalable_blocks():
    """Row mass 4 + 4 against column mass 3 + 5 on a block-diagonal 8 x 8
    support: no scaling moves mass between the blocks."""
    rng = np.random.default_rng(3)
    array = np.zeros((8, 8))
    array[:4, :4] = rng.uniform(0.2, 1.0, (4, 4))
    array[4:, 4:] = rng.uniform(0.2, 1.0, (4, 4))
    return array, [np.ones(8),
                   np.concatenate([np.full(4, 0.75), np.full(4, 1.25)])]


class TestStopValue:
    def test_trace_records_the_mismatch(self):
        problem = problem_of(np.random.default_rng(4).uniform(0.1, 1.0, (6, 5)),
                             SliceTargets([np.full(6, 5.0), np.full(5, 6.0)]))
        sol = solve(problem, tol=1e-10)
        trace = sol.trace
        assert sol.status == blockmin.CONVERGED
        assert len(trace.stop_values) == trace.n_steps + 1
        for x, value in zip(trace.iterates, trace.stop_values):
            reference = relative_mismatch(problem.scaled(x), problem.targets)
            assert value == pytest.approx(reference, rel=1e-9, abs=1e-13)
        assert trace.stop_values[-1] <= 1e-10 < trace.stop_values[-2]

    def test_independent_of_mass(self):
        # multiplying the tensor by a constant leaves every stop value as it
        # is, while the gradient norms scale with the mass
        array = np.random.default_rng(5).uniform(0.1, 1.0, (5, 5))
        a = solve(problem_of(array), tol=1e-8).trace
        b = solve(problem_of(1e6 * array), tol=1e-8).trace
        assert a.n_steps == b.n_steps
        np.testing.assert_allclose(b.stop_values, a.stop_values, rtol=1e-9,
                                   atol=1e-14)
        assert b.full_grad_norms[0] > 1e5 * a.full_grad_norms[0]


class TestFaults:
    """Runs whose status and normalization disagreed under a tol on the
    absolute gradient norm."""

    def test_loose_tol_normalizes(self):
        problem = problem_of(np.random.default_rng(0).uniform(0.1, 1.0, (40, 40)))
        sol = solve(problem, tol=1e-3)
        assert sol.status == blockmin.CONVERGED
        assert sol.trace.n_steps == 4
        assert max(sol.residuals) <= 1e-3

    def test_wide_range_entries_converge(self):
        array = np.exp(np.random.default_rng(1).uniform(-12.0, 12.0, (40, 40)))
        sol = solve(problem_of(array))
        assert sol.status == blockmin.CONVERGED
        assert sol.trace.n_steps < 200
        assert max(sol.residuals) <= 1e-10 + 1e-13

    def test_unscalable_support_diverges(self):
        # rows 1 and 2 hold mass only in column 0, which cannot carry both
        sol = solve(problem_of([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0],
                                [1.0, 0.0, 0.0]]))
        assert sol.status == blockmin.DIVERGING
        # the step at which the guard's sup norm first passes its bound
        assert sol.trace.n_steps == 605
        assert sol.scaled is None
        assert min(sol.trace.stop_values) >= 0.8 - 1e-12

    def test_unscalable_blocks_diverge(self):
        array, targets = unscalable_blocks()
        sol = solve(problem_of(array, SliceTargets(targets)))
        assert sol.status == blockmin.DIVERGING
        assert sol.trace.n_steps == 1753
        assert min(sol.trace.stop_values) >= 0.2 - 1e-12

    def test_approximately_scalable_gauge_input_runs_out(self):
        # [[1, 1], [0, 1]] (+) [[1, 2], [3, 4]]: the first block's mismatch
        # falls like 1/k, so the run spends its whole budget, all of it with
        # the gauge drift of its steps left in the loop
        array = np.zeros((4, 4))
        array[:2, :2] = [[1.0, 1.0], [0.0, 1.0]]
        array[2:, 2:] = [[1.0, 2.0], [3.0, 4.0]]
        problem = problem_of(array)
        assert problem.gauge_dim > 0
        sol = solve(problem)
        assert sol.status == blockmin.MAX_ITERS_REACHED
        assert sol.trace.n_steps == 10000
        assert sol.scaled is None
        assert reduced_residual(problem, sol.x_star) <= 1e-12

    def test_forced_cli_run_exits_numerical(self, tmp_path):
        array, targets = unscalable_blocks()
        path, out = tmp_path / "blocks.json", tmp_path / "report.json"
        path.write_text(json.dumps({
            "dims": [8, 8], "values": array.ravel().tolist(),
            "targets": [t.tolist() for t in targets]}))
        assert cli.main(["scale", str(path), "--force",
                         "--output", str(out)]) == cli.EXIT_NUMERICAL
        report = json.loads(out.read_text())
        assert report["status"] == blockmin.DIVERGING
        assert "scaled" not in report

    def test_loose_tol_report_shows_its_stop_value(self, tmp_path):
        array = np.random.default_rng(0).uniform(0.1, 1.0, (40, 40))
        path, out = tmp_path / "dense.json", tmp_path / "report.json"
        path.write_text(json.dumps({
            "dims": [40, 40], "values": array.ravel().tolist(),
            "targets": [[1.0] * 40] * 2}))
        assert cli.main(["scale", str(path), "--tol", "1e-3",
                         "--output", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        trace = report["trace"]
        assert report["status"] == blockmin.CONVERGED
        assert len(trace["stop_values"]) == report["iterations"] + 1
        assert trace["stop_values"][-1] <= 1e-3 < trace["full_grad_norms"][-1]
