"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from helpers import (fd_gradient, fd_hessian, projected_mode_bases,
                     reduced_residual, reference_bases, sinkhorn_reference,
                     slice_sum_gradient)
from slicescale import blockmin, cli
from slicescale.blockmin import BlockVector, QuadraticBlockProblem, rate_certificate
from slicescale.bridge import BridgeProblem, solve_bridge
from slicescale.feasibility import NOT_SCALABLE, SCALABLE, check_scalable, verify_witness
from slicescale.numerics import symmetric_eigs
from slicescale.objective import ScalingProblem, ambient_second_moments
from slicescale.scaler import random_reduced_point, solve
from slicescale.tensor import DenseTensor, SliceTargets

RUN_TOL = 1e-12


def report(num, description, violations):
    status = "PASS" if not violations else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} - {description}")
    assert not violations, f"criterion {num}: " + "; ".join(violations[:10])


def greedy_bound_violations(trace, d, label):
    """Squared form of the greedy selection bound, exact in floats."""
    out = []
    for k, j in enumerate(trace.chosen_blocks):
        norms = trace.block_grad_norms[k]
        ss = sum(v * v for v in norms)
        g = norms[j]
        if d * g * g < ss:
            out.append(f"{label} step {k}: d*g^2 < sum of squares")
        if k >= 1 and (d - 1) * g * g < ss:
            out.append(f"{label} step {k}: (d-1)*g^2 < sum of squares")
    return out


def descent_violations(trace, tol, label):
    out = []
    for k in range(trace.n_steps):
        if trace.full_grad_norms[k] > tol and not trace.objective_decreases[k] > 0.0:
            out.append(f"{label} step {k}: no strict objective decrease")
        if trace.post_step_block_norms[k] > 1e-12:
            out.append(f"{label} step {k}: post-step block gradient "
                       f"{trace.post_step_block_norms[k]:.2e} > 1e-12")
    return out


def bound_violations(problem, solution, seed, label):
    trace = solution.trace
    curve = cli.bound_certificate(problem, trace, seed)["bound_curve"]
    gaps = trace.gaps()
    out = []
    for k in range(1, trace.n_steps + 1):
        limit = curve[k - 1] * 1.05
        if gaps[k] > limit:
            out.append(f"{label} k={k}: gap {gaps[k]:.3e} > bound {limit:.3e}")
    return out


@pytest.fixture(scope="module")
def matrix_corpus():
    runs = []
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        tensor = DenseTensor(rng.uniform(0.1, 1.0, (5, 5)))
        problem = ScalingProblem(tensor, SliceTargets.uniform((5, 5)))
        start = time.perf_counter()
        sol = solve(problem, tol=RUN_TOL)
        elapsed = time.perf_counter() - start
        assert sol.method == "greedy-standard"
        runs.append((problem, sol, elapsed))
    return runs


@pytest.fixture(scope="module")
def cube_corpus():
    runs = []
    for i in range(10):
        rng = np.random.default_rng(2000 + i)
        tensor = DenseTensor(rng.uniform(0.1, 1.0, (3, 3, 3)))
        problem = ScalingProblem(tensor, SliceTargets.uniform((3, 3, 3)))
        sol = solve(problem, tol=RUN_TOL)
        assert sol.method == "greedy-standard"
        runs.append((problem, sol, 0.0))
    return runs


@pytest.fixture(scope="module")
def pattern_runs():
    runs = []
    for array in (np.diag([2.0, 5.0]), np.diag([2.0, 3.0, 5.0])):
        problem = ScalingProblem(DenseTensor(array),
                                 SliceTargets.uniform(array.shape))
        sol = solve(problem, tol=RUN_TOL)
        assert sol.method == "greedy-projected"
        runs.append((problem, sol))
    return runs


@pytest.fixture(scope="module")
def quadratic_runs():
    runs = []
    rng = np.random.default_rng(42)
    for n in (3, 5):
        problem = QuadraticBlockProblem(np.diag(rng.uniform(0.5, 4.0, n)),
                                        rng.standard_normal(n))
        x0 = BlockVector([[v] for v in rng.uniform(-2, 2, n)])
        runs.append((problem, blockmin.run(problem, x0, RUN_TOL, 1000,
                                           record_iterates=True)))
    coupled = QuadraticBlockProblem(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                    np.zeros(2))
    runs.append((coupled, blockmin.run(coupled, BlockVector([[1.0], [1.0]]),
                                       RUN_TOL, 1000, record_iterates=True)))
    return runs


@pytest.fixture(scope="module")
def all_converged(matrix_corpus, cube_corpus, pattern_runs, quadratic_runs):
    """(d, trace, label) for every converged run assembled by the suite."""
    entries = []
    for i, (p, sol, _) in enumerate(matrix_corpus):
        entries.append((p.d, sol.trace, f"matrix[{i}]", sol.status))
    for i, (p, sol, _) in enumerate(cube_corpus):
        entries.append((p.d, sol.trace, f"cube[{i}]", sol.status))
    for i, (p, sol) in enumerate(pattern_runs):
        entries.append((p.d, sol.trace, f"pattern[{i}]", sol.status))
    for i, (p, (x, trace, status)) in enumerate(quadratic_runs):
        entries.append((p.d, trace, f"quadratic[{i}]", status))
    assert all(status == blockmin.CONVERGED for _, _, _, status in entries)
    return [(d, trace, label) for d, trace, label, _ in entries]


def test_criterion_1_doubly_stochastic(matrix_corpus):
    violations = []
    for i, (problem, sol, elapsed) in enumerate(matrix_corpus):
        if sol.status != blockmin.CONVERGED:
            violations.append(f"matrix[{i}] status {sol.status}")
            continue
        scaled = sol.scaled.array
        row_err = np.abs(scaled.sum(axis=1) - 1.0).max()
        col_err = np.abs(scaled.sum(axis=0) - 1.0).max()
        if max(row_err, col_err) > 1e-8:
            violations.append(f"matrix[{i}] margin error {max(row_err, col_err):.2e}")
        if elapsed >= 1.0:
            violations.append(f"matrix[{i}] took {elapsed:.2f}s")
    report(1, "20 random positive 5x5 matrices scale to doubly stochastic "
              "(margins within 1e-8, under 1s each)", violations)


def test_criterion_2_tensor_scaling(cube_corpus):
    violations = []
    for i, (problem, sol, _) in enumerate(cube_corpus):
        if sol.status != blockmin.CONVERGED:
            violations.append(f"cube[{i}] status {sol.status}")
            continue
        if max(sol.residuals) > 1e-8:
            violations.append(f"cube[{i}] residual {max(sol.residuals):.2e}")
        if not np.array_equal(sol.scaled.support, problem.tensor.support):
            violations.append(f"cube[{i}] support changed")
    report(2, "10 random positive 3x3x3 tensors hit uniform targets "
              "(residuals within 1e-8, support preserved)", violations)


def test_criterion_3_sinkhorn_equivalence():
    problem = ScalingProblem(DenseTensor([[1.0, 2.0], [3.0, 4.0]]),
                             SliceTargets.uniform((2, 2)))
    sol = solve(problem, tol=1e-300, max_iters=20)
    assert sol.method == "greedy-standard"
    _, oracle = sinkhorn_reference([[1.0, 2.0], [3.0, 4.0]], [1, 1], [1, 1], 10)
    violations = []
    if sol.trace.n_steps < 20 and sol.status != blockmin.CONVERGED:
        violations.append(f"stopped after {sol.trace.n_steps} steps: {sol.status}")
    for k in range(1, 21):
        # a run whose gradient reaches exactly zero stops early at a point
        # that the later half steps of alternating scaling keep fixed
        x = sol.trace.iterates[min(k, sol.trace.n_steps)]
        scaled = problem.scaled(x).array
        ratio = scaled / oracle[k - 1]
        spread = ratio.max() / ratio.min() - 1.0
        if spread > 1e-10:
            violations.append(f"k={k}: ratio spread {spread:.2e}")
    report(3, "greedy iterates on [[1,2],[3,4]] match alternating scaling "
              "up to one global factor for k=1..20 (spread within 1e-10)",
           violations)


def test_criterion_4_greedy_bound(all_converged):
    violations = []
    for d, trace, label in all_converged:
        violations += greedy_bound_violations(trace, d, label)
    report(4, "every step's chosen block gradient meets the argmax bounds "
              "(1/sqrt(d); 1/sqrt(d-1) after the first step)", violations)


def test_criterion_5_descent_and_stationarity(all_converged):
    violations = []
    for _, trace, label in all_converged:
        violations += descent_violations(trace, RUN_TOL, label)
    report(5, "strict objective descent while above tolerance; post-step "
              "block gradients within 1e-12", violations)


def test_criterion_6_rate_certificate(matrix_corpus, cube_corpus):
    violations = []
    for i, (problem, sol, _) in enumerate(matrix_corpus):
        violations += bound_violations(problem, sol, 5000 + i, f"matrix[{i}]")
    for i, (problem, sol, _) in enumerate(cube_corpus):
        violations += bound_violations(problem, sol, 6000 + i, f"cube[{i}]")
    report(6, "objective gaps stay within 1.05x the sampled geometric rate "
              "certificate on the criteria 1-2 corpus", violations)


def test_criterion_7_derivative_checks():
    violations = []
    count = 0
    for s in range(5):
        rng = np.random.default_rng(3000 + s)
        tensor = DenseTensor(rng.uniform(0.1, 1.0, (2, 2, 2)))
        vecs = []
        for m in (2, 2, 2):
            v = rng.uniform(0.3, 1.0, m)
            vecs.append(v)
        total = sum(v.sum() for v in vecs) / 3
        targets = SliceTargets([v * total / v.sum() for v in vecs])
        problem = ScalingProblem(tensor, targets)
        Q = reference_bases(problem).reduced_basis
        for _ in range(10):
            count += 1
            x = BlockVector([rng.uniform(-1.2, 1.2, m) for m in (2, 2, 2)])
            vec = x.concat()

            def f(v):
                return problem.scaled(BlockVector(problem.split(v))).total

            grad = slice_sum_gradient(problem, x)
            grad_err = np.abs(grad - fd_gradient(f, vec, h=1e-5)).max()
            if grad_err > 1e-6 * np.abs(grad).max():
                violations.append(f"problem {s}: gradient error {grad_err:.2e}")
            H = ambient_second_moments(problem.scaled(x).array)
            hess_err = np.abs(H - fd_hessian(f, vec, h=1e-4)).max()
            if hess_err > 1e-4 * np.abs(H).max():
                violations.append(f"problem {s}: hessian error {hess_err:.2e}")
            vals = symmetric_eigs(Q.T @ H @ Q)
            if vals[0] <= 0:
                violations.append(f"problem {s}: restricted hessian not PD")
    assert count == 50
    report(7, "analytic gradient/Hessian match central differences at 50 "
              "random points (rel 1e-6 / 1e-4); restricted Hessian stays PD",
           violations)


def test_criterion_8_degenerate_patterns(pattern_runs):
    violations = []
    for i, (problem, sol) in enumerate(pattern_runs):
        if sol.method != "greedy-projected":
            violations.append(f"pattern[{i}] took method {sol.method}")
        if sol.status != blockmin.CONVERGED:
            violations.append(f"pattern[{i}] status {sol.status}")
            continue
        for k, x in enumerate(sol.trace.iterates):
            if reduced_residual(problem, x) > 1e-12:
                violations.append(f"pattern[{i}] iterate {k} left the reduced space")
        bases = projected_mode_bases(problem)
        for j, m in enumerate(problem.tensor.dims):
            if bases[j].shape[1] != m - 1:
                violations.append(f"pattern[{i}] projected mode basis {j} deficient")
        expected = np.eye(problem.tensor.dims[0])
        if np.abs(sol.scaled.array - expected).max() > 1e-8:
            violations.append(f"pattern[{i}] scaled tensor is not the unique "
                              "same-pattern solution")
    report(8, "identity-pattern instances route through the projected solver, "
              "stay in the reduced space, and reach the unique same-pattern "
              "solution", violations)


def test_criterion_9_feasibility():
    import itertools
    violations = []
    uniform = SliceTargets.uniform((2, 2))

    tensor = DenseTensor([[1.0, 1.0], [0.0, 1.0]])
    rep = check_scalable(tensor, uniform)
    if rep.verdict != NOT_SCALABLE:
        violations.append("upper-triangular pattern reported scalable")
    elif not verify_witness(tensor, uniform, rep.witness):
        violations.append("witness failed verification")

    def analytic(mask):
        # with unit margins the candidates are a11 = a22 = t, a12 = a21 = 1-t
        for t in np.linspace(0.0, 1.0, 2001):
            cand = np.array([[t, 1.0 - t], [1.0 - t, t]])
            on_ok = cand[mask > 0].min() > 1e-9
            off = cand[mask == 0]
            off_ok = off.size == 0 or np.abs(off).max() <= 1e-12
            if on_ok and off_ok:
                return True
        return False

    for bits in itertools.product([0, 1], repeat=4):
        mask = np.array(bits, dtype=float).reshape(2, 2)
        if mask.sum(axis=0).min() == 0 or mask.sum(axis=1).min() == 0:
            continue
        rng = np.random.default_rng(int(sum(bits)) + 9)
        tensor = DenseTensor(np.where(mask > 0, rng.uniform(0.5, 2.0, (2, 2)), 0.0))
        rep = check_scalable(tensor, uniform)
        want = SCALABLE if analytic(mask) else NOT_SCALABLE
        if rep.verdict != want:
            violations.append(f"pattern {bits}: verdict {rep.verdict}, oracle {want}")
        if rep.verdict == NOT_SCALABLE and not verify_witness(tensor, uniform,
                                                              rep.witness):
            violations.append(f"pattern {bits}: witness failed verification")
        sol = solve(ScalingProblem(tensor, uniform), tol=1e-10, max_iters=1500)
        converged = sol.status == blockmin.CONVERGED
        if (rep.verdict == SCALABLE) != converged:
            violations.append(f"pattern {bits}: verdict {rep.verdict} but "
                              f"solver status {sol.status}")
        if not converged and sol.trace.full_grad_norms[-1] <= 100 * 1e-10:
            violations.append(f"pattern {bits}: gradient floor vanished")
    report(9, "LP verdicts match the analytic 2x2 margin oracle and the "
              "solver outcome; witnesses verify", violations)


def test_criterion_10_bridge():
    violations = []
    problem = BridgeProblem([[0.5, 0.25], [0.5, 0.75]], [0.5, 0.5],
                            [0.6, 0.4], [1.0, 1.0])
    first = solve_bridge(problem, tol=RUN_TOL)
    if first.source_residual > 1e-8:
        violations.append(f"source residual {first.source_residual:.2e}")
    if first.column_residual > 1e-8:
        violations.append(f"column residual {first.column_residual:.2e}")
    scaling = ScalingProblem(problem.tensor, problem.targets)
    rng = np.random.default_rng(123)
    second = solve_bridge(problem, tol=RUN_TOL,
                          x0=random_reduced_point(scaling, rng))
    diff = np.abs(first.matrix - second.matrix).max()
    if diff > 1e-7:
        violations.append(f"two starts disagree by {diff:.2e}")
    report(10, "column-stochastic bridge example meets both marginals within "
               "1e-8; two starting points agree within 1e-7", violations)


def test_criterion_11_quadratic_demo(quadratic_runs):
    violations = []
    for i, (problem, (x, trace, status)) in enumerate(quadratic_runs[:2]):
        n = len(problem.block_dims)
        if status != blockmin.CONVERGED:
            violations.append(f"diagonal[{i}] status {status}")
        if trace.n_steps > n:
            violations.append(f"diagonal[{i}] took {trace.n_steps} > {n} steps")
    problem, (x, trace, status) = quadratic_runs[2]
    violations += greedy_bound_violations(trace, 2, "coupled")
    violations += descent_violations(trace, RUN_TOL, "coupled")
    assert problem.d == 2
    curve = rate_certificate(problem, trace, [BlockVector([[0.0], [0.0]])])[3]
    gaps = trace.gaps()
    for k in range(1, trace.n_steps + 1):
        if gaps[k] > curve[k - 1] * 1.05:
            violations.append(f"coupled k={k}: gap above certificate")
    report(11, "diagonal SPD quadratics converge in at most n steps; the "
               "coupled 2x2 case satisfies the greedy, descent, and rate "
               "criteria", violations)
