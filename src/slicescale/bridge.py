"""Discrete Schrodinger-bridge style rescaling of a nonnegative matrix.

Given a nonnegative matrix A, a positive source vector a, a target vector b,
and prescribed column sums c (with c.a == sum(b)), find the rescaling B of A
with B a = b and column sums c. Column-scaling A by a reduces this to a
two-mode slice-sum problem with row targets b and column targets c*a, solved
by the scaler module; B is recovered by undoing the column scaling.
"""

from dataclasses import dataclass

import numpy as np

from . import scaler
from .blockmin import IterateTrace
from .feasibility import InfeasibleScalingError, check_scalable
from .objective import ScalingProblem
from .tensor import DenseTensor, SliceTargets

__all__ = ["BridgeProblem", "BridgeResult", "reduce_to_scaling", "solve_bridge"]


@dataclass
class BridgeProblem:
    """Matrix rescaling data: find B ~ matrix with B @ source = target and
    column sums equal to column_sums."""

    matrix: np.ndarray
    source: np.ndarray
    target: np.ndarray
    column_sums: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=float)
        a = np.asarray(self.source, dtype=float).ravel()
        b = np.asarray(self.target, dtype=float).ravel()
        c = np.asarray(self.column_sums, dtype=float).ravel()
        if A.ndim != 2:
            raise ValueError("matrix must be 2-d")
        m, n = A.shape
        if a.size != n or c.size != n or b.size != m:
            raise ValueError("marginal vector lengths do not match the matrix")
        if np.any(A < 0) or not np.all(np.isfinite(A)):
            raise ValueError("matrix entries must be nonnegative and finite")
        if np.any(a <= 0) or np.any(b <= 0) or np.any(c <= 0):
            raise ValueError("marginal vectors must be positive")
        if np.any(A.sum(axis=1) <= 0) or np.any(A.sum(axis=0) <= 0):
            raise ValueError("matrix has a zero row or zero column")
        lhs = float(c @ a)
        rhs = float(b.sum())
        if abs(lhs - rhs) > 1e-10 * max(abs(lhs), abs(rhs)):
            raise ValueError(
                f"incompatible marginals: c.a = {lhs} but sum(b) = {rhs}"
            )
        self.matrix = A
        self.source = a
        self.target = b
        self.column_sums = c


@dataclass
class BridgeResult:
    matrix: np.ndarray
    trace: IterateTrace
    status: str
    source_residual: float
    column_residual: float
    solution: scaler.ScalingSolution


def reduce_to_scaling(problem):
    """Column-scale the matrix by the source vector.

    Returns (scaled matrix, row targets, column targets); the targets are
    compatible by the problem's marginal condition, which BridgeProblem
    checks at construction and SliceTargets checks again.
    """
    A = problem.matrix * problem.source[None, :]
    return A, problem.target, problem.column_sums * problem.source


def solve_bridge(problem, tol=1e-10, max_iters=10000, x0=None):
    """Solve the bridge problem through the slice-sum scaler.

    Patterned matrices are checked for scalability first (raising
    InfeasibleScalingError with a witness when impossible); the recovered B
    has the matrix's support and the reported sup-norm residuals
    ||B @ source - target|| and ||column sums - column_sums||.
    """
    reduced, row_targets, col_targets = reduce_to_scaling(problem)
    tensor = DenseTensor(reduced)
    targets = SliceTargets([row_targets, col_targets])
    report = check_scalable(tensor, targets)
    if not report.scalable:
        raise InfeasibleScalingError(report)
    scaling_problem = ScalingProblem(tensor, targets)
    solution = scaler.solve(scaling_problem, x0=x0, tol=tol, max_iters=max_iters)
    if solution.scaled is None:
        return BridgeResult(None, solution.trace, solution.status,
                            float("nan"), float("nan"), solution)
    B = solution.scaled.array / problem.source[None, :]
    source_residual = float(np.abs(B @ problem.source - problem.target).max())
    column_residual = float(np.abs(B.sum(axis=0) - problem.column_sums).max())
    return BridgeResult(B, solution.trace, solution.status, source_residual,
                        column_residual, solution)
