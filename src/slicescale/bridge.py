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
from .feasibility import InfeasibleScalingError, check_scalable
from .objective import ScalingProblem
from .tensor import DenseTensor, SliceTargets, _floats

__all__ = ["BridgeProblem", "BridgeResult", "solve_bridge"]


@dataclass
class BridgeProblem:
    """Matrix rescaling data: find B ~ matrix with B @ source = target and
    column sums equal to column_sums.

    Construction stores the four inputs as float arrays and builds the
    slice-sum instance they reduce to: ``tensor`` is the column-scaled
    matrix A diag(a) and ``targets`` are the row targets b and column
    targets c * a. Those constructors validate it, so a refused input
    raises ValueError here, with their messages ("zero slice in mode k",
    "incompatible slice-sum totals: [...]"); the source is checked for
    positive finite entries, and the matrix for nonnegative ones, first.
    """

    matrix: np.ndarray
    source: np.ndarray
    target: np.ndarray
    column_sums: np.ndarray

    def __post_init__(self):
        A = _floats(self.matrix, "matrix")
        a, b, c = (_floats(getattr(self, key), key).ravel()
                   for key in ("source", "target", "column_sums"))
        if A.ndim != 2:
            raise ValueError("matrix must be 2-d")
        m, n = A.shape
        if a.size != n or c.size != n or b.size != m:
            raise ValueError("marginal vector lengths do not match the matrix")
        # A * a alone would pass a negative source against a nonpositive
        # column, and a negative entry rounded to -0.0 by a tiny source
        if not np.all(np.isfinite(a)) or np.any(a <= 0):
            raise ValueError("source entries must be positive and finite")
        if np.any(A < 0):
            raise ValueError("entries must be nonnegative")
        self.matrix, self.source, self.target, self.column_sums = A, a, b, c
        self.tensor = DenseTensor(A * a)
        self.targets = SliceTargets([b, c * a])


@dataclass
class BridgeResult:
    """The rescaled matrix (None when the scaler did not converge), its
    sup-norm residuals, and the scaler's solution with its status and
    trace."""

    matrix: np.ndarray
    source_residual: float
    column_residual: float
    solution: scaler.ScalingSolution


def solve_bridge(problem, tol=1e-10, max_iters=10000, x0=None):
    """Solve the bridge problem through the slice-sum scaler.

    Patterned matrices are checked for scalability first (raising
    InfeasibleScalingError with a witness when impossible); the recovered B
    has the matrix's support and the reported sup-norm residuals
    ||B @ source - target|| and ||column sums - column_sums||.
    """
    report = check_scalable(problem.tensor, problem.targets)
    if not report.scalable:
        raise InfeasibleScalingError(report)
    solution = scaler.solve(ScalingProblem(problem.tensor, problem.targets),
                            x0=x0, tol=tol, max_iters=max_iters)
    if solution.scaled is None:
        return BridgeResult(None, float("nan"), float("nan"), solution)
    B = solution.scaled.array / problem.source[None, :]
    source_residual = float(np.abs(B @ problem.source - problem.target).max())
    column_residual = float(np.abs(B.sum(axis=0) - problem.column_sums).max())
    return BridgeResult(B, source_residual, column_residual, solution)
