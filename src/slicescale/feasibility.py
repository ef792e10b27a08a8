"""Scalability test via a homogeneous witness search.

A tensor with the given support can be rescaled to the targets exactly when
no exponent assignment exists that is orthogonal to every target, makes all
supported entry sums nonpositive, and makes their total strictly negative.
By homogeneity the strict condition can be normalized to total <= -1, which
turns the witness search into a bounded feasibility LP solved here by a
dense phase-1 simplex with Bland's rule.
"""

from dataclasses import dataclass

import numpy as np

from .blockmin import BlockVector

__all__ = [
    "FeasibilityReport",
    "InfeasibleScalingError",
    "check_scalable",
    "verify_witness",
]

SCALABLE = "scalable"
NOT_SCALABLE = "not_scalable"

PIVOT_TOL = 1e-9
MAX_PIVOTS = 50000


@dataclass
class FeasibilityReport:
    """Verdict of the scalability test; a witness is present iff not scalable."""

    verdict: str
    witness: BlockVector
    lp_stats: dict

    @property
    def scalable(self):
        return self.verdict == SCALABLE


class InfeasibleScalingError(ValueError):
    """The instance is not scalable; carries the FeasibilityReport."""

    def __init__(self, report):
        super().__init__("instance is not scalable to the given targets")
        self.report = report


class SimplexCycleError(RuntimeError):
    """Pivot budget exhausted (should be unreachable under Bland's rule)."""


def _phase_one(A_ub, b_ub, A_eq, b_eq, tol=PIVOT_TOL, max_pivots=MAX_PIVOTS):
    """Feasibility of {A_ub x <= b_ub, A_eq x = b_eq} with x free.

    Returns (feasible, x or None, pivot count). Free variables are split into
    positive and negative parts; inequality rows get slacks. Entering and
    leaving variables follow Bland's rule (smallest index), which rules out
    cycling.
    """
    A_ub = np.asarray(A_ub, dtype=float)
    A_eq = np.asarray(A_eq, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    b_eq = np.asarray(b_eq, dtype=float).ravel()
    n = A_ub.shape[1] if A_ub.size else A_eq.shape[1]
    n_ub = A_ub.shape[0]
    n_eq = A_eq.shape[0]
    m = n_ub + n_eq

    # columns: x+ (n), x- (n), slacks (n_ub), then artificials as needed
    base_cols = 2 * n + n_ub
    rows = np.zeros((m, base_cols))
    rhs = np.zeros(m)
    if n_ub:
        rows[:n_ub, :n] = A_ub
        rows[:n_ub, n:2 * n] = -A_ub
        rows[:n_ub, 2 * n:2 * n + n_ub] = np.eye(n_ub)
        rhs[:n_ub] = b_ub
    if n_eq:
        rows[n_ub:, :n] = A_eq
        rows[n_ub:, n:2 * n] = -A_eq
        rhs[n_ub:] = b_eq

    neg = rhs < 0
    rows[neg] *= -1.0
    rhs[neg] *= -1.0

    # slack is basic for non-negated inequality rows, artificial otherwise
    needs_artificial = [bool(neg[i]) or i >= n_ub for i in range(m)]
    n_art = sum(needs_artificial)
    T = np.zeros((m, base_cols + n_art + 1))
    T[:, :base_cols] = rows
    T[:, -1] = rhs
    basis = [0] * m
    art_col = base_cols
    for i in range(m):
        if needs_artificial[i]:
            T[i, art_col] = 1.0
            basis[i] = art_col
            art_col += 1
        else:
            basis[i] = 2 * n + i

    # phase-1 objective row (z - c): sum of artificial rows, minus cost 1 on
    # artificial columns themselves
    z = np.zeros(base_cols + n_art + 1)
    for i in range(m):
        if needs_artificial[i]:
            z += T[i]
    z[base_cols:base_cols + n_art] -= 1.0

    pivots = 0
    while True:
        entering = -1
        for j in range(base_cols + n_art):
            if z[j] > tol:
                entering = j
                break
        if entering < 0:
            break
        leaving, best_ratio, best_var = -1, np.inf, None
        for i in range(m):
            a = T[i, entering]
            if a > tol:
                ratio = T[i, -1] / a
                if ratio < best_ratio - tol or (
                    abs(ratio - best_ratio) <= tol
                    and (best_var is None or basis[i] < best_var)
                ):
                    leaving, best_ratio, best_var = i, ratio, basis[i]
        if leaving < 0:
            # unbounded phase-1 objective cannot happen; treat as failure
            raise SimplexCycleError("phase-1 ratio test failed")
        pivots += 1
        if pivots > max_pivots:
            raise SimplexCycleError("simplex cycling guard exceeded")
        piv = T[leaving, entering]
        T[leaving] /= piv
        for i in range(m):
            if i != leaving and T[i, entering] != 0.0:
                T[i] -= T[i, entering] * T[leaving]
        z -= z[entering] * T[leaving]
        basis[leaving] = entering

    value = z[-1]
    feasible = value <= 1e-7
    if not feasible:
        return False, None, pivots
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] += T[i, -1]
        elif var < 2 * n:
            x[var - n] -= T[i, -1]
    return True, x, pivots


def _witness_system(tensor, targets):
    dims = tensor.dims
    d = len(dims)
    ambient = sum(dims)
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    support_idx = np.argwhere(tensor.support)
    rows = np.zeros((len(support_idx), ambient))
    for r, idx in enumerate(support_idx):
        for j in range(d):
            rows[r, offsets[j] + idx[j]] = 1.0
    A_ub = np.vstack([rows, rows.sum(axis=0, keepdims=True)])
    b_ub = np.zeros(len(support_idx) + 1)
    b_ub[-1] = -1.0
    A_eq = np.zeros((d, ambient))
    for j in range(d):
        A_eq[j, offsets[j]:offsets[j + 1]] = targets.vectors[j]
    b_eq = np.zeros(d)
    return A_ub, b_ub, A_eq, b_eq


def check_scalable(tensor, targets):
    """Decide whether the tensor can be rescaled to the given slice sums.

    Searches for a witness exponent vector (orthogonal to every target, all
    supported entry sums <= 0, total <= -1). No witness means scalable; a
    found witness is re-verified before being reported.

    Full support needs no search (the report says the LP was skipped): a
    block orthogonal to its positive target has a maximum >= 0, and all
    entry sums <= 0 force those maxima to sum to <= 0, so every block is 0.
    """
    if targets.dims != tensor.dims:
        raise ValueError("target dims do not match tensor dims")
    if tensor.support.all():
        return FeasibilityReport(
            SCALABLE, None, {"pivots": 0, "phase": 1,
                             "skipped": "full support is always scalable"})
    A_ub, b_ub, A_eq, b_eq = _witness_system(tensor, targets)
    feasible, x, pivots = _phase_one(A_ub, b_ub, A_eq, b_eq)
    stats = {"pivots": pivots, "phase": 1}
    if not feasible:
        return FeasibilityReport(SCALABLE, None, stats)
    witness = BlockVector.from_concat(tensor.dims, x)
    if not verify_witness(tensor, targets, witness):
        raise SimplexCycleError("simplex produced an invalid witness")
    return FeasibilityReport(NOT_SCALABLE, witness, stats)


def verify_witness(tensor, targets, x, tol=1e-9):
    """Check the witness conditions to absolute tolerance ``tol``.

    True iff every supported entry sum is <= tol, every target inner product
    is within tol of zero, and the total over supported entries is <= -1+tol.
    """
    blocks = getattr(x, "blocks", x)
    if tuple(len(np.asarray(b)) for b in blocks) != tensor.dims:
        raise ValueError("witness dims do not match tensor dims")
    expo = np.zeros(tensor.dims)
    for j, b in enumerate(blocks):
        shape = [1] * tensor.d
        shape[j] = tensor.dims[j]
        expo += np.asarray(b, dtype=float).reshape(shape)
    sums = expo[tensor.support]
    if sums.size == 0 or float(sums.max()) > tol:
        return False
    if float(sums.sum()) > -1.0 + tol:
        return False
    for j, b in enumerate(blocks):
        if abs(float(np.asarray(b, dtype=float) @ targets.vectors[j])) > tol:
            return False
    return True
