"""Scalability test on the positive-certificate (Menon) system.

A tensor with the given support can be rescaled to the targets exactly when
some tensor w, positive on the support, has every mode's slice sums along
that mode's target: Rᵀw + Tᵀz = 0 for some z in Rᵈ, where R is the nnz × N
support incidence (N = Σ mⱼ) and T holds target j in block j of row j. By
homogeneity w >= 1 may be asked for. This is the Farkas dual of the witness
search (an exponent vector x with Rx <= 0, 1ᵀRx <= -1 and Tx = 0), so
exactly one of the two systems is solvable. Scaling one target by a positive
constant changes neither system's solvability, so each target is divided by
its largest entry before the system is built.

A dense phase-1 simplex with Bland's rule decides the dual system on its N
equality rows. A solution is the certificate of a `scalable` verdict. When
phase 1 cannot drive its artificials to zero, its multipliers p satisfy
Rp >= 0, Tp = 0 and 1ᵀRp > 0, so x = -p / (1ᵀRp) is a witness. Both are
re-checked before a verdict is reported.
"""

from dataclasses import dataclass

import numpy as np

from .blockmin import BlockVector, block_slices
from .tensor import _exponents

__all__ = [
    "FeasibilityReport",
    "InfeasibleScalingError",
    "check_scalable",
    "verify_witness",
]

SCALABLE = "scalable"
NOT_SCALABLE = "not_scalable"

PIVOT_TOL = 1e-9
FEASIBLE_TOL = 1e-7
MAX_PIVOTS = 50000
# Tolerance of the re-checks of a certificate and of a witness.
CHECK_TOL = 1e-9
# Largest phase-1 tableau check_scalable will allocate; larger inputs are
# refused with a ValueError instead of exhausting memory.
MAX_TABLEAU_BYTES = 1 << 30
# The elimination runs over blocks of rows of about this many bytes, so that
# its temporaries stay small next to a wide tableau.
UPDATE_BLOCK_BYTES = 1 << 18


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
    """Pivot budget exhausted or a verdict failed its re-check (should be
    unreachable under Bland's rule)."""


def _phase_one(T):
    """Phase 1 in place on the tableau [A | I | b] with b >= 0.

    The last rows-many columns before the right-hand side are the
    artificials, basic at the start. Entering and leaving variables follow
    Bland's rule (smallest index), which rules out cycling; PIVOT_TOL is the
    pivot tolerance and MAX_PIVOTS the pivot budget. Returns
    (basis, cost row, pivot count); the cost row holds the reduced costs
    in the z - c convention, and its last entry is the sum of the
    artificials.
    """
    m, width = T.shape
    block = max(1, UPDATE_BLOCK_BYTES // (8 * width))
    basis = np.arange(width - 1 - m, width - 1)
    cost = T.sum(axis=0)
    cost[width - 1 - m:-1] -= 1.0
    pivots = 0
    while True:
        entering = int(np.argmax(cost[:-1] > PIVOT_TOL))
        if cost[entering] <= PIVOT_TOL:
            break
        column = T[:, entering]
        candidates = np.flatnonzero(column > PIVOT_TOL)
        if candidates.size == 0:
            # unbounded phase-1 objective cannot happen; treat as failure
            raise SimplexCycleError("phase-1 ratio test failed")
        ratios = T[candidates, -1] / column[candidates]
        ties = candidates[ratios <= ratios.min() + PIVOT_TOL]
        leaving = ties[np.argmin(basis[ties])]
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise SimplexCycleError("simplex cycling guard exceeded")
        T[leaving] /= T[leaving, entering]
        pivot_row = T[leaving]
        rows = np.flatnonzero(column)
        rows = rows[rows != leaving]
        for start in range(0, rows.size, block):
            chunk = rows[start:start + block]
            T[chunk] -= np.outer(column[chunk], pivot_row)
        cost -= cost[entering] * pivot_row
        basis[leaving] = entering
    return basis, cost, pivots


def _dual_tableau(support, vectors):
    """Phase-1 tableau of Rᵀ(1 + y) + Tᵀ(z⁺ - z⁻) = 0 with y, z± >= 0, where
    row j of T holds ``vectors[j]`` in block j.

    Columns: y (one per supported entry, in np.nonzero order), z⁺, z⁻, one
    artificial per row, right-hand side. Every slice holds a supported
    entry, so every right-hand side -Rᵀ1 is negative and every row is
    negated to make it the slice's entry count.
    """
    dims = support.shape
    d, n = len(dims), sum(dims)
    entries = np.nonzero(support)
    nnz = entries[0].size
    T = np.zeros((n, nnz + 2 * d + n + 1))
    columns = np.arange(nnz)
    for j, block in enumerate(block_slices(dims)):
        T[block.start + entries[j], columns] = -1.0
        T[block, nnz + j] = -vectors[j]
        T[block, nnz + d + j] = vectors[j]
    T[np.arange(n), nnz + 2 * d + np.arange(n)] = 1.0
    T[:, -1] = -T[:, :nnz].sum(axis=1)  # each slice's entry count
    return T


def _certificate_holds(support, vectors, w, z):
    """True iff w >= 1 - CHECK_TOL on the support and every mode's slice sums
    of w plus z_j times ``vectors[j]`` vanish to CHECK_TOL * max(1, max w)."""
    if w.min() < 1.0 - CHECK_TOL:
        return False
    entries = np.nonzero(support)
    bound = CHECK_TOL * max(1.0, float(w.max()))
    for j, m in enumerate(support.shape):
        residual = np.bincount(entries[j], weights=w, minlength=m)
        residual += z[j] * vectors[j]
        if np.abs(residual).max() > bound:
            return False
    return True


def check_scalable(tensor, targets):
    """Decide whether the tensor can be rescaled to the given slice sums.

    Runs phase 1 on the positive-certificate system Rᵀw + Tᵀz = 0, w >= 1
    (see the module docstring), with each target divided by its largest
    entry: rescaling one target cannot change the verdict, and the simplex's
    absolute pivot tolerance then meets targets of unit max whatever their
    given scale. A solution means scalable and is checked before being
    reported. An infeasible system means not scalable; the witness
    (orthogonal to every target, all supported entry sums <= 0, total -1)
    is read from the phase-1 multipliers and re-verified. A failed check
    raises SimplexCycleError.

    Full support needs no search (the report says the LP was skipped): a
    block orthogonal to its positive target has a maximum >= 0, and all
    entry sums <= 0 force those maxima to sum to <= 0, so every block is 0.
    An input whose tableau would exceed MAX_TABLEAU_BYTES raises ValueError
    before anything is allocated.
    """
    if targets.dims != tensor.dims:
        raise ValueError("target dims do not match tensor dims")
    support = tensor.support
    if support.all():
        return FeasibilityReport(
            SCALABLE, None, {"pivots": 0, "phase": 1,
                             "skipped": "full support is always scalable"})
    n, d = sum(tensor.dims), tensor.d
    nnz = int(np.count_nonzero(support))
    nbytes = 8 * n * (nnz + 2 * d + n + 1)
    if nbytes > MAX_TABLEAU_BYTES:
        raise ValueError(
            f"feasibility tableau would take {nbytes / 2**30:.2f} GiB, above "
            f"the {MAX_TABLEAU_BYTES / 2**30:.2f} GiB limit")
    vectors = [t / t.max() for t in targets.vectors]
    T = _dual_tableau(support, vectors)
    counts = T[:, -1].copy()
    basis, cost, pivots = _phase_one(T)
    stats = {"pivots": pivots, "phase": 1}
    if cost[-1] <= FEASIBLE_TOL:
        values = np.zeros(T.shape[1] - 1)
        values[basis] = T[:, -1]
        w = 1.0 + values[:nnz]
        shift = values[nnz:nnz + d] - values[nnz + d:nnz + 2 * d]
        if not _certificate_holds(support, vectors, w, shift):
            raise SimplexCycleError("simplex produced an invalid certificate")
        return FeasibilityReport(SCALABLE, None, stats)
    # Multipliers of the original rows: pi = -(artificial reduced costs + 1),
    # as every row was negated. With p = -pi, 1ᵀRp = countsᵀp is the
    # positive phase-1 value.
    p = cost[nnz + 2 * d:-1] + 1.0
    witness = BlockVector.from_concat(tensor.dims, -p / (counts @ p))
    if not verify_witness(tensor, targets, witness):
        raise SimplexCycleError("simplex produced an invalid witness")
    return FeasibilityReport(NOT_SCALABLE, witness, stats)


def verify_witness(tensor, targets, x):
    """Check the witness conditions to tolerance CHECK_TOL.

    True iff every supported entry sum is <= CHECK_TOL, the total over
    supported entries is <= -1 + CHECK_TOL, and every block's inner product
    with its target t_j is within CHECK_TOL * max|t_j| of zero.
    """
    blocks = getattr(x, "blocks", x)
    if tuple(len(np.asarray(b)) for b in blocks) != tensor.dims:
        raise ValueError("witness dims do not match tensor dims")
    sums = _exponents(tensor, blocks)[tensor.support]
    if sums.size == 0 or float(sums.max()) > CHECK_TOL:
        return False
    if float(sums.sum()) > -1.0 + CHECK_TOL:
        return False
    for j, b in enumerate(blocks):
        t = targets.vectors[j]
        bound = CHECK_TOL * float(np.abs(t).max())
        if abs(float(np.asarray(b, dtype=float) @ t)) > bound:
            return False
    return True
