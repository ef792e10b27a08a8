"""End-to-end slice-sum scaling on the greedy block engine.

:func:`solve` is the one entry point, and it runs the engine on the
caller's :class:`~slicescale.objective.ScalingProblem` itself. Every step
is the closed-form update of one block, with or without gauge directions.
On a tensor with zeros the loop's iterates then drift along the gauge, where
nothing the loop reads changes (see ScalingProblem), and :func:`solve`
removes that component once, from the final point and every recorded
iterate, so what it returns lies in the reduced working space.
A run has converged when ``tol`` bounds the relative slice-sum mismatch
max_k ||sigma_k S / F - s_k||_inf / ||s_k||_inf (slice sums sigma_k, mass F,
targets s_k of total S), which is what :func:`normalize` leaves (it divides
by F / S), so every converged run normalizes to within ``tol``.

Iterates and starting points ``x0`` are ambient exponent blocks (block j has
length m_j), and the block updates and gradients are computed in that
ambient form. Of the problem's bases the loop reads only the gauge basis,
whose orientation cancels in G G^T and in the block-gradient norms, and the
rate certificate projects the ambient Hessian onto the reduced space, so
nothing a solve reports or stores depends on how that basis is oriented.
The loop never rescales the tensor per step: the problem keeps the slice
sums in a factored state (see ScalingProblem).
"""

from dataclasses import dataclass

import numpy as np

from . import blockmin
from .blockmin import BlockVector
from .objective import _block_update, _sum
from .tensor import DenseTensor, slice_sums

__all__ = [
    "ScalingSolution",
    "closed_form_block_update",
    "solve",
    "normalize",
    "random_reduced_point",
]

# Default iterate guard: exponent sums on the support stay at most
# d * guard, safely below the overflow threshold of scale().
GUARD_EXP_BUDGET = 560.0


def closed_form_block_update(problem, x, j, sigma=None):
    """Exact minimizer of the objective over mode-j exponents.

    With the other blocks held fixed, the update is log(target) minus
    log(slice sums with block j removed), shifted along the all-ones vector
    so the result is orthogonal to the target. It is evaluated from the
    mode-j slice sums ``sigma`` at ``x`` (by default those of the rescaled
    tensor), subtracting the old block in log domain, which avoids
    overflowing intermediates. Returns the ambient block (length m_j) as a
    new array.
    """
    sigma = (slice_sums(problem.scaled(x), j) if sigma is None
             else np.asarray(sigma, dtype=float))
    s = problem.targets.vectors[j]
    return _block_update(x.blocks[j], sigma, s, np.log(s), float(_sum(s)))


@dataclass
class ScalingSolution:
    """Outcome of a scaling run.

    ``x_star`` is the final point and ``scaled`` the normalized tensor, None
    unless the run converged; ``proportionality`` is the factor relating the
    slice sums at the final point to the targets before normalization, and
    ``residuals`` the normalized tensor's per-mode sup-norm target mismatch.
    """

    x_star: BlockVector
    scaled: DenseTensor
    proportionality: float
    trace: blockmin.IterateTrace
    status: str
    residuals: list
    method: str


def normalize(problem, x):
    """Divide the rescaled tensor by its proportionality factor.

    The factor is total mass over target total. Returns (tensor, factor,
    per-mode residuals). Nothing is refused: the residuals are the evidence,
    and at the end of a converged run they are the mismatch ``tol`` bounds.
    """
    raw = problem.scaled(x)
    factor = raw.total / problem.targets.total
    out = DenseTensor._adopt(raw.array / factor)
    residuals = [
        float(np.abs(slice_sums(out, k) - problem.targets.vectors[k]).max())
        for k in range(problem.d)
    ]
    return out, factor, residuals


def solve(problem, x0=None, tol=1e-10, max_iters=10000, divergence_guard=None,
          record_iterates=True):
    """Greedy scaling of a :class:`~slicescale.objective.ScalingProblem`,
    run on that object itself.

    Without gauge directions (always the case for strictly positive tensors)
    the working space is the product of target hyperplanes
    (``"greedy-standard"``). Otherwise it is the reduced working space
    (``"greedy-projected"``): the start must lie in it, and the gauge
    component the steps pick up is removed from ``x_star`` and from
    ``trace.iterates`` after the loop. The divergence guard reads the loop's
    iterates before that removal. ``divergence_guard`` must be positive;
    None (the default) applies min(1e3, 560 / d), and ``math.inf`` turns the
    guard off. ``x0`` may be None (the zero start, valid on both) or an
    ambient block vector with each block orthogonal to its target. ``tol``
    bounds the relative slice-sum mismatch.
    """
    method = "greedy-projected" if problem.gauge_dim else "greedy-standard"
    if x0 is None:
        x0 = BlockVector.zeros(problem.tensor.dims)
    else:
        _check_start(problem, x0)
    if divergence_guard is None:
        divergence_guard = min(1e3, GUARD_EXP_BUDGET / problem.d)
    # the run starts from a rebase at x0, as on a fresh problem
    problem._restart()
    x, trace, status = blockmin.run(problem, x0, tol, max_iters,
                                    divergence_guard, record_iterates)
    if problem.gauge_dim:
        # x on its own: a one-row product is a matrix-vector product, so x
        # and the normalized tensor do not depend on how many iterates the
        # stacked product below holds
        x, = _without_gauge(problem, [x])
        if record_iterates:
            trace.iterates = _without_gauge(problem, trace.iterates[:-1]) + [x]
    scaled = factor = residuals = None
    if status == blockmin.CONVERGED:
        scaled, factor, residuals = normalize(problem, x)
    return ScalingSolution(x, scaled, factor, trace, status, residuals, method)


def _without_gauge(problem, points):
    """The block vectors ``points`` less their gauge components, as new
    BlockVectors: one stacked product V - (V G) G^T over the rows V of the
    concatenated points."""
    G = problem.gauge_basis
    # a reshape, so that no points still give a 0 x N array
    V = np.reshape([x.concat() for x in points], (len(points), G.shape[0]))
    V -= V.dot(G).dot(G.T)
    return [BlockVector._adopt(problem.split(row)) for row in V]


def _check_start(problem, x0):
    """Refuse a start of the wrong dims, with a non-finite entry, off a
    target hyperplane, or outside the reduced space on a gauge instance, to
    1e-10 relative."""
    if tuple(b.size for b in x0.blocks) != problem.block_dims:
        raise ValueError("block dims do not match problem dims")
    vec = x0.concat()
    if not np.isfinite(vec).all():
        raise ValueError("start must be finite")
    bound = 1e-10 * max(1.0, float(np.abs(vec).max()))
    for j, (block, s) in enumerate(zip(x0.blocks, problem.targets.vectors)):
        if abs(float(block @ s)) > bound * float(np.abs(s).max()):
            raise ValueError(f"block {j} is not orthogonal to its target")
    if problem.gauge_dim:
        if float(np.abs(vec - problem.project(vec)).max()) > bound:
            raise ValueError("point lies outside the reduced working space")


def random_reduced_point(problem, rng, radius=1.0):
    """Random ambient block vector in the reduced working space: a point
    drawn from U(-radius, radius)^N, projected onto that space."""
    vec = problem.project(rng.uniform(-radius, radius, sum(problem.block_dims)))
    return BlockVector(problem.split(vec))
