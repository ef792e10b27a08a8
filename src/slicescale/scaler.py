"""End-to-end slice-sum scaling solvers built on the greedy block engine.

:func:`solve` is the one entry point. It solves tensors without gauge
directions (positive tensors among them) directly on the product of per-mode
target hyperplanes; patterned tensors with gauge directions go through the
projected variant, which applies the same closed-form block update and then
projects each iterate back onto the reduced working space.
Either way a converged run yields slice sums proportional to the targets,
and a final normalization makes them exact.

Iterates and starting points ``x0`` are ambient exponent blocks (block j has
length m_j), and the block updates and standard-path gradients are computed
in that ambient form. The frame's bases enter only through the projected
path's gradients and projection and through the Hessians of the rate
certificate, so nothing a solve reports or stores depends on how those bases
are oriented.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import blockmin
from .blockmin import BlockProblem, BlockVector
from .objective import ScalingPoint, ScalingProblem
from .tensor import DenseTensor, slice_sums

__all__ = [
    "ScalingSolution",
    "closed_form_block_update",
    "solve",
    "normalize",
    "random_reduced_point",
    "StandardScalingBlockProblem",
    "ProjectedScalingBlockProblem",
]

# Default iterate guard: exponent sums on the support stay at most
# d * guard, safely below the overflow threshold of scale().
GUARD_EXP_BUDGET = 560.0

# Per-mode proportionality estimates must agree to this relative spread
# before normalization is allowed.
PROPORTIONALITY_RTOL = 1e-6


def default_divergence_guard(d):
    return min(1e3, GUARD_EXP_BUDGET / d)


def closed_form_block_update(problem, x, j, scaled=None):
    """Exact minimizer of the objective over mode-j exponents.

    With the other blocks held fixed, the update is log(target) minus
    log(slice sums with block j removed), shifted along the all-ones vector
    so the result is orthogonal to the target. It is evaluated from the
    currently scaled tensor (subtracting the old block in log domain), which
    avoids overflowing intermediates. Returns the ambient block (length m_j).
    """
    t = problem.scaled(x) if scaled is None else scaled
    sigma = slice_sums(t, j)
    if np.any(sigma <= 0):
        raise ValueError("zero slice encountered")
    s = problem.targets.vectors[j]
    tilde = x.blocks[j] + np.log(s) - np.log(sigma)
    shift = float(s @ tilde) / float(s.sum())
    return tilde - shift


class _ScalingBlockProblemBase(BlockProblem):
    """Shared plumbing for engine-facing scaling problems.

    The engine state is a BlockVector of ambient exponent blocks: block j has
    length m_j and lies in the hyperplane orthogonal to target s_j.

    The rescaled tensor of the last point seen is kept, keyed on the identity
    of its BlockVector (whose arrays are read-only), so evaluate,
    partial_minimizer and objective_decrease at one iterate share a single
    rescale. Any other point is rescaled afresh.
    """

    def __init__(self, problem):
        self.problem = problem
        self.frame = problem.frame
        self._memo = None

    def _scaled(self, x):
        if self._memo is None or self._memo[0] is not x:
            self._memo = None  # release the old tensor before the new rescale
            self._memo = (x, self.problem.scaled(x))
        return self._memo[1]

    @property
    def block_dims(self):
        return self.problem.tensor.dims

    def partial_minimizer(self, x, j):
        return closed_form_block_update(self.problem, x, j,
                                        scaled=self._scaled(x))

    def objective_decrease(self, x_old, x_new, j):
        # f(new) - f(old) = sum_e B_e(old) * expm1(sum_k delta_k[i_k]) over
        # the support. Each stored block lies in its target hyperplane only
        # up to rounding of order eps * |x|, and a drift along the target s_k
        # rescales the mass by about that much whatever the step. The drift
        # is not part of the step, so each difference of the stored blocks is
        # projected onto the hyperplane, where it lies in exact arithmetic;
        # the exponent changes then carry errors proportional to the step
        # itself, and the expm1 form keeps the drop's sign reliable far below
        # the resolution of the objective values. The exponent change does
        # not depend on the modes that did not move, so B(old) is first
        # summed over them: a single-block step costs one set of slice sums
        # and m_j terms, and when every block moves the marginal is B(old)
        # itself.
        scaled = self._scaled(x_old)
        deltas = {}
        for k in range(self.d):
            s = self.problem.targets.vectors[k]
            delta = x_new.blocks[k] - x_old.blocks[k]
            delta = delta - (float(delta @ s) / float(s @ s)) * s
            if np.any(delta):
                deltas[k] = delta
        still = tuple(k for k in range(self.d) if k not in deltas)
        marginal = scaled.array
        if still:
            marginal = marginal.sum(axis=still, keepdims=True)
        expo = np.zeros(marginal.shape)
        for k, delta in deltas.items():
            shape = [1] * self.d
            shape[k] = delta.size
            expo += delta.reshape(shape)
        positive = marginal > 0
        return -math.fsum(marginal[positive] * np.expm1(expo[positive]))


class StandardScalingBlockProblem(_ScalingBlockProblemBase):
    """Engine problem for tensors without gauge directions."""

    def evaluate(self, x):
        scaled = self._scaled(x)
        grads = [
            self.problem.restricted_gradient(x, j, scaled=scaled)
            for j in range(self.d)
        ]
        return scaled.total, grads

    def hessian(self, x):
        return self.problem.hessian_restricted(x, self.frame.working_basis)


class ProjectedScalingBlockProblem(_ScalingBlockProblemBase):
    """Engine problem for patterned tensors with gauge directions.

    Gradients are taken along the projected mode bases and every block update
    is followed by a projection onto the reduced working space, so iterates
    never leave it.
    """

    def evaluate(self, x):
        scaled = self._scaled(x)
        ghat = self.problem.ambient_gradient(x, scaled=scaled)
        grads = [
            self.frame.projected_mode_bases[j].T @ ghat for j in range(self.d)
        ]
        return scaled.total, grads

    def apply_update(self, x, j, new_block):
        updated = x.with_block(j, new_block)
        return BlockVector(
            self.frame.split(self.frame.reduced_projector @ updated.concat())
        )

    def hessian(self, x):
        return self.problem.hessian_restricted(x, self.frame.reduced_basis)


@dataclass
class ScalingSolution:
    """Outcome of a scaling run.

    ``scaled`` is the normalized tensor (exact targets) and is None unless the
    run converged; ``proportionality`` is the factor relating the slice sums
    at the final point to the targets before normalization. ``residuals``
    holds the per-mode sup-norm target mismatch of the normalized tensor.
    """

    x_star: ScalingPoint
    scaled: DenseTensor
    proportionality: float
    trace: blockmin.IterateTrace
    status: str
    residuals: list
    method: str
    working_problem: BlockProblem


def normalize(problem, x):
    """Divide the rescaled tensor by its proportionality factor.

    The factor is total mass over target total. The componentwise ratios of
    slice sums to targets must agree to 1e-6 relative across all modes (which
    also forces the per-mode factor estimates to agree), otherwise the point
    has not converged and ValueError('not converged') is raised. Returns
    (tensor, factor, per-mode residuals).
    """
    raw = problem.scaled(x)
    ratios = np.concatenate([
        slice_sums(raw, k) / problem.targets.vectors[k]
        for k in range(problem.d)
    ])
    mean = float(ratios.mean())
    if float(ratios.max() - ratios.min()) > PROPORTIONALITY_RTOL * abs(mean):
        raise ValueError("not converged")
    factor = raw.total / problem.targets.total
    out = DenseTensor(raw.array / factor)
    residuals = [
        float(np.abs(slice_sums(out, k) - problem.targets.vectors[k]).max())
        for k in range(problem.d)
    ]
    return out, factor, residuals


def solve(problem, x0=None, tol=1e-10, max_iters=10000, divergence_guard=None,
          record_iterates=True):
    """Greedy scaling, on the path the gauge dimension picks.

    Without gauge directions (always the case for strictly positive tensors)
    the engine runs on the product of target hyperplanes
    (``"greedy-standard"``). Otherwise it runs on the reduced working space
    (``"greedy-projected"``), and the start must lie in that space. ``x0``
    may be None (the zero start, valid on both paths) or an ambient block
    vector with each block orthogonal to its target.
    """
    projected = problem.frame.gauge_dim != 0
    if projected:
        working, method = ProjectedScalingBlockProblem(problem), "greedy-projected"
    else:
        working, method = StandardScalingBlockProblem(problem), "greedy-standard"
    if x0 is None:
        x0 = BlockVector.zeros(problem.tensor.dims)
    else:
        # dims must match and each block must lie in its target hyperplane
        ScalingPoint(problem.frame, x0, require_reduced=projected)
    if divergence_guard is None:
        divergence_guard = default_divergence_guard(problem.d)
    x, trace, status = blockmin.run(working, x0, tol, max_iters,
                                    divergence_guard, record_iterates)
    point = ScalingPoint(problem.frame, x)
    scaled = factor = residuals = None
    if status == blockmin.CONVERGED:
        scaled, factor, residuals = normalize(problem, x)
    return ScalingSolution(point, scaled, factor, trace, status, residuals,
                           method, working)


def random_reduced_point(frame, rng, radius=1.0):
    """Random ambient block vector in the reduced working space."""
    coeffs = rng.uniform(-radius, radius, frame.reduced_dim)
    vec = frame.reduced_basis @ coeffs
    return BlockVector(frame.split(vec))
