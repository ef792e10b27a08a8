"""End-to-end slice-sum scaling solvers built on the greedy block engine.

:func:`solve` is the one entry point, and :class:`ScalingBlockProblem` the
one working problem. Tensors without gauge directions (positive tensors among
them) are solved on the product of per-mode target hyperplanes; for patterned
tensors with gauge directions the same closed-form block update is followed
by removing the iterate's gauge component, a correction of rank g (the
gauge dimension), so iterates stay in the reduced working space.
A run has converged when ``tol`` bounds the relative slice-sum mismatch
max_k ||sigma_k S / F - s_k||_inf / ||s_k||_inf (slice sums sigma_k, mass F,
targets s_k of total S), which is what :func:`normalize` leaves (it divides
by F / S), so every converged run normalizes to within ``tol``.

Iterates and starting points ``x0`` are ambient exponent blocks (block j has
length m_j), and the block updates and gradients are computed in that
ambient form. Of the frame's bases the loop reads only the gauge basis, whose
orientation cancels in G G^T and in the block-gradient norms, and the rate
certificate projects the ambient Hessian onto the reduced space, so nothing
a solve reports or stores depends on how that basis is oriented.

The loop never rescales the tensor per step. Its working problem keeps a
factored state: a kernel (the tensor rescaled at a base point), per-mode
factors exp(x_k - base_k), and the slice sums they give by contraction, two
matrix-vector products for a matrix. The kernel is rebuilt through
``ScalingProblem.scaled`` at the start, when the iterate has moved
``REBASE_DISTANCE`` from the base, and wherever a rescale of the iterate
could pass ``EXP_LIMIT``, so overflow is refused exactly where a per-step
rescale would refuse it. The objective drop of a step is read from the moved
mode's slice sums and the block update itself: the gauge correction that
follows changes no supported entry, so no path rescales per step.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import blockmin
from .blockmin import BlockProblem, BlockVector
from .objective import ScalingProblem
from .tensor import (EXP_LIMIT, DenseTensor, cofactor_sums, slice_sums,
                     support_exponent)

__all__ = [
    "ScalingSolution",
    "closed_form_block_update",
    "solve",
    "normalize",
    "random_reduced_point",
    "ScalingBlockProblem",
]

# Default iterate guard: exponent sums on the support stay at most
# d * guard, safely below the overflow threshold of scale().
GUARD_EXP_BUDGET = 560.0

# The factored state of the working problems rebases once the exponents
# have moved this far from its base point, summed over modes in sup norm;
# its factors then stay within exp(+-16) (about 1e7) of one.
REBASE_DISTANCE = 16.0


def default_divergence_guard(d):
    return min(1e3, GUARD_EXP_BUDGET / d)


def closed_form_block_update(problem, x, j, sigma=None):
    """Exact minimizer of the objective over mode-j exponents.

    With the other blocks held fixed, the update is log(target) minus
    log(slice sums with block j removed), shifted along the all-ones vector
    so the result is orthogonal to the target. It is evaluated from the
    mode-j slice sums ``sigma`` at ``x`` (by default those of the rescaled
    tensor), subtracting the old block in log domain, which avoids
    overflowing intermediates. Returns the ambient block (length m_j).
    """
    if sigma is None:
        sigma = slice_sums(problem.scaled(x), j)
    if (sigma <= 0).any():
        raise ValueError("zero slice encountered")
    s = problem.targets.vectors[j]
    tilde = x.blocks[j] + np.log(s) - np.log(sigma)
    shift = float(s @ tilde) / float(s.sum())
    return tilde - shift


class ScalingBlockProblem(BlockProblem):
    """The greedy engine's scaling problem, for every instance.

    The engine state is a BlockVector of ambient exponent blocks: block j has
    length m_j and lies in the hyperplane orthogonal to target s_j.

    Slice sums come from a factored state, not from a rescaled tensor. The
    state holds a kernel K, the tensor rescaled at a base point xb (through
    ``ScalingProblem.scaled``), the factors u_k = exp(x_k - xb_k) of its
    current point x, and the slice sums sigma_k = u_k * w_k at x, where w_k
    contracts K with every factor but u_k (``tensor.cofactor_sums``). A step
    on block j recomputes u_j and the w_k with k != j: one matrix-vector
    product for a matrix, and no exp over the support.

    evaluate, partial_minimizer and objective_decrease read the state when
    called at its point. A call at the output of the last apply_update from
    that point advances the state; a call at any other point rebases there,
    so a reused problem gives exactly what a fresh one gives. An advance
    rebases instead once sum_k ||x_k - xb_k||_inf passes REBASE_DISTANCE, or
    once that distance plus the largest support exponent at xb could pass
    EXP_LIMIT. The second rule makes the rebase's rescale raise
    ScalingOverflowError at exactly the iterate where rescaling every step
    would, and keeps every partial product of K and the factors inside the
    range of that rescale. ``rebases`` counts the rescales.

    Gauge directions, the columns of the frame's N x g gauge basis G, leave
    the objective unchanged. When g > 0 the iterates stay in the reduced
    space, orthogonal to G: apply_update removes G (G^T x) from the updated
    point. Write G_j for the rows of G in block j and S_j = I_g - G_j^T G_j.
    S_j is positive definite: a gauge vector v zero off block j sums to
    v_j[i_j] on a supported entry, so v_j vanishes at every index of mode j
    that lies on a supported entry, which is every index since no slice is
    zero. The block-j gradient of the reduced problem, taken
    along the image of block j's hyperplane under that projection, has the
    squared norm ||y||^2 + (G_j^T y)^T S_j^-1 (G_j^T y), with y the in-plane
    gradient sigma_j - (sigma_j.s_j / s_j.s_j) s_j. evaluate returns that
    norm as sqrt(y.y + z.z) with z = L_j^-1 G_j^T y (L_j L_j^T = S_j); with
    g = 0 it is sqrt(y.y). stop_value reads the relative slice-sum mismatch
    (module docstring) from the state's slice sums, all modes end to end
    against the concatenated targets, each entry scaled by 1 / ||s_k||_inf.
    """

    def __init__(self, problem):
        self.problem = problem
        self.frame = problem.frame
        self._targets = [(s, float(s @ s)) for s in problem.targets.vectors]
        self._target_all = np.concatenate(problem.targets.vectors)
        self._peak_scales = np.repeat(
            [1.0 / s.max() for s in problem.targets.vectors], self.block_dims)
        self.hessian_null_dim = self.d + self.frame.gauge_dim
        self._rebases = 0
        self._point = self._successor = self._kernel = None
        self._gradient_maps = []
        if self.frame.gauge_dim:
            gauge_blocks = self.frame.split(self.frame.gauge_basis)
            for j, rows in enumerate(gauge_blocks):
                # I - G_j^T G_j as the sum over the other blocks, which is
                # the same for an orthonormal G but free of cancellation
                S = sum(other.T @ other for k, other in
                        enumerate(gauge_blocks) if k != j)
                try:
                    L = np.linalg.cholesky(S)
                except np.linalg.LinAlgError:
                    raise ValueError("zero slice or invalid tensor") from None
                self._gradient_maps.append(np.linalg.solve(L, rows.T))

    @property
    def block_dims(self):
        return self.problem.tensor.dims

    @property
    def rebases(self):
        """Rescales of the tensor made so far to (re)build the state."""
        return self._rebases

    def _in_plane(self, v, k):
        """The component of ``v`` orthogonal to the mode-k target."""
        s, ss = self._targets[k]
        return v - (float(v @ s) / ss) * s

    def _slice_sums(self, x):
        """The slice sums of every mode at ``x``."""
        if x is not self._point:
            if x is self._successor:
                self._advance(x)
            else:
                self._rebase(x)
        return self._sigmas

    def _rebase(self, x):
        self._point = self._successor = self._kernel = None
        self._rebases += 1
        kernel = self.problem.scaled(x).array
        self._kernel, self._base = kernel, x
        self._base_exponent = support_exponent(self.problem.tensor, x)
        self._distances = [0.0] * self.d
        self._factors = [np.ones(m) for m in kernel.shape]
        self._cofactors = cofactor_sums(kernel, self._factors, range(self.d))
        self._settle(x)

    def _advance(self, x):
        moved = [k for k in range(self.d)
                 if x.blocks[k] is not self._point.blocks[k]]
        for k in moved:
            delta = x.blocks[k] - self._base.blocks[k]
            self._distances[k] = float(np.abs(delta).max())
            self._factors[k] = np.exp(delta)
        distance = sum(self._distances)
        # the margin covers rounding in the bound on the exponents at x
        if (distance > REBASE_DISTANCE or self._base_exponent + distance
                > EXP_LIMIT * (1.0 - 1e-12)):
            self._rebase(x)
            return
        # w_j does not depend on u_j, so a step on block j alone keeps it
        stale = [k for k in range(self.d) if moved != [k]]
        self._cofactors.update(cofactor_sums(self._kernel, self._factors, stale))
        self._settle(x)

    def _settle(self, x):
        self._sigmas = [u * self._cofactors[k]
                        for k, u in enumerate(self._factors)]
        self._point, self._successor = x, None

    def evaluate(self, x):
        sigmas = self._slice_sums(x)
        norms = []
        for k, sigma in enumerate(sigmas):
            y = self._in_plane(sigma, k)
            square = float(y @ y)
            if self._gradient_maps:
                z = self._gradient_maps[k] @ y
                square += float(z @ z)
            norms.append(math.sqrt(square))
        return float(sigmas[0].sum()), norms

    def stop_value(self, x, grad_norm):
        sigmas = self._slice_sums(x)
        ratio = self.problem.targets.total / float(sigmas[0].sum())
        gap = np.abs(ratio * np.concatenate(sigmas) - self._target_all)
        return float((gap * self._peak_scales).max())

    def partial_minimizer(self, x, j):
        return closed_form_block_update(self.problem, x, j,
                                        sigma=self._slice_sums(x)[j])

    def apply_update(self, x, j, new_block):
        x_new = x.with_block(j, new_block)
        if self.frame.gauge_dim:
            G, vec = self.frame.gauge_basis, x_new.concat()
            x_new = BlockVector(self.frame.split(vec - G @ (G.T @ vec)))
        if x is self._point:
            self._successor = x_new
        return x_new

    def objective_decrease(self, x, j, new_block):
        # f(new) - f(x) = sum_e B_e(x) * expm1(delta[i_j]) over the support,
        # for the move delta of block j alone, and B(x) summed over the other
        # modes is its mode-j slice sums, m_j terms from the state.
        # apply_update then moves only along the gauge, where the objective
        # is constant, so this is also the drop to the iterate it returns.
        # Each stored block lies in its target hyperplane only up to
        # rounding of order eps * |x|, and a drift along the target s_j
        # rescales the mass by about that much whatever the step. The drift
        # is not part of the step, so the difference of the blocks is
        # projected onto the hyperplane, where it lies in exact arithmetic;
        # the exponent change then carries errors proportional to the step
        # itself, and the expm1 form keeps the drop's sign reliable far below
        # the resolution of the objective values.
        move = self._in_plane(new_block - x.blocks[j], j)
        marginal = self._slice_sums(x)[j]
        positive = marginal > 0
        return -math.fsum(marginal[positive] * np.expm1(move[positive]))

    def hessian(self, x):
        """P H P, with H the ambient Hessian and P the projector onto the
        reduced space: zero on the d + g dimensional complement and H's
        (positive definite) compression on the reduced space, so its
        spectrum is the reduced one plus ``hessian_null_dim`` zeros."""
        project = self.frame.project
        return project(project(self.problem.hessian_ambient(x)).T)


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
    working_problem: BlockProblem


def normalize(problem, x):
    """Divide the rescaled tensor by its proportionality factor.

    The factor is total mass over target total. Returns (tensor, factor,
    per-mode residuals). Nothing is refused: the residuals are the evidence,
    and at the end of a converged run they are the mismatch ``tol`` bounds.
    """
    raw = problem.scaled(x)
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
    (``"greedy-projected"``), and the start must lie in that space. Both
    run :class:`ScalingBlockProblem`. ``x0`` may be None (the zero start,
    valid on both paths) or an ambient block vector with each block
    orthogonal to its target. ``tol`` bounds the relative slice-sum mismatch.
    """
    projected = problem.frame.gauge_dim != 0
    method = "greedy-projected" if projected else "greedy-standard"
    working = ScalingBlockProblem(problem)
    if x0 is None:
        x0 = BlockVector.zeros(problem.tensor.dims)
    else:
        _check_start(problem.frame, x0, projected)
    if divergence_guard is None:
        divergence_guard = default_divergence_guard(problem.d)
    x, trace, status = blockmin.run(working, x0, tol, max_iters,
                                    divergence_guard, record_iterates)
    scaled = factor = residuals = None
    if status == blockmin.CONVERGED:
        scaled, factor, residuals = normalize(problem, x)
    return ScalingSolution(x, scaled, factor, trace, status, residuals,
                           method, working)


def _check_start(frame, x0, projected, tol=1e-10):
    """Refuse a start of the wrong dims, off a target hyperplane, or outside
    the reduced space on a gauge instance."""
    if x0.dims != frame.dims:
        raise ValueError("block dims do not match frame dims")
    bound = tol * max(1.0, x0.norm_inf())
    for j, (block, s) in enumerate(zip(x0.blocks, frame.targets.vectors)):
        if abs(float(block @ s)) > bound * float(np.abs(s).max()):
            raise ValueError(f"block {j} is not orthogonal to its target")
    if projected and frame.reduced_residual(x0) > bound:
        raise ValueError("point lies outside the reduced working space")


def random_reduced_point(frame, rng, radius=1.0):
    """Random ambient block vector in the reduced working space: a point
    drawn from U(-radius, radius)^N, projected onto that space."""
    vec = frame.project(rng.uniform(-radius, radius, frame.ambient_dim))
    return BlockVector(frame.split(vec))
