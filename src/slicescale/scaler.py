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
factors exp(x_k - base_k), and the slice sums they give by contraction. A
step on block j computes one exp of length m_j, one pass over the kernel
(one matrix-vector product for a matrix, and nothing more), and the slice
sums, their mass and the stop value in place, in preallocated buffers of
length N; the per-mode target constants are computed once. The kernel is
rebuilt through ``ScalingProblem.scaled`` at the start, when the iterate has
moved ``REBASE_DISTANCE`` from the base, and wherever a rescale of the
iterate could pass ``EXP_LIMIT``, so overflow is refused exactly where a
per-step rescale would refuse it. The objective drop of a step is read from
the moved mode's slice sums and the block update itself: the gauge
correction that follows changes no supported entry, so no path rescales per
step.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import blockmin
from .blockmin import BlockProblem, BlockVector, _extreme
from .objective import ScalingProblem
from .tensor import (EXP_LIMIT, CofactorPlan, DenseTensor, slice_sums,
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


# The vectors of one step are short, so call overhead dominates: extremes
# are read by arg-index (blockmin._extreme), sums use the ufunc method
# behind ndarray.sum without the method wrapper, and products use
# ndarray.dot, the BLAS call @ makes on 1-d and 2-d operands without its
# ufunc dispatch. A scalar applied to a vector stays the numpy scalar a
# product returned, which numpy takes without converting it.
_sum = np.add.reduce


def default_divergence_guard(d):
    return min(1e3, GUARD_EXP_BUDGET / d)


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


def _in_plane(v, s, ss):
    """The component of ``v`` orthogonal to the target ``s`` (ss = s.s)."""
    return v - (v.dot(s) / ss) * s


def _block_update(block, sigma, s, log_s, s_sum):
    """The closed-form update of ``block`` from its mode's slice sums
    ``sigma``, given the target ``s`` with its log and its sum."""
    if _extreme(sigma, np.ndarray.argmin) <= 0:
        raise ValueError("zero slice encountered")
    tilde = block + log_s
    tilde -= np.log(sigma)
    tilde -= s.dot(tilde) / s_sum
    return tilde


class ScalingBlockProblem(BlockProblem):
    """The greedy engine's scaling problem, for every instance.

    The engine state is a BlockVector of ambient exponent blocks: block j has
    length m_j and lies in the hyperplane orthogonal to target s_j.

    Slice sums come from a factored state, not from a rescaled tensor. The
    state holds a kernel K, the tensor rescaled at a base point xb (through
    ``ScalingProblem.scaled``), the factors u_k = exp(x_k - xb_k) of its
    current point x, and the slice sums sigma_k = u_k * w_k at x, where w_k
    contracts K with every factor but u_k. A step on block j computes one
    exp of length m_j (the new u_j) and the stale w_k, k != j: one
    contraction of K along mode j, which for a matrix is the other mode's w
    itself (one matrix-vector product), and for d >= 3 contractions of the
    smaller array it leaves (a ``tensor.CofactorPlan`` per block, made
    once). It writes the products u_k * w_k in place into one preallocated
    buffer of all N slice sums and stores their mass. evaluate, stop_value
    and objective_decrease read that buffer, and stop_value works in a
    second one. The target constants of the closed-form update and the
    gradient (log s_j, the sum and the square norm of s_j, 1 / ||s_j||_inf)
    are computed once. The block update is a fresh array, and apply_update
    adopts it into the next iterate without a copy, as read-only.

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
    point, which moves every block. Write G_j for the rows of G in block j
    and S_j = I_g - G_j^T G_j.
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
        self._dims = dims = problem.tensor.dims
        targets = problem.targets.vectors
        # per mode: s_k, log s_k, sum s_k, s_k . s_k
        self._targets = [(s, np.log(s), float(_sum(s)), float(s @ s))
                         for s in targets]
        self._total = problem.targets.total
        self._target_all = np.concatenate(targets)
        self._peak_scales = np.repeat([1.0 / s.max() for s in targets], dims)
        # the slice sums of every mode end to end, and a work buffer as long
        self._sigma_all = np.empty(sum(dims))
        self._sigmas = self.frame.split(self._sigma_all)
        self._gap = np.empty(sum(dims))
        modes = range(len(dims))
        # the cofactors a step on block j alone leaves stale (w_j does not
        # depend on u_j), and those of any other move
        self._plans = [
            ((j,), CofactorPlan(len(dims), [k for k in modes if k != j]))
            for j in modes]
        self._full_plan = (modes, CofactorPlan(len(dims), modes))
        self.hessian_null_dim = len(dims) + self.frame.gauge_dim
        self._rebases = 0
        self._point = self._successor = self._kernel = None
        self._fresh = self._positive = None
        self._gradient_maps = [None] * len(dims)
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
                self._gradient_maps[j] = np.linalg.solve(L, rows.T)

    @property
    def block_dims(self):
        return self._dims

    @property
    def rebases(self):
        """Rescales of the tensor made so far to (re)build the state."""
        return self._rebases

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
        self._distances = [0.0] * len(self._dims)
        self._factors = [np.ones(m) for m in self._dims]
        self._cofactors = [None] * len(self._dims)
        self._full_plan[1](kernel, self._factors, self._cofactors)
        self._settle(x)

    def _advance(self, x):
        moved, plan = self._move
        base, factors = self._base.blocks, self._factors
        distances = self._distances
        for k in moved:
            delta = x.blocks[k] - base[k]
            distances[k] = _extreme(np.absolute(delta))
            factors[k] = np.exp(delta)
        distance = sum(distances)
        # the margin covers rounding in the bound on the exponents at x
        if (distance > REBASE_DISTANCE or self._base_exponent + distance
                > EXP_LIMIT * (1.0 - 1e-12)):
            self._rebase(x)
            return
        plan(self._kernel, factors, self._cofactors)
        self._settle(x)

    def _settle(self, x):
        for u, w, sigma in zip(self._factors, self._cofactors, self._sigmas):
            np.multiply(u, w, sigma)
        self._mass = float(_sum(self._sigmas[0]))
        self._point, self._successor, self._positive = x, None, None

    def evaluate(self, x):
        norms = []
        for sigma, (s, _, _, ss), gradient_map in zip(
                self._slice_sums(x), self._targets, self._gradient_maps):
            y = _in_plane(sigma, s, ss)
            square = y.dot(y)
            if gradient_map is not None:
                z = gradient_map.dot(y)
                square += z.dot(z)
            norms.append(math.sqrt(square))
        return self._mass, norms

    def stop_value(self, x, grad_norm):
        self._slice_sums(x)
        gap, ratio = self._gap, self._total / self._mass
        np.multiply(self._sigma_all, ratio, gap)
        np.subtract(gap, self._target_all, gap)
        np.absolute(gap, gap)
        np.multiply(gap, self._peak_scales, gap)
        return _extreme(gap)

    def partial_minimizer(self, x, j):
        sigma = self._slice_sums(x)[j]
        s, log_s, s_sum, _ = self._targets[j]
        self._fresh = _block_update(x.blocks[j], sigma, s, log_s, s_sum)
        # the update has checked that sigma_j > 0 at this point
        self._positive = j
        return self._fresh

    def apply_update(self, x, j, new_block):
        if new_block is self._fresh:
            self._fresh = None
            x_new = x._adopting(j, new_block)
        else:
            x_new = x.with_block(j, new_block)
        move = self._plans[j]
        if self.frame.gauge_dim:
            G, vec = self.frame.gauge_basis, x_new.concat()
            vec -= G.dot(G.T.dot(vec))
            x_new = BlockVector._adopt(self.frame.split(vec))
            move = self._full_plan
        if x is self._point:
            self._successor, self._move = x_new, move
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
        marginal = self._slice_sums(x)[j]
        s, _, _, ss = self._targets[j]
        move = _in_plane(new_block - x.blocks[j], s, ss)
        if self._positive != j:
            # no update has checked the slice sums: drop the empty slices
            positive = marginal > 0
            marginal, move = marginal[positive], move[positive]
        terms = np.expm1(move)
        terms *= marginal
        return -math.fsum(terms.tolist())

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
    out = DenseTensor._adopt(raw.array / factor)
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
