"""Greedy block partial-minimization engine with convergence certificates.

The engine repeatedly replaces the block whose gradient norm is largest by
that block's exact partial minimizer. Problems supply the objective with the
per-block gradient norms (one ``evaluate`` call) and the step (one ``step``
call, which returns the next iterate and the objective drop); the engine
owns block selection, stopping, the divergence guard, and the iterate
trace. A run converges once the problem's ``stop_value`` (the full-gradient
norm unless overridden) is at most ``tol``.

Immediately after a step on block j the partial-minimization contract makes
that block's gradient vanish, so the engine carries an exact zero for it in
the selection state (the measured post-step residual is recorded separately
in the trace). The working full-gradient norm is the root sum of squares of
the current block gradient norms.
"""

import abc
import logging
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import numerics

__all__ = [
    "BlockVector",
    "BlockProblem",
    "PARTIAL_MIN_TOL",
    "block_slices",
    "QuadraticBlockProblem",
    "IterateTrace",
    "NumericalOverflowError",
    "CONVERGED",
    "MAX_ITERS_REACHED",
    "DIVERGING",
    "run",
    "check_run_limits",
    "rate_certificate",
    "estimate_alpha_beta",
]

logger = logging.getLogger("slicescale")

CONVERGED = "converged"
MAX_ITERS_REACHED = "max_iters_reached"
DIVERGING = "diverging"

# Accuracy every partial minimizer is held to: after a step on block j the
# block-j gradient norm is at most this, relative to max(1, |objective|).
PARTIAL_MIN_TOL = 1e-12


class NumericalOverflowError(ArithmeticError):
    """Objective or gradient became non-finite; carries the offending iterate."""

    def __init__(self, message, iterate=None, at_step=None):
        super().__init__(message)
        self.iterate = iterate
        self.at_step = at_step


def _extreme(v, arg=np.ndarray.argmax):
    """The largest entry of a nonempty 1-d float array as a float, or the
    smallest with ``arg=np.ndarray.argmin``.

    On the short vectors of one greedy step a ufunc reduction
    (``np.maximum.reduce``) costs about twice as much as finding the index
    and reading the entry there, and both give the same value: the extreme,
    or NaN when the vector holds one, since both propagate it. They can
    differ only in the sign of a zero, and every caller reads an absolute
    value or tests ``<= 0``, where that sign cannot show.
    """
    return float(v[arg(v)])


def block_slices(dims):
    """The slices that cut a vector into consecutive blocks of lengths
    ``dims``."""
    ends = np.cumsum(dims, dtype=int).tolist()
    return [slice(end - m, end) for m, end in zip(dims, ends)]


def _sup_norm(block):
    return _extreme(np.absolute(block)) if block.size else 0.0


class BlockVector:
    """A vector split into d blocks, treated as immutable.

    Operations return new instances; the underlying arrays are read-only.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        out = []
        for b in blocks:
            b = np.array(b, dtype=float).ravel()
            b.setflags(write=False)
            out.append(b)
        if not out:
            raise ValueError("at least one block required")
        self.blocks = tuple(out)

    @classmethod
    def zeros(cls, dims):
        return cls([np.zeros(int(m)) for m in dims])

    @classmethod
    def from_concat(cls, dims, vec):
        vec = np.asarray(vec, dtype=float).ravel()
        if vec.size != sum(dims):
            raise ValueError("length does not match block dims")
        return cls([vec[block] for block in block_slices(dims)])

    def concat(self):
        return np.concatenate(self.blocks)

    def with_block(self, j, new_block):
        """Block j replaced by a read-only copy of ``new_block``; the other
        blocks are already read-only and are shared, not copied."""
        new_block = np.array(new_block, dtype=float).ravel()
        if new_block.size != self.blocks[j].size:
            raise ValueError("replacement block has the wrong length")
        return self._adopting(j, new_block)

    def _adopting(self, j, new_block):
        """Block j replaced by ``new_block`` itself, not a copy: for a fresh
        1-d float array of the right length that nothing else writes to. It
        is made read-only here; the other blocks are read-only already."""
        new_block.setflags(write=False)
        blocks = list(self.blocks)
        blocks[j] = new_block
        out = object.__new__(BlockVector)
        out.blocks = tuple(blocks)
        return out

    @classmethod
    def _adopt(cls, blocks):
        """A BlockVector of the given fresh 1-d float arrays, made read-only
        and not copied."""
        for b in blocks:
            b.setflags(write=False)
        out = object.__new__(cls)
        out.blocks = tuple(blocks)
        return out

    def __repr__(self):
        return f"BlockVector(dims={tuple(b.size for b in self.blocks)})"


class BlockProblem(abc.ABC):
    """Contract for problems driven by the greedy engine.

    Subclasses must be strictly convex on their working space and must
    make each step an exact partial minimization: after ``step(x, j)`` the
    block-j gradient norm must not exceed ``PARTIAL_MIN_TOL``. ``tol`` in
    :func:`run` bounds ``stop_value``: the gradient norm by default.

    :func:`run` calls ``evaluate(x)`` and then ``stop_value(x, ·)`` once at
    each point it visits, and ``step(x, j)`` once per step, at the point it
    has just evaluated; the next point is the iterate ``step`` returned. A
    problem may keep work from one call for the next: the scaling problem
    keeps the slice sums at ``x`` and advances them in ``step`` from the
    moved block, and the quadratic keeps its gradient and block factors.
    Results must not depend on that order: a call at any other point
    recomputes from scratch.
    """

    # Eigenvalues of ``hessian(x)`` that are zero by construction (directions
    # outside the working space), skipped by ``estimate_alpha_beta``.
    hessian_null_dim = 0

    @property
    @abc.abstractmethod
    def block_dims(self):
        """Block lengths (m_1, ..., m_d) of the iterates."""

    @property
    def d(self):
        return len(self.block_dims)

    @abc.abstractmethod
    def evaluate(self, x):
        """Objective at ``x`` and a new list of the Euclidean norms of its d
        block gradients, as floats (the engine writes to that list)."""

    @abc.abstractmethod
    def step(self, x, j):
        """The next iterate, ``x`` with block j replaced by its partial
        minimizer (the other blocks the same arrays), and the objective drop
        from ``x`` to it, or None to have the difference of the objectives
        recorded instead.

        The divergence guard of :func:`run` re-reads block j alone. Near
        convergence the drop falls below the resolution of the objective
        itself, so problems that can compute it without cancellation (from
        the exact difference of the old and new block) should return it.
        """

    def stop_value(self, x, grad_norm):
        """What :func:`run` compares with ``tol`` at ``x``; by default the
        full-gradient norm ``grad_norm`` there."""
        return grad_norm

    def hessian(self, x):
        """Hessian at ``x`` as a symmetric matrix whose spectrum is the
        working-space spectrum plus ``hessian_null_dim`` zeros (needed for
        bound estimation)."""
        raise NotImplementedError("problem does not expose a Hessian")


class QuadraticBlockProblem(BlockProblem):
    """f(x) = 0.5 x^T A x + b^T x with A symmetric positive definite."""

    def __init__(self, matrix, linear, block_dims=None):
        A = np.asarray(matrix, dtype=float)
        b = np.asarray(linear, dtype=float).ravel()
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != b.size:
            raise ValueError("matrix/linear dimensions mismatch")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("matrix and linear entries must be finite")
        if np.abs(A - A.T).max() > 1e-10 * max(1.0, np.abs(A).max()):
            raise ValueError("matrix must be symmetric")
        self.matrix = A
        self.linear = b
        dims = tuple(block_dims) if block_dims is not None else (1,) * b.size
        if sum(dims) != b.size:
            raise ValueError("block dims must sum to the dimension")
        self._dims = dims
        self._slices = block_slices(dims)
        # inverses of the diagonal blocks, each formed once from QR on first
        # use (numerics.factor_linear)
        self._inverses = [None] * len(dims)
        # (x, x as one vector, gradient) of the last evaluate
        self._last = None

    @property
    def block_dims(self):
        return self._dims

    def _at(self, x):
        """x as one vector and the gradient there, read from the last
        evaluate when it was at ``x``."""
        if self._last is not None and self._last[0] is x:
            return self._last[1:]
        v = x.concat()
        # ndarray.dot: the BLAS call of @, without the ufunc dispatch
        return v, self.matrix.dot(v) + self.linear

    def evaluate(self, x):
        v, g = self._at(x)
        self._last = (x, v, g)
        # 0.5 v^T A v + b^T v = 0.5 v^T (g + b), from the gradient just formed
        obj = 0.5 * float(v.dot(g + self.linear))
        return obj, [math.sqrt(float(g[s].dot(g[s]))) for s in self._slices]

    def step(self, x, j):
        # The minimizer over block j is v_j - A_jj^-1 g_j, with g the
        # gradient at x. For that move delta = -A_jj^-1 g_j the drop
        # -(g_j^T delta + 0.5 delta^T A_jj delta) is -0.5 g_j^T delta, which
        # stays accurate far below the resolution of the objective values.
        s = self._slices[j]
        g = self._at(x)[1][s]
        if self._inverses[j] is None:
            self._inverses[j] = numerics.factor_linear(self.matrix[s, s])
        # ndarray.dot: the BLAS call of @, without the ufunc dispatch
        newton = self._inverses[j].dot(g)
        return (x._adopting(j, x.blocks[j] - newton),
                0.5 * float(g.dot(newton)))

    def hessian(self, x):
        return self.matrix


@dataclass
class IterateTrace:
    """Per-iteration record of a greedy run.

    State lists (objectives, block_grad_norms, full_grad_norms, stop_values,
    iterates) have one entry per visited point (steps + 1), the step lists
    (chosen_blocks, post_step_block_norms, objective_decreases) one per step.
    ``block_grad_norms`` carries an exact zero for the block minimized in the
    previous step (the partial-minimization contract); the measured residual
    of that block is in ``post_step_block_norms``.
    ``objective_decreases`` holds the exact per-step objective drop when the
    problem can compute it stably, else the plain difference of objectives.
    """

    objectives: list = field(default_factory=list)
    full_grad_norms: list = field(default_factory=list)
    stop_values: list = field(default_factory=list)
    block_grad_norms: list = field(default_factory=list)
    chosen_blocks: list = field(default_factory=list)
    post_step_block_norms: list = field(default_factory=list)
    objective_decreases: list = field(default_factory=list)
    iterates: list = None

    @property
    def n_steps(self):
        return len(self.chosen_blocks)

    def gaps(self):
        """Objective gaps t_k - t_final to the final objective."""
        ref = self.objectives[-1]
        return [t - ref for t in self.objectives]


def rate_certificate(problem, trace, points):
    """Sampled geometric-rate certificate of a greedy run of ``problem``.

    Returns (alpha, beta, kappa, curve). alpha and beta are the Hessian
    extremes that :func:`estimate_alpha_beta` samples at ``points``, and
    kappa = beta / alpha. ``curve[k - 1]`` bounds the objective gap after
    k = 1, ..., ``trace.n_steps`` greedy steps: the leading term
    ||grad f(x_0)||^2 / (2 alpha) contracted once by (1 - 1/(d kappa)) and
    then by (1 - 1/((d-1) kappa)) per later step. alpha and beta estimate
    the extremes over the starting sublevel set and are not proven bounds,
    so neither is the curve.
    """
    d = problem.d
    if d < 2:
        raise ValueError("the rate bound needs at least 2 blocks")
    alpha, beta = estimate_alpha_beta(problem, points)
    kappa = beta / alpha
    lead = trace.full_grad_norms[0] ** 2 / (2.0 * alpha)
    first = lead * (1.0 - 1.0 / (d * kappa))
    later = 1.0 - 1.0 / ((d - 1) * kappa)
    return alpha, beta, kappa, [first * later ** k for k in range(trace.n_steps)]


def estimate_alpha_beta(problem, points):
    """Extreme Hessian eigenvalues over sample points.

    Returns (alpha, beta) = (min of smallest, max of largest) working-space
    eigenvalue over the samples; the smallest is the one after the problem's
    ``hessian_null_dim`` structural zeros. These are sample estimates of the
    sublevel-set extremes, not guaranteed bounds.

    The resolution of ``eigvalsh`` at a sample is n * eps * |largest
    eigenvalue|, with n the Hessian's order. A smallest working eigenvalue
    within it of zero raises ValueError("alpha below eigvalsh resolution"),
    and one below it ValueError("not strictly convex at sample").
    """
    points = list(points)
    if not points:
        raise ValueError("points must be nonempty")
    alpha = math.inf
    beta = -math.inf
    low = problem.hessian_null_dim
    for x in points:
        vals = numerics.symmetric_eigs(problem.hessian(x))
        floor = vals.size * np.finfo(float).eps * abs(vals[-1])
        if vals[low] <= -floor:
            raise ValueError("not strictly convex at sample")
        if vals[low] <= floor:
            raise ValueError("alpha below eigvalsh resolution")
        alpha = min(alpha, float(vals[low]))
        beta = max(beta, float(vals[-1]))
    return alpha, beta


def _check_finite(obj, norms, x, at_step):
    if not (math.isfinite(obj) and all(map(math.isfinite, norms))):
        raise NumericalOverflowError(
            f"numerical overflow at step {at_step}", iterate=x, at_step=at_step
        )


def check_run_limits(tol, max_iters, divergence_guard):
    """Refuse a ``tol`` that is not positive and finite, a ``max_iters``
    below 1, and a ``divergence_guard`` that is not positive (NaN included);
    returns the guard as a float, inf for None."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    guard = math.inf if divergence_guard is None else float(divergence_guard)
    if not guard > 0:
        raise ValueError("divergence guard must be positive")
    return guard


def run(problem, x0, tol, max_iters, divergence_guard=1e3, record_iterates=False):
    """Greedy block minimization from ``x0``.

    Each step replaces a block of largest gradient norm (ties go to the
    smallest index) by its partial minimizer. Stops with status
    ``converged`` when the problem's ``stop_value`` (by default the working
    full-gradient norm) drops to ``tol`` (positive and finite), with
    ``diverging`` when the sup norm of the iterate exceeds
    ``divergence_guard`` (pass None or inf to disable; otherwise it must be
    positive), and with ``max_iters_reached`` otherwise. Returns (x_final,
    trace, status). Non-finite objective or gradient values raise
    NumericalOverflowError.
    """
    guard = check_run_limits(tol, max_iters, divergence_guard)
    x = x0
    # per-block sup norms for the guard, if there is one; a step on block j
    # recomputes only sups[j]
    sups = [_sup_norm(b) for b in x.blocks] if guard < math.inf else None
    obj, norms = problem.evaluate(x)
    _check_finite(obj, norms, x, 0)
    trace = IterateTrace(iterates=[] if record_iterates else None)
    debug = logger.isEnabledFor(logging.DEBUG)
    for k in range(max_iters + 1):
        full = math.sqrt(sum(map(operator.mul, norms, norms)))
        stop = problem.stop_value(x, full)
        trace.objectives.append(obj)
        # evaluate returns a new list each time, so it is stored as it is
        trace.block_grad_norms.append(norms)
        trace.full_grad_norms.append(full)
        trace.stop_values.append(stop)
        if record_iterates:
            trace.iterates.append(x)
        if stop <= tol:
            status = CONVERGED
            break
        if sups is not None and max(sups) > guard:
            status = DIVERGING
            break
        if k == max_iters:
            status = MAX_ITERS_REACHED
            break
        # the norms are finite, so the first largest is the first argmax
        j = norms.index(max(norms))
        x, decrease = problem.step(x, j)
        if sups is not None:
            sups[j] = _sup_norm(x.blocks[j])
        prev_obj = obj
        obj, norms = problem.evaluate(x)
        _check_finite(obj, norms, x, k + 1)
        trace.chosen_blocks.append(j)
        trace.post_step_block_norms.append(norms[j])
        trace.objective_decreases.append(
            prev_obj - obj if decrease is None else float(decrease)
        )
        if norms[j] > PARTIAL_MIN_TOL * max(1.0, abs(obj)):
            logger.warning(
                "partial minimizer missed its tolerance on block %d "
                "(residual %.2e)", j, norms[j]
            )
        norms[j] = 0.0  # exact partial minimization contract
        if debug:
            logger.debug(
                "step %d: block %d, objective %.17g, grad %.3e", k, j, obj, full
            )
    return x, trace, status
