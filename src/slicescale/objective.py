"""The convex mass objective of exponent scalings, and the greedy engine's
problem for one scaling instance.

For a tensor B and exponent blocks x the objective is the total mass of the
rescaled tensor, f(x) = sum_e B_e exp(x_1[i_1] + ... + x_d[i_d]). Its
stationary points over the space where each block is orthogonal to its
target vector are exactly the scalings whose slice sums are proportional to
the targets. When the tensor has zeros, some directions inside that space
leave every supported entry unchanged (gauge directions); the objective is
strictly convex only on their orthogonal complement, the reduced space where
a solve returns its iterates. A tensor without zeros has no gauge, and its
gauge basis is built without any factorization.

:class:`ScalingProblem` is the whole instance: the tensor, its targets, the
gauge basis, and the factored state the greedy engine drives.
"""

import math

import numpy as np

from . import numerics
from .blockmin import BlockProblem, _extreme, block_slices
from .tensor import EXP_LIMIT, cofactors, scale, support_exponent

__all__ = [
    "ScalingProblem",
    "build_frame",
    "ambient_second_moments",
]

# The factored state rebases once the exponents have moved this far from its
# base point, summed over modes in sup norm; its factors then stay within
# exp(+-16) (about 1e7) of one.
REBASE_DISTANCE = 16.0

# The vectors of one step are short, so call overhead dominates: extremes
# are read by arg-index (blockmin._extreme), sums use the ufunc method
# behind ndarray.sum without the method wrapper, and products use
# ndarray.dot, the BLAS call @ makes on 1-d and 2-d operands without its
# ufunc dispatch. A scalar applied to a vector stays the numpy scalar a
# product returned, which numpy takes without converting it.
_sum = np.add.reduce


def ambient_second_moments(array):
    """The N x N matrix of one- and two-mode sums of a nonnegative array.

    Diagonal block j is the diagonal matrix of the mode-j slice sums and
    off-diagonal block (j, k) is the two-mode (j, k) marginal. On a rescaled
    tensor this is the ambient Hessian of the mass objective; on the support
    indicator it is the Gram matrix R^T R of the support-incidence matrix R
    (one row per nonzero, ones at that entry's per-mode positions).
    """
    dims = array.shape
    d = len(dims)
    blocks = block_slices(dims)
    M = np.zeros((sum(dims), sum(dims)))
    for j in range(d):
        sums = array.sum(axis=tuple(a for a in range(d) if a != j))
        M[blocks[j], blocks[j]] = np.diag(sums)
        for k in range(j + 1, d):
            marg = array.sum(axis=tuple(a for a in range(d) if a not in (j, k)))
            M[blocks[j], blocks[k]] = marg
            M[blocks[k], blocks[j]] = marg.T
    return M


def build_frame(tensor, targets):
    """The gauge basis of a tensor/targets pair: an N x g array of
    orthonormal columns.

    The gauge is ker R ∩ ker T, with R the nnz x N support-incidence matrix
    and T the d x N matrix holding target s_j in block j of row j. That
    intersection is ker(R^T R + T^T T), the null space of one symmetric
    N x N matrix: the support Gram matrix R^T R, so R is never formed, plus
    the outer product of s_j / ||s_j|| in diagonal block j. Normalizing a row
    of T leaves its kernel unchanged and makes the gauge independent of the
    targets' scale. That null space is the only factorization made, and only
    when the support has a zero; it comes from one LAPACK ``eigh``, and the
    basis keeps the orientation ``eigh`` gives it. Only G G^T and the
    block-gradient norms of :class:`ScalingProblem` read the basis, and
    neither depends on its orientation.

    On full support the gauge is {0}, so G is N x 0 and no Gram matrix is
    formed. Then ker R is exactly the per-mode constant shifts c_k·1 with
    c_1 + ... + c_d = 0: the rows of R hold every index tuple, and x_1[i_1]
    + ... + x_d[i_d] = 0 at (i_1, i_2, ...) and at (i_1', i_2, ...) gives
    x_1[i_1] = x_1[i_1'], and likewise in each mode. T maps such a shift
    to the d values c_k·sum(s_k), and every target s_k is positive, so it
    lies in ker T only if every c_k = 0.
    """
    if targets.dims != tensor.dims:
        raise ValueError("target dims do not match tensor dims")
    if tensor.support.all():
        return np.zeros((sum(tensor.dims), 0))
    gram = ambient_second_moments(tensor.support.astype(float))
    for block, s in zip(block_slices(tensor.dims), targets.vectors):
        unit = s / np.linalg.norm(s)
        gram[block, block] += np.outer(unit, unit)
    return numerics.null_space(gram)


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


class ScalingProblem(BlockProblem):
    """A tensor and its slice-sum targets, as the greedy engine's problem.

    Ambient space is R^N with N = sum of the mode sizes, split into per-mode
    blocks (:meth:`split`). The iterates are BlockVectors of ambient exponent
    blocks: block j has length m_j and lies in the hyperplane orthogonal to
    target s_j. ``gauge_basis`` (from :func:`build_frame`) is an N x g array
    whose orthonormal columns G span the gauge: the exponent vectors in that
    product of hyperplanes whose sum vanishes on every supported entry. They
    rescale nothing, so they are the flat directions of the objective. The
    reduced space, where the objective is strictly convex, is their
    complement, of dimension N - d - g; :meth:`project` is its orthogonal
    projector, applied in ambient form. Inside the gauge the orientation of
    G is arbitrary, and nothing a solve reports or stores depends on it: G
    enters only through G G^T and the norms of the block gradients.

    The object is stateful, so one object runs one solve at a time. Slice
    sums come from a factored state, not from a rescaled tensor. The state
    holds a kernel K, the tensor rescaled at a base point xb (through
    :meth:`scaled`), the factors u_k = exp(x_k - xb_k) of its current point
    x, and the slice sums sigma_k = u_k * w_k at x, where w_k contracts K
    with every factor but u_k. A step on block j computes one exp of length
    m_j (the new u_j) and the stale w_k, k != j: one contraction of K along
    mode j, which for a matrix is the other mode's w itself (one
    matrix-vector product), and for d >= 3 contractions of the smaller array
    it leaves (``tensor.cofactors`` with ``skip=j``). It writes the
    products u_k * w_k in place into one preallocated buffer of all N slice
    sums and stores their mass. evaluate, stop_value and step read that
    buffer, and stop_value works in a second one. The target constants of
    the closed-form update and the gradient (log s_j, the sum and the square
    norm of s_j, 1 / ||s_j||_inf) are computed once. The block update is a
    fresh array, and step adopts it into the next iterate without a copy, as
    read-only.

    evaluate, stop_value and step read the state when called at its point;
    a call at any other point rebases there, and so does the first call of
    each solve, so a reused object gives exactly what a fresh one gives. One
    step call makes the whole step: the closed-form update of block j, the
    objective drop from the state's slice sums, and the advance of the state
    to the new iterate, which becomes its point. An advance rebases instead
    once sum_k ||x_k - xb_k||_inf passes REBASE_DISTANCE, or once that
    distance plus the largest support exponent at xb could pass EXP_LIMIT.
    The second rule makes the rebase's rescale raise ScalingOverflowError at
    exactly the iterate where rescaling every step would, and keeps every
    partial product of K and the factors inside the range of that rescale.
    ``rebases`` counts the rescales.

    Every step, with or without a gauge, replaces block j and nothing else,
    and the state advances from block j alone. The loop needs no projection
    onto the reduced space, because the block updates commute with gauge
    shifts. A gauge vector v = G a changes no exponent sum on the support,
    so the slice sums, the mass and everything read from them are the same
    at x + v as at x. The update of block j is its block plus
    log s_j - log sigma_j, shifted along the ones vector to be orthogonal to
    s_j, and v_j is orthogonal to s_j already, so U_j(x + v) = U_j(x) + v_j.
    By induction the loop from a start in the reduced space visits points
    x_k whose projections P x_k are the iterates of the loop that projects
    after every step. Both loops choose the same blocks and see the same
    objectives, block-gradient norms, stop values and drops; only x_k
    carries a gauge component, which ``scaler.solve`` removes once, from the
    result.

    Write G_j for the rows of G in block j and S_j = I_g - G_j^T G_j. S_j is
    positive definite: a gauge vector v zero off block j sums to v_j[i_j] on
    a supported entry, so v_j vanishes at every index of mode j that lies on
    a supported entry, which is every index since no slice is zero. The
    block-j gradient of the reduced problem at P x, taken along the image of
    block j's hyperplane under P, has the squared norm
    ||y||^2 + (G_j^T y)^T S_j^-1 (G_j^T y), with y the in-plane gradient
    sigma_j - (sigma_j.s_j / s_j.s_j) s_j. evaluate returns that norm as
    sqrt(y.y + z.z) with z = L_j^-1 G_j^T y (L_j L_j^T = S_j); with g = 0 it
    is sqrt(y.y). stop_value reads the relative slice-sum mismatch
    max_k ||sigma_k S / F - s_k||_inf / ||s_k||_inf (mass F, target total S)
    from the state's slice sums, all modes end to end against the
    concatenated targets.
    """

    def __init__(self, tensor, targets):
        self.gauge_basis = build_frame(tensor, targets)
        self.tensor, self.targets = tensor, targets
        self._dims = dims = tensor.dims
        self._blocks = block_slices(dims)
        vectors = targets.vectors
        # per mode: s_k, log s_k, sum s_k, s_k . s_k
        self._targets = [(s, np.log(s), float(_sum(s)), float(s @ s))
                         for s in vectors]
        self._total = targets.total
        self._target_all = np.concatenate(vectors)
        self._peak_scales = np.repeat([1.0 / s.max() for s in vectors], dims)
        # the slice sums of every mode end to end, and a work buffer as long
        self._sigma_all = np.empty(sum(dims))
        self._sigmas = self.split(self._sigma_all)
        self._gap = np.empty(sum(dims))
        self.hessian_null_dim = len(dims) + self.gauge_dim
        self._rebases = 0
        self._restart()
        self._gradient_maps = [None] * len(dims)
        if self.gauge_dim:
            gauge_blocks = self.split(self.gauge_basis)
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
    def gauge_dim(self):
        return self.gauge_basis.shape[1]

    @property
    def rebases(self):
        """Rescales of the tensor made so far to (re)build the state."""
        return self._rebases

    def split(self, vec):
        """Split an ambient vector, or the rows of an N x k matrix, into
        per-mode blocks (views)."""
        vec = np.asarray(vec, dtype=float)
        return [vec[b] for b in self._blocks]

    def project(self, v):
        """Orthogonal projection onto the reduced space of an ambient vector,
        or of an N x k matrix column by column, as a new array.

        Each block loses its component along its target, then G (G^T v) is
        removed; G lies in the product of the target hyperplanes, so the two
        projectors commute.
        """
        out = np.array(v, dtype=float)
        for block, s in zip(self.split(out), self.targets.vectors):
            block -= np.multiply.outer(s, (s @ block) / float(s @ s))
        if self.gauge_dim:
            G = self.gauge_basis
            out -= G @ (G.T @ out)
        return out

    def scaled(self, x):
        """The rescaled tensor at ambient blocks ``x``."""
        return scale(self.tensor, x)

    def _restart(self):
        """Forget the state's point, so that the next call rebases."""
        self._point = None

    def _slice_sums(self, x):
        """The slice sums of every mode at ``x``."""
        if x is not self._point:
            self._rebase(x)
        return self._sigmas

    def _rebase(self, x):
        self._point = self._kernel = None
        self._rebases += 1
        kernel = self.scaled(x).array
        self._kernel, self._base = kernel, x
        self._base_exponent = support_exponent(self.tensor, x)
        self._distances = [0.0] * len(self._dims)
        self._factors = [np.ones(m) for m in self._dims]
        self._cofactors = [None] * len(self._dims)
        cofactors(kernel, self._factors, self._cofactors)
        self._settle(x)

    def _advance(self, x, j):
        """Move the state to ``x``, which differs from its point in block j
        alone."""
        delta = x.blocks[j] - self._base.blocks[j]
        self._distances[j] = _extreme(np.absolute(delta))
        self._factors[j] = np.exp(delta)
        distance = sum(self._distances)
        # the margin covers rounding in the bound on the exponents at x
        if (distance > REBASE_DISTANCE or self._base_exponent + distance
                > EXP_LIMIT * (1.0 - 1e-12)):
            self._rebase(x)
            return
        # w_j does not depend on u_j, so only the other cofactors are stale
        cofactors(self._kernel, self._factors, self._cofactors, skip=j)
        self._settle(x)

    def _settle(self, x):
        for u, w, sigma in zip(self._factors, self._cofactors, self._sigmas):
            np.multiply(u, w, sigma)
        self._mass = float(_sum(self._sigmas[0]))
        self._point = x

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

    def step(self, x, j):
        marginal = self._slice_sums(x)[j]
        s, log_s, s_sum, ss = self._targets[j]
        # raises unless every slice sum of the mode is positive
        new_block = _block_update(x.blocks[j], marginal, s, log_s, s_sum)
        # f(new) - f(x) = sum_e B_e(x) * expm1(delta[i_j]) over the support,
        # for the move delta of block j alone, and B(x) summed over the other
        # modes is its mode-j slice sums, m_j terms from the state.
        # Each stored block lies in its target hyperplane only up to
        # rounding of order eps * |x|, and a drift along the target s_j
        # rescales the mass by about that much whatever the step. The drift
        # is not part of the step, so the difference of the blocks is
        # projected onto the hyperplane, where it lies in exact arithmetic;
        # the exponent change then carries errors proportional to the step
        # itself, and the expm1 form keeps the drop's sign reliable far below
        # the resolution of the objective values.
        terms = np.expm1(_in_plane(new_block - x.blocks[j], s, ss))
        terms *= marginal
        drop = -math.fsum(terms.tolist())
        x_new = x._adopting(j, new_block)
        self._advance(x_new, j)
        return x_new, drop

    def hessian(self, x):
        """P H P, with H the ambient Hessian and P the projector onto the
        reduced space: zero on the d + g dimensional complement and H's
        (positive definite) compression on the reduced space, so its
        spectrum is the reduced one plus ``hessian_null_dim`` zeros. H is
        the matrix of one- and two-mode sums of the rescaled tensor
        (:func:`ambient_second_moments`)."""
        project = self.project
        return project(project(ambient_second_moments(self.scaled(x).array)).T)
