"""Shared test oracles: finite differences, alternating scaling, the
ambient and in-plane gradients from a rescaled tensor, the entrywise
objective drop, the relative slice-sum mismatch, a masked rescale that
evaluates the supported entries only, explicit orthonormal bases
of a scaling problem's mode, working and reduced spaces with the projector,
the distance from the reduced space and the projected mode bases built from
them, the gauge found by two null spaces, a
greedy scaler that rescales the tensor at every step, the primal witness
system of the scalability LP, and random instance generators."""

import math
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from slicescale import blockmin
from slicescale.blockmin import BlockProblem, BlockVector, block_slices
from slicescale.numerics import RANK_RTOL, null_space
from slicescale.objective import ambient_second_moments
from slicescale.scaler import closed_form_block_update
from slicescale.tensor import DenseTensor, SliceTargets, scale, slice_sums


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of a 1-d array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hessian(f, x, h=1e-4):
    """Second-order central-difference Hessian of a scalar function."""
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            H[i, j] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h * h)
    return H


def random_positive_tensor(rng, dims, low=0.1, high=1.0):
    return DenseTensor(rng.uniform(low, high, size=dims))


def random_compatible_targets(rng, dims, total=None):
    """Positive target vectors sharing a common total."""
    if total is None:
        total = float(rng.uniform(1.0, 5.0))
    vecs = []
    for m in dims:
        v = rng.uniform(0.2, 1.0, m)
        vecs.append(v * (total / v.sum()))
    return SliceTargets(vecs)


def random_pattern_tensor(rng, dims, density=0.6, max_tries=200):
    """Random nonnegative tensor with zeros but no zero slice."""
    for _ in range(max_tries):
        mask = rng.uniform(size=dims) < density
        arr = np.where(mask, rng.uniform(0.2, 1.0, size=dims), 0.0)
        try:
            return DenseTensor(arr)
        except ValueError:
            continue
    raise RuntimeError("could not draw a pattern with no zero slice")


def witness_system(tensor, targets):
    """The primal witness system of the scalability test, as
    (A_ub, b_ub, A_eq, b_eq) over a free x in R^N: every supported entry
    sum <= 0, their total <= -1, and every block orthogonal to its target.
    Feasible iff the tensor is not scalable."""
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


def ambient_point(rng, dims, radius=1.0):
    return BlockVector([rng.uniform(-radius, radius, m) for m in dims])


def alternating_scaling(matrix, r, c, rounds):
    """Independent classical alternating row/column normalization."""
    M = np.array(matrix, dtype=float)
    r = np.asarray(r, dtype=float)
    c = np.asarray(c, dtype=float)
    for _ in range(rounds):
        M *= (r / M.sum(axis=1))[:, None]
        M *= (c / M.sum(axis=0))[None, :]
    return M


def sinkhorn_reference(matrix, row_targets, col_targets, rounds):
    """Classical alternating row/column scaling that keeps every half step.

    Each round scales rows to hit ``row_targets`` exactly, then columns to
    hit ``col_targets`` exactly. Returns (final matrix, list of matrices
    after every half step).
    """
    M = np.array(matrix, dtype=float)
    r = np.asarray(row_targets, dtype=float)
    c = np.asarray(col_targets, dtype=float)
    iterates = []
    for _ in range(rounds):
        M = M * (r / M.sum(axis=1))[:, None]
        iterates.append(M.copy())
        M = M * (c / M.sum(axis=0))[None, :]
        iterates.append(M.copy())
    return M, iterates


def objective_decrease_reference(problem, x_old, x_new):
    """Entrywise objective drop between two scaling iterates.

    Returns (-fsum(B_e(old) * expm1(delta_e)), sum |terms|) over the support,
    where B(old) is the rescaled tensor at ``x_old`` and delta_e sums the
    per-mode exponent changes, each projected onto its target hyperplane.
    """
    old = problem.scaled(x_old).array
    expo = np.zeros(old.shape)
    for k, s in enumerate(problem.targets.vectors):
        delta = x_new.blocks[k] - x_old.blocks[k]
        delta = delta - (float(delta @ s) / float(s @ s)) * s
        shape = [1] * old.ndim
        shape[k] = delta.size
        expo += delta.reshape(shape)
    support = old > 0
    terms = old[support] * np.expm1(expo[support])
    return -math.fsum(terms), float(np.abs(terms).sum())


def masked_scale_reference(tensor, blocks):
    """The rescaled array evaluated on the supported entries only: each
    entry's exponent summed in mode order, exp of the gathered sums times
    the gathered entries, and exact zeros elsewhere. Returns
    (array, largest |exponent| over the support)."""
    support = tensor.array > 0
    expo = np.zeros(tensor.dims)
    for j, b in enumerate(blocks):
        shape = [1] * tensor.d
        shape[j] = tensor.dims[j]
        expo = expo + np.asarray(b, dtype=float).reshape(shape)
    out = np.zeros(tensor.dims)
    out[support] = tensor.array[support] * np.exp(expo[support])
    return out, float(np.abs(expo[support]).max())


def slice_sum_gradient(problem, x):
    """The ambient gradient of the mass objective at ``x``: every mode's
    slice sums of the rescaled tensor, concatenated in mode order."""
    scaled = problem.scaled(x)
    return np.concatenate([slice_sums(scaled, j) for j in range(problem.d)])


def in_plane_gradient(problem, x, j):
    """The block-j gradient projected onto the mode-j target hyperplane,
    sigma - (sigma.s / s.s) s for the mode-j slice sums sigma and target s;
    zero exactly when sigma is parallel to s."""
    sigma = slice_sums(problem.scaled(x), j)
    s = problem.targets.vectors[j]
    return sigma - (float(sigma @ s) / float(s @ s)) * s


def relative_mismatch(scaled, targets):
    """The largest relative slice-sum mismatch of a rescaled tensor,
    max_k ||sigma_k S / F - s_k||_inf / ||s_k||_inf with F its mass and S
    the target total, computed entrywise from the tensor."""
    ratio = targets.total / float(slice_sums(scaled, 0).sum())
    return max(float(np.abs(ratio * slice_sums(scaled, k) - s).max())
               / float(s.max()) for k, s in enumerate(targets.vectors))


def orthonormalize(vectors):
    """Orthonormal basis of the span of the given vectors, as the columns of
    an n x k array.

    ``vectors`` is a sequence of equal-length vectors or a 2-d array with one
    vector per row; an array is used as it is, without a copy. Linearly
    independent inputs give the Gram-Schmidt basis (QR with a positive
    diagonal): basis vector i has a positive coefficient on input i.
    Rank-deficient inputs yield fewer output vectors than inputs, from an
    SVD, each with its entry of largest magnitude positive.
    """
    A = np.asarray(vectors, dtype=float)
    if not len(A):
        raise ValueError("no vectors")
    if A.ndim != 2 or A.shape[1] < 1:
        raise ValueError("vectors must share a common positive length")
    A = A.T
    n = A.shape[0]
    tol = RANK_RTOL * float(np.sqrt((A * A).sum(axis=0).max()))
    if A.shape[1] <= n:
        Q, R = np.linalg.qr(A)
        diag = np.diag(R)
        if np.abs(diag).min() > tol:
            Q *= np.sign(diag)
            return Q
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    Q = U[:, s > tol]
    return Q * np.sign(Q[np.abs(Q).argmax(axis=0), np.arange(Q.shape[1])])


def reference_bases(problem):
    """Explicit orthonormal bases of a scaling problem's subspaces, built from
    ``scipy.linalg.null_space`` (an SVD):

    - ``mode_bases[j]``: the hyperplane orthogonal to target s_j, shape
      (m_j, m_j - 1);
    - ``working_basis``: their block-diagonal embedding, the product of the
      hyperplanes, shape (N, n) with n = N - d;
    - ``reduced_basis``: the complement of the gauge inside the working
      space, shape (N, n - g); the working basis itself when g = 0.
    """
    dims = problem.block_dims
    mode_bases = [scipy.linalg.null_space(s.reshape(1, -1))
                  for s in problem.targets.vectors]
    working = np.zeros((sum(dims), sum(dims) - len(dims)))
    col = 0
    for block, basis in zip(block_slices(dims), mode_bases):
        working[block, col:col + basis.shape[1]] = basis
        col += basis.shape[1]
    reduced = working
    if problem.gauge_dim:
        gauge_in_working = working.T @ problem.gauge_basis
        reduced = working @ scipy.linalg.null_space(gauge_in_working.T)
    return SimpleNamespace(mode_bases=mode_bases, working_basis=working,
                           reduced_basis=reduced)


def two_step_gauge(tensor, targets):
    """The gauge basis from two null spaces: the support kernel K, the null
    space of the support Gram matrix R^T R, then its part orthogonal to the
    targets, K ker(T K), with ker(T K) from an SVD under the rank cut
    RANK_RTOL relative to the largest singular value. Returns an N x g array
    of orthonormal columns."""
    kernel = null_space(ambient_second_moments(tensor.support.astype(float)))
    if not kernel.shape[1]:
        return kernel
    offsets = np.concatenate([[0], np.cumsum(tensor.dims)])
    rows = np.zeros((tensor.d, offsets[-1]))
    for j, s in enumerate(targets.vectors):
        rows[j, offsets[j]:offsets[j + 1]] = s
    _, sv, vt = np.linalg.svd(rows @ kernel)
    rank = int((sv > RANK_RTOL * sv[0]).sum())
    return kernel @ vt[rank:].T


def reduced_projector(problem):
    """The N x N orthogonal projector onto the problem's reduced space."""
    reduced = reference_bases(problem).reduced_basis
    return reduced @ reduced.T


def reduced_residual(problem, x):
    """Sup-norm distance of an ambient block vector from the problem's
    reduced space, through the problem's own ambient projector."""
    vec = x.concat()
    return float(np.abs(vec - problem.project(vec)).max())


def projected_mode_bases(problem):
    """Per mode j, an orthonormal basis of the image of block j's target
    hyperplane under the reduced projector, shape (N, rank). The rank is
    m_j - 1 for every valid tensor."""
    bases = reference_bases(problem)
    reduced = bases.reduced_basis
    return [orthonormalize((reduced @ (reduced[block].T @ q)).T)
            for block, q in zip(block_slices(problem.block_dims),
                                bases.mode_bases)]


class PerStepRescaleProblem(BlockProblem):
    """Greedy scaling problem that rescales the tensor at every iterate.

    Every evaluate, stop value, block update and gradient reads the slice
    sums of ``tensor.scale`` at the iterate itself (one rescale per iterate,
    kept for the calls at that iterate), and the objective drop is the
    entrywise reference above, taken to the point with block j replaced.
    Patterned tensors with gauge directions take the projected path:
    gradients along the projected mode bases, updates projected onto the
    reduced working space, both built here from the problem's reduced basis.
    A projected step moves every block, so the engine's divergence guard,
    which re-reads block j alone, does not hold for it: run it without one.
    """

    def __init__(self, problem):
        self.problem = problem
        self.projected = problem.gauge_dim != 0
        if self.projected:
            self._bases = projected_mode_bases(problem)
            self._projector = reduced_projector(problem)
        self._memo = None

    @property
    def block_dims(self):
        return self.problem.tensor.dims

    def _scaled(self, x):
        if self._memo is None or self._memo[0] is not x:
            self._memo = (x, scale(self.problem.tensor, x))
        return self._memo[1]

    def evaluate(self, x):
        scaled = self._scaled(x)
        sigmas = [slice_sums(scaled, j) for j in range(self.d)]
        if self.projected:
            ghat = np.concatenate(sigmas)
            grads = [b.T @ ghat for b in self._bases]
        else:
            grads = [sigma - (float(sigma @ s) / float(s @ s)) * s
                     for sigma, s in zip(sigmas, self.problem.targets.vectors)]
        return scaled.total, [math.sqrt(float(g @ g)) for g in grads]

    def stop_value(self, x, grad_norm):
        return relative_mismatch(self._scaled(x), self.problem.targets)

    def step(self, x, j):
        updated = x.with_block(j, closed_form_block_update(
            self.problem, x, j, sigma=slice_sums(self._scaled(x), j)))
        drop = objective_decrease_reference(self.problem, x, updated)[0]
        if self.projected:
            updated = BlockVector(self.problem.split(
                self._projector @ updated.concat()))
        return updated, drop


def per_step_rescale_reference(problem, x0, tol=1e-10, max_iters=10000,
                               divergence_guard=None):
    """The greedy scaling loop on :class:`PerStepRescaleProblem`; returns
    what ``blockmin.run`` returns, with every iterate recorded."""
    return blockmin.run(PerStepRescaleProblem(problem), x0, tol, max_iters,
                        divergence_guard, record_iterates=True)
