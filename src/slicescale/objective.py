"""The convex mass objective of exponent scalings, with its gradients,
Hessians, and the orthonormal frames of the constrained working spaces.

For a tensor B and exponent blocks x the objective is the total mass of the
rescaled tensor, f(x) = sum_e B_e exp(x_1[i_1] + ... + x_d[i_d]). Its
stationary points over the space where each block is orthogonal to its
target vector are exactly the scalings whose slice sums are proportional to
the targets. When the tensor has zeros, some directions inside that space
leave every supported entry unchanged (gauge directions); the objective is
strictly convex only on their orthogonal complement, which is where the
projected solver operates.
"""

import numpy as np

from . import numerics
from .blockmin import BlockVector
from .tensor import scale, slice_sums

__all__ = [
    "SubspaceFrame",
    "ScalingPoint",
    "ScalingProblem",
    "build_frame",
    "ambient_second_moments",
]


class SubspaceFrame:
    """Deterministic orthonormal bases for the scaling working spaces.

    Ambient space is R^N with N = sum of the mode sizes, split into per-mode
    blocks. The frame holds:

    - ``mode_bases[j]``: basis of the hyperplane orthogonal to target s_j,
      shape (m_j, m_j - 1);
    - ``working_basis``: block-diagonal embedding of the mode bases, the
      product of those hyperplanes, shape (N, n) with n = sum (m_j - 1);
    - ``support_kernel_basis``: exponent vectors whose sum vanishes on every
      supported entry (they rescale nothing);
    - ``gauge_basis``: support kernel intersected with the working space,
      the flat directions of the objective;
    - ``reduced_basis``: complement of the gauge inside the working space,
      where the objective is strictly convex;
    - ``support_complement_projector`` / ``reduced_projector``: orthogonal
      projectors onto the complement of the support kernel and onto the
      reduced space;
    - ``projected_mode_bases[j]``: basis of the image of embedded mode block
      j under the reduced projector, shape (N, m_j - 1).

    The bases come from LAPACK factorizations with fixed column signs, so on a
    fixed numpy/LAPACK build their orientation is reproducible. Inside each
    subspace the orientation is otherwise arbitrary: the solvers' objective
    and gradient-norm traces, block choices and scaled tensors do not depend
    on it, only the working coordinates of the iterates do.
    """

    def __init__(self, targets, mode_bases, working_basis, support_kernel_basis,
                 gauge_basis, reduced_basis, projected_mode_bases):
        self.targets = targets
        self.dims = targets.dims
        self.ambient_dim = sum(self.dims)
        offsets = [0]
        for m in self.dims:
            offsets.append(offsets[-1] + m)
        self.offsets = tuple(offsets)
        self.mode_bases = tuple(mode_bases)
        self.working_basis = working_basis
        self.support_kernel_basis = support_kernel_basis
        self.gauge_basis = gauge_basis
        self.reduced_basis = reduced_basis
        self.projected_mode_bases = tuple(projected_mode_bases)
        n = self.ambient_dim
        self.support_complement_projector = (
            np.eye(n) - support_kernel_basis @ support_kernel_basis.T
        )
        self.reduced_projector = reduced_basis @ reduced_basis.T

    @property
    def d(self):
        return len(self.dims)

    @property
    def working_dim(self):
        return self.working_basis.shape[1]

    @property
    def gauge_dim(self):
        return self.gauge_basis.shape[1]

    @property
    def reduced_dim(self):
        return self.reduced_basis.shape[1]

    def block_slice(self, j):
        return slice(self.offsets[j], self.offsets[j + 1])

    def split(self, vec):
        """Split an ambient vector into per-mode blocks."""
        vec = np.asarray(vec, dtype=float)
        return [vec[self.block_slice(j)] for j in range(self.d)]

    def embed_block(self, j, block):
        """Ambient vector equal to ``block`` in mode j and zero elsewhere."""
        out = np.zeros(self.ambient_dim)
        out[self.block_slice(j)] = block
        return out

    def working_coords(self, x):
        """Per-mode hyperplane coordinates of an ambient block vector."""
        return BlockVector(
            [self.mode_bases[j].T @ x.blocks[j] for j in range(self.d)]
        )

    def ambient_from_coords(self, y):
        """Ambient block vector from per-mode hyperplane coordinates."""
        return BlockVector(
            [self.mode_bases[j] @ y.blocks[j] for j in range(self.d)]
        )

    def reduced_residual(self, x):
        """Sup-norm distance of an ambient block vector from the reduced space."""
        vec = x.concat()
        resid = vec - self.reduced_projector @ vec
        return float(np.abs(resid).max()) if resid.size else 0.0

    def __repr__(self):
        return (
            f"SubspaceFrame(dims={self.dims}, working_dim={self.working_dim}, "
            f"gauge_dim={self.gauge_dim})"
        )


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
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    blocks = [slice(offsets[j], offsets[j + 1]) for j in range(d)]
    M = np.zeros((offsets[-1], offsets[-1]))
    for j in range(d):
        sums = array.sum(axis=tuple(a for a in range(d) if a != j))
        M[blocks[j], blocks[j]] = np.diag(sums)
        for k in range(j + 1, d):
            marg = array.sum(axis=tuple(a for a in range(d) if a not in (j, k)))
            M[blocks[j], blocks[k]] = marg
            M[blocks[k], blocks[j]] = marg.T
    return M


def build_frame(tensor, targets):
    """Construct the SubspaceFrame of a tensor/targets pair.

    The support kernel is ker R = ker R^T R, the null space of the N x N
    support Gram matrix, so the nnz x N incidence matrix R is never formed.
    The gauge space is the part of that kernel orthogonal to every per-mode
    target row. A deficient projected mode basis (dimension below m_j - 1)
    cannot occur for a valid tensor with no zero slice and raises an error.
    """
    dims = tensor.dims
    if targets.dims != dims:
        raise ValueError("target dims do not match tensor dims")
    d = len(dims)
    ambient = sum(dims)
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)

    mode_bases = []
    for j in range(d):
        basis = numerics.null_space(targets.vectors[j].reshape(1, -1))
        if basis.size != dims[j] - 1:
            raise ValueError("zero slice or invalid tensor")
        mode_bases.append(basis.matrix)

    n = sum(m - 1 for m in dims)
    working = np.zeros((ambient, n))
    col = 0
    for j in range(d):
        working[offsets[j]:offsets[j + 1], col:col + dims[j] - 1] = mode_bases[j]
        col += dims[j] - 1

    gram = ambient_second_moments(tensor.support.astype(float))
    support_kernel = numerics.null_space(gram).matrix

    target_rows = np.zeros((d, ambient))
    for j in range(d):
        target_rows[j, offsets[j]:offsets[j + 1]] = targets.vectors[j]
    if support_kernel.shape[1]:
        # ker [R; T] = {K c : T K c = 0} for an orthonormal basis K of ker R.
        coeffs = numerics.null_space(target_rows @ support_kernel).matrix
        gauge = support_kernel @ coeffs
    else:
        gauge = support_kernel

    if gauge.shape[1]:
        gauge_in_working = working.T @ gauge
        complement = numerics.null_space(gauge_in_working.T).matrix
        reduced = working @ complement
    else:
        reduced = working

    frame_dims_ok = reduced.shape[1] == n - gauge.shape[1]
    if not frame_dims_ok:
        raise ValueError("zero slice or invalid tensor")

    reduced_projector = reduced @ reduced.T
    projected = []
    for j in range(d):
        image = reduced_projector[:, offsets[j]:offsets[j + 1]] @ mode_bases[j]
        basis = numerics.orthonormalize(image.T)
        if basis.size != dims[j] - 1:
            raise ValueError("zero slice or invalid tensor")
        projected.append(basis.matrix)

    return SubspaceFrame(targets, mode_bases, working, support_kernel, gauge,
                         reduced, projected)


class ScalingPoint:
    """An ambient scaling point validated against the working-space constraints."""

    __slots__ = ("blocks", "in_reduced_space")

    def __init__(self, frame, blocks, require_reduced=False, tol=1e-10):
        if blocks.dims != frame.dims:
            raise ValueError("block dims do not match frame dims")
        for j in range(frame.d):
            s = frame.targets.vectors[j]
            inner = float(blocks.blocks[j] @ s)
            bound = tol * float(np.abs(s).max()) * max(1.0, blocks.norm_inf())
            if abs(inner) > bound:
                raise ValueError(f"block {j} is not orthogonal to its target")
        in_reduced = frame.reduced_residual(blocks) <= tol * max(1.0, blocks.norm_inf())
        if require_reduced and not in_reduced:
            raise ValueError("point lies outside the reduced working space")
        self.blocks = blocks
        self.in_reduced_space = in_reduced

    def __repr__(self):
        return f"ScalingPoint(dims={self.blocks.dims}, reduced={self.in_reduced_space})"


class ScalingProblem:
    """A tensor, its slice-sum targets, and the subspace frame tying them together."""

    __slots__ = ("tensor", "targets", "frame")

    def __init__(self, tensor, targets, frame=None):
        if targets.dims != tensor.dims:
            raise ValueError("target dims do not match tensor dims")
        self.tensor = tensor
        self.targets = targets
        self.frame = frame if frame is not None else build_frame(tensor, targets)

    @property
    def d(self):
        return self.tensor.d

    def point(self, blocks, require_reduced=False):
        return ScalingPoint(self.frame, blocks, require_reduced)

    def scaled(self, x):
        """The rescaled tensor at ambient blocks ``x``."""
        return scale(self.tensor, x)

    def objective(self, x):
        """Total mass of the rescaled tensor (strictly positive)."""
        return self.scaled(x).total

    def block_gradient_ambient(self, x, j):
        """Ambient block-j gradient: the mode-j slice sums of the rescaled tensor."""
        return slice_sums(self.scaled(x), j)

    def ambient_gradient(self, x, scaled=None):
        """All slice sums concatenated in mode order."""
        t = self.scaled(x) if scaled is None else scaled
        return np.concatenate([slice_sums(t, j) for j in range(self.d)])

    def restricted_gradient(self, x, j, scaled=None):
        """Block-j gradient in the mode-j hyperplane basis.

        Zero exactly when the mode-j slice sums of the rescaled tensor are
        parallel to the mode-j target.
        """
        t = self.scaled(x) if scaled is None else scaled
        return self.frame.mode_bases[j].T @ slice_sums(t, j)

    def w_gradient(self, x, j, scaled=None):
        """Directional derivatives along the projected mode-j basis."""
        ghat = self.ambient_gradient(x, scaled)
        return self.frame.projected_mode_bases[j].T @ ghat

    def hessian_ambient(self, x, scaled=None):
        """Ambient Hessian: diagonal blocks are slice sums, off-diagonal
        blocks are two-mode marginals of the rescaled tensor."""
        t = self.scaled(x) if scaled is None else scaled
        return ambient_second_moments(t.array)

    def hessian_restricted(self, x, basis, scaled=None):
        """Hessian restricted to an ambient orthonormal basis (congruence Q^T H Q)."""
        Q = basis.matrix if isinstance(basis, numerics.OrthonormalBasis) else np.asarray(basis, dtype=float)
        H = self.hessian_ambient(x, scaled)
        return Q.T @ H @ Q
