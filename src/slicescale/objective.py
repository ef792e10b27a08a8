"""The convex mass objective of exponent scalings: the rescaled tensor and
ambient Hessian at a point, and the frames of the constrained working spaces.

For a tensor B and exponent blocks x the objective is the total mass of the
rescaled tensor, f(x) = sum_e B_e exp(x_1[i_1] + ... + x_d[i_d]). Its
stationary points over the space where each block is orthogonal to its
target vector are exactly the scalings whose slice sums are proportional to
the targets. When the tensor has zeros, some directions inside that space
leave every supported entry unchanged (gauge directions); the objective is
strictly convex only on their orthogonal complement, the reduced space where
the solver keeps its iterates. A tensor without zeros has no gauge, and its
frame is built without any factorization.
"""

import numpy as np

from . import numerics
from .tensor import scale

__all__ = [
    "SubspaceFrame",
    "ScalingProblem",
    "build_frame",
    "ambient_second_moments",
]


class SubspaceFrame:
    """The subspaces of the scaling working spaces, as ambient data.

    Ambient space is R^N with N = sum of the mode sizes, split into per-mode
    blocks. The working space is the product of the hyperplanes orthogonal
    to the targets s_j, of dimension N - d. The frame holds the targets and
    ``gauge_basis``, an N x g array whose orthonormal columns G span the
    gauge: the exponent vectors in the working space whose sum vanishes on
    every supported entry (they rescale nothing), the flat directions of
    the objective.

    The reduced space, where the objective is strictly convex, is the
    complement of the gauge inside the working space, of dimension
    N - d - g; :meth:`project` is its orthogonal projector, applied in
    ambient form. On full support G is N x 0. When the support has a zero, G
    comes from one LAPACK ``eigh`` with fixed column signs, so on a fixed
    numpy/LAPACK build its orientation is reproducible.
    Inside the gauge the orientation is otherwise arbitrary, and nothing the
    solvers report or store depends on it: the iterates are ambient exponent
    blocks, and G enters only through the projector G G^T and the norms of
    the block gradients.
    """

    def __init__(self, targets, gauge_basis):
        self.targets = targets
        self.dims = targets.dims
        self.ambient_dim = sum(self.dims)
        offsets = [0]
        for m in self.dims:
            offsets.append(offsets[-1] + m)
        self.offsets = tuple(offsets)
        self.gauge_basis = gauge_basis

    @property
    def d(self):
        return len(self.dims)

    @property
    def working_dim(self):
        return self.ambient_dim - self.d

    @property
    def gauge_dim(self):
        return self.gauge_basis.shape[1]

    @property
    def reduced_dim(self):
        return self.working_dim - self.gauge_dim

    def block_slice(self, j):
        return slice(self.offsets[j], self.offsets[j + 1])

    def split(self, vec):
        """Split an ambient vector into per-mode blocks."""
        vec = np.asarray(vec, dtype=float)
        return [vec[self.block_slice(j)] for j in range(self.d)]

    def project(self, v):
        """Orthogonal projection onto the reduced space of an ambient vector,
        or of an N x k matrix column by column, as a new array.

        Each block loses its component along its target, then G (G^T v) is
        removed; G lies in the working space, so the two projectors commute.
        """
        out = np.array(v, dtype=float)
        for j, s in enumerate(self.targets.vectors):
            block = out[self.block_slice(j)]
            block -= np.multiply.outer(s, (s @ block) / float(s @ s))
        if self.gauge_dim:
            G = self.gauge_basis
            out -= G @ (G.T @ out)
        return out

    def reduced_residual(self, x):
        """Sup-norm distance of an ambient block vector from the reduced space."""
        vec = x.concat()
        return float(np.abs(vec - self.project(vec)).max())

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

    The gauge is ker R ∩ ker T, with R the nnz x N support-incidence matrix
    and T the d x N matrix holding target s_j in block j of row j. That
    intersection is ker(R^T R + T^T T), the null space of one symmetric
    N x N matrix: the support Gram matrix R^T R, so R is never formed, plus
    the outer product of s_j / ||s_j|| in diagonal block j. Normalizing a row
    of T leaves its kernel unchanged and makes the gauge independent of the
    targets' scale. That null space is the only factorization made, and only
    when the support has a zero.

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
        return SubspaceFrame(targets, np.zeros((sum(tensor.dims), 0)))
    gram = ambient_second_moments(tensor.support.astype(float))
    start = 0
    for s in targets.vectors:
        unit = s / np.linalg.norm(s)
        gram[start:start + s.size, start:start + s.size] += np.outer(unit, unit)
        start += s.size
    return SubspaceFrame(targets, numerics.null_space(gram))


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

    def scaled(self, x):
        """The rescaled tensor at ambient blocks ``x``."""
        return scale(self.tensor, x)

    def hessian_ambient(self, x):
        """Ambient Hessian: diagonal blocks are slice sums, off-diagonal
        blocks are two-mode marginals of the rescaled tensor."""
        return ambient_second_moments(self.scaled(x).array)
