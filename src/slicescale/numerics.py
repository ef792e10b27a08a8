"""Dense linear algebra helpers, thin wrappers over ``numpy.linalg`` (LAPACK).

Null spaces of symmetric matrices come from ``eigh``, symmetric eigenvalues
from ``eigvalsh``, and repeated linear solves with one matrix from its
inverse, formed once from QR. A null space is a plain N x k array of
orthonormal columns with the orientation ``eigh`` gives them: the column
signs, and the basis inside a multi-dimensional subspace, are whatever
LAPACK returns. Nothing the solvers report or store depends on it: their
iterates are ambient exponent blocks, and the gauge basis G is read only
through G G^T and the per-block gradient-norm maps, where its orientation
cancels. Everything operates on plain float64 numpy arrays.
"""

import numpy as np

__all__ = [
    "null_space",
    "symmetric_eigs",
    "factor_linear",
]

# Eigenvalue magnitudes at or below this fraction of the largest one count
# as zero.
RANK_RTOL = 1e-10


def null_space(A):
    """Orthonormal basis of {x : A x = 0} for a symmetric A (a Gram matrix),
    the columns of an n x (n - rank(A)) array, from one ``eigh``, with the
    orientation ``eigh`` gives them.

    Eigenvalues of magnitude at most RANK_RTOL times the largest count as
    zero. Input that is not exactly symmetric raises ValueError.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError("matrix must be square with at least one column")
    if not np.array_equal(A, A.T):
        raise ValueError("asymmetric input")
    vals, vecs = np.linalg.eigh(A)
    size = np.abs(vals)
    # boolean indexing copies, so the basis does not keep vecs alive
    return vecs[:, size <= RANK_RTOL * size.max()]


def symmetric_eigs(M):
    """Eigenvalues of a symmetric matrix, in ascending order.

    The input must be symmetric to within 1e-10 relative to its largest
    entry.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A - A.T).max()) > 1e-10 * scale:
        raise ValueError("asymmetric input")
    return np.linalg.eigvalsh(0.5 * (A + A.T))


def factor_linear(A):
    """A^-1 for a square nonsingular A, for repeated solves with A.

    QR refuses a singular A: a diagonal entry of R at most 1e-13 of the
    largest raises ValueError. The inverse is R^-1 Q^T, from one
    ``np.linalg.solve(R, Q^T)`` with the columns of Q^T as right-hand sides,
    so each later solve is one matrix-vector product, which gives the same bits
    for the same right-hand side every time.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    Q, R = np.linalg.qr(A)
    diag = np.abs(np.diag(R))
    if diag.size and diag.min() <= 1e-13 * max(diag.max(), np.finfo(float).tiny):
        raise ValueError("matrix is singular to working precision")
    return np.linalg.solve(R, Q.T)
