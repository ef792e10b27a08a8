"""Dense linear algebra helpers, thin wrappers over ``numpy.linalg`` (LAPACK).

Null spaces come from the SVD, orthonormalization from QR (SVD for
rank-deficient input), symmetric eigendecompositions from ``eigh`` and linear
solves from QR. Each returned basis has its column signs fixed (the entry of
largest magnitude is positive), so the same input gives the same basis on a
fixed numpy/LAPACK build. Inside a multi-dimensional subspace the orientation
is whatever LAPACK returns. The solvers' objective and gradient-norm traces,
block choices and scaled tensors do not depend on it; only the working
coordinates of stored iterates do. Everything operates on plain float64
numpy arrays.
"""

import numpy as np

__all__ = [
    "OrthonormalBasis",
    "orthonormalize",
    "null_space",
    "projector_onto",
    "symmetric_eigs",
    "solve_linear",
]

# Singular values (or QR diagonal entries) at or below this fraction of the
# largest singular value (or input column norm) count as zero.
RANK_RTOL = 1e-10


class OrthonormalBasis:
    """Mutually orthonormal vectors in R^n, stored as the columns of ``matrix``.

    A basis with zero columns is valid and represents the trivial subspace.
    """

    def __init__(self, ambient_dim, matrix=None):
        self.ambient_dim = int(ambient_dim)
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        if matrix is None:
            matrix = np.zeros((self.ambient_dim, 0))
        matrix = np.array(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis matrix must be ({self.ambient_dim}, k), got {matrix.shape}"
            )
        if matrix.shape[1]:
            gram = matrix.T @ matrix
            if np.abs(gram - np.eye(matrix.shape[1])).max() > 1e-12:
                raise ValueError("vectors are not orthonormal")
        matrix.setflags(write=False)
        self.matrix = matrix

    @property
    def size(self):
        """Number of basis vectors."""
        return self.matrix.shape[1]

    @property
    def vectors(self):
        """Basis vectors as a list of 1-d arrays."""
        return [self.matrix[:, i] for i in range(self.size)]

    def coords(self, vec):
        """Coordinates of ``vec`` in this basis (orthogonal projection coefficients)."""
        return self.matrix.T @ np.asarray(vec, dtype=float)

    def project(self, vec):
        """Orthogonal projection of ``vec`` onto the span."""
        return self.matrix @ self.coords(vec)

    def projector(self):
        return projector_onto(self)

    def __repr__(self):
        return f"OrthonormalBasis(ambient_dim={self.ambient_dim}, size={self.size})"


def _fix_signs(Q):
    """Flip columns so that each one's entry of largest magnitude is positive."""
    if Q.shape[1]:
        cols = np.arange(Q.shape[1])
        lead = Q[np.abs(Q).argmax(axis=0), cols]
        Q = Q * np.where(lead < 0, -1.0, 1.0)
    return Q


def orthonormalize(vectors):
    """Orthonormal basis of the span of the given vectors.

    Linearly independent inputs give the Gram-Schmidt basis (QR with a
    positive diagonal): basis vector i has a positive coefficient on input i.
    Rank-deficient inputs yield fewer output vectors than inputs.
    """
    vecs = [np.asarray(v, dtype=float).ravel() for v in vectors]
    if not vecs:
        raise ValueError("no vectors")
    n = vecs[0].size
    if n < 1 or any(v.size != n for v in vecs):
        raise ValueError("vectors must share a common positive length")
    A = np.column_stack(vecs)
    tol = RANK_RTOL * float(np.sqrt((A * A).sum(axis=0).max()))
    if A.shape[1] <= n:
        Q, R = np.linalg.qr(A)
        diag = np.diag(R)
        if np.abs(diag).min() > tol:
            return OrthonormalBasis(n, Q * np.sign(diag))
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    return OrthonormalBasis(n, _fix_signs(U[:, s > tol]))


def null_space(A):
    """Orthonormal basis of {x : A x = 0}; its size is n - rank(A)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] < 1:
        raise ValueError("matrix must be 2-d with at least one column")
    m, n = A.shape
    # Full V only when it is needed (m < n); U is never larger than m x n.
    _, s, vt = np.linalg.svd(A, full_matrices=m < n)
    rank = int((s > RANK_RTOL * s[0]).sum()) if s.size else 0
    return OrthonormalBasis(n, _fix_signs(vt[rank:].T))


def projector_onto(basis):
    """Symmetric idempotent matrix projecting onto the span of ``basis``."""
    M = basis.matrix
    return M @ M.T


def symmetric_eigs(M):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, OrthonormalBasis of eigenvectors in the
    matching column order). The input must be symmetric to within 1e-10
    relative to its largest entry.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A - A.T).max()) > 1e-10 * scale:
        raise ValueError("asymmetric input")
    vals, vecs = np.linalg.eigh(0.5 * (A + A.T))
    return vals, OrthonormalBasis(A.shape[0], _fix_signs(vecs))


def solve_linear(A, b):
    """Solve A x = b for square nonsingular A via QR."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    Q, R = np.linalg.qr(A)
    diag = np.abs(np.diag(R))
    if diag.size and diag.min() <= 1e-13 * max(diag.max(), np.finfo(float).tiny):
        raise ValueError("matrix is singular to working precision")
    # R is upper triangular, so LU with partial pivoting is back substitution.
    return np.linalg.solve(R, Q.T @ b)
