"""Dense nonnegative multi-mode arrays with slice sums and exponent scaling."""

import numpy as np

__all__ = [
    "DenseTensor",
    "SliceTargets",
    "ScalingOverflowError",
    "slice_sums",
    "cofactors",
    "support_exponent",
    "scale",
    "rank_one_target",
]

# exp() overflows near 709 and positive entries underflow to zero near -745;
# exponents beyond this magnitude are rejected rather than clamped.
EXP_LIMIT = 700.0


class ScalingOverflowError(ArithmeticError):
    """A scaling exponent is too large in magnitude to evaluate safely."""


def _floats(value, what):
    """``value`` as a new float array; ValueError when it is not numeric."""
    try:
        return np.array(value, dtype=float)
    except TypeError:
        raise ValueError(f"{what} must be numbers") from None


class DenseTensor:
    """Nonnegative dense array with at least two modes, each of size >= 2.

    Zero entries are exact 0.0 and define the support pattern. Tensors with an
    all-zero slice (all entries sharing one index in one mode equal to zero)
    are rejected at construction, since no rescaling can repair such a slice.
    """

    __slots__ = ("array", "_support")

    def __init__(self, array):
        self._own(np.array(array, dtype=float))

    @classmethod
    def _adopt(cls, array):
        """A DenseTensor of a fresh float64 array that nothing else writes
        to, validated as by the constructor, made read-only and not copied."""
        out = object.__new__(cls)
        out._own(array)
        return out

    def _own(self, arr):
        if arr.ndim < 2:
            raise ValueError("tensor needs at least 2 modes")
        if any(m < 2 for m in arr.shape):
            raise ValueError("every mode needs size >= 2")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        if np.any(arr < 0):
            raise ValueError("entries must be nonnegative")
        for k in range(arr.ndim):
            axes = tuple(a for a in range(arr.ndim) if a != k)
            if np.any(arr.sum(axis=axes) <= 0):
                raise ValueError(f"zero slice in mode {k}")
        arr.setflags(write=False)
        self.array = arr
        self._support = None

    @classmethod
    def from_flat(cls, dims, values):
        """Build from a flat value list in row-major order (last index
        fastest). Each dim must be an integral number; 2.0 counts as 2."""
        sizes = _floats(dims, "dims")
        if sizes.ndim != 1 or not all(m.is_integer() for m in sizes.tolist()):
            raise ValueError(f"dims must be a list of integers, not {dims!r}")
        values = _floats(values, "values")
        if values.size != int(np.prod(sizes)):
            raise ValueError("value count does not match dims")
        return cls._adopt(values.reshape(sizes.astype(int)))

    @property
    def dims(self):
        return self.array.shape

    @property
    def d(self):
        return self.array.ndim

    @property
    def values(self):
        """Flat row-major view of the entries."""
        return self.array.reshape(-1)

    @property
    def total(self):
        return float(self.array.sum())

    @property
    def support(self):
        """Boolean mask, True where the entry is positive: computed on first
        access and read-only, like the array it describes."""
        if self._support is None:
            support = self.array > 0
            support.setflags(write=False)
            self._support = support
        return self._support

    def __repr__(self):
        return f"DenseTensor(dims={self.dims}, total={self.total:.6g})"


class SliceTargets:
    """Positive per-mode target vectors with a shared total mass.

    The vectors' totals must agree to 1e-10 relative, else ValueError lists
    them; ``total`` is their mean.
    """

    __slots__ = ("vectors", "total")

    def __init__(self, vectors):
        try:
            vs = [_floats(v, "target entries") for v in vectors]
        except TypeError:
            raise ValueError("targets must be a list of vectors") from None
        for v in vs:
            if v.ndim != 1 or v.size < 2:
                raise ValueError("each target vector needs length >= 2")
            if not np.all(np.isfinite(v)) or np.any(v <= 0):
                raise ValueError("target entries must be positive and finite")
            v.setflags(write=False)
        if len(vs) < 2:
            raise ValueError("at least 2 target vectors are required")
        totals = [float(np.sum(v)) for v in vs]
        self.total = sum(totals) / len(totals)
        spread = max(totals) - min(totals)
        if spread > 1e-10 * max(abs(self.total), np.finfo(float).tiny):
            raise ValueError(f"incompatible slice-sum totals: {totals}")
        self.vectors = tuple(vs)

    @classmethod
    def uniform(cls, dims):
        """All-ones targets for every mode (compatible when all dims agree)."""
        return cls([np.ones(m) for m in dims])

    @property
    def dims(self):
        return tuple(v.size for v in self.vectors)

    @property
    def d(self):
        return len(self.vectors)

    def __repr__(self):
        return f"SliceTargets(dims={self.dims}, total={self.total:.6g})"


def slice_sums(t, mode):
    """Sums of entries over all indices except the given mode (0-based).

    Component i is the sum of every entry whose index in ``mode`` equals i;
    for a matrix these are the row sums (mode 0) and column sums (mode 1).
    """
    if not 0 <= mode < t.d:
        raise ValueError(f"mode {mode} out of range for {t.d}-mode tensor")
    axes = tuple(a for a in range(t.d) if a != mode)
    return t.array.sum(axis=axes)


def _contract(array, u, axis):
    """Sum ``array`` along ``axis`` weighted by the vector ``u``."""
    # on 1-d and 2-d operands ndarray.dot makes the BLAS call that @ makes,
    # without the ufunc dispatch; @ stays on stacks of matrices
    if array.ndim == 2:
        return array.dot(u) if axis == 1 else u.dot(array)
    if axis == array.ndim - 1:
        return array @ u
    if axis == 0:
        return u.dot(array.reshape(u.size, -1)).reshape(array.shape[1:])
    return np.tensordot(array, u, axes=([axis], [0]))


def cofactors(array, factors, out, skip=None):
    """Write the cofactor sums w_k to ``out[k]`` for every mode k but
    ``skip``; returns ``out`` and leaves ``out[skip]`` untouched.

    For a plain d-mode array K and one factor vector u_l per mode, w_k is
    the mode-k slice sums of K with every other mode l weighted by u_l. The
    mode-k slice sums of K * (u_1 ⊗ ... ⊗ u_d) are then u_k * w_k, and the
    rescaled tensor is never formed. For a matrix w_0 = K u_1 and
    w_1 = K^T u_0.

    With ``skip=j`` (after a step on block j, since w_j does not depend on
    u_j) axis j is contracted first, so K is passed over once, and for a
    matrix that one contraction is the whole work. Every mode (``skip``
    None) costs two passes over K plus passes over smaller arrays.
    """
    modes = list(range(array.ndim))
    if skip is not None:
        array = _contract(array, factors[skip], skip)
        del modes[skip]
    _every_cofactor(array, modes, factors, out)
    return out


def _every_cofactor(array, modes, factors, out):
    # the axes of ``array`` carry ``modes``: the modes before the last come
    # from the array with the last axis contracted, and the last from
    # contracting axis 0 and then every other axis before the last, from
    # the back
    if len(modes) == 1:
        out[modes[0]] = array
        return
    *head, last = modes
    _every_cofactor(_contract(array, factors[last], len(head)), head,
                    factors, out)
    rest = _contract(array, factors[head[0]], 0)
    for mode in reversed(head[1:]):
        rest = _contract(rest, factors[mode], rest.ndim - 2)
    out[last] = rest


def _exponents(t, x):
    blocks = getattr(x, "blocks", x)
    if len(blocks) != t.d:
        raise ValueError("block count does not match tensor modes")
    expo = np.zeros(t.dims)
    for j, b in enumerate(blocks):
        b = np.asarray(b, dtype=float)
        if b.shape != (t.dims[j],):
            raise ValueError(f"block {j} has length {b.size}, expected {t.dims[j]}")
        shape = [1] * t.d
        shape[j] = t.dims[j]
        expo += b.reshape(shape)
    return expo


def support_exponent(t, x):
    """Largest |x_1[i_1] + ... + x_d[i_d]| over the support of ``t``: the
    magnitude that :func:`scale` holds to 700."""
    return float(np.abs(_exponents(t, x)[t.support]).max())


def scale(t, x):
    """Entrywise rescaling by exp of per-mode exponent vectors.

    ``x`` provides one exponent vector per mode (a BlockVector or a sequence
    of arrays with lengths matching the dims); entry (i_1, ..., i_d) is
    multiplied by exp(x_1[i_1] + ... + x_d[i_d]). Zero entries stay exactly
    zero regardless of the exponent. Exponents above 700 in magnitude on the
    support raise ScalingOverflowError.

    One pass over the whole array serves every support, with no gather or
    scatter: the exponents off the support are set to 0, so their exp is 1
    and their product with the zero entry is 0, and the sup norm tested
    against the limit is that over the support. The supported entries are
    the same elementwise products as those of an evaluation on the support
    alone.
    """
    expo = _exponents(t, x)
    np.copyto(expo, 0.0, where=~t.support)
    if max(float(expo.max()), -float(expo.min())) > EXP_LIMIT:
        raise ScalingOverflowError("scaling overflow")
    np.exp(expo, out=expo)
    expo *= t.array
    return DenseTensor._adopt(expo)


def rank_one_target(targets):
    """The positive tensor whose mode-k slice sums equal the targets exactly.

    Built as the outer product of the target vectors divided by total^(d-1).
    """
    out = np.asarray(targets.vectors[0], dtype=float)
    for v in targets.vectors[1:]:
        out = np.multiply.outer(out, v)
    out /= targets.total ** (targets.d - 1)
    return DenseTensor(out)
