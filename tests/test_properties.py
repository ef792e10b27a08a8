"""Property tests over seeded instance families (Hypothesis, derandomized so
that every run draws the same examples)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import projected_mode_bases
from slicescale.objective import ScalingProblem
from slicescale.scaler import ScalingBlockProblem, random_reduced_point
from slicescale.tensor import DenseTensor, SliceTargets

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None,
                             database=None)


@st.composite
def block_diagonal_gauge_problems(draw):
    """A d-mode tensor (d = 2-4) that is positive on c diagonal blocks and
    zero elsewhere, with targets giving every block the same mass in each
    mode, so that it is scalable. Its gauge dimension is (c - 1)(d - 1),
    kept between 1 and 3."""
    d = draw(st.integers(2, 4))
    c = draw(st.integers(2, 4)) if d == 2 else 2
    sizes = [[draw(st.integers(1, 3)) for _ in range(d)] for _ in range(c)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = tuple(sum(block[k] for block in sizes) for k in range(d))
    array = np.zeros(dims)
    targets = [np.zeros(m) for m in dims]
    start = [0] * d
    for block in sizes:
        index = tuple(slice(a, a + m) for a, m in zip(start, block))
        array[index] = np.exp(rng.uniform(-2.0, 2.0, block))
        mass = rng.uniform(0.5, 2.0)
        for k, m in enumerate(block):
            v = rng.uniform(0.2, 1.0, m)
            targets[k][index[k]] = v * (mass / v.sum())
        start = [a + m for a, m in zip(start, block)]
    problem = ScalingProblem(DenseTensor(array), SliceTargets(targets))
    return problem, (c - 1) * (d - 1), rng


@PROPERTY_SETTINGS
@given(block_diagonal_gauge_problems())
def test_gauge_block_gradient_norms_match_projected_bases(case):
    # The working problem's block-j gradient on a gauge instance is the
    # in-plane gradient with a rank-g correction appended; its norm must be
    # that of the slice-sum gradient along an explicit orthonormal basis of
    # block j's hyperplane projected onto the reduced space.
    problem, gauge_dim, rng = case
    frame = problem.frame
    assert frame.gauge_dim == gauge_dim
    x = random_reduced_point(frame, rng)
    objective, grads = ScalingBlockProblem(problem).evaluate(x)
    ghat = problem.ambient_gradient(x)
    for j, basis in enumerate(projected_mode_bases(frame)):
        assert grads[j].size == frame.dims[j] + gauge_dim
        explicit = np.linalg.norm(basis.T @ ghat)
        assert abs(np.linalg.norm(grads[j]) - explicit) <= 1e-12 * objective
