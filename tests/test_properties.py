"""Property tests over seeded instance families (Hypothesis, under the
derandomized profile of conftest.py, so that every run draws the same
examples)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (alternating_scaling, projected_mode_bases,
                     random_compatible_targets, random_pattern_tensor,
                     random_positive_tensor, reference_bases,
                     slice_sum_gradient)
from slicescale.blockmin import CONVERGED, estimate_alpha_beta
from slicescale.objective import ScalingProblem, ambient_second_moments
from slicescale.scaler import random_reduced_point, solve
from slicescale.tensor import DenseTensor, SliceTargets

PROPERTY_SETTINGS = settings(max_examples=40)


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
    # The problem's block-j gradient norm on a gauge instance, the
    # in-plane norm with a rank-g correction, must be the norm of the
    # slice-sum gradient along an explicit orthonormal basis of block j's
    # hyperplane projected onto the reduced space.
    problem, gauge_dim, rng = case
    assert problem.gauge_dim == gauge_dim
    x = random_reduced_point(problem, rng)
    objective, norms = problem.evaluate(x)
    ghat = slice_sum_gradient(problem, x)
    for j, basis in enumerate(projected_mode_bases(problem)):
        explicit = np.linalg.norm(basis.T @ ghat)
        assert abs(norms[j] - explicit) <= 1e-12 * objective


@st.composite
def positive_or_patterned_problems(draw):
    """A d-mode tensor (d = 2-3, sizes 2-4), positive or with random zeros
    but no zero slice, with random compatible targets; patterned ones may
    or may not have a gauge."""
    d = draw(st.integers(2, 3))
    dims = tuple(draw(st.integers(2, 4)) for _ in range(d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        tensor = random_positive_tensor(rng, dims)
    else:
        tensor = random_pattern_tensor(rng, dims, density=0.6)
    return ScalingProblem(tensor, random_compatible_targets(rng, dims)), rng


def steep_ot_case():
    """Unnormalized 20 x 20 Gibbs kernel exp(-C/0.01) of jittered grids with
    unit targets; its sampled condition number is about 300."""
    rng = np.random.default_rng(1700)
    grid = np.linspace(0.0, 1.0, 20)
    x = grid + rng.uniform(-0.3, 0.3, 20) / 20
    y = grid + rng.uniform(-0.3, 0.3, 20) / 20
    cost = (x[:, None] - y[None, :]) ** 2
    kernel = np.exp(-cost / cost.max() / 0.01)
    return ScalingProblem(DenseTensor(kernel),
                          SliceTargets.uniform((20, 20))), rng


@PROPERTY_SETTINGS
@given(st.one_of(positive_or_patterned_problems(),
                 block_diagonal_gauge_problems().map(lambda c: (c[0], c[2]))))
@example(steep_ot_case())
def test_certificate_matches_reduced_basis_congruence(case):
    # The certificate reads alpha and beta from the ambient Hessian
    # projected onto the reduced space, skipping its d + g structural
    # zeros; they must be the extremes of Q^T H Q for an explicit
    # orthonormal basis Q of that space.
    problem, rng = case
    points = [random_reduced_point(problem, rng) for _ in range(3)]
    alpha, beta = estimate_alpha_beta(problem, points)
    Q = reference_bases(problem).reduced_basis
    hessians = [ambient_second_moments(problem.scaled(x).array) for x in points]
    spectra = [np.linalg.eigvalsh(Q.T @ H @ Q) for H in hessians]
    ref_alpha = min(vals[0] for vals in spectra)
    ref_beta = max(vals[-1] for vals in spectra)
    assert ref_alpha > 0
    assert abs(alpha - ref_alpha) <= 1e-12 * ref_alpha
    assert abs(beta - ref_beta) <= 1e-12 * ref_beta


@PROPERTY_SETTINGS
@given(st.one_of(positive_or_patterned_problems(),
                 block_diagonal_gauge_problems().map(lambda c: (c[0], c[2]))),
       st.sampled_from([1e-3, 1e-6, 1e-10]))
def test_converged_runs_meet_their_tol(case, tol):
    # tol bounds the relative slice-sum mismatch, so a converged run
    # normalizes to residuals within tol of the targets (up to rounding),
    # keeps the zeros, and for a matrix lies near the alternating-scaling
    # limit. Unscalable draws end diverging or out of budget, unnormalized.
    problem, _ = case
    sol = solve(problem, tol=tol, max_iters=3000)
    if sol.status != CONVERGED:
        assert sol.scaled is None
        return
    targets = problem.targets.vectors
    for residual, s in zip(sol.residuals, targets):
        assert residual <= (tol + 1e-13) * float(s.max())
    support = problem.tensor.support
    assert np.all(sol.scaled.array[~support] == 0.0)
    assert np.all(sol.scaled.array[support] > 0.0)
    if problem.d == 2:
        limit = alternating_scaling(problem.tensor.array, targets[0],
                                    targets[1], 3000)
        assert np.abs(limit.sum(axis=1) - targets[0]).max() <= 1e-12
        distance = np.abs(sol.scaled.array - limit).max()
        assert distance <= 10 * tol * limit.max()
