import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from helpers import (random_compatible_targets, random_pattern_tensor,
                     witness_system)
from slicescale import blockmin, feasibility
from slicescale.blockmin import BlockVector
from slicescale.feasibility import (NOT_SCALABLE, SCALABLE, check_scalable,
                                    verify_witness)
from slicescale.objective import ScalingProblem
from slicescale.scaler import solve
from slicescale.tensor import DenseTensor, SliceTargets

UNIFORM_2X2 = SliceTargets([[1.0, 1.0], [1.0, 1.0]])


def two_by_two_patterns_no_zero_slice():
    """All 0/1 2x2 masks with a positive entry in every row and column."""
    out = []
    for bits in itertools.product([0, 1], repeat=4):
        mask = np.array(bits, dtype=float).reshape(2, 2)
        if mask.sum(axis=0).min() > 0 and mask.sum(axis=1).min() > 0:
            out.append(mask)
    return out


def margin_grid_oracle(mask, grid=2001):
    """Existence of a same-pattern matrix with unit margins, by 1-d sweep.

    With row and column sums all one, the family is a11 = t, a12 = a21 = 1-t,
    a22 = t for t in [0, 1]; check whether some t matches the sign pattern.
    """
    for t in np.linspace(0.0, 1.0, grid):
        candidate = np.array([[t, 1.0 - t], [1.0 - t, t]])
        on = candidate[mask > 0]
        off = candidate[mask == 0]
        if on.size and on.min() > 1e-9 and (off.size == 0 or np.abs(off).max() <= 1e-12):
            return True
    return False


def tableau_bytes(tensor):
    """Bytes of N x (nnz + N + 2d + 2) doubles: the dual phase-1 tableau
    (N rows; columns for the nnz entries, 2d target shifts, N artificials
    and the right-hand side) and one column more."""
    n, d = sum(tensor.dims), tensor.d
    nnz = int(tensor.support.sum())
    return n * (nnz + n + 2 * d + 2) * 8


def scipy_feasibility_oracle(tensor, targets):
    A_ub, b_ub, A_eq, b_eq = witness_system(tensor, targets)
    n = A_ub.shape[1]
    res = linprog(np.zeros(n), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(None, None)] * n, method="highs")
    if res.status == 0:
        return NOT_SCALABLE
    if res.status == 2:
        return SCALABLE
    raise RuntimeError(f"unexpected linprog status {res.status}")


class TestCheckScalable:
    def test_positive_tensor_scalable(self):
        report = check_scalable(DenseTensor([[1.0, 2.0], [3.0, 4.0]]), UNIFORM_2X2)
        assert report.verdict == SCALABLE
        assert report.witness is None
        assert report.lp_stats["phase"] == 1
        assert report.lp_stats["pivots"] >= 0

    def test_full_support_skips_the_lp(self):
        # Full support is always scalable, so no tableau is built: the
        # phase-1 tableau of a dense 40 x 40 input would take about 1.03 MiB.
        rng = np.random.default_rng(1600)
        tensor = DenseTensor(rng.uniform(0.1, 1.0, (40, 40)))
        targets = random_compatible_targets(rng, (40, 40))
        tracemalloc.start()
        try:
            report = check_scalable(tensor, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert report.verdict == SCALABLE and report.witness is None
        assert report.lp_stats["pivots"] == 0
        assert "skipped" in report.lp_stats

    def test_upper_triangular_not_scalable(self):
        report = check_scalable(DenseTensor([[1.0, 1.0], [0.0, 1.0]]), UNIFORM_2X2)
        assert report.verdict == NOT_SCALABLE
        assert report.witness is not None
        assert verify_witness(DenseTensor([[1.0, 1.0], [0.0, 1.0]]),
                              UNIFORM_2X2, report.witness)

    def test_identity_pattern_scalable(self):
        report = check_scalable(DenseTensor(np.diag([2.0, 5.0])), UNIFORM_2X2)
        assert report.verdict == SCALABLE

    def test_positive_cube_scalable(self):
        tensor = DenseTensor(np.full((2, 2, 2), 0.5))
        report = check_scalable(tensor, SliceTargets.uniform((2, 2, 2)))
        assert report.verdict == SCALABLE

    def test_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            check_scalable(DenseTensor(np.eye(2)), SliceTargets.uniform((3, 3)))

    def test_incompatible_diagonal_margins(self):
        # diagonal pattern with swapped row/column masses
        tensor = DenseTensor(np.diag([1.0, 1.0]))
        targets = SliceTargets([[1.5, 0.5], [0.5, 1.5]])
        report = check_scalable(tensor, targets)
        assert report.verdict == NOT_SCALABLE
        assert verify_witness(tensor, targets, report.witness)


class TestVerifyWitness:
    def test_hand_witness(self):
        tensor = DenseTensor([[1.0, 1.0], [0.0, 1.0]])
        witness = BlockVector([[-1.0, 1.0], [1.0, -1.0]])
        assert verify_witness(tensor, UNIFORM_2X2, witness)
        halved = BlockVector([[-0.5, 0.5], [0.5, -0.5]])
        assert verify_witness(tensor, UNIFORM_2X2, halved)

    def test_plain_lists(self):
        tensor = DenseTensor([[1.0, 1.0], [0.0, 1.0]])
        assert verify_witness(tensor, UNIFORM_2X2, [[-1, 1], [1.0, -1.0]])
        assert not verify_witness(tensor, UNIFORM_2X2, [[1, -1], [-1, 1]])

    def test_block_shapes_checked(self):
        tensor = DenseTensor([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="witness dims"):
            verify_witness(tensor, UNIFORM_2X2, [[-1.0, 1.0, 0.0], [1.0, -1.0]])
        with pytest.raises(ValueError, match="block 0 has length"):
            verify_witness(tensor, UNIFORM_2X2,
                           [np.array([[-1.0], [1.0]]), [1.0, -1.0]])

    def test_zero_vector_rejected(self):
        tensor = DenseTensor([[1.0, 1.0], [0.0, 1.0]])
        assert not verify_witness(tensor, UNIFORM_2X2, BlockVector.zeros((2, 2)))

    def test_target_equality_violation_rejected(self):
        tensor = DenseTensor([[1.0, 1.0], [0.0, 1.0]])
        witness = BlockVector([[-1.0, 0.5], [1.0, -1.0]])
        assert not verify_witness(tensor, UNIFORM_2X2, witness)

    def test_target_check_is_relative_to_the_target(self):
        # |x_j . t_j| = 0.5e-12 lies below any absolute 1e-9, but it is
        # half of max|t_j|
        tensor = DenseTensor([[1.0, 1.0], [0.0, 1.0]])
        tiny = SliceTargets([[1e-12, 1e-12], [1e-12, 1e-12]])
        assert not verify_witness(tensor, tiny,
                                  BlockVector([[-1.0, 0.5], [1.0, -1.0]]))
        assert verify_witness(tensor, tiny,
                              BlockVector([[-1.0, 1.0], [1.0, -1.0]]))

    def test_positive_pattern_sum_rejected(self):
        tensor = DenseTensor([[1.0, 1.0], [0.0, 1.0]])
        witness = BlockVector([[1.0, -1.0], [-1.0, 1.0]])
        assert not verify_witness(tensor, UNIFORM_2X2, witness)


class TestTwoByTwoBruteForce:
    def test_verdicts_match_margin_oracle(self):
        patterns = two_by_two_patterns_no_zero_slice()
        assert len(patterns) == 7
        for mask in patterns:
            tensor = DenseTensor(np.where(mask > 0, 0.7, 0.0))
            got = check_scalable(tensor, UNIFORM_2X2).verdict
            want = SCALABLE if margin_grid_oracle(mask) else NOT_SCALABLE
            assert got == want, f"pattern {mask.tolist()}"

    def test_scalable_iff_solver_converges(self):
        for mask in two_by_two_patterns_no_zero_slice():
            rng = np.random.default_rng(int(mask.sum()) + 17)
            tensor = DenseTensor(np.where(mask > 0, rng.uniform(0.5, 2.0, (2, 2)), 0.0))
            report = check_scalable(tensor, UNIFORM_2X2)
            sol = solve(ScalingProblem(tensor, UNIFORM_2X2),
                        tol=1e-10, max_iters=1500)
            if report.verdict == SCALABLE:
                assert sol.status == blockmin.CONVERGED
            else:
                assert sol.status != blockmin.CONVERGED
                assert sol.trace.full_grad_norms[-1] > 100 * 1e-10


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_patterned_instances(self, seed):
        rng = np.random.default_rng(1400 + seed)
        dims = [(2, 2), (3, 3), (2, 2, 2), (2, 3)][seed % 4]
        tensor = random_pattern_tensor(rng, dims, density=0.55)
        targets = random_compatible_targets(rng, dims)
        report = check_scalable(tensor, targets)
        assert report.verdict == scipy_feasibility_oracle(tensor, targets)
        if report.verdict == NOT_SCALABLE:
            assert verify_witness(tensor, targets, report.witness)

    def test_verdicts_do_not_depend_on_target_scale(self):
        # Rescaling the targets cannot change scalability: every scale gets
        # the HiGHS verdict of the unit-total problem, and every witness
        # verifies against the targets it was found for.
        for i in range(30):
            rng = np.random.default_rng(2600 + i)
            dims = (6, 6) if i % 2 == 0 else (3, 3, 3)
            tensor = random_pattern_tensor(rng, dims, density=0.5)
            unit = random_compatible_targets(rng, dims, total=1.0)
            want = scipy_feasibility_oracle(tensor, unit)
            for factor in (1e-12, 1.0, 1e12):
                targets = SliceTargets([factor * v for v in unit.vectors])
                report = check_scalable(tensor, targets)
                assert report.verdict == want, (i, factor)
                if want == NOT_SCALABLE:
                    assert verify_witness(tensor, targets, report.witness)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_positive_instances(self, seed):
        rng = np.random.default_rng(1500 + seed)
        dims = (2, 3)
        tensor = DenseTensor(rng.uniform(0.2, 1.0, dims))
        targets = random_compatible_targets(rng, dims)
        report = check_scalable(tensor, targets)
        assert report.verdict == SCALABLE
        assert report.verdict == scipy_feasibility_oracle(tensor, targets)


class TestDualPhaseOne:
    def test_permutation_union_28x28(self):
        # The benchmark's feasible-28x28 shape: a union of 14 random
        # permutations, scalable to unit margins because every entry lies on
        # a positive diagonal.
        rng = np.random.default_rng(28)
        mask = np.zeros((28, 28), dtype=bool)
        for _ in range(14):
            mask[np.arange(28), rng.permutation(28)] = True
        tensor = DenseTensor(np.where(mask, rng.uniform(0.2, 1.0, (28, 28)), 0.0))
        report = check_scalable(tensor, SliceTargets.uniform((28, 28)))
        assert report.verdict == SCALABLE and report.witness is None
        assert report.lp_stats["pivots"] >= 1

    def test_peak_memory_is_the_n_row_tableau(self):
        # The primal witness tableau of this input has about (nnz + 3) rows
        # and 2N + nnz + 5 columns, over 50 MB; the dual one has N = 160 rows.
        rng = np.random.default_rng(80)
        tensor = random_pattern_tensor(rng, (80, 80), density=0.4)
        targets = random_compatible_targets(rng, (80, 80))
        tracemalloc.start()
        try:
            report = check_scalable(tensor, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.verdict == scipy_feasibility_oracle(tensor, targets)
        assert peak <= 1.5 * tableau_bytes(tensor)

    def test_oversized_input_refused_before_allocating(self):
        # Two entries in three on a 2000 x 2000 grid: the tableau would take
        # about 85 GB.
        i = np.arange(2000)
        tensor = DenseTensor(((i[:, None] + i[None, :]) % 3 != 0).astype(float))
        targets = SliceTargets.uniform(tensor.dims)
        assert tableau_bytes(tensor) > 64 * feasibility.MAX_TABLEAU_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="tableau would take"):
                check_scalable(tensor, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Only the support mask (one byte per entry) is ever allocated.
        assert peak < 2 * tensor.array.size


@st.composite
def patterned_instances(draw):
    """A seeded patterned tensor with d = 2-4 modes and compatible random
    targets, so that both verdicts occur."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(2, {2: 9, 3: 5, 4: 3}[d]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = tuple(n + int(k) for k in rng.integers(0, 2, d))
    tensor = random_pattern_tensor(rng, dims, density=rng.uniform(0.35, 0.7))
    return tensor, random_compatible_targets(rng, dims)


@settings(max_examples=120)
@given(patterned_instances())
def test_verdicts_match_highs_on_the_primal_system(instance):
    tensor, targets = instance
    checks = []
    holds = feasibility._certificate_holds

    def recording(*args):
        checks.append(holds(*args))
        return checks[-1]

    with mock.patch.object(feasibility, "_certificate_holds", recording):
        report = check_scalable(tensor, targets)
    assert report.verdict == scipy_feasibility_oracle(tensor, targets)
    if report.verdict == NOT_SCALABLE:
        assert verify_witness(tensor, targets, report.witness)
        assert checks == []
    elif "skipped" not in report.lp_stats:
        assert checks == [True]
