import numpy as np
import pytest

from helpers import (masked_scale_reference, random_compatible_targets,
                     random_pattern_tensor, random_positive_tensor)
from slicescale import tensor
from slicescale.tensor import (EXP_LIMIT, DenseTensor, ScalingOverflowError,
                               SliceTargets, cofactors,
                               rank_one_target, scale, slice_sums,
                               support_exponent)


class TestDenseTensor:
    def test_matrix_construction(self):
        t = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.dims == (2, 2)
        assert t.d == 2
        assert t.total == 10.0
        np.testing.assert_array_equal(t.values, [1, 2, 3, 4])

    def test_from_flat_row_major(self):
        t = DenseTensor.from_flat((2, 3), [1, 2, 3, 4, 5, 6])
        np.testing.assert_array_equal(t.array, [[1, 2, 3], [4, 5, 6]])

    def test_from_flat_refuses_fractional_dims(self):
        # a dim of 2.5 is not read as 2; an integral 2.0 is a dim of 2
        with pytest.raises(ValueError, match="integers"):
            DenseTensor.from_flat([2.5, 2], [1, 2, 3, 4])
        assert DenseTensor.from_flat([2.0, 2], [1, 2, 3, 4]).dims == (2, 2)

    def test_from_flat_length_mismatch(self):
        with pytest.raises(ValueError, match="value count"):
            DenseTensor.from_flat((2, 2), [1, 2, 3])

    def test_rejects_vectors(self):
        with pytest.raises(ValueError, match="2 modes"):
            DenseTensor([1.0, 2.0])

    def test_rejects_short_mode(self):
        with pytest.raises(ValueError, match="size >= 2"):
            DenseTensor(np.ones((2, 1)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DenseTensor([[1.0, -1.0], [1.0, 1.0]])

    def test_rejects_zero_slice(self):
        with pytest.raises(ValueError, match="zero slice"):
            DenseTensor([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="zero slice"):
            DenseTensor([[1.0, 0.0], [1.0, 0.0]])

    def test_pattern_and_support(self):
        t = DenseTensor([[1.0, 2.0], [3.0, 0.0]])
        np.testing.assert_array_equal(t.support, [[True, True], [True, False]])
        assert np.array_equal(t.support,
                              DenseTensor([[5.0, 5.0], [5.0, 0.0]]).support)
        assert not np.array_equal(t.support,
                                  DenseTensor([[1.0, 1.0], [1.0, 1.0]]).support)

    def test_immutable(self):
        t = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            t.array[0, 0] = 9.0

    def test_support_is_kept_read_only(self):
        t = DenseTensor([[1.0, 2.0], [3.0, 0.0]])
        support = t.support
        assert t.support is support
        with pytest.raises(ValueError):
            support[1, 1] = True

    def test_input_is_copied(self):
        source = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = DenseTensor(source)
        assert not np.shares_memory(source, t.array)
        source[0, 0] = 9.0
        assert t.array[0, 0] == 1.0


class TestSliceSums:
    def test_matrix_modes(self):
        t = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(slice_sums(t, 0), [3.0, 7.0])
        np.testing.assert_allclose(slice_sums(t, 1), [4.0, 6.0])

    def test_all_ones_cube(self):
        t = DenseTensor(np.ones((2, 2, 2)))
        for mode in range(3):
            np.testing.assert_allclose(slice_sums(t, mode), [4.0, 4.0])

    def test_identity(self):
        t = DenseTensor(np.eye(2))
        np.testing.assert_allclose(slice_sums(t, 0), [1.0, 1.0])

    def test_mode_out_of_range(self):
        t = DenseTensor(np.eye(2))
        with pytest.raises(ValueError, match="out of range"):
            slice_sums(t, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_total_mass_mode_independent(self, seed):
        rng = np.random.default_rng(seed)
        t = random_positive_tensor(rng, (3, 4, 2))
        totals = [slice_sums(t, k).sum() for k in range(3)]
        np.testing.assert_allclose(totals, totals[0])


class TestScale:
    def test_zero_exponents_identity(self):
        t = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        out = scale(t, [np.zeros(2), np.zeros(2)])
        np.testing.assert_array_equal(out.array, t.array)

    def test_row_scaling(self):
        t = DenseTensor(np.ones((2, 2)))
        out = scale(t, [np.array([np.log(2.0), 0.0]), np.zeros(2)])
        np.testing.assert_allclose(out.array, [[2.0, 2.0], [1.0, 1.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_group_action(self, seed):
        rng = np.random.default_rng(700 + seed)
        t = random_positive_tensor(rng, (2, 3, 2))
        x = [rng.uniform(-1, 1, m) for m in (2, 3, 2)]
        y = [rng.uniform(-1, 1, m) for m in (2, 3, 2)]
        once = scale(scale(t, x), y)
        combined = scale(t, [a + b for a, b in zip(x, y)])
        np.testing.assert_allclose(once.array, combined.array, rtol=1e-12)

    def test_overflow(self):
        t = DenseTensor(np.ones((2, 2)))
        with pytest.raises(ScalingOverflowError, match="scaling overflow"):
            scale(t, [np.array([800.0, 0.0]), np.zeros(2)])
        with pytest.raises(ScalingOverflowError):
            scale(t, [np.array([-800.0, 0.0]), np.zeros(2)])

    def test_zero_entries_exempt_from_overflow(self):
        # the huge exponent lands only on the zero entry
        t = DenseTensor([[1.0, 1.0], [0.0, 1.0]])
        out = scale(t, [np.array([0.0, 400.0]), np.array([400.0, -400.0])])
        assert out.array[1, 0] == 0.0
        assert np.array_equal(out.support, t.support)

    def test_pattern_preserved(self):
        t = DenseTensor([[1.0, 1.0], [0.0, 1.0]])
        out = scale(t, [np.array([0.5, -0.5]), np.array([1.0, -1.0])])
        assert np.array_equal(out.support, t.support)

    def test_dim_mismatch(self):
        t = DenseTensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            scale(t, [np.zeros(3), np.zeros(2)])

    @pytest.mark.parametrize("kind", ["positive", "pattern"])
    @pytest.mark.parametrize("dims", [(5, 7), (3, 4, 5), (2, 3, 2, 3)])
    def test_equals_masked_reference_bit_for_bit(self, dims, kind):
        rng = np.random.default_rng(750 + len(dims))
        for radius in (1.0, 30.0, 200.0):
            t = (random_positive_tensor(rng, dims) if kind == "positive"
                 else random_pattern_tensor(rng, dims, density=0.5))
            x = [rng.uniform(-radius, radius, m) / len(dims) for m in dims]
            expected, _ = masked_scale_reference(t, x)
            out = scale(t, x)
            assert np.array_equal(out.array, expected)
            assert not out.array.flags.writeable
            assert not np.shares_memory(out.array, t.array)

    @pytest.mark.parametrize("offset", [EXP_LIMIT + 1.0, 1e6, 1e300])
    def test_off_support_exponents_are_ignored(self, offset):
        # two diagonal blocks: the exponents cancel on the blocks and are
        # +-offset on every zero entry between them
        array = np.zeros((4, 4))
        array[:2, :2] = [[1.0, 2.0], [3.0, 4.0]]
        array[2:, 2:] = [[5.0, 6.0], [7.0, 8.0]]
        t = DenseTensor(array)
        for sign in (1.0, -1.0):
            shift = np.array([0.0, 0.0, sign * offset, sign * offset])
            out = scale(t, [shift, -shift])
            assert np.array_equal(out.array, array)

    def test_overflow_exactly_past_the_limit_on_the_support(self):
        t = DenseTensor([[1.0, 1.0], [0.0, 1.0]])
        above = np.nextafter(EXP_LIMIT, np.inf)
        for sign in (1.0, -1.0):
            scale(t, [np.array([sign * EXP_LIMIT, 0.0]), np.zeros(2)])
            with pytest.raises(ScalingOverflowError):
                scale(t, [np.array([sign * above, 0.0]), np.zeros(2)])
            # (1, 0) is not on the support: 2 * EXP_LIMIT there is allowed
            scale(t, [np.array([0.0, sign * EXP_LIMIT]),
                      np.array([sign * EXP_LIMIT, 0.0])])

    @pytest.mark.parametrize("seed", range(3))
    def test_overflow_iff_a_supported_exponent_passes_the_limit(self, seed):
        rng = np.random.default_rng(760 + seed)
        dims = (3, 4, 3)
        t = random_pattern_tensor(rng, dims, density=0.5)
        raised = []
        for _ in range(60):
            x = [rng.uniform(-400.0, 400.0, m) for m in dims]
            with np.errstate(over="ignore"):
                expected, sup = masked_scale_reference(t, x)
            raised.append(sup > EXP_LIMIT)
            if sup > EXP_LIMIT:
                with pytest.raises(ScalingOverflowError):
                    scale(t, x)
            else:
                assert np.array_equal(scale(t, x).array, expected)
        assert any(raised) and not all(raised)


class TestCofactorSums:
    @pytest.mark.parametrize("dims", [(3, 4), (2, 3, 4), (2, 3, 2, 3)])
    def test_slice_sums_of_the_factored_rescaling(self, dims):
        rng = np.random.default_rng(800 + len(dims))
        kernel = random_positive_tensor(rng, dims).array
        x = [rng.uniform(-2.0, 2.0, m) for m in dims]
        factors = [np.exp(b) for b in x]
        scaled = scale(DenseTensor(kernel), x)
        for skip in [None, *range(len(dims))]:
            out = [None] * len(dims)
            got = cofactors(kernel, factors, out, skip=skip)
            assert got is out
            for k in range(len(dims)):
                if k == skip:
                    assert got[k] is None
                else:
                    np.testing.assert_allclose(factors[k] * got[k],
                                               slice_sums(scaled, k),
                                               rtol=1e-13)

    @pytest.mark.parametrize("dims", [(3, 4), (2, 3, 4), (2, 3, 2, 3)])
    def test_plan_for_every_mode_but_one(self, dims, monkeypatch):
        # a step on block j leaves every w_k with k != j stale: the kernel
        # is passed over once, contracting mode j out, and for a matrix that
        # one contraction is the whole work
        rng = np.random.default_rng(810 + len(dims))
        kernel = random_positive_tensor(rng, dims).array
        factors = [rng.uniform(0.5, 2.0, m) for m in dims]
        calls = []
        contract = tensor._contract

        def recorded(array, u, axis):
            calls.append((array, axis))
            return contract(array, u, axis)

        monkeypatch.setattr(tensor, "_contract", recorded)
        for j in range(len(dims)):
            calls.clear()
            stale = object()
            got = cofactors(kernel, factors, [stale] * len(dims), skip=j)
            assert [axis for array, axis in calls if array is kernel] == [j]
            if len(dims) == 2:
                assert len(calls) == 1
            assert got[j] is stale
            for k in range(len(dims)):
                if k == j:
                    continue
                # K weighted by every factor but u_k, summed over the other
                # modes
                weights = np.ones(())
                for i, u in enumerate(factors):
                    weights = np.multiply.outer(
                        weights, np.ones_like(u) if i == k else u)
                want = slice_sums(DenseTensor(kernel * weights), k)
                np.testing.assert_allclose(got[k], want, rtol=1e-13)
        calls.clear()
        cofactors(kernel, factors, [None] * len(dims))
        assert sum(array is kernel for array, _ in calls) == 2

    def test_matrix_is_two_matvecs(self):
        kernel = np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0]])
        u = [np.array([1.0, 10.0]), np.array([1.0, 2.0, 3.0])]
        got = cofactors(kernel, u, [None, None])
        np.testing.assert_array_equal(got[0], kernel @ u[1])
        np.testing.assert_array_equal(got[1], u[0] @ kernel)


class TestSupportExponent:
    def test_reads_the_support_only(self):
        t = DenseTensor([[1.0, 1.0], [0.0, 1.0]])
        x = [np.array([0.0, 400.0]), np.array([400.0, -450.0])]
        # the entry (1, 0) carries 800 but is not on the support
        assert support_exponent(t, x) == 450.0
        scale(t, x)


class TestCompatibility:
    def test_common_total(self):
        assert SliceTargets([[1.0, 1.0], [0.5, 1.5]]).total == pytest.approx(2.0)

    def test_mismatch_lists_totals(self):
        with pytest.raises(ValueError, match="incompatible"):
            SliceTargets([[1.0, 1.0], [1.0, 2.0]])

    def test_probability_vectors(self):
        assert SliceTargets(
            [[0.3, 0.7], [0.2, 0.5, 0.3]]
        ).total == pytest.approx(1.0)

    def test_targets_validation(self):
        with pytest.raises(ValueError, match="positive"):
            SliceTargets([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="incompatible"):
            SliceTargets([[1.0, 1.0], [1.0, 2.0]])
        tg = SliceTargets.uniform((3, 3))
        assert tg.total == pytest.approx(3.0)
        assert tg.dims == (3, 3)


class TestRankOneTarget:
    def test_uniform_2x2(self):
        tg = SliceTargets([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(rank_one_target(tg).array,
                                   [[0.5, 0.5], [0.5, 0.5]])

    def test_uniform_cube(self):
        tg = SliceTargets.uniform((2, 2, 2))
        t = rank_one_target(tg)
        np.testing.assert_allclose(t.array, 0.25)
        for mode in range(3):
            np.testing.assert_allclose(slice_sums(t, mode), [1.0, 1.0])

    def test_hand_outer_product(self):
        tg = SliceTargets([[2.0, 2.0], [1.0, 3.0]])
        t = rank_one_target(tg)
        np.testing.assert_allclose(t.array, [[0.5, 1.5], [0.5, 1.5]])
        np.testing.assert_allclose(slice_sums(t, 0), [2.0, 2.0])
        np.testing.assert_allclose(slice_sums(t, 1), [1.0, 3.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_random_targets_hit_exactly(self, seed):
        rng = np.random.default_rng(800 + seed)
        tg = random_compatible_targets(rng, (3, 2, 4))
        t = rank_one_target(tg)
        for mode in range(3):
            assert np.abs(slice_sums(t, mode) - tg.vectors[mode]).max() <= 1e-12
