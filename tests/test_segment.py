import numpy as np
import pytest

from petquant import (
    BinaryMask,
    EmptyRegionError,
    IntensityUnit,
    ParameterError,
    Volume3D,
    fill_holes,
    postprocess,
    threshold_contrast_iterative,
    threshold_pct_suvmax,
)
from petquant.segment import background_estimate

from conftest import bfs_components, mask_from_coords


def line_volume(values, spacing=(4.0, 4.0, 4.0)):
    arr = np.asarray(values, dtype=float).reshape(-1, 1, 1)
    return Volume3D(arr, spacing)


def full_roi(vol):
    return BinaryMask(np.ones(vol.dims, bool), vol.spacing)


def sphere_phantom(background=1.0, peak=10.0, radius=3.2, dims=(16, 16, 16)):
    """Piecewise-constant plateau lesion centered in the grid."""
    center = np.array([(d - 1) / 2.0 for d in dims])
    grid = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"), axis=-1)
    dist = np.sqrt(((grid - center) ** 2).sum(axis=-1))
    inside = dist <= radius
    values = np.where(inside, peak, background)
    vol = Volume3D(values, (1.0, 1.0, 1.0), IntensityUnit.SUV)
    return vol, inside


class TestPctThreshold:
    def test_hand_threshold(self):
        vol = line_volume([1, 2, 3, 4, 10])
        mask = threshold_pct_suvmax(vol, full_roi(vol), 0.4)
        assert sorted(vol.values[mask.bits]) == [4.0, 10.0]

    def test_near_one_keeps_only_argmax(self):
        vol = line_volume([1, 2, 3, 4, 10])
        mask = threshold_pct_suvmax(vol, full_roi(vol), 0.999999)
        assert list(vol.values[mask.bits]) == [10.0]

    def test_constant_roi_selected_entirely(self):
        vol = line_volume([5, 5, 5, 5])
        mask = threshold_pct_suvmax(vol, full_roi(vol), 0.7)
        assert mask.voxel_count == 4

    def test_never_empty(self):
        vol = line_volume([0.0, 0.0, 1.0])
        assert not threshold_pct_suvmax(vol, full_roi(vol), 0.99).is_empty

    def test_restricted_to_roi(self):
        vol = line_volume([1, 100, 3, 4, 10])
        roi = mask_from_coords([(2, 0, 0), (3, 0, 0), (4, 0, 0)], vol.dims, vol.spacing)
        mask = threshold_pct_suvmax(vol, roi, 0.4)
        assert sorted(vol.values[mask.bits]) == [4.0, 10.0]  # the 100 is outside the ROI

    @pytest.mark.parametrize("offset", [0.0, -50.0])  # -50: every value negative
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_no_roi_equals_the_whole_grid_roi(self, rng, offset, order):
        values = np.asarray(rng.normal(offset, 10.0, (7, 6, 5)), order=order)
        vol = Volume3D(values, (4.0, 4.0, 2.0))
        for pct in (0.05, 0.5, 0.97):
            bits = threshold_pct_suvmax(vol, None, pct).bits
            want = threshold_pct_suvmax(vol, full_roi(vol), pct).bits
            np.testing.assert_array_equal(bits, want)
            assert bits.flags.f_contiguous == values.flags.f_contiguous
        with pytest.raises(ParameterError):
            threshold_pct_suvmax(vol, None, 1.0)

    def test_empty_roi_rejected(self):
        vol = line_volume([1, 2, 3])
        with pytest.raises(EmptyRegionError):
            threshold_pct_suvmax(vol, BinaryMask(np.zeros(vol.dims, bool), vol.spacing), 0.5)

    def test_bad_pct_rejected(self):
        vol = line_volume([1, 2, 3])
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                threshold_pct_suvmax(vol, full_roi(vol), bad)

    def test_monotone_in_pct(self, rng):
        vol = Volume3D(rng.random((6, 6, 6)) * 10, (1, 1, 1))
        roi = full_roi(vol)
        prev = None
        for pct in (0.2, 0.4, 0.6, 0.8):
            mask = threshold_pct_suvmax(vol, roi, pct)
            if prev is not None:
                assert (mask.bits <= prev).all()  # raising pct never grows the mask
            prev = mask.bits

    def test_negative_roi_max_still_keeps_argmax(self):
        # z-scored inputs can make the ROI max negative
        vol = line_volume([-5.0, -3.0, -1.0])
        mask = threshold_pct_suvmax(vol, full_roi(vol), 0.5)
        assert not mask.is_empty
        assert vol.values[mask.bits].max() == -1.0

    def test_scale_invariance(self, rng):
        base = rng.random((5, 5, 5)) * 4 + 0.5
        roi_bits = np.ones((5, 5, 5), bool)
        for c in (0.25, 3.0, 117.0):
            m1 = threshold_pct_suvmax(Volume3D(base, (1, 1, 1)), BinaryMask(roi_bits, (1, 1, 1)), 0.6)
            m2 = threshold_pct_suvmax(
                Volume3D(base * c, (1, 1, 1)), BinaryMask(roi_bits, (1, 1, 1)), 0.6
            )
            np.testing.assert_array_equal(m1.bits, m2.bits)


class TestContrastIterative:
    def test_plateau_fixed_point(self):
        vol, inside = sphere_phantom(background=1.0, peak=10.0)
        roi = BinaryMask(inside, vol.spacing)  # operator box around the lesion
        result = threshold_contrast_iterative(vol, roi, a=0.39, b=1.0, tol=1e-6)
        # mean of voxels >= 7.0 is the plateau itself, background shell reads 1.0
        assert result.converged
        assert result.threshold == pytest.approx(0.39 * 10.0 + 1.0 * 1.0, abs=1e-9)
        np.testing.assert_array_equal(result.mask.bits, inside)

    def test_fixed_point_verified_by_substitution(self):
        vol, inside = sphere_phantom(background=0.5, peak=8.0)
        roi = BinaryMask(inside, vol.spacing)
        res = threshold_contrast_iterative(vol, roi, a=0.5, b=1.0, tol=1e-9)
        roi_values = vol.values[roi.bits]
        core = roi_values[roi_values >= max(res.threshold, 0.7 * roi_values.max())]
        bg = background_estimate(vol, roi)
        assert res.threshold == pytest.approx(0.5 * core.mean() + 1.0 * bg, abs=1e-6)

    def test_zero_background_hand_value(self):
        vol, inside = sphere_phantom(background=0.0, peak=8.0)
        roi = BinaryMask(inside, vol.spacing)
        res = threshold_contrast_iterative(vol, roi, a=0.5, b=1.0, tol=1e-9)
        assert res.threshold == pytest.approx(4.0, abs=1e-12)

    def test_huge_tol_stops_after_one_iteration(self):
        vol, inside = sphere_phantom()
        roi = BinaryMask(inside, vol.spacing)
        res = threshold_contrast_iterative(vol, roi, tol=1e9)
        assert res.iterations == 1
        assert res.converged

    def test_max_iter_flags_nonconvergence(self):
        vol, inside = sphere_phantom()
        roi = BinaryMask(inside, vol.spacing)
        res = threshold_contrast_iterative(vol, roi, tol=0.0, max_iter=2)
        assert not res.converged
        assert res.iterations == 2

    def test_parameter_validation(self):
        vol, inside = sphere_phantom()
        roi = BinaryMask(inside, vol.spacing)
        with pytest.raises(ParameterError):
            threshold_contrast_iterative(vol, roi, a=1.5)
        with pytest.raises(ParameterError):
            threshold_contrast_iterative(vol, roi, b=-1.0)
        with pytest.raises(EmptyRegionError):
            threshold_contrast_iterative(vol, BinaryMask(np.zeros(vol.dims, bool), vol.spacing))

    def test_selecting_nothing_gives_empty_mask(self):
        # a bright surround lifts the threshold above every ROI voxel
        values = np.full((9, 9, 9), 100.0)
        values[3:6, 3:6, 3:6] = 1.0
        roi = np.zeros(values.shape, bool)
        roi[3:6, 3:6, 3:6] = True
        res = threshold_contrast_iterative(Volume3D(values, (1, 1, 1)), BinaryMask(roi, (1, 1, 1)))
        assert res.threshold > 1.0
        assert res.mask.is_empty and res.mask.dims == (9, 9, 9)

    def test_roi_filling_the_grid_has_no_background(self):
        vol, _ = sphere_phantom(dims=(4, 5, 6))
        assert background_estimate(vol, full_roi(vol)) == 0.0

    def test_keeps_component_with_roi_max(self):
        values = np.full((9, 3, 3), 1.0)
        values[1, 1, 1] = 10.0  # secondary blob
        values[7, 1, 1] = 12.0  # true lesion: the ROI max lives here
        vol = Volume3D(values, (1, 1, 1))
        roi = BinaryMask(np.ones(vol.dims, bool), vol.spacing)
        res = threshold_contrast_iterative(vol, roi, a=0.5, b=0.0, tol=1e-9)
        selected = np.argwhere(res.mask.bits)
        assert (7, 1, 1) in {tuple(v) for v in selected}
        assert (1, 1, 1) not in {tuple(v) for v in selected}


class TestPostprocess:
    def test_keeps_largest_and_fills(self):
        bits = np.zeros((10, 5, 5), bool)
        bits[0:3, 0:3, 0:3] = True  # 27-voxel blob
        bits[1, 1, 1] = False  # with a hole
        bits[8, 4, 4] = True  # 1-voxel speck
        out = postprocess(BinaryMask(bits, (1, 1, 1)))
        assert out.voxel_count == 27
        assert out.bits[1, 1, 1]
        assert not out.bits[8, 4, 4]

    def test_single_component_idempotent(self):
        bits = np.zeros((5, 5, 5), bool)
        bits[1:4, 1:4, 1:4] = True
        mask = BinaryMask(bits, (1, 1, 1))
        out = postprocess(mask)
        np.testing.assert_array_equal(out.bits, mask.bits)
        np.testing.assert_array_equal(postprocess(out).bits, out.bits)

    def test_empty_in_empty_out(self):
        mask = BinaryMask(np.zeros((3, 4, 5), bool), (1, 1, 1))
        out = postprocess(mask)
        assert out.is_empty and out.dims == (3, 4, 5)

    def test_output_single_component_no_holes(self, rng):
        for _ in range(20):
            bits = rng.random((7, 7, 7)) < 0.35
            out = postprocess(BinaryMask(bits, (1, 1, 1)))
            if out.is_empty:
                continue
            assert len(bfs_components(out.bits, 26)) == 1
            np.testing.assert_array_equal(fill_holes(out).bits, out.bits)
