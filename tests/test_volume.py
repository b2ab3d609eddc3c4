import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petquant import (
    AcquisitionInfo,
    IntensityUnit,
    IntensityUnitError,
    ParameterError,
    Volume3D,
    VolumeDataError,
    to_suv,
    volume,
)


def make_vol(values, spacing=(4.0, 4.0, 4.0), unit=IntensityUnit.ARBITRARY):
    return Volume3D(np.asarray(values, dtype=float), spacing, unit)


class TestVolume3D:
    def test_dims_and_voxel_volume(self):
        vol = make_vol(np.zeros((2, 3, 4)))
        assert vol.dims == (2, 3, 4)
        assert vol.voxel_volume_cm3 == pytest.approx(64.0 / 1000.0)

    def test_rejects_nonfinite_with_index(self):
        values = np.zeros((2, 2, 2))
        values[1, 0, 1] = np.nan
        with pytest.raises(VolumeDataError, match=r"\(1, 0, 1\)"):
            make_vol(values)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ParameterError):
            Volume3D(np.zeros((2, 2, 2)), (4.0, 0.0, 4.0))
        with pytest.raises(ParameterError):
            Volume3D(np.zeros((2, 2, 2)), (4.0, -1.0, 4.0))

    def test_rejects_non_3d(self):
        with pytest.raises(ParameterError):
            Volume3D(np.zeros((2, 2)), (4.0, 4.0, 4.0))

    def test_values_read_only_and_decoupled(self):
        src = np.zeros((2, 2, 2))
        vol = make_vol(src)
        src[0, 0, 0] = 99.0
        assert vol.values[0, 0, 0] == 0.0
        with pytest.raises(ValueError):
            vol.values[0, 0, 0] = 1.0


class TestCheckFinite:
    # 691,200 voxels: a whole-grid bool temporary alone is 0.66 MB
    DIMS = (72, 96, 100)

    @staticmethod
    def grid(layout):
        """A zero float32 grid and its outermost memory axis."""
        if layout == "box":  # a non-contiguous view, as Volume3D.widen takes
            big = np.zeros([n + 9 for n in TestCheckFinite.DIMS], dtype=np.float32, order="F")
            return big[4:-5, 2:-7, 8:-1], 2
        grid = np.zeros(TestCheckFinite.DIMS, dtype=np.float32, order=layout)
        return grid, "CF".index(layout) * 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "last", "edge_before", "edge_after", "both_edges"])
    @pytest.mark.parametrize("layout", ["C", "F", "box"])
    def test_first_bad_voxel_in_bounded_blocks(self, layout, where, bad):
        grid, axis = self.grid(layout)
        shape = grid.shape
        step = volume._FINITE_BLOCK // (grid.size // shape[axis])  # planes per block
        assert 1 < step < shape[axis]
        # either side of the first block edge: the plane before it at the far
        # corner, the plane after it at the near one; with both set, the C-first
        # lies in the second block unless the blocks run along x
        before = [n - 1 for n in shape]
        after = [0, 0, 0]
        before[axis], after[axis] = step - 1, step
        places = {
            "first": [(0, 0, 0)],
            "last": [tuple(n - 1 for n in shape)],
            "edge_before": [tuple(before)],
            "edge_after": [tuple(after)],
            "both_edges": [tuple(before), tuple(after)],
        }[where]
        for place in places:
            grid[place] = bad
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(grid))[0])  # the whole-grid answer
        tracemalloc.start()
        try:
            with pytest.raises(VolumeDataError) as err:
                volume.check_finite(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"non-finite voxel value at index {idx}"
        assert peak < 1 << 19

    @pytest.mark.parametrize("fill", [0.0, 3e38])
    @pytest.mark.parametrize("layout", ["C", "F", "box"])
    def test_finite_grid_passes_in_bounded_blocks(self, layout, fill):
        # 3e38 is finite in float32, but the grid's float32 sum overflows
        grid = self.grid(layout)[0]
        grid[...] = fill
        tracemalloc.start()
        try:
            volume.check_finite(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 19


class TestToSuv:
    def test_hand_value(self):
        # 5 kBq/mL at 3 MBq/kg dosing on a 60 kg patient
        vol = make_vol(np.full((1, 1, 1), 5.0), unit=IntensityUnit.ACTIVITY_KBQ_PER_ML)
        acq = AcquisitionInfo(180.0, 60.0)
        assert acq.suv_scale == 60.0 / 180.0  # weight_kg / dose_MBq
        out = to_suv(vol, acq)
        assert out.unit is IntensityUnit.SUV
        assert out.values[0, 0, 0] == pytest.approx(5.0 * 60.0 / 180.0, rel=1e-12)

    def test_zero_volume(self):
        vol = make_vol(np.zeros((2, 2, 2)), unit=IntensityUnit.ACTIVITY_KBQ_PER_ML)
        assert np.all(to_suv(vol, AcquisitionInfo(180.0, 60.0)).values == 0.0)

    def test_wrong_unit_rejected(self):
        vol = make_vol(np.ones((1, 1, 1)), unit=IntensityUnit.SUV)
        with pytest.raises(IntensityUnitError):
            to_suv(vol, AcquisitionInfo(180.0, 60.0))

    def test_bad_acquisition_rejected(self):
        with pytest.raises(ParameterError):
            AcquisitionInfo(0.0, 60.0)
        with pytest.raises(ParameterError):
            AcquisitionInfo(180.0, -3.0)

    @pytest.mark.parametrize(
        "dose, weight, scale", [(1e300, 1e-300, "0.0"), (1e-300, 1e300, "inf")]
    )
    def test_degenerate_suv_scale_rejected(self, dose, weight, scale):
        # each finite and > 0, but weight/dose underflows to 0 or overflows to inf
        with pytest.raises(ParameterError, match=f"SUV scale {scale}, needs a finite value > 0"):
            AcquisitionInfo(dose, weight)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, c):
        rng = np.random.default_rng(0)
        base = rng.random((3, 3, 3)) + 0.1
        acq = AcquisitionInfo(180.0, 60.0)
        a = to_suv(make_vol(base * c, unit=IntensityUnit.ACTIVITY_KBQ_PER_ML), acq)
        b = to_suv(make_vol(base, unit=IntensityUnit.ACTIVITY_KBQ_PER_ML), acq)
        np.testing.assert_allclose(a.values, c * b.values, rtol=1e-12)

