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

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, c):
        rng = np.random.default_rng(0)
        base = rng.random((3, 3, 3)) + 0.1
        acq = AcquisitionInfo(180.0, 60.0)
        a = to_suv(make_vol(base * c, unit=IntensityUnit.ACTIVITY_KBQ_PER_ML), acq)
        b = to_suv(make_vol(base, unit=IntensityUnit.ACTIVITY_KBQ_PER_ML), acq)
        np.testing.assert_allclose(a.values, c * b.values, rtol=1e-12)

