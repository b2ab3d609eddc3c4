import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petquant import (
    AcquisitionInfo,
    BinaryMask,
    BiomarkerSet,
    GeometryMismatchError,
    IntensityUnit,
    IntensityUnitError,
    Volume3D,
    VolumeDataError,
    delta,
    extract,
)



def suv_volume(values, spacing=(4.0, 4.0, 4.0)):
    return Volume3D(np.asarray(values, dtype=float), spacing, IntensityUnit.SUV)


class TestExtract:
    def test_mtv_from_100_voxels_at_4mm(self):
        values = np.zeros((10, 10, 2))
        bits = np.zeros((10, 10, 2), bool)
        bits[:, :, 0] = True  # 100 voxels
        vol = suv_volume(values + 1.0)
        bio = extract(vol, BinaryMask(bits, vol.spacing))
        assert bio.voxel_count == 100
        assert bio.mtv_cm3 == pytest.approx(6.4, abs=0)  # 100 · 0.064 exactly

    def test_hand_values(self):
        values = np.zeros((3, 1, 1))
        values[:, 0, 0] = [2.0, 4.0, 6.0]
        vol = suv_volume(values)
        bio = extract(vol, BinaryMask(np.ones(vol.dims, bool), vol.spacing))
        assert bio.suv_max == 6.0
        assert bio.suv_mean == 4.0
        assert bio.mtv_cm3 == pytest.approx(3 * 0.064)
        assert bio.tlg == pytest.approx(0.768)

    def test_empty_mask_flagged_not_raised(self):
        vol = suv_volume(np.ones((2, 2, 2)))
        bio = extract(vol, BinaryMask(np.zeros(vol.dims, bool), vol.spacing))
        assert bio.voxel_count == 0
        assert bio.suv_max == bio.suv_mean == bio.mtv_cm3 == bio.tlg == 0.0
        assert bio.warnings == ("empty mask: biomarkers set to zero",)

    def test_wrong_unit_rejected(self):
        vol = Volume3D(np.ones((2, 2, 2)), (4, 4, 4), IntensityUnit.ACTIVITY_KBQ_PER_ML)
        mask = BinaryMask(np.ones((2, 2, 2), bool), (4, 4, 4))
        with pytest.raises(IntensityUnitError):
            extract(vol, mask)
        # with acquisition info the input is activity concentration, not SUV
        with pytest.raises(IntensityUnitError, match="needs kBq/mL input"):
            extract(suv_volume(np.ones((2, 2, 2))), mask, AcquisitionInfo(180.0, 60.0))

    def test_scaled_value_overflow_rejected(self):
        # a finite activity times weight/dose can overflow, as to_suv's grid would
        vol = Volume3D(np.full((2, 2, 2), 1e10), (4, 4, 4), IntensityUnit.ACTIVITY_KBQ_PER_ML)
        mask = BinaryMask(np.ones((2, 2, 2), bool), (4, 4, 4))
        with pytest.raises(VolumeDataError, match="overflows"):
            extract(vol, mask, AcquisitionInfo(1e-300, 60.0))

    def test_geometry_mismatch_rejected(self):
        vol = suv_volume(np.ones((2, 2, 2)))
        with pytest.raises(GeometryMismatchError):
            extract(vol, BinaryMask(np.ones((2, 2, 3), bool), (4, 4, 4)))

    def test_mtv_monotone_in_mask(self, rng):
        vol = suv_volume(rng.random((5, 5, 5)))
        small_bits = rng.random((5, 5, 5)) < 0.3
        big_bits = small_bits | (rng.random((5, 5, 5)) < 0.3)
        small = extract(vol, BinaryMask(small_bits, vol.spacing))
        big = extract(vol, BinaryMask(big_bits, vol.spacing))
        assert small.mtv_cm3 <= big.mtv_cm3

    @given(st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_suv_linearity(self, c):
        rng = np.random.default_rng(3)
        base = rng.random((4, 4, 4)) + 0.5
        bits = rng.random((4, 4, 4)) < 0.5
        bits[0, 0, 0] = True
        mask = BinaryMask(bits, (4.0, 4.0, 4.0))
        b1 = extract(suv_volume(base), mask)
        b2 = extract(suv_volume(base * c), mask)
        assert b2.suv_max == pytest.approx(c * b1.suv_max, rel=1e-12)
        assert b2.suv_mean == pytest.approx(c * b1.suv_mean, rel=1e-12)
        assert b2.tlg == pytest.approx(c * b1.tlg, rel=1e-12)
        assert b2.mtv_cm3 == b1.mtv_cm3

    def test_tlg_single_source_of_truth(self, rng):
        vol = suv_volume(rng.random((4, 4, 4)) + 0.1)
        bits = rng.random((4, 4, 4)) < 0.5
        bits[1, 1, 1] = True
        bio = extract(vol, BinaryMask(bits, vol.spacing))
        assert bio.tlg == bio.suv_mean * bio.mtv_cm3  # computed exactly once


class TestDelta:
    def test_clinical_cohort_means(self):
        bl = BiomarkerSet(14.36, 8.0, 27.21, 40.69, 425)
        fu = BiomarkerSet(9.14, 6.0, 15.42, 21.46, 241)
        d = delta(bl, fu)
        assert d.d_suv_max == pytest.approx(-5.22, abs=1e-12)
        assert d.d_mtv_cm3 == pytest.approx(-11.79, abs=1e-12)
        assert d.d_tlg == pytest.approx(-19.23, abs=1e-12)
        assert d.mtv_ratio == pytest.approx(15.42 / 27.21, rel=1e-15)

    def test_identity(self):
        b = BiomarkerSet(5.0, 3.0, 10.0, 30.0, 100)
        d = delta(b, b)
        assert d.d_suv_max == d.d_mtv_cm3 == d.d_tlg == 0.0
        assert d.mtv_ratio == 1.0
        assert d.pct_d_suv_max == 0.0

    def test_zero_baselines_flagged(self):
        zero = BiomarkerSet(0.0, 0.0, 0.0, 0.0, 0)
        fu = BiomarkerSet(5.0, 3.0, 10.0, 30.0, 100)
        d = delta(zero, fu)
        assert d.pct_d_suv_max is None
        assert d.mtv_ratio is None
        assert len(d.warnings) == 2

    def test_antisymmetry(self, rng):
        for _ in range(20):
            v = rng.random(8) * 10 + 0.1
            a = BiomarkerSet(v[0], v[1], v[2], v[3], 10)
            b = BiomarkerSet(v[4], v[5], v[6], v[7], 20)
            ab, ba = delta(a, b), delta(b, a)
            assert ab.d_suv_max == -ba.d_suv_max
            assert ab.d_mtv_cm3 == -ba.d_mtv_cm3
            assert ab.d_tlg == -ba.d_tlg

    def test_pct_change_uses_baseline_denominator(self):
        bl = BiomarkerSet(10.0, 5.0, 8.0, 40.0, 125)
        fu = BiomarkerSet(4.0, 2.0, 8.0, 16.0, 125)
        assert delta(bl, fu).pct_d_suv_max == pytest.approx(-60.0)
