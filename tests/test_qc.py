import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petquant import (
    BinaryMask,
    BiomarkerSet,
    DegenerateInputError,
    EmptyRegionError,
    ParameterError,
    QcRecord,
    Quadrant,
    REFERENCE_RATIO_THRESHOLD,
    ThresholdDerivation,
    check_pair,
    derive_threshold,
    fixed_threshold,
    select_extreme_outliers,
)

from conftest import mask_from_coords


def bio(mtv):
    return BiomarkerSet(10.0, 5.0, mtv, 5.0 * mtv, int(mtv / 0.064) or 1)


def block_mask(n_voxels, dims=(20, 20, 4), corner=(2, 2, 0)):
    """n_voxels foreground voxels in a compact block near `corner`."""
    coords = []
    x0, y0, z0 = corner
    side = max(1, int(round(n_voxels ** (1 / 3))) + 1)
    for i in range(n_voxels):
        coords.append((x0 + i % side, y0 + (i // side) % side, z0 + i // (side * side)))
    return mask_from_coords(coords, dims, spacing=(4.0, 4.0, 4.0))


class TestDeriveThreshold:
    def test_reciprocal_of_mean(self):
        thr = derive_threshold([0.25, 0.25, 0.25, 0.25])
        assert thr.value == 4.0
        assert thr.derivation is ThresholdDerivation.RECIPROCAL_MEAN_RATIO

    def test_single_ratio(self):
        assert derive_threshold([1.0]).value == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            derive_threshold([])

    def test_zero_mean_rejected(self):
        with pytest.raises(DegenerateInputError):
            derive_threshold([0.0, 0.0])

    def test_negative_or_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            derive_threshold([0.5, -0.1])
        with pytest.raises(ParameterError):
            derive_threshold([0.5, math.inf])

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_relation(self, c):
        ratios = [0.1, 0.2, 0.4, 0.8]
        base = derive_threshold(ratios).value
        scaled = derive_threshold([c * r for r in ratios]).value
        assert scaled == pytest.approx(base / c, rel=1e-12)

    def test_reference_constant(self):
        assert REFERENCE_RATIO_THRESHOLD == 7.11
        assert fixed_threshold().value == 7.11
        assert fixed_threshold().derivation is ThresholdDerivation.FIXED


class TestCheckPair:
    def test_validated_six_fifths(self):
        rec = check_pair(
            block_mask(5), block_mask(6), bio(5 * 0.064), bio(6 * 0.064), fixed_threshold(), "p1"
        )
        assert rec.quadrant_ok and rec.ratio_ok and rec.validated
        assert rec.mtv_ratio == pytest.approx(1.2)
        assert rec.outlier_score == 0.0

    def test_invalidated_ratio_27_to_1(self):
        rec = check_pair(
            block_mask(1), block_mask(27), bio(1 * 0.064), bio(27 * 0.064), fixed_threshold(), "p2"
        )
        assert rec.quadrant_ok
        assert not rec.ratio_ok
        assert not rec.validated
        assert rec.mtv_ratio == pytest.approx(27.0)
        assert rec.outlier_score == pytest.approx(27.0 - 7.11)

    def test_invalidated_quadrant(self):
        bl = mask_from_coords([(2, 2, 0)], (20, 20, 4), spacing=(4, 4, 4))
        fu = mask_from_coords([(15, 15, 0)], (20, 20, 4), spacing=(4, 4, 4))
        rec = check_pair(bl, fu, bio(1.0), bio(1.0), fixed_threshold(), "p3")
        assert not rec.quadrant_ok
        assert rec.ratio_ok  # ratio 1.0 passes
        assert not rec.validated

    def test_threshold_equality_passes(self):
        rec = check_pair(
            block_mask(2), block_mask(2), bio(1.0), bio(7.11), fixed_threshold(), "p4"
        )
        assert rec.ratio_ok  # exceeding is strict

    def test_zero_baseline_mtv_reason_code(self):
        rec = check_pair(
            block_mask(2), block_mask(2), bio(0.0), bio(1.0), fixed_threshold(), "p5"
        )
        assert not rec.ratio_ok
        assert math.isinf(rec.mtv_ratio) and math.isinf(rec.outlier_score)

    def test_empty_mask_rejected(self):
        empty = BinaryMask(np.zeros((4, 4, 4), bool), (4, 4, 4))
        with pytest.raises(EmptyRegionError):
            check_pair(empty, block_mask(2), bio(1.0), bio(1.0), fixed_threshold())

    def test_differing_dims_regridded(self):
        bl = mask_from_coords([(2, 2, 0)], (20, 20, 4), spacing=(4, 4, 4))
        fu = mask_from_coords([(5, 5, 1)], (40, 40, 8), spacing=(2, 2, 2))
        rec = check_pair(bl, fu, bio(1.0), bio(1.0), fixed_threshold(), "p6")
        assert rec.quadrant_ok  # both low/low after regridding

    def test_deterministic(self):
        args = (block_mask(5), block_mask(6), bio(0.32), bio(0.384), fixed_threshold(), "p7")
        assert check_pair(*args) == check_pair(*args)


class TestSelectExtreme:
    def make(self, pid, score):
        return QcRecord(pid, Quadrant.Q1, Quadrant.Q1, 1.0, True, score == 0.0, score)

    def test_top_k_by_score(self):
        records = [
            self.make("a", 0.0),
            self.make("b", 2.5),
            self.make("c", 9.1),
            self.make("d", 0.3),
        ]
        assert select_extreme_outliers(records, 2) == ["c", "b"]

    def test_no_outliers_empty(self):
        records = [self.make(str(i), 0.0) for i in range(10)]
        assert select_extreme_outliers(records, 15) == []

    def test_k_zero(self):
        assert select_extreme_outliers([self.make("a", 5.0)], 0) == []

    def test_fewer_outliers_than_k(self):
        records = [self.make("a", 1.0), self.make("b", 0.0)]
        assert select_extreme_outliers(records, 15) == ["a"]

    def test_negative_k_rejected(self):
        with pytest.raises(ParameterError):
            select_extreme_outliers([], -1)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=5.0).map(lambda v: round(v, 1)), max_size=30),
        st.integers(0, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_full_sort_oracle(self, scores, k):
        records = [self.make(f"p{i:03d}", s) for i, s in enumerate(scores)]
        got = select_extreme_outliers(records, k)
        flagged = [(s, f"p{i:03d}") for i, s in enumerate(scores) if s > 0.0]
        want = [pid for s, pid in sorted(flagged, key=lambda t: (-t[0], t[1]))[:k]]
        assert got == want

    def test_flag_consistency(self, rng):
        thr = fixed_threshold(2.0)
        for _ in range(50):
            mtv_bl, mtv_fu = rng.random(2) * 5 + 0.01
            rec = check_pair(block_mask(3), block_mask(4), bio(mtv_bl), bio(mtv_fu), thr)
            assert rec.ratio_ok == (rec.mtv_ratio <= thr.value)
            assert (rec.outlier_score > 0) == (not rec.ratio_ok)
            assert rec.outlier_score == max(0.0, rec.mtv_ratio - thr.value)
