import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as npst

from petquant import (
    BinaryMask,
    EmptyRegionError,
    GeometryMismatchError,
    dice,
    hausdorff_mm,
    iou,
    overlap_counts,
    sensitivity,
)

from conftest import brute_force_hausdorff, mask_from_coords, translate

bits_4 = npst.arrays(np.bool_, (4, 4, 4))
bits_6 = npst.arrays(np.bool_, (6, 6, 6))


def as_mask(bits, spacing=(1.0, 1.0, 1.0)):
    return BinaryMask(bits, spacing)


class TestOverlapMetrics:
    def test_identical(self):
        a = mask_from_coords([(0, 0, 0), (1, 1, 1)], (3, 3, 3))
        assert dice(a, a) == 1.0
        assert iou(a, a) == 1.0
        assert sensitivity(a, a) == 1.0

    def test_disjoint(self):
        a = mask_from_coords([(0, 0, 0)], (3, 3, 3))
        b = mask_from_coords([(2, 2, 2)], (3, 3, 3))
        assert dice(a, b) == 0.0
        assert iou(a, b) == 0.0
        assert sensitivity(a, b) == 0.0

    def test_hand_counts(self):
        # |A| = |B| = 4 with overlap 2
        a = mask_from_coords([(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)], (2, 2, 2))
        b = mask_from_coords([(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)], (2, 2, 2))
        assert overlap_counts(a, b) == (4, 4, 2)
        assert dice(a, b) == 0.5
        assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_sensitivity_hand_count(self):
        gt = mask_from_coords([(x, y, 0) for x in range(5) for y in range(2)], (5, 2, 1))
        pred = mask_from_coords([(x, y, 0) for x in range(5) for y in range(2)][:7], (5, 2, 1))
        assert sensitivity(gt, pred) == 0.7

    def test_both_empty_convention(self):
        a = as_mask(np.zeros((2, 2, 2), bool))
        assert overlap_counts(a, a) == (0, 0, 0)
        assert dice(a, a) == 1.0
        assert iou(a, a) == 1.0

    def test_empty_gt_rejected(self):
        a = as_mask(np.zeros((2, 2, 2), bool))
        b = mask_from_coords([(0, 0, 0)], (2, 2, 2))
        with pytest.raises(EmptyRegionError):
            sensitivity(a, b)

    def test_geometry_mismatch(self):
        a = as_mask(np.zeros((2, 2, 2), bool))
        b = as_mask(np.zeros((2, 2, 3), bool))
        with pytest.raises(GeometryMismatchError):
            dice(a, b)
        c = BinaryMask(np.zeros((2, 2, 2), bool), (1, 1, 2))
        with pytest.raises(GeometryMismatchError):
            hausdorff_mm(a, c)

    @given(bits_4, bits_4)
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_iou_identity(self, x, y):
        a, b = as_mask(x), as_mask(y)
        d = dice(a, b)
        j = iou(a, b)
        assert d == dice(b, a)
        assert j == iou(b, a)
        assert abs(j - d / (2.0 - d)) < 1e-12


class TestHausdorff:
    def test_identical_zero(self):
        a = mask_from_coords([(0, 0, 0), (1, 1, 1)], (3, 3, 3), spacing=(4, 4, 4))
        assert hausdorff_mm(a, a) == 0.0

    def test_axial_shift_in_mm(self):
        a = mask_from_coords([(0, 0, 0)], (4, 4, 4), spacing=(4, 4, 4))
        b = mask_from_coords([(0, 0, 3)], (4, 4, 4), spacing=(4, 4, 4))
        assert hausdorff_mm(a, b) == 12.0

    def test_unit_shift_along_x(self, rng):
        bits = np.zeros((6, 4, 4), bool)
        bits[1:3, 1:3, 1:3] = True
        a = BinaryMask(bits, (2.5, 1.0, 1.0))
        b = translate(a, (1, 0, 0))
        assert hausdorff_mm(a, b) == 2.5

    def test_large_boundaries_in_bounded_blocks(self):
        # balls of 968 boundary voxels each: the distance blocks stay near
        # 1 MB, where (512, 968) float64 blocks were 4 MB, seven at a time
        g = np.indices((32, 32, 32)) - 15.5
        a = BinaryMask((g * g).sum(axis=0) <= 100, (1.5, 1.0, 2.0))
        b = translate(a, (3, 0, 0))
        tracemalloc.start()
        try:
            got = hausdorff_mm(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 4.5  # a shift by 3 voxels of 1.5 mm: the ball's x extremes
        assert peak < 4 << 20

    def test_empty_rejected(self):
        a = as_mask(np.zeros((2, 2, 2), bool))
        b = mask_from_coords([(0, 0, 0)], (2, 2, 2))
        with pytest.raises(EmptyRegionError):
            hausdorff_mm(a, b)

    @given(
        bits_6.filter(lambda b: b.any()),
        bits_6.filter(lambda b: b.any()),
    )
    @settings(max_examples=60, deadline=None)
    def test_brute_force_oracle_exact(self, x, y):
        spacing = (4.0, 4.0, 4.0)
        got = hausdorff_mm(as_mask(x, spacing), as_mask(y, spacing))
        want = brute_force_hausdorff(x, y, spacing)
        assert got == want  # exact, not approximate

    def test_triangle_bound(self, rng):
        spacing = (1.5, 2.0, 1.0)
        for _ in range(25):
            ms = []
            while len(ms) < 3:
                bits = rng.random((5, 5, 5)) < 0.25
                if bits.any():
                    ms.append(as_mask(bits, spacing))
            a, b, c = ms
            hab = brute_force_hausdorff(a.bits, b.bits, spacing)
            hbc = brute_force_hausdorff(b.bits, c.bits, spacing)
            hac = brute_force_hausdorff(a.bits, c.bits, spacing)
            assert hac <= hab + hbc + 1e-9
