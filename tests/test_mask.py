import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst
from scipy import ndimage

from petquant import (
    BinaryMask,
    EmptyRegionError,
    Quadrant,
    boundary_voxels,
    centroid,
    fill_holes,
    largest_component,
    quadrant_of,
    regrid_nearest,
)
from petquant.mask import _structure, bounding_box

from conftest import (
    bfs_components,
    brute_force_boundary,
    flood_fill_holes,
    mask_from_coords,
    translate,
)

small_bits = npst.arrays(np.bool_, (4, 4, 4))


def connected_components(mask, connectivity=26):
    """The components of `mask`, largest first; ties go to the smallest label,
    which scipy gives the component met first in scan order."""
    labeled, _ = ndimage.label(mask.bits, structure=_structure(connectivity))
    order = np.argsort(-np.bincount(labeled.ravel())[1:], kind="stable") + 1
    return [BinaryMask(labeled == lab, mask.spacing) for lab in order]


class TestConnectedComponents:
    def test_two_singletons(self):
        mask = mask_from_coords([(0, 0, 0), (3, 3, 3)], (4, 4, 4))
        comps = connected_components(mask, 6)
        assert len(comps) == 2
        assert all(c.voxel_count == 1 for c in comps)

    def test_diagonal_adjacency(self):
        mask = mask_from_coords([(1, 1, 1), (2, 2, 2)], (4, 4, 4))
        assert len(connected_components(mask, 6)) == 2
        assert len(connected_components(mask, 26)) == 1

    def test_full_mask_single_component(self):
        mask = BinaryMask(np.ones((3, 3, 3), bool), (1, 1, 1))
        comps = connected_components(mask)
        assert len(comps) == 1
        np.testing.assert_array_equal(comps[0].bits, mask.bits)

    def test_empty_mask(self):
        assert connected_components(BinaryMask(np.zeros((2, 2, 2), bool), (1, 1, 1))) == []

    @given(small_bits, st.sampled_from([6, 26]))
    @settings(max_examples=60, deadline=None)
    def test_partition_matches_bfs_oracle(self, bits, connectivity):
        mask = BinaryMask(bits, (1.0, 1.0, 1.0))
        comps = connected_components(mask, connectivity)
        oracle = bfs_components(bits, connectivity)
        assert len(comps) == len(oracle)
        union = np.zeros_like(bits)
        for got, want in zip(comps, oracle):
            got_set = {tuple(c) for c in np.argwhere(got.bits)}
            assert got_set == want
            assert not (union & got.bits).any()  # pairwise disjoint
            union |= got.bits
        np.testing.assert_array_equal(union, bits)

    def test_largest_component_matches_head(self, rng):
        bits = rng.random((6, 6, 6)) < 0.3
        mask = BinaryMask(bits, (1, 1, 1))
        comps = connected_components(mask)
        if comps:
            np.testing.assert_array_equal(largest_component(mask).bits, comps[0].bits)


class TestCentroid:
    def test_singleton(self):
        mask = mask_from_coords([(10, 20, 5)], (32, 32, 8))
        assert centroid(mask).position == (10.0, 20.0, 5.0)

    def test_symmetric_pair(self):
        mask = mask_from_coords([(0, 0, 0), (2, 0, 0)], (4, 4, 4))
        assert centroid(mask).position == (1.0, 0.0, 0.0)

    def test_quadrant_rule(self):
        mask = mask_from_coords([(100, 100, 30)], (144, 144, 66))
        assert centroid(mask).quadrant is Quadrant.Q3

    def test_quadrant_labels(self):
        dims = (10, 10, 2)
        assert quadrant_of(1, 1, dims) is Quadrant.Q1
        assert quadrant_of(8, 1, dims) is Quadrant.Q2
        assert quadrant_of(8, 8, dims) is Quadrant.Q3
        assert quadrant_of(1, 8, dims) is Quadrant.Q4
        # half-open split: the exact center counts high on both axes
        assert quadrant_of(5, 5, dims) is Quadrant.Q3

    def test_empty_rejected(self):
        with pytest.raises(EmptyRegionError):
            centroid(BinaryMask(np.zeros((2, 2, 2), bool), (1, 1, 1)))

    @given(
        small_bits.filter(lambda b: b.any()),
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    )
    @settings(max_examples=40, deadline=None)
    def test_translation_equivariance(self, bits, offset):
        mask = BinaryMask(np.pad(bits, (0, 3)), (1.0, 1.0, 1.0))
        moved = translate(mask, offset)
        before = centroid(mask).position
        after = centroid(moved).position
        assert after == pytest.approx(tuple(b + o for b, o in zip(before, offset)))


class TestFillHoles:
    def test_hollow_cube_center_filled(self):
        bits = np.ones((3, 3, 3), bool)
        bits[1, 1, 1] = False
        filled = fill_holes(BinaryMask(bits, (1, 1, 1)))
        assert filled.bits[1, 1, 1]
        assert filled.voxel_count == 27

    def test_solid_unchanged(self):
        mask = BinaryMask(np.ones((3, 3, 3), bool), (1, 1, 1))
        np.testing.assert_array_equal(fill_holes(mask).bits, mask.bits)

    def test_empty_unchanged(self):
        mask = BinaryMask(np.zeros((3, 3, 3), bool), (1, 1, 1))
        assert fill_holes(mask).is_empty

    @given(small_bits)
    @settings(max_examples=60, deadline=None)
    def test_matches_flood_fill_oracle_and_idempotent(self, bits):
        mask = BinaryMask(bits, (1.0, 1.0, 1.0))
        filled = fill_holes(mask)
        np.testing.assert_array_equal(filled.bits, flood_fill_holes(bits))
        assert (filled.bits | bits == filled.bits).all()  # superset of input
        np.testing.assert_array_equal(fill_holes(filled).bits, filled.bits)


class TestBoundary:
    def test_singleton_is_its_own_boundary(self):
        mask = mask_from_coords([(1, 1, 1)], (3, 3, 3))
        assert {tuple(v) for v in boundary_voxels(mask)} == {(1, 1, 1)}

    def test_solid_cube_has_26_boundary_voxels(self):
        mask = BinaryMask(np.ones((3, 3, 3), bool), (1, 1, 1))
        coords = boundary_voxels(mask)
        assert len(coords) == 26
        assert (1, 1, 1) not in {tuple(v) for v in coords}

    def test_empty(self):
        got = boundary_voxels(BinaryMask(np.zeros((2, 2, 2), bool), (1, 1, 1)))
        assert got.shape == (0, 3)
        assert np.issubdtype(got.dtype, np.integer)

    @given(small_bits)
    @settings(max_examples=60, deadline=None)
    def test_matches_neighbor_enumeration_oracle(self, bits):
        mask = BinaryMask(bits, (1.0, 1.0, 1.0))
        got = {tuple(v) for v in boundary_voxels(mask)}
        assert got == brute_force_boundary(bits)
        assert got <= {tuple(v) for v in np.argwhere(bits)}


class TestBoundaryExtent:
    def test_removing_boundary_shrinks_solid_shape(self):
        bits = np.zeros((7, 7, 7), bool)
        bits[1:6, 1:6, 1:6] = True
        mask = BinaryMask(bits, (1, 1, 1))
        coords = boundary_voxels(mask)
        peeled = bits.copy()
        peeled[coords[:, 0], coords[:, 1], coords[:, 2]] = False
        assert peeled.sum() == 27  # 5^3 shrinks to the 3^3 core
        lo, hi = np.argwhere(peeled).min(axis=0), np.argwhere(peeled).max(axis=0)
        assert (lo > 1).all() and (hi < 5).all()


class TestRegrid:
    def test_identity(self):
        mask = mask_from_coords([(0, 1, 2)], (3, 3, 3), spacing=(2, 2, 2))
        assert regrid_nearest(mask, (3, 3, 3)) is mask

    def test_downsample_preserves_extent(self):
        bits = np.zeros((8, 8, 8), bool)
        bits[:4] = True
        out = regrid_nearest(BinaryMask(bits, (1, 1, 1)), (4, 4, 4))
        assert out.dims == (4, 4, 4)
        assert out.spacing == (2.0, 2.0, 2.0)
        assert out.voxel_count == 2 * 4 * 4


class TestCachedBox:
    @settings(max_examples=50, deadline=None)
    @given(bits=small_bits)
    def test_box_is_the_bounding_box_found_once(self, bits):
        mask = BinaryMask(bits, (1.0, 1.0, 1.0))
        assert mask.box == bounding_box(bits)
        assert mask.box is mask.box  # kept, not found again
        assert mask.is_empty == (not bits.any())

    def test_box_read_by_many_threads_at_once(self):
        # the first reads race to fill the cache; each must see the one box
        rng = np.random.default_rng(3)
        masks = [BinaryMask(rng.random((12, 10, 8)) < 0.01, (1.0, 1.0, 1.0)) for _ in range(40)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                boxes = list(pool.map(lambda i: masks[i // 8].box, range(8 * len(masks))))
        finally:
            sys.setswitchinterval(old)
        assert boxes == [bounding_box(m.bits) for m in masks for _ in range(8)]
