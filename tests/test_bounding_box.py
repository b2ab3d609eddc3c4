"""The mask primitives that work on the foreground's bounding box, checked
against the naive full-grid oracles in conftest.

`segment.postprocess`, `background_estimate`, `threshold_contrast_iterative`,
`centroid`, `boundary_voxels` and `extract` crop to the foreground's box
(plus a margin) and paste full-grid results back. Blobs here land anywhere
in grids up to 40³: flush with faces and corners, several components, and
hollow shells whose cavity reaches the outside only through one opening.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst
from scipy import ndimage

from petquant import (
    BinaryMask,
    IntensityUnit,
    Volume3D,
    boundary_voxels,
    centroid,
    connected_components,
    extract,
    fill_holes,
    largest_component,
    postprocess,
    threshold_contrast_iterative,
    threshold_pct_suvmax,
)
from petquant.mask import bounding_box
from petquant.segment import BACKGROUND_SHELL_GAP, background_estimate

from conftest import (
    bfs_components,
    brute_force_boundary,
    flood_fill_holes,
    full_grid_seed_component,
    full_grid_shell_mean,
)

SPACING = (4.0, 4.0, 4.0)


@st.composite
def scenes(draw, max_side=40):
    """A grid of up to max_side³ holding 0–3 blobs: random small blocks or
    hollow cubes (some with one opening), each flush low, flush high or
    anywhere on each axis."""
    dims = tuple(draw(st.integers(3, max_side)) for _ in range(3))
    bits = np.zeros(dims, dtype=bool)
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            side = draw(st.integers(3, min(6, *dims)))
            blob = np.ones((side,) * 3, dtype=bool)
            blob[1:-1, 1:-1, 1:-1] = False
            if draw(st.booleans()):
                opening = [side // 2] * 3
                opening[draw(st.integers(0, 2))] = draw(st.sampled_from([0, side - 1]))
                blob[tuple(opening)] = False
        else:
            shape = tuple(draw(st.integers(1, min(6, d))) for d in dims)
            blob = draw(npst.arrays(np.bool_, shape))
        box = []
        for d, s in zip(dims, blob.shape):
            place = draw(st.sampled_from(["low", "high", "any"]))
            start = {"low": 0, "high": d - s}.get(place)
            if start is None:
                start = draw(st.integers(0, d - s))
            box.append(slice(start, start + s))
        bits[tuple(box)] |= blob
    return bits


def as_mask(bits):
    return BinaryMask(bits, SPACING)


def noisy_volume(bits, seed, coarse=False):
    """SUV noise plus 6 on the blobs; `coarse` rounds to whole SUVs, so the
    maximum ties across voxels and components."""
    rng = np.random.default_rng(seed)
    values = rng.normal(1.0, 0.5, bits.shape) + 6.0 * bits
    return Volume3D(np.round(values) if coarse else values, SPACING, IntensityUnit.SUV)


class TestAgainstOracles:
    @given(scenes())
    @settings(max_examples=40, deadline=None)
    def test_postprocess(self, bits):
        comps = bfs_components(bits, 26)
        want = np.zeros_like(bits)
        if comps:
            for voxel in comps[0]:
                want[voxel] = True
            want = flood_fill_holes(want)
        np.testing.assert_array_equal(postprocess(as_mask(bits)).bits, want)

    @given(scenes(max_side=24), st.sampled_from([6, 26]))
    @settings(max_examples=30, deadline=None)
    def test_component_order(self, bits, connectivity):
        mask = as_mask(bits)
        oracle = bfs_components(bits, connectivity)
        got = [{tuple(v) for v in np.argwhere(c.bits)} for c in connected_components(mask, connectivity)]
        assert got == oracle
        head = {tuple(v) for v in np.argwhere(largest_component(mask, connectivity).bits)}
        assert head == (oracle[0] if oracle else set())

    @given(scenes())
    @settings(max_examples=30, deadline=None)
    def test_fill_holes(self, bits):
        np.testing.assert_array_equal(fill_holes(as_mask(bits)).bits, flood_fill_holes(bits))

    @given(scenes())
    @settings(max_examples=40, deadline=None)
    def test_boundary_voxels(self, bits):
        got = boundary_voxels(as_mask(bits))
        assert [tuple(v) for v in got] == sorted(brute_force_boundary(bits))

    @given(scenes().filter(lambda b: b.any()))
    @settings(max_examples=40, deadline=None)
    def test_centroid(self, bits):
        want = np.argwhere(bits).mean(axis=0)
        assert centroid(as_mask(bits)).position == tuple(float(c) for c in want)

    @given(scenes(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_background_estimate(self, bits, seed):
        vol = noisy_volume(bits, seed)
        want = full_grid_shell_mean(vol.values, bits, BACKGROUND_SHELL_GAP)
        assert background_estimate(vol, as_mask(bits)) == want

    @given(scenes().filter(lambda b: b.any()), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_contrast_seed_component(self, bits, seed, coarse):
        # the blobs are the ROI; the noise makes several components cross the threshold
        vol = noisy_volume(bits, seed, coarse)
        result = threshold_contrast_iterative(vol, as_mask(bits))
        want = full_grid_seed_component(vol.values, bits, result.threshold)
        np.testing.assert_array_equal(result.mask.bits, want)

    @given(scenes(), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_extract(self, bits, seed):
        vol = noisy_volume(bits, seed)
        got = extract(vol, as_mask(bits))
        if bits.any():
            inside = vol.values[bits]
            assert (got.suv_max, got.suv_mean, got.voxel_count) == (
                float(inside.max()),
                float(inside.mean()),
                int(bits.sum()),
            )
        else:
            assert got.voxel_count == 0 and got.warnings


class TestBoundingBox:
    def test_margin_clipped_at_faces(self):
        bits = np.zeros((5, 6, 7), dtype=bool)
        bits[0, 2, 6] = True
        bits[1, 3, 6] = True
        assert bounding_box(bits, 1) == (slice(0, 3), slice(1, 5), slice(5, 7))
        assert bounding_box(bits) == (slice(0, 2), slice(2, 4), slice(6, 7))

    def test_empty_is_none(self):
        assert bounding_box(np.zeros((3, 3, 3), dtype=bool), 2) is None


class TestWorkStaysOnTheBox:
    """Labeling and dilation see the lesion or ROI box plus its margin, never
    the 144×144×66 grid."""

    DIMS = (144, 144, 66)

    @pytest.fixture
    def lesion(self):
        # the 280 voxel centers nearest the grid center: the reference lesion
        axes = [(np.arange(n) - n // 2) ** 2 for n in self.DIMS]
        d2 = axes[0][:, None, None] + axes[1][None, :, None] + axes[2][None, None, :]
        bits = np.zeros(self.DIMS, dtype=bool)
        bits.ravel()[np.argsort(d2.ravel(), kind="stable")[:280]] = True
        return bits

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        for name in ("label", "binary_dilation"):
            real = getattr(ndimage, name)

            def spy(arr, *args, _real=real, _name=name, **kwargs):
                seen.append((_name, np.asarray(arr).shape))
                return _real(arr, *args, **kwargs)

            # petquant.mask and petquant.segment both reach these via `scipy.ndimage`
            monkeypatch.setattr(ndimage, name, spy)
        return seen

    @staticmethod
    def box_shape(bits, margin):
        return tuple(sl.stop - sl.start for sl in bounding_box(bits, margin))

    def test_pct_suvmax_with_postprocess(self, lesion, calls):
        vol = Volume3D(1.0 + 9.0 * lesion, SPACING, IntensityUnit.SUV)
        roi = as_mask(np.ones(self.DIMS, dtype=bool))
        out = postprocess(threshold_pct_suvmax(vol, roi, 0.5))
        np.testing.assert_array_equal(out.bits, lesion)
        lesion_box = self.box_shape(lesion, 1)
        assert calls and all(shape == lesion_box for _, shape in calls), (lesion_box, calls)

    def test_contrast_with_postprocess(self, lesion, calls):
        vol = Volume3D(1.0 + 9.0 * lesion, SPACING, IntensityUnit.SUV)
        roi = np.zeros(self.DIMS, dtype=bool)
        roi[52:92, 52:92, 13:53] = True
        out = postprocess(threshold_contrast_iterative(vol, as_mask(roi)).mask)
        np.testing.assert_array_equal(out.bits, lesion)
        limit = int(np.prod(self.box_shape(roi, BACKGROUND_SHELL_GAP)))
        assert calls and all(np.prod(shape) <= limit for _, shape in calls), (limit, calls)
        # the post-processing calls come last and see only the lesion box
        assert calls[-2:] == [("label", self.box_shape(lesion, 1))] * 2
