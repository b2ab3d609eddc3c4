"""The mask primitives that work on the foreground's bounding box, checked
against the naive full-grid oracles in conftest.

`segment.postprocess`, `background_estimate`, `threshold_contrast_iterative`,
`centroid`, `boundary_voxels` and `extract` crop to the foreground's box
(plus a margin) and paste full-grid results back. Blobs here land anywhere
in grids up to 40³: flush with faces and corners, several components, and
hollow shells whose cavity reaches the outside only through one opening.

Grids read from NIfTI files are F-contiguous (x fastest), grids built in
code mostly C-contiguous; every primitive gives the same result on C and F
copies of one grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst
from scipy import ndimage

from petquant import (
    AcquisitionInfo,
    BinaryMask,
    IntensityUnit,
    Volume3D,
    boundary_voxels,
    centroid,
    extract,
    fill_holes,
    hausdorff_mm,
    largest_component,
    overlap_counts,
    postprocess,
    threshold_contrast_iterative,
    threshold_pct_suvmax,
    to_suv,
)
from petquant.mask import _structure, bounding_box, grow_box
from petquant.nifti import encode_nifti
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


def layouts(bits):
    """C- and F-contiguous masks of one grid (BinaryMask keeps the layout)."""
    c, f = as_mask(np.ascontiguousarray(bits)), as_mask(np.asfortranarray(bits))
    assert c.bits.flags.c_contiguous and f.bits.flags.f_contiguous
    assert not f.bits.flags.c_contiguous  # every scene side is >= 3
    return c, f


def volume_layouts(bits, seed, unit=IntensityUnit.SUV, coarse=False):
    """C- and F-contiguous copies of one noisy volume over `bits`."""
    values = noisy_volume(bits, seed, coarse).values
    return tuple(
        Volume3D(order(values), SPACING, unit) for order in (np.ascontiguousarray, np.asfortranarray)
    )


class TestLayoutEquivalence:
    @given(scenes())
    @settings(max_examples=40, deadline=None)
    def test_bounding_box(self, bits):
        c, f = layouts(bits)
        assert bounding_box(c.bits) == bounding_box(f.bits)

    @given(scenes())
    @settings(max_examples=40, deadline=None)
    def test_postprocess(self, bits):
        c, f = layouts(bits)
        got_c, got_f = postprocess(c), postprocess(f)
        np.testing.assert_array_equal(got_c.bits, got_f.bits)
        if bits.any():  # pasted back in the layout of the mask it came from
            assert got_f.bits.flags.f_contiguous

    @given(scenes(max_side=24), st.sampled_from([6, 26]))
    @settings(max_examples=30, deadline=None)
    def test_label_numbering(self, bits, connectivity):
        # largest_component breaks ties on the label number, so both layouts number alike
        c, f = layouts(bits)
        labeled_c, labeled_f = (
            ndimage.label(m.bits, structure=_structure(connectivity))[0] for m in (c, f)
        )
        np.testing.assert_array_equal(labeled_c, labeled_f)
        np.testing.assert_array_equal(
            largest_component(c, connectivity).bits, largest_component(f, connectivity).bits
        )

    @given(scenes())
    @settings(max_examples=40, deadline=None)
    def test_centroid_and_boundary(self, bits):
        c, f = layouts(bits)
        np.testing.assert_array_equal(boundary_voxels(c), boundary_voxels(f))
        if bits.any():
            assert centroid(c) == centroid(f)

    @given(scenes(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_background_estimate(self, bits, seed):
        (vol_c, vol_f), (c, f) = volume_layouts(bits, seed), layouts(bits)
        assert background_estimate(vol_c, c) == background_estimate(vol_f, f)

    @given(scenes().filter(lambda b: b.any()), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_contrast_seed_component(self, bits, seed, coarse):
        (vol_c, vol_f), (c, f) = volume_layouts(bits, seed, coarse=coarse), layouts(bits)
        got_c = threshold_contrast_iterative(vol_c, c)
        got_f = threshold_contrast_iterative(vol_f, f)
        np.testing.assert_array_equal(got_c.mask.bits, got_f.mask.bits)
        assert (got_c.threshold, got_c.iterations) == (got_f.threshold, got_f.iterations)
        pct_c, pct_f = threshold_pct_suvmax(vol_c, c, 0.5), threshold_pct_suvmax(vol_f, f, 0.5)
        np.testing.assert_array_equal(pct_c.bits, pct_f.bits)

    @given(scenes(), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_extract_with_and_without_a_scale(self, bits, seed):
        acq = AcquisitionInfo(173.0, 71.5)
        act_c, act_f = volume_layouts(bits, seed, IntensityUnit.ACTIVITY_KBQ_PER_ML)
        suv_c, suv_f = volume_layouts(bits, seed)
        c, f = layouts(bits)
        want = extract(to_suv(act_c, acq), c)  # every voxel scaled, then extracted
        for vol, mask in ((act_c, c), (act_f, f)):
            assert extract(vol, mask, acq) == want
        assert extract(suv_c, c) == extract(suv_f, f)

    @given(scenes(), st.integers(-3, 3), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_overlap_counts_and_hausdorff(self, bits, shift, axis):
        a_c, a_f = layouts(bits)
        b_c, b_f = layouts(np.roll(bits, shift, axis))
        other = b_c.bits
        want = (int(bits.sum()), int(other.sum()), int((bits & other).sum()))
        for a, b in ((a_c, b_c), (a_f, b_f), (a_c, b_f), (a_f, b_c)):
            assert overlap_counts(a, b) == want
        if bits.any():
            assert hausdorff_mm(a_c, b_c) == hausdorff_mm(a_f, b_f)

    @given(scenes(max_side=12), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_encode_nifti(self, bits, seed):
        values = noisy_volume(bits, seed).values
        for grid, datatype in ((bits, 2), (values, 16)):
            c_bytes = encode_nifti(np.ascontiguousarray(grid), SPACING, datatype)
            assert encode_nifti(np.asfortranarray(grid), SPACING, datatype) == c_bytes


class TestBoundingBox:
    def test_margin_clipped_at_faces(self):
        bits = np.zeros((5, 6, 7), dtype=bool)
        bits[0, 2, 6] = True
        bits[1, 3, 6] = True
        box = bounding_box(bits)
        assert box == (slice(0, 2), slice(2, 4), slice(6, 7))
        assert grow_box(box, 1, bits.shape) == (slice(0, 3), slice(1, 5), slice(5, 7))

    def test_empty_is_none(self):
        assert bounding_box(np.zeros((3, 3, 3), dtype=bool)) is None


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
        return tuple(sl.stop - sl.start for sl in grow_box(bounding_box(bits), margin, bits.shape))

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
