"""`segment` on volume files: the stored-dtype threshold and the ROI crop.

`threshold_pct_suvmax` on a file's stored grid (`volume.StoredVolume`) must
give the widen-then-compare mask (`conftest.naive_pct_threshold`) bit for
bit, and `segment` must write the masks that thresholding the whole widened
grid gives, while widening nothing, or only the ROI's box.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petquant import (
    BinaryMask,
    IntensityUnit,
    ResponseModel,
    VolumeDataError,
    generate_cohort,
    postprocess,
    read_mask,
    read_volume,
    threshold_contrast_iterative,
    threshold_pct_suvmax,
)
from petquant import cli, nifti, volume
from petquant.nifti import encode_nifti
from petquant.segment import BACKGROUND_SHELL_GAP, segment_stored
from petquant.volume import StoredVolume

from conftest import naive_pct_threshold

SPACING = (4.0, 4.0, 3.0)
_LIMITS = {"<f4": None, "<i2": np.iinfo(np.int16), "<u1": np.iinfo(np.uint8)}
# (slope, intercept): the identity, then the maps that widen first
_SCALES = [(1.0, 0.0), (1.0, -0.0), (2.5, -1.25), (1e-3, 7.0), (-1.5, 0.0), (1.0, 1e-30)]


def _pool(dtype: str, vmax: float, pct: float) -> np.ndarray:
    """Stored values at or below `vmax`, `vmax` first: the stored neighbours of
    the threshold min(pct·vmax, vmax), zeros of both signs, subnormals and
    the dtype's low end."""
    t = min(pct * vmax, vmax)
    limits = _LIMITS[dtype]
    if limits is None:
        f32 = np.float32
        near = f32(t)
        with np.errstate(over="ignore"):  # a step below -FLT_MAX is -inf, dropped below
            cands = [
                vmax, near, np.nextafter(near, f32(np.inf)), np.nextafter(near, f32(-np.inf)),
                0.0, -0.0, 1e-45, -1e-45, 3e-39, np.nextafter(f32(vmax), f32(-np.inf)),
                -3.4e38, vmax / 3,
            ]  # fmt: skip
        cands = [c for c in cands if np.isfinite(c)]
    else:
        lo = math.floor(t)
        cands = [vmax, lo - 1, lo, lo + 1, lo + 2, 0, limits.min, vmax - 1]
        cands = [c for c in cands if limits.min <= c <= limits.max]
    values = np.array(cands, dtype=np.float64).astype(dtype)
    return values[values.astype(np.float64) <= np.float64(np.asarray(vmax, dtype=dtype))]


_F32_MAX = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-45, 3e-39, -1e-45, 1.0, 3.4e38, -3.4e38]),
)


@st.composite
def stored_grids(draw):
    dtype = draw(st.sampled_from(sorted(_LIMITS)))
    limits = _LIMITS[dtype]
    if limits is None:
        vmax = float(np.float32(draw(_F32_MAX)))
    else:
        vmax = draw(st.integers(int(limits.min), int(limits.max)))
    pct = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    pool = _pool(dtype, vmax, pct)
    dims = draw(st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 3)))
    size = math.prod(dims)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    grid = pool[np.array(picks)].reshape(dims)
    grid[tuple(draw(st.integers(0, d - 1)) for d in dims)] = pool[0]  # the max is there
    return grid, pct


class TestStoredThreshold:
    @settings(max_examples=400, deadline=None)
    @given(case=stored_grids(), scale=st.sampled_from(_SCALES), order=st.sampled_from("CF"))
    def test_equals_widen_then_compare(self, case, scale, order):
        grid, pct = case
        stored = grid.copy(order=order)
        stored.flags.writeable = False
        vol = StoredVolume(stored, SPACING, IntensityUnit.ARBITRARY, *scale)
        mask = threshold_pct_suvmax(vol, None, pct)
        assert np.array_equal(mask.bits, naive_pct_threshold(grid, *scale, pct))

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_float32_boundary_neighbours(self, step):
        # 0.7 lies between two float32 values and rounds down to the lower one,
        # which a comparison against float32(0.7) would keep
        vmax, pct = np.float32(1.0), 0.7
        t = pct * float(vmax)
        near = np.float32(t)
        assert float(near) < t
        value = near if step == 0 else np.nextafter(near, np.float32(step * np.inf))
        grid = np.array([vmax, value], dtype="<f4").reshape(2, 1, 1)
        vol = StoredVolume(grid, SPACING, IntensityUnit.ARBITRARY)
        assert threshold_pct_suvmax(vol, None, pct).bits[1, 0, 0] == (float(value) >= t)

    def test_unscaled_grid_is_compared_as_stored(self, monkeypatch):
        # the identity map never builds a float64 Volume3D
        monkeypatch.setattr(StoredVolume, "widen", lambda *a: pytest.fail("widened"))
        grid = np.arange(24, dtype="<i2").reshape(4, 3, 2)
        vol = StoredVolume(grid, SPACING, IntensityUnit.ARBITRARY)
        assert threshold_pct_suvmax(vol, None, 0.5).voxel_count == 12


DIMS = (14, 12, 9)


def _write(path: Path, grid: np.ndarray, datatype: int, slope=1.0, inter=0.0) -> None:
    header, payload = encode_nifti(grid, SPACING, datatype)
    header = bytearray(header)
    header[112:120] = np.array([slope, inter], dtype="<f4").tobytes()  # scl_slope, scl_inter
    path.write_bytes(bytes(header) + bytes(payload))


def _whole_grid_mask(path, method: str, roi, cfg: dict) -> tuple[np.ndarray, dict]:
    """What segment wrote before it thresholded stored grids or crops: the
    whole widened volume, an ROI mask over the whole grid, then postprocess."""
    vol = read_volume(path)
    bits = None
    if roi is not None or method == "contrast":
        bits = np.ones(vol.dims, dtype=bool)
        if roi is not None:
            bits[:] = False
            bits[roi[0] : roi[3], roi[1] : roi[4], roi[2] : roi[5]] = True
    roi_mask = None if bits is None else BinaryMask(bits, vol.spacing)
    info = {}
    if method == "pct_suvmax":
        mask = threshold_pct_suvmax(vol, roi_mask, cfg["pct"])
    else:
        result = threshold_contrast_iterative(vol, roi_mask)
        mask = result.mask
        info = {"threshold": result.threshold, "iterations": result.iterations}
    return postprocess(mask).bits, info


@st.composite
def roi_boxes(draw):
    lo = [draw(st.integers(0, d - 1)) for d in DIMS]
    hi = [draw(st.integers(a + 1, d)) for a, d in zip(lo, DIMS)]
    return [*lo, *hi]


def run_cli(*argv) -> tuple[int, str]:
    """`petquant *argv`'s exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


class TestSegmentFile:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(["pct_suvmax", "contrast"]),
        roi=st.one_of(st.none(), roi_boxes()),
        datatype=st.sampled_from([16, 4, 2]),
        scale=st.sampled_from([(1.0, 0.0), (0.5, 1.0)]),
        pct=st.sampled_from([0.3, 0.5, 0.77]),
    )
    def test_equals_the_whole_grid_path(
        self, tmp_path_factory, seed, method, roi, datatype, scale, pct
    ):
        rng = np.random.default_rng(seed)
        grid = rng.gamma(2.0, 8.0, DIMS)  # bright voxels scattered: many components
        grid[4:9, 3:8, 2:6] += 60.0
        grid = np.asfortranarray(np.clip(grid, 0, 255 if datatype == 2 else 3e4))
        path = tmp_path_factory.mktemp("seg") / "v.nii"
        _write(path, grid, datatype, *scale)
        out = path.with_name("m.nii")
        argv = ["segment", path, "--out", out, "--method", method]
        if method == "pct_suvmax":  # the contrast rule refuses a pct
            argv += ["--pct", pct]
        if roi is not None:
            argv += ["--roi", ",".join(map(str, roi))]
        code, stdout = run_cli(*argv)
        expected, info = _whole_grid_mask(path, method, roi, {"pct": pct})
        assert code == 0
        got = json.loads(stdout)
        assert np.array_equal(read_mask(out).bits, expected)
        assert got["voxel_count"] == int(expected.sum())
        assert {k: got[k] for k in info} == info
        # the library function segment runs, called directly
        box = None if roi is None else tuple(slice(roi[i], roi[i + 3]) for i in range(3))
        settings = {"method": method, "pct": pct, "postprocess": True}
        mask, direct = segment_stored(nifti.read_stored(path), box, settings)
        assert np.array_equal(mask.bits, expected)
        assert direct == {k: v for k, v in got.items() if k != "mask"}

    @pytest.fixture
    def float32_file(self, tmp_path):
        rng = np.random.default_rng(11)
        grid = rng.normal(1.0, 0.2, DIMS)
        grid[5:8, 4:7, 3:6] = 9.0
        path = tmp_path / "v.nii"
        _write(path, np.asfortranarray(grid), 16)
        return path

    @pytest.fixture
    def widened(self, monkeypatch):
        """Shapes of every float64 grid made: each widening and each Volume3D."""
        shapes = []
        widen, post_init = StoredVolume.widen, volume.Volume3D.__post_init__

        def spy_widen(stored, box=None):
            shapes.append(("widen", (stored.grid if box is None else stored.grid[box]).shape))
            return widen(stored, box)

        def spy_post_init(self):
            shapes.append(("Volume3D", self.values.shape))
            post_init(self)

        monkeypatch.setattr(StoredVolume, "widen", spy_widen)
        monkeypatch.setattr(volume.Volume3D, "__post_init__", spy_post_init)
        monkeypatch.setattr(nifti, "read_volume", lambda *a: pytest.fail("read_volume"))
        return shapes

    def test_pct_without_roi_widens_nothing(self, float32_file, widened):
        code, _ = run_cli("segment", float32_file, "--out", float32_file.with_name("m.nii"))
        assert code == 0 and widened == []

    @pytest.mark.parametrize(
        "method, roi, box",
        [
            ("pct_suvmax", "3,2,1,10,9,7", (7, 7, 6)),
            # the roi grown by the background shell's 3 voxels, clipped to the grid
            ("contrast", "3,2,1,10,9,7", (13, 12, 9)),
            ("contrast", "0,0,0,14,12,9", DIMS),
        ],
    )
    def test_roi_widens_only_its_box(self, float32_file, widened, method, roi, box):
        assert BACKGROUND_SHELL_GAP == 3  # the expected boxes above
        out = float32_file.with_name("m.nii")
        code, _ = run_cli("segment", float32_file, "--out", out, "--method", method, "--roi", roi)
        assert code == 0
        assert widened == [("widen", box), ("Volume3D", box)]


@pytest.mark.parametrize(
    "flags",
    [(), ("--roi", "5,5,5,9,9,8"), ("--method", "contrast", "--roi", "5,5,5,9,9,8"), ("--roi", "0,0,0,99,1,1")],
)
def test_non_finite_voxel_reported_as_read_volume_does(tmp_path, flags):
    # the whole stored grid is checked before the roi is placed (an out-of-grid
    # roi included), with read_volume's message and C-order index
    grid = np.full(DIMS, 4.0)
    grid[3, 0, 0] = grid[0, 1, 0] = np.nan  # the x-fastest payload holds (3, 0, 0) first
    path = tmp_path / "nan.nii"
    _write(path, np.asfortranarray(grid), 16)
    with pytest.raises(VolumeDataError) as expected:
        read_volume(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli("segment", path, "--out", tmp_path / "m.nii", "--json-errors", *flags)
    assert code == 2
    assert json.loads(err.getvalue())["message"] == str(expected.value) == (
        "non-finite voxel value at index (0, 1, 0)"
    )


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("segcohort")
    response = ResponseModel(ratio_mean=0.6, ratio_sd=0.1, outlier_fraction=0.25)
    generate_cohort(
        4, response, seed=9, out_dir=out, dims=(20, 18, 12), spacing=SPACING,
        baseline_radius_mm=9.0, noise_sd=0.6,
    )  # fmt: skip
    return out / "manifest.csv"


@pytest.mark.parametrize(
    "flags",
    [(), ("--method", "contrast", "--roi", "4,4,2,16,14,10"), ("--roi", "4,4,2,16,14,10")],
)
def test_batch_bytes_equal_across_threads(cohort, tmp_path, flags):
    files = []
    for threads in (1, 3):
        out = tmp_path / f"t{threads}"
        code, _ = run_cli("segment", "--manifest", cohort, "--out-dir", out, "--threads", threads, *flags)
        assert code == 0
        files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert files[0] == files[1] and len(files[0]) == 4 * 2 + 1
