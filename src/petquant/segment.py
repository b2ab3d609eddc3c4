"""Classical PET lesion segmentation.

Two threshold families: a fixed percentage of the ROI maximum, and an
iterative contrast-oriented rule whose threshold is a fixed point of

    T <- a · mean(ROI voxels >= max(T, 0.7·ROI max)) + b · BG

where BG is estimated from a thin background shell around the ROI. Both
return masks restricted to the ROI; the iterative method keeps only the
component connected to the ROI maximum.

The lesion and its ROI cover a tiny share of the grid, so the threshold
selection, the seed labeling, the background shell and the
post-processing morphology run on the foreground's bounding box
(`BinaryMask.box`, plus the margin each needs) and paste full-grid
masks back; the results are the full-grid ones bit for bit. A box keeps the
logical (x, y, z) index order, whatever the memory layout, so masked values,
the first-argmax seed and `mean`'s pairwise sum come out in the same order.

Without an ROI, `threshold_pct_suvmax` also takes a file's grid as stored
(`nifti.StoredVolume`) and compares it in its stored dtype against the
least stored value at or above pct · max: the mask of widening every voxel
to float64 first, without the widening.

`segment_stored` is the one segmentation of a stored volume: it widens the
ROI's box (grown by BACKGROUND_SHELL_GAP for the contrast rule), or nothing
for the percentage rule without an ROI, thresholds and post-processes that
crop and pastes the mask back onto the file's grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import ndimage

from .errors import EmptyRegionError, check_real
from .mask import (
    BinaryMask,
    _structure,
    fill_holes,
    grow_box,
    largest_component,
    paste,
    require_same_geometry,
)
from .volume import Volume3D

if TYPE_CHECKING:
    from .nifti import StoredVolume

CONTRAST_PARAMS = ("a", "b", "tol", "max_iter")  # a setting left out takes its default
DEFAULT_CONTRAST_A = 0.39
DEFAULT_CONTRAST_B = 1.0
# voxels between ROI and the 1-voxel background shell; >= 2, since scipy
# reads iterations=0 as "dilate until nothing changes"
BACKGROUND_SHELL_GAP = 3


# each threshold parameter's range, checked by the thresholds and, before any
# file is read, by the CLI
_PARAM_RANGES = {
    "pct": {"gt": 0, "lt": 1},
    "a": {"gt": 0, "lt": 1},
    "b": {"ge": 0},
    "tol": {"ge": 0},
    "max_iter": {"ge": 1},
}


def check_param(name: str, value) -> None:
    """ParameterError unless `value` lies in the range of the threshold
    parameter `name` (pct, a, b, tol or max_iter)."""
    check_real(name, value, **_PARAM_RANGES[name])


def _least_at_or_above(t: float, dtype: np.dtype):
    """The least value of `dtype` at or above `t`, a float within its range:
    `grid >= it` is the float64 comparison `grid >= t` for a grid of that
    dtype. A Python float `t` itself would be rounded to float32 against a
    float32 grid (NEP 50), which moves the mask at the boundary."""
    if dtype.kind in "iu":
        return dtype.type(math.ceil(t))
    least = dtype.type(t)
    return least if float(least) >= t else np.nextafter(least, dtype.type(np.inf))


def threshold_pct_suvmax(
    vol: Volume3D | StoredVolume, roi: BinaryMask | None, pct: float
) -> BinaryMask:
    """Voxels inside the ROI (the whole grid when None) at or above pct · (ROI max).
    Never empty.

    With no ROI, `vol` may also be a volume file as stored
    (`nifti.StoredVolume`): an unscaled grid is compared in its stored dtype,
    with the float64 comparison's result, and is never widened."""
    if roi is not None:
        require_same_geometry(vol, roi)
        if roi.is_empty:
            raise EmptyRegionError("ROI is empty")
    check_param("pct", pct)
    values = vol.values
    if roi is None:
        vmax = float(values.max())
    else:  # no copy of the ROI's values
        vmax = float(np.max(values, where=roi.bits, initial=-np.inf))
    # min() keeps the max voxel included when vmax < 0
    bits = values >= _least_at_or_above(min(pct * vmax, vmax), values.dtype)
    if roi is not None:
        bits &= roi.bits
    bits.flags.writeable = False  # nothing else holds it, so BinaryMask need not copy
    return BinaryMask(bits, vol.spacing)


def background_estimate(vol: Volume3D, roi: BinaryMask) -> float:
    """Mean intensity on the 1-voxel shell BACKGROUND_SHELL_GAP dilations beyond the ROI.

    Returns 0.0 when the shell leaves the volume entirely (ROI fills the grid).
    """
    if roi.box is None:
        return 0.0
    # the dilations reach BACKGROUND_SHELL_GAP voxels, so they stay in this box
    box = grow_box(roi.box, BACKGROUND_SHELL_GAP, roi.dims)
    struct = _structure(6)
    inner = ndimage.binary_dilation(roi.bits[box], structure=struct, iterations=BACKGROUND_SHELL_GAP - 1)
    shell = ndimage.binary_dilation(inner, structure=struct) & ~inner
    if not shell.any():
        return 0.0
    return float(vol.values[box][shell].mean())


@dataclass(frozen=True)
class ContrastResult:
    """Outcome of the iterative contrast threshold."""

    mask: BinaryMask
    threshold: float
    converged: bool
    iterations: int


def threshold_contrast_iterative(
    vol: Volume3D,
    roi: BinaryMask,
    a: float = DEFAULT_CONTRAST_A,
    b: float = DEFAULT_CONTRAST_B,
    tol: float = 1e-4,
    max_iter: int = 100,
) -> ContrastResult:
    """Iterate the contrast rule to a fixed point and threshold the ROI.

    The 70% reference level uses the ROI maximum computed once up front.
    Non-convergence within max_iter returns the last mask with converged=False.
    """
    require_same_geometry(vol, roi)
    if roi.is_empty:
        raise EmptyRegionError("ROI is empty")
    for name, value in (("a", a), ("b", b), ("tol", tol), ("max_iter", max_iter)):
        check_param(name, value)

    box = roi.box
    roi_bits = roi.bits[box]
    box_values = vol.values[box]
    roi_values = box_values[roi_bits]
    local_max = float(roi_values.max())
    bg = background_estimate(vol, roi)
    ref70 = 0.7 * local_max

    t_cur = ref70
    converged = False
    iterations = 0
    for _ in range(max_iter):
        core = roi_values[roi_values >= max(t_cur, ref70)]
        if core.size == 0:
            break  # threshold climbed past every ROI voxel; keep last value
        t_next = a * float(core.mean()) + b * bg
        iterations += 1
        done = abs(t_next - t_cur) < tol
        t_cur = t_next
        if done:
            converged = True
            break

    selected = roi_bits & (box_values >= t_cur)
    if selected.any():
        # keep only the component holding the ROI maximum (first argmax in scan order)
        seed = tuple(np.argwhere(roi_bits & (box_values == local_max))[0])
        # the seed is selected: the ROI maximum is at or above any threshold that selects
        labeled, _ = ndimage.label(selected, structure=_structure(26))
        selected = labeled == labeled[seed]
    return ContrastResult(paste(selected, box, vol), t_cur, converged, iterations)


def postprocess(mask: BinaryMask) -> BinaryMask:
    """Largest 26-connected component with interior holes filled."""
    # the 1-voxel margin keeps all exterior background 6-connected to the
    # crop's border, so holes filled in the crop are the full grid's holes
    if mask.box is None:
        return mask
    box = grow_box(mask.box, 1, mask.dims)
    crop = BinaryMask(mask.bits[box], mask.spacing)
    return paste(fill_holes(largest_component(crop, connectivity=26)).bits, box, mask)


def segment_stored(
    stored: StoredVolume, box: tuple[slice, slice, slice] | None, settings: dict
) -> tuple[BinaryMask, dict]:
    """The mask of `stored` under `settings` (method, pct, postprocess and the
    CONTRAST_PARAMS given) inside the ROI `box` (None: the whole grid), and the
    run's info.

    Float64 is made only where a threshold reads values: nowhere for
    pct_suvmax without a box, which compares the stored grid; else on the box,
    grown for contrast by the background shell's reach. The primitives treat
    everything beyond a crop as background, so the mask made on it and pasted
    back is the whole grid's.
    """
    method = settings["method"]
    crop = None
    if box is None and method == "pct_suvmax":
        vol, roi = stored, None  # threshold_pct_suvmax takes None as the whole grid
    else:
        box = box or tuple(slice(0, n) for n in stored.dims)  # no box: the whole grid
        crop = grow_box(box, BACKGROUND_SHELL_GAP if method == "contrast" else 0, stored.dims)
        vol = stored.widen(crop)
        x, y, z = (slice(b.start - c.start, b.stop - c.start) for b, c in zip(box, crop))
        roi = paste(True, (x, y, z), vol)
    info: dict = {"method": method}
    if method == "pct_suvmax":
        mask = threshold_pct_suvmax(vol, roi, settings["pct"])
        info["pct"] = settings["pct"]
    else:
        contrast = {k: settings[k] for k in CONTRAST_PARAMS if k in settings}
        result = threshold_contrast_iterative(vol, roi, **contrast)
        mask = result.mask
        info.update(
            threshold=result.threshold, converged=result.converged, iterations=result.iterations
        )
    if settings["postprocess"]:
        mask = postprocess(mask)
    if crop is not None:
        mask = paste(mask.bits, crop, stored)
    info["voxel_count"] = mask.voxel_count
    return mask, info
