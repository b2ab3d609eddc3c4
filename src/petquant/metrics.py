"""Segmentation-quality metrics between two binary masks.

Dice, IoU and sensitivity are plain overlap ratios of the integer counts
`overlap_counts` takes on the hull of the two masks' bounding boxes. The
Hausdorff distance is the exact maximum (no percentile variant) between
boundary voxel centers, in millimeters, using the shared voxel spacing.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyRegionError
from .mask import BinaryMask, boundary_voxels, require_same_geometry


def overlap_counts(a: BinaryMask, b: BinaryMask) -> tuple[int, int, int]:
    """|A|, |B| and |A∩B| of two masks on one grid, counted on the hull of
    their boxes, which holds A∪B."""
    require_same_geometry(a, b)
    boxes = [m.box for m in (a, b) if m.box is not None]
    if not boxes:
        return 0, 0, 0
    x, y, z = (slice(min(s.start for s in sl), max(s.stop for s in sl)) for sl in zip(*boxes))
    in_a, in_b = a.bits[x, y, z], b.bits[x, y, z]
    return int(in_a.sum()), int(in_b.sum()), int((in_a & in_b).sum())


def dice(a: BinaryMask, b: BinaryMask) -> float:
    """2|A∩B| / (|A| + |B|); 1.0 when both masks are empty."""
    n_a, n_b, inter = overlap_counts(a, b)
    if n_a + n_b == 0:
        return 1.0
    return 2.0 * inter / (n_a + n_b)


def iou(a: BinaryMask, b: BinaryMask) -> float:
    """|A∩B| / |A∪B|; 1.0 when both masks are empty."""
    n_a, n_b, inter = overlap_counts(a, b)
    union = n_a + n_b - inter
    if union == 0:
        return 1.0
    return inter / union


def sensitivity(gt: BinaryMask, pred: BinaryMask) -> float:
    """True positive rate |GT∩Pred| / |GT|."""
    n_gt, _, inter = overlap_counts(gt, pred)
    if n_gt == 0:
        raise EmptyRegionError("sensitivity needs a non-empty ground-truth mask")
    return inter / n_gt


# squared distances per block of src rows against all of dst: 1 MB of float64
_BLOCK_ELEMENTS = 1 << 17


def _directed_max_min_sq(
    src: np.ndarray, dst: np.ndarray, spacing: tuple[float, float, float]
) -> float:
    """max over src of min over dst of squared Euclidean mm distance.

    The distance expression ((Δx·sx)² + (Δy·sy)² + (Δz·sz)², left to right)
    is kept identical to the brute-force oracle used in tests so results
    agree bit-for-bit. src is taken `_BLOCK_ELEMENTS // |dst|` rows at a
    time (at least one), and each block's sum is built in place in that
    order with one scratch array for the y and z terms: two blocks of at
    most 1 MB while |dst| <= `_BLOCK_ELEMENTS`, whatever the row count.
    """
    worst = 0.0
    rows = max(1, _BLOCK_ELEMENTS // len(dst))
    for start in range(0, len(src), rows):
        block = src[start : start + rows]
        d2 = block[:, 0:1] - dst[:, 0]
        d2 *= spacing[0]
        d2 *= d2
        term = np.empty_like(d2)
        for axis in (1, 2):
            np.subtract(block[:, axis : axis + 1], dst[:, axis], out=term)
            term *= spacing[axis]
            term *= term
            d2 += term
        worst = max(worst, float(d2.min(axis=1).max()))
    return worst


def hausdorff_mm(a: BinaryMask, b: BinaryMask) -> float:
    """Symmetric Hausdorff distance between boundary voxel centers, in mm."""
    require_same_geometry(a, b)
    if a.is_empty or b.is_empty:
        raise EmptyRegionError("Hausdorff distance needs two non-empty masks")
    pa = boundary_voxels(a).astype(np.float64)
    pb = boundary_voxels(b).astype(np.float64)
    d2 = max(
        _directed_max_min_sq(pa, pb, a.spacing),
        _directed_max_min_sq(pb, pa, a.spacing),
    )
    return math.sqrt(d2)
