"""Binary masks and the morphological primitives the pipeline needs.

Masks share the voxel-grid geometry of their companion volume. Everything
here is a pure function; masks are immutable and thread-safe to share.

A lesion covers a tiny share of a PET grid, so the primitives that scan a
mask (`centroid`, `boundary_voxels`, and `largest_component`/`fill_holes`
as `segment.postprocess` calls them) work on the foreground's bounding box
(`bounding_box`, found once per mask as `BinaryMask.box`; `grow_box` adds a
margin where one is needed) and paste full-grid results back. A sub-box keeps
the logical (x, y, z) index order, whatever the memory layout, so labels,
tie-breaks and coordinate order are those of the full grid. Full-grid masks
made here take the layout of the grid they sit on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import EmptyRegionError, GeometryMismatchError, ParameterError
from .volume import _Grid, check_grid

_STRUCT_6 = ndimage.generate_binary_structure(3, 1)
_STRUCT_26 = ndimage.generate_binary_structure(3, 3)


def _structure(connectivity: int) -> np.ndarray:
    if connectivity == 6:
        return _STRUCT_6
    if connectivity == 26:
        return _STRUCT_26
    raise ParameterError(f"connectivity must be 6 or 26, got {connectivity}")


@dataclass(frozen=True)
class BinaryMask(_Grid):
    """Boolean voxel grid of shape (nx, ny, nz) with spacing in mm."""

    bits: np.ndarray
    spacing: tuple[float, float, float]

    _ARRAY = "bits"

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits)
        if arr.dtype != np.bool_:
            arr = arr.astype(np.bool_)
        self._store(arr, check_grid(arr.shape, self.spacing))

    @property
    def voxel_count(self) -> int:
        return int(np.count_nonzero(self.bits))  # a bool sum widens every voxel to int

    @property
    def box(self) -> tuple[slice, slice, slice] | None:
        """The foreground's bounding box (`bounding_box`), None when empty;
        found on the first use and kept, since the mask cannot change."""
        try:
            return self.__dict__["_box"]
        except KeyError:
            box = self.__dict__["_box"] = bounding_box(self.bits)
            return box

    @property
    def is_empty(self) -> bool:
        return self.box is None


def require_same_geometry(a: _Grid, b: _Grid) -> None:
    """`a` and `b` share dims and spacing."""
    if a.dims != b.dims:
        raise GeometryMismatchError(f"grid dims differ: {a.dims} vs {b.dims}")
    if a.spacing != b.spacing:
        raise GeometryMismatchError(f"voxel spacing differs: {a.spacing} vs {b.spacing}")


class Quadrant(enum.Enum):
    """Axial-plane quadrant relative to the image center (nx/2, ny/2).

    Half-open split: x >= nx/2 counts to the high-x side, same for y.
    Q1 = low/low, Q2 = high/low, Q3 = high/high, Q4 = low/high.
    """

    Q1 = "Q1"
    Q2 = "Q2"
    Q3 = "Q3"
    Q4 = "Q4"


def quadrant_of(x: float, y: float, dims: tuple[int, int, int]) -> Quadrant:
    high_x = x >= dims[0] / 2.0
    high_y = y >= dims[1] / 2.0
    if high_x:
        return Quadrant.Q3 if high_y else Quadrant.Q2
    return Quadrant.Q4 if high_y else Quadrant.Q1


@dataclass(frozen=True)
class Centroid:
    """Center of mass in voxel coordinates plus its axial quadrant."""

    position: tuple[float, float, float]
    quadrant: Quadrant


def bounding_box(bits: np.ndarray) -> tuple[slice, slice, slice] | None:
    """Slices of the foreground's bounding box, None when `bits` has no
    foreground; `grow_box` adds a margin."""
    box = [slice(None)] * 3
    sub = bits
    # outermost memory axis first (largest stride): that pass, the only one
    # over the whole grid, then reduces contiguous slabs in C or F layout
    for axis in sorted(range(3), key=lambda a: -bits.strides[a]):
        other = tuple(i for i in range(3) if i != axis)
        hit = np.flatnonzero(sub.any(axis=other))
        if hit.size == 0:
            return None
        lo, hi = int(hit[0]), int(hit[-1]) + 1
        # narrow to the slab found so far
        sub = sub[(slice(None),) * axis + (slice(lo, hi),)]
        box[axis] = slice(lo, hi)
    return (box[0], box[1], box[2])


def grow_box(box: tuple[slice, slice, slice], margin: int, dims) -> tuple[slice, slice, slice]:
    """`box` grown by `margin` voxels on every side and clipped to `dims`."""
    x, y, z = (slice(max(s.start - margin, 0), min(s.stop + margin, n)) for s, n in zip(box, dims))
    return (x, y, z)


def paste(bits: np.ndarray, box: tuple[slice, slice, slice], like: _Grid) -> BinaryMask:
    """Full-grid mask on `like`'s geometry and memory layout holding `bits`
    at `box`, empty elsewhere."""
    full = np.zeros_like(getattr(like, like._ARRAY), dtype=bool)
    full[box] = bits
    full.flags.writeable = False  # nothing else holds it, so BinaryMask need not copy
    return BinaryMask(full, like.spacing)


def centroid(mask: BinaryMask) -> Centroid:
    """Arithmetic mean of foreground voxel coordinates."""
    box = mask.box
    if box is None:
        raise EmptyRegionError("centroid of an empty mask is undefined")
    inside = mask.bits[box]
    total = int(inside.sum())
    # per-axis first moments; integer sums are exact, so this matches the
    # naive mean over argwhere coordinates bit for bit
    pos = []
    for axis in range(3):
        other = tuple(i for i in range(3) if i != axis)
        counts = inside.sum(axis=other)
        pos.append(float(np.dot(counts, np.arange(box[axis].start, box[axis].stop))) / total)
    return Centroid((pos[0], pos[1], pos[2]), quadrant_of(pos[0], pos[1], mask.dims))


def largest_component(mask: BinaryMask, connectivity: int = 26) -> BinaryMask:
    """Largest component only (empty in, empty out); avoids materializing the rest.

    Ties break on the smallest linearized seed index: scipy labels in scan
    order, so that is the smallest label, the first maximum `argmax` finds.
    """
    labeled, n = ndimage.label(mask.bits, structure=_structure(connectivity))
    if n == 0:
        return mask
    counts = np.bincount(labeled.ravel(order="K"))[1:]  # order-free: no copy
    return BinaryMask(labeled == np.argmax(counts) + 1, mask.spacing)


def fill_holes(mask: BinaryMask) -> BinaryMask:
    """Set every background component not 6-connected to the border foreground."""
    background = ~mask.bits
    labeled, n = ndimage.label(background, structure=_STRUCT_6)
    if n == 0:
        return mask
    border = np.concatenate(
        [
            labeled[0, :, :].ravel(),
            labeled[-1, :, :].ravel(),
            labeled[:, 0, :].ravel(),
            labeled[:, -1, :].ravel(),
            labeled[:, :, 0].ravel(),
            labeled[:, :, -1].ravel(),
        ]
    )
    outside = np.zeros(n + 1, dtype=bool)  # label 0 is foreground, stays False
    outside[border] = True
    outside[0] = False
    return BinaryMask(~outside[labeled], mask.spacing)


def boundary_voxels(mask: BinaryMask) -> np.ndarray:
    """Coordinates (N, 3) of foreground voxels with a 6-neighbor outside the
    mask or outside the volume, in lexicographic order."""
    box = mask.box
    if box is None:
        return np.empty((0, 3), dtype=np.intp)  # what argwhere gives for no voxels
    bits = mask.bits[box]
    # everything beyond the box is background, as the False padding says
    padded = np.pad(bits, 1, mode="constant", constant_values=False)
    interior = (
        padded[:-2, 1:-1, 1:-1]
        & padded[2:, 1:-1, 1:-1]
        & padded[1:-1, :-2, 1:-1]
        & padded[1:-1, 2:, 1:-1]
        & padded[1:-1, 1:-1, :-2]
        & padded[1:-1, 1:-1, 2:]
    )
    return np.argwhere(bits & ~interior) + np.array([sl.start for sl in box])


def regrid_nearest(mask: BinaryMask, target_dims: tuple[int, int, int]) -> BinaryMask:
    """Nearest-neighbor regrid onto a different matrix size, preserving the
    physical extent (spacing rescales accordingly)."""
    check_grid(target_dims, mask.spacing, ("target dims", "spacing"))
    if tuple(target_dims) == mask.dims:
        return mask
    idx = []
    new_spacing = []
    for n_src, n_dst, s in zip(mask.dims, target_dims, mask.spacing):
        centers = (np.arange(n_dst) + 0.5) * n_src / n_dst
        idx.append(np.clip(centers.astype(np.int64), 0, n_src - 1))
        new_spacing.append(s * n_src / n_dst)
    bits = mask.bits[np.ix_(idx[0], idx[1], idx[2])]
    return BinaryMask(bits, (new_spacing[0], new_spacing[1], new_spacing[2]))
