"""3D volume data model and SUV conversion.

A :class:`Volume3D` is an immutable dense scalar grid with physical voxel
spacing in mm and a declared intensity unit. All statistics run in float64;
float32 appears only at the file boundary (see :mod:`petquant.nifti`) and
in the no-ROI percentage threshold, which compares a file's stored grid
with float64's result (see :mod:`petquant.segment`).
Grids keep the memory layout they are given, C- or F-contiguous: a volume
read from a file stays in the file's x-fastest order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntensityUnitError, ParameterError, VolumeDataError, check_real


class IntensityUnit(enum.Enum):
    """Physical meaning of the voxel values."""

    ACTIVITY_KBQ_PER_ML = "kBq/mL"
    SUV = "SUV"
    ARBITRARY = "arbitrary"

    @classmethod
    def from_string(cls, s: str) -> "IntensityUnit":
        for unit in cls:
            if isinstance(s, str) and unit.value.lower() == s.strip().lower():
                return unit
        raise ParameterError(f"unit = {s!r}, needs one of {[u.value for u in cls]}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    """`arr` itself when read-only and C- or F-contiguous, else a read-only
    contiguous copy in the closest layout."""
    if arr.flags.writeable or not (arr.flags.c_contiguous or arr.flags.f_contiguous):
        arr = arr.copy(order="K")
        arr.flags.writeable = False
    return arr


def check_grid(dims, spacing, names=("dims", "spacing")) -> tuple[float, float, float]:
    """The one grid-geometry check: three sizes >= 1 and three finite spacings
    > 0 mm. Returns the spacing as floats; errors name the field from `names`."""
    if len(dims) != 3 or min(dims) < 1:
        raise ParameterError(f"{names[0]} = {tuple(dims)}, needs three sizes >= 1")
    try:
        mm = tuple(float(s) for s in spacing)
    except (TypeError, ValueError, OverflowError):
        mm = ()
    if len(mm) != 3 or any(not math.isfinite(s) or s <= 0.0 for s in mm):
        raise ParameterError(f"{names[1]} = {spacing!r}, needs three finite values > 0 mm")
    return mm  # type: ignore[return-value]


# the finite check scans about this many voxels at a time: a 128 kB bool block
_FINITE_BLOCK = 1 << 17


def check_finite(grid: np.ndarray) -> None:
    """The one non-finite voxel check, in `grid`'s own dtype: VolumeDataError
    names the first bad (x, y, z) in C index order, whatever the layout. An
    integer grid cannot hold NaN or infinity and is not scanned. A float grid
    whose sum is finite holds neither; one whose sum is not (an overflow gives
    that too) is scanned in blocks of whole planes along its outermost memory
    axis. Neither step makes a whole-grid temporary or copies a view."""
    if grid.dtype.kind in "iu":
        return
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
        if np.isfinite(np.add.reduce(grid, axis=None)):
            return
    axis = int(np.argmax(np.abs(grid.strides)))
    step = max(1, _FINITE_BLOCK * grid.shape[axis] // grid.size)
    box, first = [slice(None)] * grid.ndim, None
    for a in range(0, grid.shape[axis], step):
        box[axis] = slice(a, a + step)
        ok = np.isfinite(grid[tuple(box)])
        if not ok.all():  # the block's first bad voxel in C order; the least of them is the grid's
            idx = [int(i) for i in np.unravel_index(np.argmin(ok), ok.shape)]
            idx[axis] += a
            first = min(first or tuple(idx), tuple(idx))
    if first is not None:
        raise VolumeDataError(f"non-finite voxel value at index {first}")


def voxel_volume_cm3(spacing: tuple[float, float, float]) -> float:
    """Volume of one voxel in cm³ (= mL) from its spacing in mm."""
    sx, sy, sz = spacing
    return sx * sy * sz / 1000.0


class _Grid:
    """Geometry of Volume3D and BinaryMask, frozen dataclasses whose voxel
    array is the field named by their `_ARRAY`."""

    _ARRAY: str

    def _store(self, arr: np.ndarray, spacing: tuple[float, float, float]) -> None:
        object.__setattr__(self, self._ARRAY, _freeze(arr))
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return getattr(self, self._ARRAY).shape

    @property
    def voxel_volume_cm3(self) -> float:
        return voxel_volume_cm3(self.spacing)


@dataclass(frozen=True)
class Volume3D(_Grid):
    """Scalar grid of shape (nx, ny, nz) with spacing (sx, sy, sz) in mm.

    Values are stored read-only as float64 in the input's memory layout (C
    or F order; indexing is by (x, y, z) either way). Construction copies
    writable input arrays so volumes can be shared freely across threads.
    """

    values: np.ndarray
    spacing: tuple[float, float, float]
    unit: IntensityUnit = IntensityUnit.ARBITRARY

    _ARRAY = "values"

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        spacing = check_grid(arr.shape, self.spacing)
        check_finite(arr)
        if not isinstance(self.unit, IntensityUnit):
            raise ParameterError(f"unit must be an IntensityUnit, got {self.unit!r}")
        self._store(arr, spacing)

    def widen(self, box: tuple[slice, slice, slice]) -> Volume3D:
        """The volume of `box`, as `nifti.StoredVolume.widen` gives it."""
        return Volume3D(self.values[box], self.spacing, self.unit)


@dataclass(frozen=True)
class AcquisitionInfo:
    """Injected dose and patient weight needed for SUV normalization."""

    injected_dose_MBq: float
    body_weight_kg: float

    def __post_init__(self) -> None:
        check_real("injected_dose_MBq", self.injected_dose_MBq, gt=0)
        check_real("body_weight_kg", self.body_weight_kg, gt=0)
        if not (math.isfinite(self.suv_scale) and self.suv_scale > 0):
            raise ParameterError(
                f"weight {self.body_weight_kg} kg / dose {self.injected_dose_MBq} MBq gives"
                f" SUV scale {self.suv_scale}, needs a finite value > 0"
            )

    @property
    def suv_scale(self) -> float:
        """Body-weight SUV per kBq/mL: weight_kg / dose_MBq.

        SUV = concentration · body weight / injected dose; with concentration
        in kBq/mL, weight in kg and dose in MBq the kilo factors cancel (1 mL
        of tissue taken as 1 g).
        """
        return self.body_weight_kg / self.injected_dose_MBq


def _adopt(values: np.ndarray) -> np.ndarray:
    """Mark a freshly computed, un-aliased array read-only so the Volume3D
    constructor can take it without another defensive copy."""
    values.flags.writeable = False
    return values


def to_suv(vol: Volume3D, acq: AcquisitionInfo) -> Volume3D:
    """Convert an activity-concentration volume (kBq/mL) to body-weight SUV
    (every voxel times `acq.suv_scale`)."""
    if vol.unit is not IntensityUnit.ACTIVITY_KBQ_PER_ML:
        raise IntensityUnitError(
            f"SUV conversion needs activity concentration input, got {vol.unit.value}"
        )
    return Volume3D(_adopt(vol.values * acq.suv_scale), vol.spacing, IntensityUnit.SUV)

