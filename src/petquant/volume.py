"""3D volume data model and intensity pre-processing.

A :class:`Volume3D` is an immutable dense scalar grid with physical voxel
spacing in mm and a declared intensity unit. All statistics run in float64;
float32 appears only at the file boundary (see :mod:`petquant.nifti`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import (
    DegenerateInputError,
    IntensityUnitError,
    ParameterError,
    VolumeDataError,
)


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
    if arr.flags.writeable:
        arr = arr.copy(order="C")
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


def voxel_volume_cm3(spacing: tuple[float, float, float]) -> float:
    """Volume of one voxel in cm³ (= mL) from its spacing in mm."""
    sx, sy, sz = spacing
    return sx * sy * sz / 1000.0


class _Grid:
    """Geometry of Volume3D and BinaryMask, frozen dataclasses whose voxel
    array is the field named by their `_ARRAY`."""

    _ARRAY: str

    def _store(self, arr: np.ndarray, spacing: tuple[float, float, float]) -> None:
        object.__setattr__(self, self._ARRAY, _freeze(np.ascontiguousarray(arr)))
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

    Values are stored read-only as float64; construction copies writable
    input arrays so volumes can be shared freely across threads.
    """

    values: np.ndarray
    spacing: tuple[float, float, float]
    unit: IntensityUnit = IntensityUnit.ARBITRARY

    _ARRAY = "values"

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        spacing = check_grid(arr.shape, self.spacing)
        if not np.isfinite(arr).all():
            idx = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
            raise VolumeDataError(f"non-finite voxel value at index {idx}")
        if not isinstance(self.unit, IntensityUnit):
            raise ParameterError(f"unit must be an IntensityUnit, got {self.unit!r}")
        self._store(arr, spacing)

    def with_unit(self, unit: IntensityUnit) -> "Volume3D":
        """Same grid, re-tagged intensity unit (no value change)."""
        return Volume3D(self.values, self.spacing, unit)


@dataclass(frozen=True)
class AcquisitionInfo:
    """Injected dose and patient weight needed for SUV normalization."""

    injected_dose_MBq: float
    body_weight_kg: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.injected_dose_MBq) and self.injected_dose_MBq > 0):
            raise ParameterError(f"injected dose must be > 0 MBq, got {self.injected_dose_MBq}")
        if not (math.isfinite(self.body_weight_kg) and self.body_weight_kg > 0):
            raise ParameterError(f"body weight must be > 0 kg, got {self.body_weight_kg}")


def _adopt(values: np.ndarray) -> np.ndarray:
    """Mark a freshly computed, un-aliased array read-only so the Volume3D
    constructor can take it without another defensive copy."""
    values.flags.writeable = False
    return values


def to_suv(vol: Volume3D, acq: AcquisitionInfo) -> Volume3D:
    """Convert an activity-concentration volume (kBq/mL) to body-weight SUV.

    SUV = concentration · body weight / injected dose; with concentration in
    kBq/mL, weight in kg and dose in MBq the kilo factors cancel (1 mL of
    tissue taken as 1 g), so the scale factor is simply weight_kg / dose_MBq.
    """
    if vol.unit is not IntensityUnit.ACTIVITY_KBQ_PER_ML:
        raise IntensityUnitError(
            f"SUV conversion needs activity concentration input, got {vol.unit.value}"
        )
    scale = acq.body_weight_kg / acq.injected_dose_MBq
    return Volume3D(_adopt(vol.values * scale), vol.spacing, IntensityUnit.SUV)


def normalize_zscore(vol: Volume3D) -> Volume3D:
    """Shift/scale the whole volume to mean 0, standard deviation 1."""
    mean = float(vol.values.mean())
    std = float(vol.values.std())
    if std == 0.0:
        raise DegenerateInputError("constant volume cannot be z-score normalized")
    return Volume3D(_adopt((vol.values - mean) / std), vol.spacing, IntensityUnit.ARBITRARY)


def _target_grid(
    dims: tuple[int, int, int],
    spacing: tuple[float, float, float],
    target_spacing: tuple[float, float, float],
) -> tuple[tuple[int, int, int], list[np.ndarray]]:
    """Output dims (ceil of physical extent / target spacing) and, per axis,
    the source index coordinate of each output voxel center."""
    out_dims = []
    coords = []
    for n, s, t in zip(dims, spacing, target_spacing):
        m = int(math.ceil(n * s / t))
        out_dims.append(max(m, 1))
        # voxel-center alignment: physical pos of output j is (j + 0.5)·t
        idx = (np.arange(out_dims[-1], dtype=np.float64) + 0.5) * t / s - 0.5
        coords.append(np.clip(idx, 0.0, n - 1))
    return (out_dims[0], out_dims[1], out_dims[2]), coords


def resample(
    vol: Volume3D,
    target_spacing: tuple[float, float, float],
    mode: str = "trilinear",
) -> Volume3D:
    """Resample onto a grid with the given spacing.

    mode "nearest" preserves the input value set (use for label data);
    "trilinear" interpolates, output bounded by the input min/max.
    """
    if mode not in ("nearest", "trilinear"):
        raise ParameterError(f"mode must be 'nearest' or 'trilinear', got {mode!r}")
    target = check_grid(vol.dims, target_spacing, ("dims", "target spacing"))
    out_dims, axes = _target_grid(vol.dims, vol.spacing, target)
    grid = np.meshgrid(*axes, indexing="ij")
    order = 0 if mode == "nearest" else 1
    out = ndimage.map_coordinates(vol.values, np.stack(grid), order=order, mode="nearest")
    return Volume3D(_adopt(np.ascontiguousarray(out.reshape(out_dims))), target, vol.unit)
