"""SUV/MTV/TLG extraction from a volume+mask pair and longitudinal deltas.

MTV is voxel count times voxel volume in cm³; TLG = SUVmean · MTV (SUV·cm³).
Degenerate cases (empty mask, zero baselines) are flagged through the
``warnings`` field rather than raised. Cohort QC still needs a lesion in every
mask: `cohort.analyse_cohort` refuses a patient with an empty mask by name,
so `cohort.run_cohort` (the `qc` and `report` commands) stops before writing
any file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import IntensityUnitError, VolumeDataError
from .mask import BinaryMask, require_same_geometry
from .volume import AcquisitionInfo, IntensityUnit, Volume3D

if TYPE_CHECKING:
    from .nifti import StoredVolume


@dataclass(frozen=True)
class BiomarkerSet:
    """Per-lesion biomarkers for one scan."""

    suv_max: float
    suv_mean: float
    mtv_cm3: float
    tlg: float
    voxel_count: int
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class DeltaSet:
    """Follow-up minus baseline changes plus the MTV ratio.

    pct_d_suv_max and mtv_ratio are None (with a warning) when the
    corresponding baseline value is zero.
    """

    d_suv_max: float
    d_mtv_cm3: float
    d_tlg: float
    pct_d_suv_max: float | None
    mtv_ratio: float | None
    warnings: tuple[str, ...] = ()


def extract(
    vol: Volume3D | StoredVolume, mask: BinaryMask, acq: AcquisitionInfo | None = None
) -> BiomarkerSet:
    """Biomarkers over the masked region of an SUV volume or, given `acq`, of
    an activity-concentration volume (kBq/mL) in body-weight SUV.

    `vol` may be a volume file as stored (`nifti.StoredVolume`): only the
    mask's bounding box is widened to float64, and the result is that of the
    whole volume widened. Only the masked voxels are scaled, each by
    `acq.suv_scale` as `to_suv` scales every voxel, so the values are
    `extract(to_suv(vol, acq), mask)`'s bit for bit. An empty mask yields an
    all-zero set flagged with a warning and widens nothing.
    """
    require_same_geometry(vol, mask)
    need = IntensityUnit.SUV if acq is None else IntensityUnit.ACTIVITY_KBQ_PER_ML
    if vol.unit is not need:
        raise IntensityUnitError(
            f"biomarker extraction needs {need.value} input, got {vol.unit.value}"
        )
    box = mask.box
    if box is None:
        return BiomarkerSet(0.0, 0.0, 0.0, 0.0, 0, ("empty mask: biomarkers set to zero",))
    # the box keeps the voxels' logical index order, so mean's pairwise sum is unchanged
    selected = vol.widen(box).values[mask.bits[box]]
    if acq is not None:
        with np.errstate(over="ignore"):  # reported by the finite check below
            selected *= acq.suv_scale
        if not np.isfinite(selected).all():
            raise VolumeDataError(f"SUV scale {acq.suv_scale} overflows a masked voxel value")
    count = int(selected.size)
    suv_max = float(selected.max())
    suv_mean = float(selected.mean())
    mtv = count * vol.voxel_volume_cm3
    return BiomarkerSet(suv_max, suv_mean, mtv, suv_mean * mtv, count)


def delta(baseline: BiomarkerSet, followup: BiomarkerSet) -> DeltaSet:
    """Follow-up minus baseline; ratio and percent change flagged when undefined."""
    warnings: list[str] = []
    if baseline.suv_max != 0.0:
        pct = 100.0 * (followup.suv_max - baseline.suv_max) / baseline.suv_max
    else:
        pct = None
        warnings.append("baseline SUVmax is zero: percent change undefined")
    if baseline.mtv_cm3 != 0.0:
        ratio = followup.mtv_cm3 / baseline.mtv_cm3
    else:
        ratio = None
        warnings.append("baseline MTV is zero: MTV ratio undefined")
    return DeltaSet(
        followup.suv_max - baseline.suv_max,
        followup.mtv_cm3 - baseline.mtv_cm3,
        followup.tlg - baseline.tlg,
        pct,
        ratio,
        tuple(warnings),
    )
