"""Two-step longitudinal quality control.

Step one checks that baseline and follow-up lesion centroids fall in the
same axial quadrant. Quadrants are index-relative, so a pair is compared on
the baseline grid; `pair_quadrants` is the one place that rule lives, for
`check_pair` and the cohort pass alike. Step two compares the pair's
`DeltaSet.mtv_ratio` (infinite when a zero baseline MTV leaves it undefined)
against a data-driven threshold (the reciprocal of the cohort mean ratio).
Equality passes; only ratios strictly above the threshold are outliers.
The most extreme outliers can be exported as an annotation batch.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .biomarkers import BiomarkerSet, DeltaSet, delta
from .errors import DegenerateInputError, EmptyRegionError, check_real
from .mask import BinaryMask, Quadrant, centroid, regrid_nearest

# Threshold derived on the original 180-scan clinical cohort; shipped as a
# fixed constant for parity runs on data where re-derivation is impossible.
REFERENCE_RATIO_THRESHOLD = 7.11


class ThresholdDerivation(enum.Enum):
    FIXED = "fixed"
    RECIPROCAL_MEAN_RATIO = "reciprocal_mean_ratio"


@dataclass(frozen=True)
class QcThreshold:
    value: float
    derivation: ThresholdDerivation

    def __post_init__(self) -> None:
        check_real("threshold", self.value, gt=0)


def fixed_threshold(value: float = REFERENCE_RATIO_THRESHOLD) -> QcThreshold:
    return QcThreshold(value, ThresholdDerivation.FIXED)


def derive_threshold(ratios) -> QcThreshold:
    """Reciprocal of the mean MTV ratio over the cohort."""
    vals = [float(r) for r in ratios]
    if not vals:
        raise DegenerateInputError("cannot derive a threshold from an empty cohort")
    for v in vals:
        check_real("MTV ratio", v, ge=0)
    mean = sum(vals) / len(vals)
    if mean <= 0.0:
        raise DegenerateInputError("mean MTV ratio is zero; threshold undefined")
    return QcThreshold(1.0 / mean, ThresholdDerivation.RECIPROCAL_MEAN_RATIO)


@dataclass(frozen=True)
class QcRecord:
    """Per-patient QC outcome for one baseline/follow-up pair."""

    patient_id: str
    baseline_quadrant: Quadrant
    followup_quadrant: Quadrant
    mtv_ratio: float
    quadrant_ok: bool
    ratio_ok: bool
    outlier_score: float

    @property
    def validated(self) -> bool:
        return self.quadrant_ok and self.ratio_ok


def build_record(
    patient_id: str,
    baseline_quadrant: Quadrant,
    followup_quadrant: Quadrant,
    change: DeltaSet,
    thr: QcThreshold,
) -> QcRecord:
    """Apply both QC rules to precomputed quadrants and the pair's `DeltaSet`;
    an undefined MTV ratio (zero baseline MTV) is infinite: an outlier."""
    quadrant_ok = baseline_quadrant == followup_quadrant
    ratio = math.inf if change.mtv_ratio is None else change.mtv_ratio
    ratio_ok = ratio <= thr.value
    score = max(0.0, ratio - thr.value)
    return QcRecord(
        patient_id, baseline_quadrant, followup_quadrant, ratio, quadrant_ok, ratio_ok, score
    )


def pair_quadrants(
    bl_mask: BinaryMask, fu_mask: BinaryMask
) -> tuple[Quadrant | None, Quadrant | None]:
    """Centroid quadrants of a baseline/follow-up pair on the baseline grid: the
    follow-up is regridded (nearest) onto the baseline dims first, and spacing
    may differ freely. None for a mask that is empty there."""
    fu_mask = regrid_nearest(fu_mask, bl_mask.dims)
    bl_q, fu_q = (None if m.is_empty else centroid(m).quadrant for m in (bl_mask, fu_mask))
    return bl_q, fu_q


def check_pair(
    bl_mask: BinaryMask,
    fu_mask: BinaryMask,
    bl_bio: BiomarkerSet,
    fu_bio: BiomarkerSet,
    thr: QcThreshold,
    patient_id: str = "",
) -> QcRecord:
    """Run both QC steps on one pair of segmentations, on the quadrants
    `pair_quadrants` gives."""
    if bl_mask.is_empty or fu_mask.is_empty:
        raise EmptyRegionError("QC needs non-empty baseline and follow-up masks")
    bl_q, fu_q = pair_quadrants(bl_mask, fu_mask)
    if fu_q is None:
        raise EmptyRegionError("follow-up mask vanished when regridded to baseline dims")
    return build_record(patient_id, bl_q, fu_q, delta(bl_bio, fu_bio), thr)


def select_extreme_outliers(records: list[QcRecord], k: int) -> list[str]:
    """Patient ids of the k largest outlier scores (score > 0 only); ties
    break by ascending patient id. Fewer than k outliers returns them all."""
    check_real("k", k, ge=0)
    flagged = [r for r in records if r.outlier_score > 0.0]
    flagged.sort(key=lambda r: (-r.outlier_score, r.patient_id))
    return [r.patient_id for r in flagged[:k]]
