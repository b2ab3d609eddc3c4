"""Synthetic PET phantoms with analytically known biomarkers.

Single lesions are spheres (uniform plateau or Gaussian profile) on a flat
background; the ground-truth mask is the closed-form 50%-contrast set, i.e.
all voxel centers within the lesion radius. Cohorts pair each baseline
lesion with a follow-up blob built to an exact target voxel count, so the
realized MTV ratio is a known rational.

All randomness is seeded; per-patient streams derive from (seed, index) so
parallel generation never changes the output bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .biomarkers import BiomarkerSet
from .cohort import MANIFEST_COLUMNS, parallel_map
from .errors import LesionSpecError, ParameterError
from .mask import BinaryMask
from .nifti import _nifti_bytes
from .serialize import dumps_csv, dumps_json, write_bytes_atomic, write_text_atomic
from .volume import IntensityUnit, Volume3D

DEFAULT_DIMS = (144, 144, 66)
DEFAULT_SPACING = (4.0, 4.0, 4.0)
# dose 3 MBq/kg on a 60 kg patient: SUV 10 maps to 30 kBq/mL exactly in float32
DEFAULT_DOSE_MBQ = 180.0
DEFAULT_WEIGHT_KG = 60.0


@dataclass(frozen=True)
class LesionSpec:
    """One spherical lesion on a uniform background."""

    center: tuple[float, float, float]
    radius_mm: float
    peak_suv: float
    profile: str = "uniform"  # or "gaussian"
    background_suv: float = 0.0
    noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.profile not in ("uniform", "gaussian"):
            raise LesionSpecError(f"profile must be 'uniform' or 'gaussian', got {self.profile!r}")
        if not self.radius_mm > 0:
            raise LesionSpecError("radius_mm must be > 0")
        if not self.peak_suv > 0:
            raise LesionSpecError("peak_suv must be > 0")
        if self.background_suv < 0:
            raise LesionSpecError("background_suv must be >= 0")
        if not self.peak_suv > self.background_suv:
            raise LesionSpecError("peak_suv must exceed background_suv")
        if self.noise_sd < 0:
            raise LesionSpecError("noise_sd must be >= 0")


def _distance_mm_grid(
    dims: tuple[int, int, int],
    spacing: tuple[float, float, float],
    center: tuple[float, float, float],
) -> np.ndarray:
    axes = [
        ((np.arange(n, dtype=np.float64) - c) * s) ** 2
        for n, s, c in zip(dims, spacing, center)
    ]
    return np.sqrt(axes[0][:, None, None] + axes[1][None, :, None] + axes[2][None, None, :])


def generate(
    spec: LesionSpec,
    dims: tuple[int, int, int] = DEFAULT_DIMS,
    spacing: tuple[float, float, float] = DEFAULT_SPACING,
) -> tuple[Volume3D, BinaryMask, BiomarkerSet]:
    """Build (volume, ground-truth mask, analytic biomarkers).

    The biomarkers come from the noiseless construction by direct voxel
    counting, independent of the extraction code path.
    """
    for c, n, s in zip(spec.center, dims, spacing):
        if c * s < spec.radius_mm or (n - 1 - c) * s < spec.radius_mm:
            raise LesionSpecError(
                f"lesion of radius {spec.radius_mm} mm at {spec.center} leaves the volume"
            )
    d = _distance_mm_grid(dims, spacing, spec.center)
    contrast = spec.peak_suv - spec.background_suv
    inside = d <= spec.radius_mm
    if spec.profile == "uniform":
        noiseless = np.where(inside, spec.peak_suv, spec.background_suv)
    else:
        sigma = spec.radius_mm / math.sqrt(2.0 * math.log(2.0))
        noiseless = spec.background_suv + contrast * np.exp(-(d * d) / (2.0 * sigma * sigma))

    values = noiseless
    if spec.noise_sd > 0:
        rng = np.random.default_rng(spec.seed)
        values = noiseless + rng.normal(0.0, spec.noise_sd, dims)

    mask = BinaryMask(inside, spacing)
    count = int(inside.sum())
    voxvol = spacing[0] * spacing[1] * spacing[2] / 1000.0
    if count == 0:
        bio = BiomarkerSet(0.0, 0.0, 0.0, 0.0, 0, ("lesion covers no voxel center",))
    elif spec.profile == "uniform":
        mtv = count * voxvol
        bio = BiomarkerSet(spec.peak_suv, spec.peak_suv, mtv, spec.peak_suv * mtv, count)
    else:
        sigma = spec.radius_mm / math.sqrt(2.0 * math.log(2.0))
        din = d[inside]
        profile_vals = spec.background_suv + contrast * np.exp(-(din * din) / (2.0 * sigma * sigma))
        mean = float(profile_vals.mean())
        peak = float(profile_vals.max())
        mtv = count * voxvol
        bio = BiomarkerSet(peak, mean, mtv, mean * mtv, count)
    return Volume3D(values, spacing, IntensityUnit.SUV), mask, bio


def _growth_order(
    dims: tuple[int, int, int],
    spacing: tuple[float, float, float],
    center: tuple[float, float, float],
) -> np.ndarray:
    """Linear voxel indices sorted by (distance from center, linear index)."""
    d = _distance_mm_grid(dims, spacing, center).ravel()
    return np.lexsort((np.arange(d.size), d))


def _blob_mask(dims: tuple[int, int, int], order: np.ndarray, count: int) -> np.ndarray:
    """The first `count` voxels of a growth order as a boolean grid."""
    if count > order.size:
        raise LesionSpecError(f"blob of {count} voxels exceeds the {order.size}-voxel grid")
    flat = np.zeros(order.size, dtype=bool)
    flat[order[:count]] = True
    return flat.reshape(dims)


@dataclass(frozen=True)
class ResponseModel:
    """Distribution of follow-up/baseline MTV ratios across a cohort."""

    ratio_mean: float
    ratio_sd: float = 0.0
    outlier_fraction: float = 0.0
    outlier_ratio_min: float = 10.0

    def __post_init__(self) -> None:
        if not self.ratio_mean > 0:
            raise ParameterError("ratio_mean must be > 0")
        if self.ratio_sd < 0:
            raise ParameterError("ratio_sd must be >= 0")
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ParameterError("outlier_fraction must lie in [0, 1]")
        if self.outlier_fraction > 0 and not self.outlier_ratio_min > 0:
            raise ParameterError("outlier_ratio_min must be > 0")


def generate_cohort(
    n: int,
    response: ResponseModel,
    seed: int,
    out_dir: str | Path,
    dims: tuple[int, int, int] = DEFAULT_DIMS,
    spacing: tuple[float, float, float] = DEFAULT_SPACING,
    baseline_radius_mm: float = 16.0,
    peak_suv: float = 10.0,
    background_suv: float = 1.0,
    noise_sd: float = 0.0,
    threads: int = 1,
) -> Path:
    """Write n baseline/follow-up pairs plus manifest.csv and ground_truth.json.

    Volumes are stored as activity concentration (kBq/mL) with matching
    dose/weight columns, so the quantification pipeline exercises the SUV
    conversion. Follow-up lesions hit round(ratio·N_bl) voxels exactly.
    Returns the manifest path.
    """
    if n < 1:
        raise ParameterError(f"cohort size must be >= 1, got {n}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    center = tuple((d - 1) / 2.0 for d in dims)
    for c, nn, s in zip(center, dims, spacing):
        if c * s < baseline_radius_mm:
            raise LesionSpecError("baseline lesion does not fit in the grid")

    master = np.random.default_rng(seed)
    n_outliers = int(round(response.outlier_fraction * n))
    outlier_idx = set(master.permutation(n)[:n_outliers].tolist())

    d_grid = _distance_mm_grid(dims, spacing, center)
    bl_bits = d_grid <= baseline_radius_mm
    bl_count = int(bl_bits.sum())
    if bl_count == 0:
        raise LesionSpecError("baseline lesion covers no voxel center")
    growth = _growth_order(dims, spacing, center)
    voxvol = spacing[0] * spacing[1] * spacing[2] / 1000.0
    suv_to_activity = DEFAULT_DOSE_MBQ / DEFAULT_WEIGHT_KG  # kBq/mL per SUV
    peak_act = peak_suv * suv_to_activity
    bg_act = background_suv * suv_to_activity

    def volume_bytes(bits: np.ndarray, rng) -> bytes:
        values = np.where(bits, peak_act, bg_act)
        if noise_sd > 0:
            values += rng.normal(0.0, noise_sd * suv_to_activity, dims)
        return _nifti_bytes(values.astype("<f4", order="F"), spacing, datatype=16)

    # every noiseless baseline is identical; serialize it once
    bl_volume_bytes = None
    bl_mask_bytes = _nifti_bytes(bl_bits.astype("<u1", order="F"), spacing, datatype=2)
    if noise_sd == 0:
        bl_volume_bytes = volume_bytes(bl_bits, None)

    def analytic(count: int) -> dict:
        mtv = count * voxvol
        return {
            "suv_max": peak_suv,
            "suv_mean": peak_suv,
            "mtv_cm3": mtv,
            "tlg": peak_suv * mtv,
            "voxel_count": count,
        }

    def build_one(i: int) -> dict:
        rng = np.random.default_rng([seed, i])
        if i in outlier_idx:
            ratio = response.outlier_ratio_min * (1.0 + rng.uniform(0.0, 0.5))
            fu_count = min(int(math.ceil(ratio * bl_count)), dims[0] * dims[1] * dims[2])
        else:
            ratio = max(1.0 / bl_count, rng.normal(response.ratio_mean, response.ratio_sd))
            fu_count = max(1, int(round(ratio * bl_count)))
        fu_bits = _blob_mask(dims, growth, fu_count)

        pid = f"p{i:04d}"
        names = [f"{pid}_bl.nii", f"{pid}_bl_mask.nii", f"{pid}_fu.nii", f"{pid}_fu_mask.nii"]
        write_bytes_atomic(
            out / names[0], bl_volume_bytes if bl_volume_bytes else volume_bytes(bl_bits, rng)
        )
        write_bytes_atomic(out / names[1], bl_mask_bytes)
        write_bytes_atomic(out / names[2], volume_bytes(fu_bits, rng))
        write_bytes_atomic(
            out / names[3], _nifti_bytes(fu_bits.astype("<u1", order="F"), spacing, datatype=2)
        )
        return {
            "patient_id": pid,
            "bl": analytic(bl_count),
            "fu": analytic(fu_count),
            "mtv_ratio": fu_count / bl_count,
            "is_outlier": i in outlier_idx,
            "row": [pid, *names, DEFAULT_DOSE_MBQ, DEFAULT_WEIGHT_KG],
        }

    entries = parallel_map(build_one, range(n), threads)

    manifest_path = out / "manifest.csv"
    write_text_atomic(manifest_path, dumps_csv(MANIFEST_COLUMNS, [e["row"] for e in entries]))

    truth = {
        "seed": seed,
        "dims": list(dims),
        "spacing_mm": list(spacing),
        "response": {
            "ratio_mean": response.ratio_mean,
            "ratio_sd": response.ratio_sd,
            "outlier_fraction": response.outlier_fraction,
            "outlier_ratio_min": response.outlier_ratio_min,
        },
        "patients": [
            {
                "patient_id": e["patient_id"],
                "baseline": e["bl"],
                "followup": e["fu"],
                "mtv_ratio": e["mtv_ratio"],
                "is_outlier": e["is_outlier"],
            }
            for e in entries
        ],
    }
    write_text_atomic(out / "ground_truth.json", dumps_json(truth))
    return manifest_path
