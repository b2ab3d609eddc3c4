"""Synthetic PET phantoms with analytically known biomarkers.

Single lesions are spheres (uniform plateau or Gaussian profile) on a flat
background; the ground-truth mask is the closed-form 50%-contrast set, i.e.
all voxel centers within the lesion radius. A cohort's lesions are prefixes
of one growth order (distance from the grid center, ties by linear index):
the baseline sphere is its first N voxels, each follow-up blob exactly
round(ratio·N) voxels, so the realized MTV ratio is a known rational.

All randomness is seeded; per-patient streams derive from (seed, index) so
parallel generation never changes the output bytes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .biomarkers import BiomarkerSet
from .cohort import MANIFEST_COLUMNS, parallel_map
from .errors import LesionSpecError, ParameterError
from .mask import BinaryMask
from .nifti import encode_nifti
from .serialize import dumps_csv, dumps_json, write_bytes_atomic, write_text_atomic
from .volume import IntensityUnit, Volume3D, check_grid, voxel_volume_cm3

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


def _check_fits(center: tuple, radius_mm: float, dims: tuple, spacing: tuple) -> None:
    """The grid check, then the fit check: the sphere stays inside on every axis."""
    check_grid(dims, spacing)
    for c, n, s in zip(center, dims, spacing):
        if c * s < radius_mm or (n - 1 - c) * s < radius_mm:
            raise LesionSpecError(f"lesion of radius {radius_mm} mm at {center} leaves the volume")


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
    _check_fits(spec.center, spec.radius_mm, dims, spacing)
    d = _distance_mm_grid(dims, spacing, spec.center)
    inside = d <= spec.radius_mm
    if spec.profile == "uniform":
        noiseless = np.where(inside, spec.peak_suv, spec.background_suv)
    else:
        sigma = spec.radius_mm / math.sqrt(2.0 * math.log(2.0))
        contrast = spec.peak_suv - spec.background_suv
        noiseless = spec.background_suv + contrast * np.exp(-(d * d) / (2.0 * sigma * sigma))

    values = noiseless
    if spec.noise_sd > 0:
        rng = np.random.default_rng(spec.seed)
        values = noiseless + rng.normal(0.0, spec.noise_sd, dims)

    mask = BinaryMask(inside, spacing)
    count = int(inside.sum())
    mtv = count * voxel_volume_cm3(spacing)
    if count == 0:
        bio = BiomarkerSet(0.0, 0.0, 0.0, 0.0, 0, ("lesion covers no voxel center",))
    elif spec.profile == "uniform":
        bio = BiomarkerSet(spec.peak_suv, spec.peak_suv, mtv, spec.peak_suv * mtv, count)
    else:
        profile_vals = noiseless[inside]
        mean = float(profile_vals.mean())
        bio = BiomarkerSet(float(profile_vals.max()), mean, mtv, mean * mtv, count)
    return Volume3D(values, spacing, IntensityUnit.SUV), mask, bio


def _growth_order(dims: tuple, spacing: tuple, center: tuple, radius_mm: float) -> tuple:
    """Linear voxel indices sorted by (distance from center, linear index),
    and how many lie within `radius_mm`: the sphere is that many first voxels."""
    d = _distance_mm_grid(dims, spacing, center).ravel()
    # a stable sort breaks distance ties by linear index
    return np.argsort(d, kind="stable"), int(np.count_nonzero(d <= radius_mm))


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
    center = tuple((d - 1) / 2.0 for d in dims)
    _check_fits(center, baseline_radius_mm, dims, spacing)
    growth, bl_count = _growth_order(dims, spacing, center, baseline_radius_mm)
    if bl_count == 0:
        raise LesionSpecError("baseline lesion covers no voxel center")
    bl_bits = _blob_mask(dims, growth, bl_count)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    master = np.random.default_rng(seed)
    n_outliers = int(round(response.outlier_fraction * n))
    outlier_idx = set(master.permutation(n)[:n_outliers].tolist())

    voxvol = voxel_volume_cm3(spacing)
    suv_to_activity = DEFAULT_DOSE_MBQ / DEFAULT_WEIGHT_KG  # kBq/mL per SUV
    peak_act = peak_suv * suv_to_activity
    bg_act = background_suv * suv_to_activity

    def volume_nifti(bits: np.ndarray, rng) -> tuple[bytes, bytes]:
        values = np.where(bits, peak_act, bg_act)
        if noise_sd > 0:
            values += rng.normal(0.0, noise_sd * suv_to_activity, dims)
        return encode_nifti(values, spacing, datatype=16)

    # every noiseless baseline is identical; serialize it once
    bl_volume = volume_nifti(bl_bits, None) if noise_sd == 0 else None
    bl_mask = encode_nifti(bl_bits, spacing, datatype=2)

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
            fu_count = min(int(math.ceil(ratio * bl_count)), growth.size)
        else:
            ratio = max(1.0 / bl_count, rng.normal(response.ratio_mean, response.ratio_sd))
            fu_count = max(1, int(round(ratio * bl_count)))
        fu_bits = _blob_mask(dims, growth, fu_count)

        pid = f"p{i:04d}"
        names = [f"{pid}_bl.nii", f"{pid}_bl_mask.nii", f"{pid}_fu.nii", f"{pid}_fu_mask.nii"]
        write_bytes_atomic(out / names[0], *(bl_volume or volume_nifti(bl_bits, rng)))
        write_bytes_atomic(out / names[1], *bl_mask)
        write_bytes_atomic(out / names[2], *volume_nifti(fu_bits, rng))
        write_bytes_atomic(out / names[3], *encode_nifti(fu_bits, spacing, datatype=2))
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
        "response": asdict(response),
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
