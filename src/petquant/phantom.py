"""Synthetic PET phantoms with analytically known biomarkers.

Single lesions are spheres (uniform plateau or Gaussian profile) on a flat
background; the ground-truth mask is the closed-form 50%-contrast set, i.e.
all voxel centers within the lesion radius. A cohort's lesions are prefixes
of one growth order (distance from the grid center, ties by linear index):
the baseline sphere is its first N voxels, each follow-up blob exactly
round(ratio·N) voxels, so the realized MTV ratio is a known rational.

Follow-up counts are drawn before anything is written, and only the prefix of
the growth order the largest count needs is sorted. That prefix comes from the
lesion's box, not the grid: a box around the center whose half-width starts at
the baseline radius and doubles until it holds that many voxel centers within
the half-width, so it holds the prefix and every tie. No cohort builds a
whole-grid distance field; `generate` does, because its profile covers the
grid. Each noiseless volume and every mask is one encoded background payload
with its lesion's cells set; the bytes are those of rasterizing and encoding
the whole grid. Only the payload's span from the least lesion cell to the
greatest is copied: a volume's file takes the shared background's own bytes
around it, a mask's file has holes there. A noisy volume is drawn from its
patient's stream a slab of whole x planes at a time, each slab's lesion cells
set and the slab cast into its thread's one float32 payload, which is written
before it is refilled: no cohort holds a whole-grid float64 array, and the
bytes are those of the whole-grid draw, since consecutive draws from one
stream are that draw.

All randomness is seeded; per-patient streams derive from (seed, index) so
parallel generation never changes the output bytes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .biomarkers import BiomarkerSet
from .cohort import CohortEntry, parallel_map, write_manifest
from .errors import LesionSpecError, check_real
from .mask import BinaryMask
from .nifti import encode_nifti
from .serialize import dumps_json, write_bytes_atomic, write_text_atomic
from .volume import IntensityUnit, Volume3D, check_grid, voxel_volume_cm3

DEFAULT_DIMS = (144, 144, 66)
DEFAULT_SPACING = (4.0, 4.0, 4.0)
# dose 3 MBq/kg on a 60 kg patient: SUV 10 maps to 30 kBq/mL exactly in float32
DEFAULT_DOSE_MBQ = 180.0
DEFAULT_WEIGHT_KG = 60.0
# a cohort plans every patient's random stream and follow-up count in memory
# before it writes four full-grid files per patient
MAX_COHORT = 10_000
# a noisy volume is drawn in slabs of whole x planes, about this many draws each
_SLAB_DRAWS = 1 << 17


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
        for c in self.center:
            check_real("center", c, error=LesionSpecError)
        check_real("radius_mm", self.radius_mm, gt=0, error=LesionSpecError)
        check_real("background_suv", self.background_suv, ge=0, error=LesionSpecError)
        check_real("noise_sd", self.noise_sd, ge=0, error=LesionSpecError)
        check_real("seed", self.seed, ge=0, error=LesionSpecError)
        # background_suv is finite and >= 0 here, so this also makes peak_suv finite and > 0
        diff = self.peak_suv - self.background_suv
        check_real("peak_suv - background_suv", diff, gt=0, error=LesionSpecError)


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
    origin: tuple[int, int, int] = (0, 0, 0),
) -> np.ndarray:
    """Distances in mm from `center` (voxel units) of the voxel centers of the
    `dims` box whose first voxel is `origin`; the box's values are those of
    the whole grid's field there, bit for bit."""
    axes = [
        ((np.arange(o, o + n, dtype=np.float64) - c) * s) ** 2
        for n, s, c, o in zip(dims, spacing, center, origin)
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


def _growth_prefix(d: np.ndarray, k: int) -> np.ndarray:
    """The first `k` linear indices of the flat distances `d` sorted by
    (distance, linear index), i.e. `np.argsort(d, kind="stable")[:k]`, with
    only the voxels no farther than the k-th nearest sorted."""
    near = np.flatnonzero(d <= np.partition(d, k - 1)[k - 1])  # ascending linear index
    return near[np.argsort(d[near], kind="stable")][:k]


def _box_distances(dims, spacing, center, half_mm: float) -> tuple[np.ndarray, list]:
    """Distances on the box from floor(c - half_mm/s) to ceil(c + half_mm/s)
    on each axis, clipped to the grid, and the box's origin: the box holds
    every voxel center within `half_mm` of `center`, however the division
    rounds."""
    lo = [max(0, math.floor(c - half_mm / s)) for c, s in zip(center, spacing)]
    hi = [min(n, math.ceil(c + half_mm / s) + 1) for n, c, s in zip(dims, center, spacing)]
    return _distance_mm_grid([b - a for a, b in zip(lo, hi)], spacing, center, lo), lo


def _growth_order(dims, spacing, center, half_mm: float, k: int) -> np.ndarray:
    """The whole grid's `np.argsort(d, kind="stable")[:k]`: the C-order linear
    indices of the `k` voxel centers nearest `center`, ties by linear index.
    They are sorted on the box of every voxel within `half_mm`, doubled until
    it holds `k` of them or is the whole grid; then the k nearest, ties
    included, lie in the box, and its C order is the grid's."""
    while True:
        d, origin = _box_distances(dims, spacing, center, half_mm)
        if d.size == math.prod(dims) or np.count_nonzero(d <= half_mm) >= k:
            local = np.unravel_index(_growth_prefix(d.ravel(), k), d.shape)
            return np.ravel_multi_index([i + o for i, o in zip(local, origin)], dims)
        half_mm *= 2


@dataclass(frozen=True)
class ResponseModel:
    """Distribution of follow-up/baseline MTV ratios across a cohort."""

    ratio_mean: float
    ratio_sd: float = 0.0
    outlier_fraction: float = 0.0
    outlier_ratio_min: float = 10.0

    def __post_init__(self) -> None:
        check_real("ratio_mean", self.ratio_mean, gt=0)
        check_real("ratio_sd", self.ratio_sd, ge=0)
        check_real("outlier_fraction", self.outlier_fraction, ge=0, le=1)
        check_real("outlier_ratio_min", self.outlier_ratio_min, gt=0)

    def follow_up_count(
        self, rng: np.random.Generator, outlier: bool, bl_count: int, size: int
    ) -> int:
        """A follow-up blob's voxel count, drawn from `rng`, for a `bl_count`-voxel
        baseline on a `size`-voxel grid. An outlier's is clamped to the grid;
        any other beyond it raises LesionSpecError."""
        if outlier:
            ratio = self.outlier_ratio_min * (1.0 + rng.uniform(0.0, 0.5))
            return math.ceil(min(ratio * bl_count, size))
        scaled = max(1.0 / bl_count, rng.normal(self.ratio_mean, self.ratio_sd)) * bl_count
        count = max(1, round(scaled)) if scaled < math.inf else scaled
        if count > size:
            raise LesionSpecError(f"blob of {count} voxels exceeds the {size}-voxel grid")
        return count


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
    The baseline lesion and the seed follow LesionSpec's rules, and
    1 <= n <= MAX_COHORT.
    Returns the manifest path.
    """
    check_real("n", n, ge=1, le=MAX_COHORT)
    center = tuple((d - 1) / 2.0 for d in dims)
    lesion = LesionSpec(center, baseline_radius_mm, peak_suv, "uniform", background_suv, noise_sd, seed)
    _check_fits(lesion.center, lesion.radius_mm, dims, spacing)
    d, _ = _box_distances(dims, spacing, lesion.center, lesion.radius_mm)
    bl_count = int(np.count_nonzero(d <= lesion.radius_mm))
    if bl_count == 0:
        raise LesionSpecError("baseline lesion covers no voxel center")

    master = np.random.default_rng(seed)
    n_outliers = int(round(response.outlier_fraction * n))
    outlier_idx = set(master.permutation(n)[:n_outliers].tolist())
    # each patient's stream draws its follow-up count now, so a bad count
    # fails before anything is written, and its noise later
    rngs = [np.random.default_rng([seed, i]) for i in range(n)]
    fu_counts = [
        response.follow_up_count(rng, i in outlier_idx, bl_count, math.prod(dims))
        for i, rng in enumerate(rngs)
    ]
    # a stable order breaks distance ties by linear index
    growth = _growth_order(dims, spacing, lesion.center, lesion.radius_mm, max(bl_count, *fu_counts))
    cells = np.ravel_multi_index(np.unravel_index(growth, dims), dims, order="F")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    voxvol = voxel_volume_cm3(spacing)
    suv_to_activity = DEFAULT_DOSE_MBQ / DEFAULT_WEIGHT_KG  # kBq/mL per SUV
    peak_act = peak_suv * suv_to_activity
    bg_act = background_suv * suv_to_activity

    # the first `count` lesion cells lie between these payload indices
    first, last = np.minimum.accumulate(cells), np.maximum.accumulate(cells)

    def patched(background: np.ndarray, count: int, value) -> tuple:
        """The span of an x-fastest payload from the first `count` lesion cells'
        least index to their greatest, copied with those cells set to `value`,
        and its bounds."""
        lo, hi = int(first[count - 1]), int(last[count - 1]) + 1
        span = background[lo:hi].copy()
        span[cells[:count] - lo] = value
        return lo, hi, span

    # the encoded empty mask and, without noise, the encoded background: the
    # lesion's span is all that sets a file apart from one of these
    mask_header, empty = encode_nifti(np.zeros(dims, dtype=np.uint8), spacing, datatype=2)
    empty = np.frombuffer(empty, dtype=np.uint8)

    def mask(count: int) -> tuple:
        """Chunks of a mask whose lesion is `count` voxels: holes around its span."""
        lo, hi, span = patched(empty, count, 1)
        return mask_header, lo, span, empty.size - hi

    plane = dims[1] * dims[2]  # voxels per x plane: a C-order slab is whole planes
    rows = max(1, _SLAB_DRAWS // plane)
    local = threading.local()  # each thread's noisy payload, refilled per volume

    def volume(count: int, rng: np.random.Generator | None) -> tuple:
        """Chunks of a volume whose lesion is `count` voxels: without noise, the
        shared background's bytes around its span; with noise, the thread's
        payload, refilled slab by slab from the patient's stream."""
        if noise_sd == 0:
            lo, hi, span = patched(background, count, peak_act)
            return vol_header, background[:lo], span, background[hi:]
        if not hasattr(local, "payload"):
            local.payload = np.empty(dims, dtype="<f4", order="F")
        lesion = np.sort(growth[:count])  # C indices, ascending
        for a in range(0, dims[0], rows):
            b = min(a + rows, dims[0])
            # consecutive draws from one stream are its whole-grid draw, C order
            noise = rng.normal(0.0, noise_sd * suv_to_activity, (b - a, *dims[1:]))
            flat = noise.reshape(-1)  # a view
            lo, hi = np.searchsorted(lesion, (a * plane, b * plane))
            cells = lesion[lo:hi] - a * plane
            # noise + base: addition commutes, so these are where(...) + noise's bits
            peak = flat[cells] + peak_act
            noise += bg_act
            flat[cells] = peak
            local.payload[a:b] = noise  # the float32 cast, into x-fastest order
        return encode_nifti(local.payload, spacing, datatype=16)  # the payload itself

    bl_mask = mask(bl_count)
    bl_volume = None  # a noisy baseline is drawn per patient
    if noise_sd == 0:
        # a constant grid: float32 and Fortran order from the start, so it is its own payload
        background = np.full(dims, bg_act, dtype="<f4", order="F")
        vol_header, background = encode_nifti(background, spacing, datatype=16)
        background = np.frombuffer(background, dtype="<f4")
        bl_volume = volume(bl_count, None)

    def analytic(count: int) -> dict:
        mtv = count * voxvol
        return {
            "suv_max": peak_suv,
            "suv_mean": peak_suv,
            "mtv_cm3": mtv,
            "tlg": peak_suv * mtv,
            "voxel_count": count,
        }

    def build_one(i: int) -> tuple[CohortEntry, dict]:
        rng, fu_count = rngs[i], fu_counts[i]
        pid = f"p{i:04d}"
        names = [f"{pid}_bl.nii", f"{pid}_bl_mask.nii", f"{pid}_fu.nii", f"{pid}_fu_mask.nii"]
        # each file is built, written and let go before the next is built
        write_bytes_atomic(out / names[0], *(bl_volume or volume(bl_count, rng)))
        write_bytes_atomic(out / names[1], *bl_mask)
        write_bytes_atomic(out / names[2], *volume(fu_count, rng))
        write_bytes_atomic(out / names[3], *mask(fu_count))
        entry = CohortEntry(pid, *map(Path, names), DEFAULT_DOSE_MBQ, DEFAULT_WEIGHT_KG)
        return entry, {
            "patient_id": pid,
            "baseline": analytic(bl_count),
            "followup": analytic(fu_count),
            "mtv_ratio": fu_count / bl_count,
            "is_outlier": i in outlier_idx,
        }

    built = parallel_map(build_one, range(n), threads)

    manifest_path = out / "manifest.csv"
    write_manifest(manifest_path, [entry for entry, _ in built])

    truth = {
        "seed": seed,
        "dims": list(dims),
        "spacing_mm": list(spacing),
        "response": asdict(response),
        "patients": [row for _, row in built],
    }
    write_text_atomic(out / "ground_truth.json", dumps_json(truth))
    return manifest_path
