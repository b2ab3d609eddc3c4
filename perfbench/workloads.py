"""The benchmark's workloads: which petquant stages each one runs, and on what.

Every workload is a closed loop with one caller in one process. A workload
seed becomes the phantom seed and the gradient-check seed; nothing else in
the inputs varies with it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int = 1  # 0: one thread per available core
    cohort: dict | None = None  # `petquant phantom` cohort spec, without the seed
    segment: tuple[str, ...] = ()  # `petquant segment` method flags
    qc: tuple[str, ...] = ()  # `petquant qc` flags
    compare: bool = False  # score every predicted mask against its ground truth
    loss_trials: int = 0  # `petquant loss-check --trials`; 0: no loss check
    loss_shape: int = 8
    dice_floor: float | None = None  # None: predicted masks must equal ground truth


_GRID = {"dims": [144, 144, 66], "spacing_mm": [4.0, 4.0, 4.0], "baseline_radius_mm": 16.0}

WORKLOADS = {
    w.name: w
    for w in (
        # A 280-voxel lesion on a 1.4 M-voxel grid: whole-grid mask morphology
        # dominates; the only workload on the thread pool; ~1.6 GB of NIfTI I/O.
        Workload(
            "ref_cohort",
            threads=0,
            cohort={"n": 100, "ratio_mean": 0.1406, "ratio_sd": 0.002, **_GRID},
            segment=("--method", "pct_suvmax", "--pct", "0.5"),
            qc=("--derive-threshold", "--select-extreme", "15"),
        ),
        # Serial: iterative contrast threshold, background shell, noise
        # generation, annotation export and Hausdorff on large outlier blobs.
        Workload(
            "noisy_contrast",
            threads=1,
            cohort={
                "n": 40,
                "ratio_mean": 0.1406,
                "ratio_sd": 0.002,
                "noise_sd": 1.5,
                "outlier_fraction": 0.1,
                **_GRID,
            },
            segment=("--method", "contrast", "--roi", "52,52,13,92,92,53"),
            qc=("--select-extreme", "15"),
            compare=True,
            # A 39-voxel follow-up lesion with 5 noise voxels attached scores
            # 0.94; that happens on ~2 % of seeds, 9 or more (< 0.90) on far
            # fewer than 0.01 %.
            dice_floor=0.90,
        ),
        # Pure-Python finite differences over the loss kernels: no I/O, no
        # masks, no threads.
        Workload("loss_gradcheck", loss_trials=100),
    )
}


def resolve_threads(w: Workload) -> int:
    return w.threads or len(os.sched_getaffinity(0))


def stages(w: Workload) -> list[tuple[str, int]]:
    """(stage, operations) in run order. Operations are volumes for phantom
    and segment, patients for qc and report, pairs and trials otherwise."""
    out = []
    if w.cohort:
        n = w.cohort["n"]
        out += [("phantom", 2 * n), ("segment", 2 * n), ("qc", n), ("report", n)]
        if w.compare:
            out.append(("compare", 2 * n))
    if w.loss_trials:
        out.append(("loss-check", w.loss_trials))
    return out


def stage_argv(w: Workload, stage: str, work: Path, seed: int, threads: int) -> list[str]:
    """The `petquant` command line of one stage, run inside `work`."""
    t = ["--threads", str(threads)]
    seg_manifest = str(work / "seg" / "manifest.csv")
    if stage == "phantom":
        return ["phantom", "--spec", str(work / "spec.json"), "--out", str(work / "phantom"), *t]
    if stage == "segment":
        manifest = str(work / "phantom" / "manifest.csv")
        return ["segment", "--manifest", manifest, "--out-dir", str(work / "seg"), *w.segment, *t]
    if stage == "qc":
        return ["qc", "--manifest", seg_manifest, "--out-dir", str(work / "qc"), *w.qc, *t]
    if stage == "report":
        return ["report", "--manifest", seg_manifest, "--out-dir", str(work / "rep"), *t]
    if stage == "compare":
        return ["compare", "--batch", str(work / "pairs.csv"), "--out", str(work / "compare.csv")]
    if stage == "loss-check":
        return [
            "loss-check", "--trials", str(w.loss_trials), "--shape", str(w.loss_shape),
            "--seed", str(seed), "--out", str(work / "loss.json"),
        ]  # fmt: skip
    raise ValueError(f"unknown stage {stage!r}")


def pair_rows(w: Workload) -> list[list[str]]:
    """Rows of the `compare --batch` file: each predicted mask against the
    phantom's ground-truth mask, paths relative to the work directory."""
    rows = []
    for i in range(w.cohort["n"]):
        for tag in ("bl", "fu"):
            pid = f"p{i:04d}"
            rows.append([f"{pid}_{tag}", f"phantom/{pid}_{tag}_mask.nii", f"seg/{pid}_{tag}_pred.nii"])
    return rows


def flag_values(flags: tuple[str, ...]) -> dict[str, str]:
    """`("--method", "contrast", "--roi", "1,2,3,4,5,6")` as a dict; flags without a value map to ""."""
    out: dict[str, str] = {}
    key = None
    for item in flags:
        if item.startswith("--"):
            key = item[2:]
            out[key] = ""
        elif key is not None:
            out[key] = item
    return out


def disk_need_bytes(w: Workload) -> int:
    """Bytes one pass leaves on disk at its peak: phantom volumes and masks,
    predicted masks, and the annotation export, plus a quarter for slack."""
    if not w.cohort:
        return 64 << 20
    nx, ny, nz = w.cohort["dims"]
    voxels = nx * ny * nz
    n = w.cohort["n"]
    per_patient = 2 * (4 * voxels + 2 * voxels)
    export = min(15, n) * 5 * voxels if w.qc else 0
    return int(1.25 * (n * per_patient + export))
