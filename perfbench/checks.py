"""Output checks against the phantom ground truth, independent of petquant.

NIfTI files are decoded here with a reader of our own, and Dice and the
Hausdorff distance are recomputed with scipy, so a defect shared by a
petquant writer and its reader still shows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from workloads import Workload, flag_values, pair_rows, stages

_DTYPES = {2: "<u1", 4: "<i2", 16: "<f4"}
_STRUCT_6 = ndimage.generate_binary_structure(3, 1)
LOSS_TOLERANCE = 1e-5


class CheckError(Exception):
    pass


def read_nifti(path: Path) -> np.ndarray:
    """The voxel grid of a single-file little-endian NIfTI-1 volume."""
    raw = Path(path).read_bytes()
    if len(raw) < 352 or raw[344:348] != b"n+1\x00":
        raise CheckError(f"{path}: not a single-file NIfTI-1 volume")
    dim = struct.unpack_from("<8h", raw, 40)
    datatype = struct.unpack_from("<h", raw, 70)[0]
    offset = int(struct.unpack_from("<f", raw, 108)[0])
    slope, inter = struct.unpack_from("<2f", raw, 112)
    if dim[0] != 3 or datatype not in _DTYPES:
        raise CheckError(f"{path}: dim[0]={dim[0]}, datatype={datatype}")
    shape = dim[1:4]
    grid = np.frombuffer(raw, _DTYPES[datatype], count=math.prod(shape), offset=offset)
    grid = grid.reshape(shape, order="F")
    if slope not in (0.0, 1.0) or inter != 0.0:
        grid = grid * slope + inter
    return grid


def read_bits(path: Path) -> np.ndarray:
    return read_nifti(path) != 0


def dice(a: np.ndarray, b: np.ndarray) -> float:
    total = int(a.sum()) + int(b.sum())
    return 1.0 if total == 0 else 2.0 * int((a & b).sum()) / total


def hausdorff_mm(a: np.ndarray, b: np.ndarray, spacing) -> float:
    """Symmetric Hausdorff distance between boundary voxel centers (6-neighborhood)."""
    pts = []
    for bits in (a, b):
        edge = bits & ~ndimage.binary_erosion(bits, structure=_STRUCT_6, border_value=0)
        pts.append(np.argwhere(edge) * np.asarray(spacing, dtype=np.float64))
    forward = cKDTree(pts[1]).query(pts[0])[0].max()
    backward = cKDTree(pts[0]).query(pts[1])[0].max()
    return float(max(forward, backward))


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class PassChecker:
    """Checks one pass's outputs, stage by stage, in `work`."""

    def __init__(self, w: Workload, work: Path):
        self.w, self.work = w, work
        self._pred: dict[str, np.ndarray] = {}

    def run(self) -> dict[str, list[str]]:
        """Problems found per stage; an empty list means the stage's outputs are correct."""
        problems = {}
        for stage, _ in stages(self.w):
            try:
                getattr(self, "check_" + stage.replace("-", "_"))()
                problems[stage] = []
            except (CheckError, OSError, KeyError, ValueError) as exc:
                problems[stage] = [f"{type(exc).__name__}: {exc}"]
        return problems

    # -- ground truth ---------------------------------------------------------
    def _truth(self) -> list[dict]:
        return json.loads((self.work / "phantom" / "ground_truth.json").read_text())["patients"]

    def _gt_bits(self, pid: str, tag: str) -> np.ndarray:
        return read_bits(self.work / "phantom" / f"{pid}_{tag}_mask.nii")

    def _pred_bits(self, pid: str, tag: str) -> np.ndarray:
        key = f"{pid}_{tag}"
        if key not in self._pred:
            self._pred[key] = read_bits(self.work / "seg" / f"{key}_pred.nii")
        return self._pred[key]

    def _outliers(self) -> set[str]:
        return {p["patient_id"] for p in self._truth() if p["is_outlier"]}

    # -- stages ---------------------------------------------------------------
    def check_phantom(self) -> None:
        c = self.w.cohort
        truth = self._truth()
        _expect(len(truth) == c["n"], f"phantom: {len(truth)} patients, expected {c['n']}")
        n_out = round(c.get("outlier_fraction", 0.0) * c["n"])
        _expect(len(self._outliers()) == n_out, f"phantom: expected {n_out} outliers")
        for p in truth:
            for tag, key in (("bl", "baseline"), ("fu", "followup")):
                count = int(self._gt_bits(p["patient_id"], tag).sum())
                want = p[key]["voxel_count"]
                name = f"{p['patient_id']}_{tag}"
                _expect(count == want, f"phantom: {name} mask has {count} voxels, truth {want}")

    def check_segment(self) -> None:
        floor = self.w.dice_floor
        for p in self._truth():
            for tag in ("bl", "fu"):
                gt, pred = self._gt_bits(p["patient_id"], tag), self._pred_bits(p["patient_id"], tag)
                name = f"{p['patient_id']}_{tag}"
                if floor is None:
                    _expect(np.array_equal(gt, pred), f"segment: {name} differs from its ground truth")
                else:
                    d = dice(gt, pred)
                    _expect(d >= floor, f"segment: {name} Dice {d:.4f} < {floor}")

    def check_qc(self) -> None:
        summary = json.loads((self.work / "qc" / "qc_summary.json").read_text())
        truth = self._truth()
        _expect(summary["cohort_size"] == len(truth), "qc: cohort_size differs from the phantom")
        _expect(set(summary["extreme_ids"]) == self._outliers(), "qc: extreme_ids != injected outliers")
        if self.w.dice_floor is None:
            ratios = [p["followup"]["mtv_cm3"] / p["baseline"]["mtv_cm3"] for p in truth]
            want = 1.0 / (sum(ratios) / len(ratios))
            _expect(summary["threshold"] == want, f"qc: threshold {summary['threshold']!r}, truth {want!r}")
            _expect(summary["n_quadrant_mismatch"] == 0, "qc: quadrant mismatches on a centred phantom")
        k = int(flag_values(self.w.qc).get("select-extreme", 0))
        if k and summary["extreme_ids"]:
            tasks = json.loads((self.work / "qc" / "annotation_batch" / "tasks.json").read_text())["tasks"]
            ids = [t["patient_id"] for t in tasks]
            _expect(ids == summary["extreme_ids"], "qc: annotation tasks != extreme_ids")
            for t in tasks:
                exported = read_nifti(self.work / "qc" / "annotation_batch" / t["volume"])
                _expect(exported.size > 0, "qc: empty export")

    def check_report(self) -> None:
        rows = read_csv(self.work / "rep" / "biomarker_table.csv")
        truth = {p["patient_id"]: p for p in self._truth()}
        _expect(len(rows) == 2 * len(truth), f"report: {len(rows)} biomarker rows for {len(truth)} patients")
        for row in rows:
            pid, tp = row["patient_id"], row["timepoint"]
            count = int(row["voxel_count"])
            if self.w.dice_floor is None:
                want = truth[pid][tp]
                _expect(count == want["voxel_count"], f"report: {pid} {tp} voxel_count {count}")
                mtv = float(row["mtv_cm3"])
                _expect(mtv == want["mtv_cm3"], f"report: {pid} {tp} mtv_cm3 {mtv!r}")
            else:
                tag = "bl" if tp == "baseline" else "fu"
                want = int(self._pred_bits(pid, tag).sum())
                _expect(count == want, f"report: {pid} {tp} voxel_count {count}, mask has {want}")

    def check_compare(self) -> None:
        rows = {r["pair_id"]: r for r in read_csv(self.work / "compare.csv")}
        spacing = self.w.cohort["spacing_mm"]
        for pair_id, gt_path, _ in pair_rows(self.w):
            pid, tag = pair_id.rsplit("_", 1)
            gt, pred = read_bits(self.work / gt_path), self._pred_bits(pid, tag)
            row = rows[pair_id]
            d = dice(gt, pred)
            _expect(float(row["dsc"]) == d, f"compare: {pair_id} dsc {row['dsc']}, expected {d!r}")
            hd = hausdorff_mm(gt, pred, spacing)
            got = float(row["hd_mm"])
            close = math.isclose(got, hd, rel_tol=1e-9, abs_tol=1e-9)
            _expect(close, f"compare: {pair_id} hd_mm {got}, expected {hd}")

    def check_loss_check(self) -> None:
        report = json.loads((self.work / "loss.json").read_text())
        _expect(report["trials"] == self.w.loss_trials, f"loss-check: {report['trials']} trials")
        err = report["max_relative_error"]
        _expect(err < LOSS_TOLERANCE, f"loss-check: max_relative_error {err} >= {LOSS_TOLERANCE}")


def replay_problems(w: Workload, cli: Path, rep: Path) -> list[str]:
    """Where the traced replay's masks, biomarkers, QC outcome, compare metrics
    or loss report differ from the CLI run's."""
    problems = []
    try:
        if w.cohort:
            for pair_id, _, pred in pair_rows(w):
                if not np.array_equal(read_bits(cli / pred), read_bits(rep / pred)):
                    problems.append(f"mask {pair_id} differs")
            a = read_csv(cli / "rep" / "biomarker_table.csv")
            b = read_csv(rep / "rep" / "biomarker_table.csv")
            keys = ("patient_id", "timepoint", "suv_max", "suv_mean", "mtv_cm3", "tlg", "voxel_count")
            if [[r[k] for k in keys] for r in a] != [[r[k] for k in keys] for r in b]:
                problems.append("biomarker tables differ")
            qa = json.loads((cli / "qc" / "qc_summary.json").read_text())
            qb = json.loads((rep / "qc" / "qc_summary.json").read_text())
            for key in ("threshold", "n_outliers", "n_quadrant_mismatch", "extreme_ids"):
                if qa[key] != qb[key]:
                    problems.append(f"qc {key} differs")
        if w.compare:
            keys = ("pair_id", "dsc", "iou", "sensitivity", "hd_mm")
            a, b = read_csv(cli / "compare.csv"), read_csv(rep / "compare.csv")
            if [[r[k] for k in keys] for r in a] != [[r[k] for k in keys] for r in b]:
                problems.append("compare metrics differ")
        if w.loss_trials:
            la = json.loads((cli / "loss.json").read_text())
            lb = json.loads((rep / "loss.json").read_text())
            for key in ("max_relative_error", "losses_last_trial"):
                if la[key] != lb[key]:
                    problems.append(f"loss-check {key} differs")
    except (CheckError, OSError, KeyError, ValueError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    return problems


STAGE_OUTPUTS = {
    "phantom": "phantom",
    "segment": "seg",
    "qc": "qc",
    "report": "rep",
    "compare": "compare.csv",
    "loss-check": "loss.json",
}


def stage_digest(work: Path, stage: str) -> str:
    """sha256 over a stage's output files: relative path, a NUL, then the bytes."""
    root = work / STAGE_OUTPUTS[stage]
    files = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else [root]
    h = hashlib.sha256()
    for p in files:
        h.update(p.relative_to(work).as_posix().encode() + b"\0")
        with open(p, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
    return h.hexdigest()
