"""Cohort manifest handling and the QC / report pipelines.

A manifest is a CSV with the columns of `MANIFEST_COLUMNS`, the schema's one
definition (paths relative to the manifest). When dose_MBq and weight_kg are
both given the volumes are read as activity concentration and the masked
voxels converted to SUV; when both are empty they are taken as SUV already.
`read_table` is the one CSV reader (manifests, `compare --batch` pairs),
`extract_file` the one reader of biomarkers from a volume file.

Patient-level work runs through `parallel_map`; results are reduced in
manifest order, so reports are byte-identical for any thread count.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .biomarkers import BiomarkerSet, DeltaSet, delta, extract
from .errors import ManifestError
from .mask import BinaryMask, Quadrant
from .nifti import read_mask, read_volume, write_mask, write_volume
from .qc import (
    QcRecord,
    QcThreshold,
    build_record,
    derive_threshold,
    quadrant_on_grid,
    select_extreme_outliers,
)
from .serialize import dumps_csv, dumps_json, write_text_atomic
from .stats import boxplot_summary, paired_ttest
from .volume import AcquisitionInfo, IntensityUnit

MANIFEST_COLUMNS = [
    "patient_id",
    "bl_volume",
    "bl_mask",
    "fu_volume",
    "fu_mask",
    "dose_MBq",
    "weight_kg",
]


def parallel_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items] on up to `threads` threads, in input order.

    threads <= 1 calls fn inline on the calling thread. A worker's exception
    propagates to the caller.
    """
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class CohortEntry:
    patient_id: str
    bl_volume: Path
    bl_mask: Path
    fu_volume: Path
    fu_mask: Path
    dose_MBq: float | None = None
    weight_kg: float | None = None


def read_table(path: str | Path, required) -> Iterator[tuple[int, dict]]:
    """(line number, row) per data row of a CSV. ManifestError names the file for a
    missing `required` column, and file:line for a row too short to fill them."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in required if c not in (reader.fieldnames or [])]
        if missing:
            raise ManifestError(f"{path}: missing columns {missing}")
        for row in reader:
            if any(row[c] is None for c in required):
                raise ManifestError(f"{path}:{reader.line_num}: short row, needs {required}")
            yield reader.line_num, row


def load_manifest(path: str | Path) -> list[CohortEntry]:
    p = Path(path)
    entries: list[CohortEntry] = []
    seen: set[str] = set()
    for lineno, row in read_table(p, MANIFEST_COLUMNS[:5]):
        pid = row["patient_id"].strip()
        if not pid:
            raise ManifestError(f"{p}:{lineno}: empty patient_id")
        if pid in seen:
            raise ManifestError(f"{p}:{lineno}: duplicate patient_id {pid!r}")
        seen.add(pid)

        def _num(col: str) -> float | None:
            raw = (row.get(col) or "").strip()
            if not raw:
                return None
            try:
                val = float(raw)
            except ValueError as exc:
                raise ManifestError(f"{p}:{lineno}: bad {col} value {raw!r}") from exc
            if not (math.isfinite(val) and val > 0):
                raise ManifestError(f"{p}:{lineno}: {col} must be positive and finite, got {raw!r}")
            return val

        dose, weight = _num("dose_MBq"), _num("weight_kg")
        if (dose is None) != (weight is None):
            # a lone value would read kBq/mL volumes as SUV
            raise ManifestError(f"{p}:{lineno}: dose_MBq and weight_kg must be given together")
        entries.append(
            CohortEntry(
                pid,
                p.parent / row["bl_volume"],
                p.parent / row["bl_mask"],
                p.parent / row["fu_volume"],
                p.parent / row["fu_mask"],
                dose,
                weight,
            )
        )
    if not entries:
        raise ManifestError(f"{p}: manifest has no rows")
    return entries


def extract_file(path: str | Path, mask: BinaryMask, acq: AcquisitionInfo | None) -> BiomarkerSet:
    """Biomarkers of a volume file under `mask`: its values read as activity
    concentration and the masked ones converted with `acq`, or, with no
    acquisition info, taken as SUV already."""
    unit = IntensityUnit.SUV if acq is None else IntensityUnit.ACTIVITY_KBQ_PER_ML
    return extract(read_volume(path, unit=unit), mask, acq)


@dataclass(frozen=True)
class PatientQuant:
    """Everything the downstream reductions need for one patient."""

    entry: CohortEntry
    baseline: BiomarkerSet
    followup: BiomarkerSet
    change: DeltaSet
    bl_quadrant: Quadrant | None
    fu_quadrant: Quadrant | None  # both on the baseline grid; None: empty there


def _quantify_one(entry: CohortEntry) -> PatientQuant:
    acq = None if entry.dose_MBq is None else AcquisitionInfo(entry.dose_MBq, entry.weight_kg)
    bl_mask = read_mask(entry.bl_mask)
    fu_mask = read_mask(entry.fu_mask)
    bl_bio = extract_file(entry.bl_volume, bl_mask, acq)
    fu_bio = extract_file(entry.fu_volume, fu_mask, acq)
    bl_q = quadrant_on_grid(bl_mask, bl_mask.dims)
    fu_q = quadrant_on_grid(fu_mask, bl_mask.dims)
    return PatientQuant(entry, bl_bio, fu_bio, delta(bl_bio, fu_bio), bl_q, fu_q)


def quantify_cohort(entries: list[CohortEntry], threads: int = 1) -> list[PatientQuant]:
    return parallel_map(_quantify_one, entries, threads)


def _qc_records(
    quants: list[PatientQuant], thr: QcThreshold | None
) -> tuple[QcThreshold, list[QcRecord]]:
    """Both QC steps for every patient, in manifest order.

    With no threshold, one is derived from the finite MTV ratios of the cohort.
    """
    if thr is None:
        thr = derive_threshold(
            q.change.mtv_ratio for q in quants if q.change.mtv_ratio is not None
        )
    records = []
    for q in quants:
        if q.bl_quadrant is None or q.fu_quadrant is None:
            raise ManifestError(f"patient {q.entry.patient_id}: empty mask, cannot run QC")
        records.append(
            build_record(
                q.entry.patient_id,
                q.bl_quadrant,
                q.fu_quadrant,
                q.baseline.mtv_cm3,
                q.followup.mtv_cm3,
                thr,
            )
        )
    return thr, records


def export_annotation_batch(
    ids: list[str], entries: list[CohortEntry], out_dir: str | Path
) -> Path:
    """Write each flagged follow-up volume plus an empty mask template and a
    tasks.json list for external annotation tools. Returns the tasks path."""
    by_id = {e.patient_id: e for e in entries}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = []
    for pid in ids:
        if pid not in by_id:
            raise ManifestError(f"patient id {pid!r} not present in the manifest")
        entry = by_id[pid]
        vol = read_volume(entry.fu_volume)
        vol_path = out / f"{pid}_fu.nii"
        template_path = out / f"{pid}_mask_template.nii"
        write_volume(vol, vol_path)
        write_mask(BinaryMask(np.zeros_like(vol.values, dtype=bool), vol.spacing), template_path)
        tasks.append(
            {"patient_id": pid, "volume": vol_path.name, "mask_template": template_path.name}
        )
    tasks_path = out / "tasks.json"
    write_text_atomic(tasks_path, dumps_json({"tasks": tasks}))
    return tasks_path


def run_qc(
    entries: list[CohortEntry],
    out_dir: str | Path,
    threshold: QcThreshold | None = None,
    select_extreme: int = 0,
    threads: int = 1,
) -> dict:
    """Quantify, flag and (optionally) export extreme outliers.

    With no explicit threshold, one is derived from the finite MTV ratios of
    this cohort. Writes qc_report.csv and qc_summary.json in out_dir.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    quants = quantify_cohort(entries, threads)
    threshold, records = _qc_records(quants, threshold)
    extreme = select_extreme_outliers(records, select_extreme) if select_extreme > 0 else []

    rows = []
    for q, r in zip(quants, records):
        rows.append(
            [
                r.patient_id,
                q.baseline.mtv_cm3,
                r.mtv_ratio,
                r.baseline_quadrant.value,
                r.followup_quadrant.value,
                r.quadrant_ok,
                r.ratio_ok,
                r.outlier_score,
                not r.validated,
            ]
        )
    write_text_atomic(
        out / "qc_report.csv",
        dumps_csv(
            [
                "patient_id",
                "bl_mtv_cm3",
                "mtv_ratio",
                "baseline_quadrant",
                "followup_quadrant",
                "quadrant_ok",
                "ratio_ok",
                "outlier_score",
                "flagged",
            ],
            rows,
        ),
    )
    summary = {
        "threshold": threshold.value,
        "derivation": threshold.derivation.value,
        "cohort_size": len(records),
        "n_outliers": sum(1 for r in records if not r.ratio_ok),
        "n_quadrant_mismatch": sum(1 for r in records if not r.quadrant_ok),
        "extreme_ids": extreme,
    }
    write_text_atomic(out / "qc_summary.json", dumps_json(summary))
    if extreme:
        export_annotation_batch(extreme, entries, out / "annotation_batch")
    return summary


_PANELS = (
    ("suv_max", lambda b: b.suv_max),
    ("mtv_cm3", lambda b: b.mtv_cm3),
    ("tlg", lambda b: b.tlg),
)


def run_report(
    entries: list[CohortEntry],
    out_dir: str | Path,
    threshold: QcThreshold | None = None,
    threads: int = 1,
) -> dict:
    """Emit biomarker_table.csv, deltas.csv, boxplot.json, qc_scatter.csv and
    stats.json for a cohort. Returns the stats payload."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    quants = quantify_cohort(entries, threads)

    table_rows = []
    for q in quants:
        for timepoint, bio in (("baseline", q.baseline), ("followup", q.followup)):
            table_rows.append(
                [
                    q.entry.patient_id,
                    timepoint,
                    bio.suv_max,
                    bio.suv_mean,
                    bio.mtv_cm3,
                    bio.tlg,
                    bio.voxel_count,
                ]
            )
    write_text_atomic(
        out / "biomarker_table.csv",
        dumps_csv(
            ["patient_id", "timepoint", "suv_max", "suv_mean", "mtv_cm3", "tlg", "voxel_count"],
            table_rows,
        ),
    )

    delta_rows = [
        [
            q.entry.patient_id,
            q.change.d_suv_max,
            q.change.pct_d_suv_max,
            q.change.d_mtv_cm3,
            q.change.mtv_ratio,
            q.change.d_tlg,
        ]
        for q in quants
    ]
    write_text_atomic(
        out / "deltas.csv",
        dumps_csv(
            ["patient_id", "d_suv_max", "pct_d_suv_max", "d_mtv_cm3", "mtv_ratio", "d_tlg"],
            delta_rows,
        ),
    )

    panels = {}
    for key, pick in _PANELS:
        panels[key] = {
            "baseline": boxplot_summary([pick(q.baseline) for q in quants]).as_dict(),
            "followup": boxplot_summary([pick(q.followup) for q in quants]).as_dict(),
        }
    write_text_atomic(out / "boxplot.json", dumps_json(panels))

    # after the three files above, so an empty mask still leaves them written
    threshold, records = _qc_records(quants, threshold)
    scatter_rows = [
        [q.baseline.mtv_cm3, r.mtv_ratio, not r.validated]
        for q, r in zip(quants, records)
    ]
    write_text_atomic(
        out / "qc_scatter.csv", dumps_csv(["bl_mtv_cm3", "mtv_ratio", "flagged"], scatter_rows)
    )

    stats_payload: dict = {"n": len(quants), "threshold": threshold.value, "delta": {}}
    for key, pick in _PANELS:
        before = [pick(q.baseline) for q in quants]
        after = [pick(q.followup) for q in quants]
        diffs = [a - b for a, b in zip(after, before)]
        n = len(diffs)
        mean = sum(diffs) / n
        entry: dict = {"mean": mean}
        if n >= 2:
            var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
            sd = var**0.5
            entry["sd"] = sd
            entry["sem"] = sd / n**0.5
            if sd > 0:
                tt = paired_ttest(before, after)
                entry.update({"t": tt.t, "p": tt.p, "df": tt.df, "significant": tt.significant})
        stats_payload["delta"][key] = entry
    write_text_atomic(out / "stats.json", dumps_json(stats_payload))
    return stats_payload
