"""Cohort manifest handling and the QC / report pipelines.

A manifest is a CSV whose columns are the fields of `CohortEntry`, the
schema's one definition (`MANIFEST_COLUMNS` lists them; paths relative to the
manifest). `load_manifest` reads one and `write_manifest` writes one. A
patient_id holds no path separator, since outputs are named after it. When
dose_MBq and weight_kg are both given the volumes are read as activity
concentration and the masked voxels converted to SUV, so the pair must make an
`AcquisitionInfo`; when both are empty they are taken as SUV already.
`read_table` is the one CSV reader (manifests, `compare --batch` pairs),
`extract_file` the one reader of biomarkers from a volume file: it reads the
volume with `nifti.read_stored`, as `read_mask` reads a mask, so the whole
stored grid is checked but only the mask's bounding box is widened to float64.

Each report row is one dict whose keys are its column names: `_write_table`
takes a CSV's header from the first row, and the JSON reports are dicts in
key order. README "Report files" lists every file's columns.

Patient-level work runs through `parallel_map`; results are reduced in
manifest order, so reports are byte-identical for any thread count.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .biomarkers import BiomarkerSet, DeltaSet, delta, extract
from .errors import ManifestError, ParameterError
from .mask import BinaryMask, Quadrant, require_same_geometry
from .nifti import read_mask, read_stored, write_mask, write_volume
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


@dataclass(frozen=True)
class CohortEntry:
    """One manifest row: the fields are the manifest's columns, in order."""

    patient_id: str
    bl_volume: Path
    bl_mask: Path
    fu_volume: Path
    fu_mask: Path
    dose_MBq: float | None = None
    weight_kg: float | None = None


MANIFEST_COLUMNS = [f.name for f in fields(CohortEntry)]


def parallel_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items] on up to `threads` threads, in input order.

    threads <= 1 calls fn inline on the calling thread. A worker's exception
    propagates to the caller.
    """
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


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
        where = f"{p}:{lineno}"
        pid = row["patient_id"].strip()
        if not pid:
            raise ManifestError(f"{where}: empty patient_id")
        if "/" in pid or "\\" in pid:
            # outputs are named after the id: a separator would write outside --out-dir
            raise ManifestError(f"{where}: patient_id {pid!r} contains a path separator")
        if pid in seen:
            raise ManifestError(f"{where}: duplicate patient_id {pid!r}")
        seen.add(pid)

        def _num(col: str) -> float | None:
            raw = (row.get(col) or "").strip()
            if not raw:
                return None
            try:
                return float(raw)
            except ValueError as exc:
                raise ManifestError(f"{where}: bad {col} value {raw!r}") from exc

        dose, weight = _num("dose_MBq"), _num("weight_kg")
        if (dose is None) != (weight is None):
            # a lone value would read kBq/mL volumes as SUV
            raise ManifestError(f"{where}: dose_MBq and weight_kg must be given together")
        if dose is not None:
            try:
                AcquisitionInfo(dose, weight)
            except ParameterError as exc:
                raise ManifestError(f"{where}: {exc}") from exc
        paths = (p.parent / row[col] for col in MANIFEST_COLUMNS[1:5])
        entries.append(CohortEntry(pid, *paths, dose, weight))
    if not entries:
        raise ManifestError(f"{p}: manifest has no rows")
    return entries


def write_manifest(path: Path, entries: list[CohortEntry]) -> None:
    """A manifest of `entries`, one row of their fields each, paths as given."""
    _write_table(path, [asdict(e) for e in entries])


def extract_file(path: str | Path, mask: BinaryMask, acq: AcquisitionInfo | None) -> BiomarkerSet:
    """Biomarkers of a volume file under `mask`: its values read as activity
    concentration and the masked ones converted with `acq`, or, with no
    acquisition info, taken as SUV already. The result, errors included, is
    `extract(read_volume(path, unit), mask, acq)`'s; only the mask's bounding
    box (a one-voxel corner when the mask is empty) is widened to float64."""
    unit = IntensityUnit.SUV if acq is None else IntensityUnit.ACTIVITY_KBQ_PER_ML
    vol = read_stored(path, unit)
    require_same_geometry(vol, mask)
    box = mask.box or (slice(0, 1),) * 3
    return extract(vol.widen(box), BinaryMask(mask.bits[box], mask.spacing), acq)


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
    if not entries:
        raise ManifestError("cohort has no patients")
    return parallel_map(_quantify_one, entries, threads)


def _write_table(path: Path, rows: list[dict]) -> None:
    """A CSV report of one dict per row; the first row's keys are the header."""
    write_text_atomic(path, dumps_csv(list(rows[0]), [list(row.values()) for row in rows]))


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
        pid = q.entry.patient_id
        if q.bl_quadrant is None or q.fu_quadrant is None:
            raise ManifestError(f"patient {pid}: empty mask, cannot run QC")
        records.append(build_record(pid, q.bl_quadrant, q.fu_quadrant, q.change, thr))
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
        vol = read_stored(entry.fu_volume)  # written back as float32: nothing to widen
        vol_path = out / f"{pid}_fu.nii"
        template_path = out / f"{pid}_mask_template.nii"
        write_volume(vol, vol_path)
        write_mask(BinaryMask(np.zeros_like(vol.grid, dtype=bool), vol.spacing), template_path)
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
    quants = quantify_cohort(entries, threads)
    threshold, records = _qc_records(quants, threshold)
    extreme = select_extreme_outliers(records, select_extreme)
    out = Path(out_dir)  # made once the inputs have loaded, so a failure leaves none
    out.mkdir(parents=True, exist_ok=True)

    rows = [
        {
            "patient_id": r.patient_id,
            "bl_mtv_cm3": q.baseline.mtv_cm3,
            "mtv_ratio": r.mtv_ratio,
            "baseline_quadrant": r.baseline_quadrant.value,
            "followup_quadrant": r.followup_quadrant.value,
            "quadrant_ok": r.quadrant_ok,
            "ratio_ok": r.ratio_ok,
            "outlier_score": r.outlier_score,
            "flagged": not r.validated,
        }
        for q, r in zip(quants, records)
    ]
    _write_table(out / "qc_report.csv", rows)
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


# BiomarkerSet / DeltaSet fields in their column order, read with getattr
_BIOMARKERS = ("suv_max", "suv_mean", "mtv_cm3", "tlg", "voxel_count")
_DELTAS = ("d_suv_max", "pct_d_suv_max", "d_mtv_cm3", "mtv_ratio", "d_tlg")
_PANELS = ("suv_max", "mtv_cm3", "tlg")


def run_report(
    entries: list[CohortEntry],
    out_dir: str | Path,
    threshold: QcThreshold | None = None,
    threads: int = 1,
) -> dict:
    """Emit biomarker_table.csv, deltas.csv, boxplot.json, qc_scatter.csv and
    stats.json for a cohort. Returns the stats payload."""
    quants = quantify_cohort(entries, threads)
    out = Path(out_dir)  # made once the inputs have loaded, so a failure leaves none
    out.mkdir(parents=True, exist_ok=True)

    _write_table(
        out / "biomarker_table.csv",
        [
            {"patient_id": q.entry.patient_id, "timepoint": timepoint}
            | {k: getattr(bio, k) for k in _BIOMARKERS}
            for q in quants
            for timepoint, bio in (("baseline", q.baseline), ("followup", q.followup))
        ],
    )
    _write_table(
        out / "deltas.csv",
        [
            {"patient_id": q.entry.patient_id} | {k: getattr(q.change, k) for k in _DELTAS}
            for q in quants
        ],
    )

    # (baseline values, follow-up values) per panel, in manifest order
    series = {
        k: ([getattr(q.baseline, k) for q in quants], [getattr(q.followup, k) for q in quants])
        for k in _PANELS
    }
    panels = {
        k: {
            "baseline": asdict(boxplot_summary(before)),
            "followup": asdict(boxplot_summary(after)),
        }
        for k, (before, after) in series.items()
    }
    write_text_atomic(out / "boxplot.json", dumps_json(panels))

    # after the three files above, so an empty mask still leaves them written
    threshold, records = _qc_records(quants, threshold)
    _write_table(
        out / "qc_scatter.csv",
        [
            {"bl_mtv_cm3": q.baseline.mtv_cm3, "mtv_ratio": r.mtv_ratio, "flagged": not r.validated}
            for q, r in zip(quants, records)
        ],
    )

    stats_payload: dict = {"n": len(quants), "threshold": threshold.value, "delta": {}}
    for key, (before, after) in series.items():
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
