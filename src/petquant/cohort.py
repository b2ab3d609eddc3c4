"""Cohort manifest handling and the cohort pipeline that `qc` and `report` share.

A manifest is a CSV whose columns are the fields of `CohortEntry`, the
schema's one definition (`MANIFEST_COLUMNS` lists them; paths relative to the
manifest). `load_manifest` reads one and `write_manifest` writes one. A
patient_id holds no path separator, since outputs are named after it. When
dose_MBq and weight_kg are both given the volumes are read as activity
concentration and the masked voxels converted to SUV, so the pair must make an
`AcquisitionInfo`; when both are empty they are taken as SUV already.
`read_table` is the one CSV reader (manifests, `compare --batch` pairs) and
refuses an empty required cell by file:line and column. `extract_file` is the
one reader of biomarkers from a volume file: it reads the volume with
`nifti.read_stored`, as `read_mask` reads a mask, and hands it to
`biomarkers.extract` as stored, so the whole stored grid is checked but only
the mask's bounding box is widened to float64.

`analyse_cohort` is the one analysis pass: it reads and quantifies every
patient once (`_quantify_one` takes each pair's quadrants from
`qc.pair_quadrants`), refuses a patient with an empty mask by name, fixes the
QC threshold and builds every `QcRecord` with `qc.build_record`: the
package's one per-pair QC path. `run_cohort` is the one writer over its
result, for both the `qc` and the `report` command: it analyses, then
writes. Every file's text, `stats.json` included, is computed before
`out_dir` is made, so a run that fails leaves no file, and `qc_scatter.csv`
is three columns of `qc_report.csv`'s rows.

Each report row is one dict whose keys are its column names: `_csv` takes a
CSV's header from the first row, and the JSON reports are dicts in key order.
README "Report files" lists every file's columns.

Patient-level work runs through `parallel_map`; results are reduced in
manifest order, so reports are byte-identical for any thread count.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .biomarkers import BiomarkerSet, DeltaSet, delta, extract
from .errors import ManifestError, ParameterError
from .mask import BinaryMask, Quadrant
from .nifti import read_mask, read_stored, write_mask, write_volume
from .qc import (
    QcRecord,
    QcThreshold,
    build_record,
    derive_threshold,
    pair_quadrants,
    select_extreme_outliers,
)
from .serialize import dumps_csv, dumps_json, write_text_atomic
from .stats import boxplot_summary, paired_change
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
    """(line number, row) per data row of a UTF-8 CSV. ManifestError names the
    file for a missing `required` column, and file:line for bytes that are not
    UTF-8, a malformed row (a cell over csv's size limit, say), a row too short
    to fill the `required` columns, or an empty (or blank) `required` cell or
    one holding a NUL, naming its column."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ManifestError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        missing = [c for c in required if c not in (reader.fieldnames or [])]
        if missing:
            raise ManifestError(f"{path}: missing columns {missing}")
        for row in reader:
            if any(row[c] is None for c in required):
                raise ManifestError(f"{path}:{reader.line_num}: short row, needs {required}")
            empty = next((c for c in required if not row[c].strip()), None)
            if empty is not None:
                raise ManifestError(f"{path}:{reader.line_num}: empty {empty}")
            nul = next((c for c in required if "\0" in row[c]), None)
            if nul is not None:  # open() refuses a path holding one with a ValueError
                raise ManifestError(f"{path}:{reader.line_num}: NUL byte in {nul}")
            yield reader.line_num, row
    except csv.Error as exc:  # DictReader counts a line once it is a row: ask its reader
        raise ManifestError(f"{path}:{reader.reader.line_num}: {exc}") from exc


def load_manifest(path: str | Path) -> list[CohortEntry]:
    p = Path(path)
    entries: list[CohortEntry] = []
    seen: set[str] = set()
    for lineno, row in read_table(p, MANIFEST_COLUMNS[:5]):
        where = f"{p}:{lineno}"
        pid = row["patient_id"].strip()
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
    write_text_atomic(path, _csv([asdict(e) for e in entries]))


def extract_file(path: str | Path, mask: BinaryMask, acq: AcquisitionInfo | None) -> BiomarkerSet:
    """Biomarkers of a volume file under `mask`: its values read as activity
    concentration and the masked ones converted with `acq`, or, with no
    acquisition info, taken as SUV already. The result, errors included, is
    `extract(read_volume(path, unit), mask, acq)`'s; `extract` widens only the
    mask's bounding box of the stored grid."""
    unit = IntensityUnit.SUV if acq is None else IntensityUnit.ACTIVITY_KBQ_PER_ML
    return extract(read_stored(path, unit), mask, acq)


@dataclass(frozen=True)
class PatientQuant:
    """Everything the downstream reductions need for one patient."""

    entry: CohortEntry
    baseline: BiomarkerSet
    followup: BiomarkerSet
    change: DeltaSet
    bl_quadrant: Quadrant | None
    fu_quadrant: Quadrant | None  # both from qc.pair_quadrants; None: empty there


def _quantify_one(entry: CohortEntry) -> PatientQuant:
    acq = None if entry.dose_MBq is None else AcquisitionInfo(entry.dose_MBq, entry.weight_kg)
    bl_mask = read_mask(entry.bl_mask)
    fu_mask = read_mask(entry.fu_mask)
    bl_bio = extract_file(entry.bl_volume, bl_mask, acq)
    fu_bio = extract_file(entry.fu_volume, fu_mask, acq)
    bl_q, fu_q = pair_quadrants(bl_mask, fu_mask)
    return PatientQuant(entry, bl_bio, fu_bio, delta(bl_bio, fu_bio), bl_q, fu_q)


@dataclass(frozen=True)
class CohortAnalysis:
    """One pass over a cohort: each patient's quantities and QC record, in
    manifest order, and the threshold the records were judged against."""

    quants: list[PatientQuant]
    threshold: QcThreshold
    records: list[QcRecord]


def analyse_cohort(
    entries: list[CohortEntry], threshold: QcThreshold | None = None, threads: int = 1
) -> CohortAnalysis:
    """Quantify every patient once, then apply both QC steps to each pair.

    A patient with an empty mask (on the baseline grid) is refused by name
    before any threshold is derived; with no threshold given, one is derived
    from the finite MTV ratios of the cohort.
    """
    if not entries:
        raise ManifestError("cohort has no patients")
    quants = parallel_map(_quantify_one, entries, threads)
    for q in quants:
        if q.bl_quadrant is None or q.fu_quadrant is None:
            raise ManifestError(f"patient {q.entry.patient_id}: empty mask, cannot run QC")
    if threshold is None:
        threshold = derive_threshold(
            q.change.mtv_ratio for q in quants if q.change.mtv_ratio is not None
        )
    records = [
        build_record(q.entry.patient_id, q.bl_quadrant, q.fu_quadrant, q.change, threshold)
        for q in quants
    ]
    return CohortAnalysis(quants, threshold, records)


def _csv(rows: list[dict]) -> str:
    """A CSV report of one dict per row; the first row's keys are the header."""
    return dumps_csv(list(rows[0]), [list(row.values()) for row in rows])


def _write_files(out: Path, files: dict[str, str]) -> None:
    """Make `out` and write each named text into it. Called only once every
    text is computed, so a run that fails leaves no file and no directory."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        write_text_atomic(out / name, text)


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


# BiomarkerSet / DeltaSet fields in their column order, read with getattr
_BIOMARKERS = ("suv_max", "suv_mean", "mtv_cm3", "tlg", "voxel_count")
_DELTAS = ("d_suv_max", "pct_d_suv_max", "d_mtv_cm3", "mtv_ratio", "d_tlg")
_PANELS = ("suv_max", "mtv_cm3", "tlg")


def run_cohort(
    entries: list[CohortEntry],
    out_dir: str | Path,
    threshold: QcThreshold | None = None,
    select_extreme: int = 0,
    threads: int = 1,
) -> dict[str, str]:
    """Analyse a cohort once and write every cohort file into out_dir:
    qc_report.csv, qc_summary.json, biomarker_table.csv, deltas.csv,
    boxplot.json, qc_scatter.csv and stats.json, then, when select_extreme
    > 0, the annotation batch of that many extreme outliers.

    With no explicit threshold, one is derived from the finite MTV ratios of
    this cohort. Returns each file's text by its name.
    """
    analysis = analyse_cohort(entries, threshold, threads)
    quants, records = analysis.quants, analysis.records
    extreme = select_extreme_outliers(records, select_extreme)
    qc_rows = [
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
    summary = {
        "threshold": analysis.threshold.value,
        "derivation": analysis.threshold.derivation.value,
        "cohort_size": len(records),
        "n_outliers": sum(1 for r in records if not r.ratio_ok),
        "n_quadrant_mismatch": sum(1 for r in records if not r.quadrant_ok),
        "extreme_ids": extreme,
    }
    table = [
        {"patient_id": q.entry.patient_id, "timepoint": timepoint}
        | {k: getattr(bio, k) for k in _BIOMARKERS}
        for q in quants
        for timepoint, bio in (("baseline", q.baseline), ("followup", q.followup))
    ]
    deltas = [
        {"patient_id": q.entry.patient_id} | {k: getattr(q.change, k) for k in _DELTAS}
        for q in quants
    ]
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
    scatter = [
        {"bl_mtv_cm3": r["bl_mtv_cm3"], "mtv_ratio": r["mtv_ratio"], "flagged": r["flagged"]}
        for r in qc_rows
    ]
    changes = {k: paired_change(before, after) for k, (before, after) in series.items()}
    stats = {"n": len(quants), "threshold": analysis.threshold.value, "delta": changes}
    files = {
        "qc_report.csv": _csv(qc_rows),
        "qc_summary.json": dumps_json(summary),
        "biomarker_table.csv": _csv(table),
        "deltas.csv": _csv(deltas),
        "boxplot.json": dumps_json(panels),
        "qc_scatter.csv": _csv(scatter),
        "stats.json": dumps_json(stats),
    }
    out = Path(out_dir)
    _write_files(out, files)
    if extreme:
        export_annotation_batch(extreme, entries, out / "annotation_batch")
    return files
