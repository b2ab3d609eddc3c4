import csv
import json
import threading
import time

import numpy as np
import pytest

from petquant import (
    EmptyRegionError,
    IntensityUnit,
    ManifestError,
    ResponseModel,
    Volume3D,
    check_pair,
    export_annotation_batch,
    extract,
    fixed_threshold,
    generate_cohort,
    load_manifest,
    quantify_cohort,
    read_mask,
    read_volume,
    run_qc,
    run_report,
    write_mask,
    write_volume,
)
from petquant.cohort import parallel_map

from conftest import mask_from_coords

DIMS = (24, 24, 16)
SPACING = (4.0, 4.0, 4.0)


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    generate_cohort(
        8,
        ResponseModel(ratio_mean=0.4, ratio_sd=0.05, outlier_fraction=0.25, outlier_ratio_min=5.0),
        seed=13,
        out_dir=out,
        dims=DIMS,
        spacing=SPACING,
        baseline_radius_mm=10.0,
    )
    return out


class TestManifest:
    def test_load(self, cohort_dir):
        entries = load_manifest(cohort_dir / "manifest.csv")
        assert len(entries) == 8
        assert entries[0].patient_id == "p0000"
        assert entries[0].dose_MBq == 180.0
        assert entries[0].bl_volume.exists()

    def test_missing_columns(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("patient_id,bl_volume\np1,x.nii\n")
        with pytest.raises(ManifestError, match="missing columns"):
            load_manifest(bad)

    def test_short_row_names_line(self, tmp_path):
        bad = tmp_path / "short.csv"
        bad.write_text(
            "patient_id,bl_volume,bl_mask,fu_volume,fu_mask\n"
            "p1,a.nii,b.nii,c.nii,d.nii\np2,a.nii,b.nii,c.nii\n"
        )
        with pytest.raises(ManifestError, match=r"short\.csv:3: "):
            load_manifest(bad)

    def test_duplicate_patient(self, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text(
            "patient_id,bl_volume,bl_mask,fu_volume,fu_mask\n"
            "p1,a.nii,b.nii,c.nii,d.nii\np1,a.nii,b.nii,c.nii,d.nii\n"
        )
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(bad)

    def test_empty_manifest(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("patient_id,bl_volume,bl_mask,fu_volume,fu_mask\n")
        with pytest.raises(ManifestError, match="no rows"):
            load_manifest(bad)

    @pytest.mark.parametrize(
        "dose, weight",
        [
            ("0", "60"),
            ("-180", "60"),
            ("nan", "60"),
            ("inf", "60"),
            ("180", "0"),
            ("180", "-60"),
            ("180", "NaN"),
            ("180", "-inf"),
            ("180", ""),
            ("", "60"),
        ],
    )
    def test_bad_dose_or_weight_names_line(self, tmp_path, dose, weight):
        # each of these used to fall back to reading kBq/mL volumes as SUV
        bad = tmp_path / "m.csv"
        bad.write_text(
            "patient_id,bl_volume,bl_mask,fu_volume,fu_mask,dose_MBq,weight_kg\n"
            "p1,a.nii,b.nii,c.nii,d.nii,180,60\n"
            f"p2,a.nii,b.nii,c.nii,d.nii,{dose},{weight}\n"
        )
        with pytest.raises(ManifestError, match=r"m\.csv:3: "):
            load_manifest(bad)

    def test_no_dose_and_weight_means_suv(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "patient_id,bl_volume,bl_mask,fu_volume,fu_mask,dose_MBq,weight_kg\n"
            "p1,a.nii,b.nii,c.nii,d.nii,,\n"
        )
        (entry,) = load_manifest(path)
        assert entry.dose_MBq is None and entry.weight_kg is None


class TestParallelMap:
    @pytest.mark.parametrize("threads", [1, 4])
    def test_input_order(self, threads):
        def late_for_small(x):
            time.sleep(0.002 * (9 - x % 10))
            return x * x

        assert parallel_map(late_for_small, range(30), threads) == [x * x for x in range(30)]

    @pytest.mark.parametrize("threads", [0, 1])
    def test_inline_on_calling_thread(self, threads):
        caller = threading.get_ident()
        assert parallel_map(lambda _: threading.get_ident(), range(3), threads) == [caller] * 3

    @pytest.mark.parametrize("threads", [1, 4])
    def test_worker_exception_propagates(self, threads):
        def boom(x):
            if x == 5:
                raise ValueError("boom at 5")
            return x

        with pytest.raises(ValueError, match="boom at 5"):
            parallel_map(boom, range(8), threads)


class TestQuantifyCohort:
    def test_matches_ground_truth(self, cohort_dir):
        entries = load_manifest(cohort_dir / "manifest.csv")
        quants = quantify_cohort(entries)
        truth = json.loads((cohort_dir / "ground_truth.json").read_text())
        for q, t in zip(quants, truth["patients"]):
            assert q.entry.patient_id == t["patient_id"]
            # noiseless uniform phantom with float32-exact activity values
            assert q.baseline.suv_max == t["baseline"]["suv_max"]
            assert q.baseline.mtv_cm3 == pytest.approx(t["baseline"]["mtv_cm3"], rel=1e-12)
            assert q.followup.voxel_count == t["followup"]["voxel_count"]
            assert q.change.mtv_ratio == pytest.approx(t["mtv_ratio"], rel=1e-12)

    def test_thread_counts_agree(self, cohort_dir):
        entries = load_manifest(cohort_dir / "manifest.csv")
        a = quantify_cohort(entries, threads=1)
        b = quantify_cohort(entries, threads=4)
        assert [(q.baseline, q.followup) for q in a] == [(q.baseline, q.followup) for q in b]


BL_DIMS, FU_DIMS = (8, 8, 4), (16, 16, 8)


def _write_regrid_cohort(out, patients):
    """SUV cohort whose follow-up grid has twice the baseline dims (same extent);
    each patient is (id, baseline voxel coords, follow-up voxel coords)."""
    lines = ["patient_id,bl_volume,bl_mask,fu_volume,fu_mask"]
    for pid, bl_coords, fu_coords in patients:
        for tag, coords, dims, spacing in (
            ("bl", bl_coords, BL_DIMS, (4.0, 4.0, 4.0)),
            ("fu", fu_coords, FU_DIMS, (2.0, 2.0, 2.0)),
        ):
            mask = mask_from_coords(coords, dims, spacing)
            vol = Volume3D(np.where(mask.bits, 10.0, 1.0), spacing, IntensityUnit.SUV)
            write_volume(vol, out / f"{pid}_{tag}.nii")
            write_mask(mask, out / f"{pid}_{tag}_mask.nii")
        lines.append(f"{pid},{pid}_bl.nii,{pid}_bl_mask.nii,{pid}_fu.nii,{pid}_fu_mask.nii")
    manifest = out / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def _read_pair(out, pid):
    """check_pair's mask and biomarker arguments for one patient of such a cohort."""
    masks = [read_mask(out / f"{pid}_{tag}_mask.nii") for tag in ("bl", "fu")]
    bios = [
        extract(read_volume(out / f"{pid}_{tag}.nii", IntensityUnit.SUV), m)
        for tag, m in zip(("bl", "fu"), masks)
    ]
    return (*masks, *bios)


class TestRunQc:
    def test_derives_threshold_and_flags(self, cohort_dir, tmp_path):
        entries = load_manifest(cohort_dir / "manifest.csv")
        truth = json.loads((cohort_dir / "ground_truth.json").read_text())
        ratios = {p["patient_id"]: p["mtv_ratio"] for p in truth["patients"]}
        designated = {p["patient_id"] for p in truth["patients"] if p["is_outlier"]}
        expected_thr = 1.0 / (sum(ratios.values()) / len(ratios))
        expected_flagged = {pid for pid, r in ratios.items() if r > expected_thr}

        summary = run_qc(entries, tmp_path, select_extreme=3)
        assert summary["derivation"] == "reciprocal_mean_ratio"
        assert summary["cohort_size"] == 8
        assert summary["threshold"] == pytest.approx(expected_thr, rel=1e-12)
        assert summary["n_outliers"] == len(expected_flagged)
        assert designated <= expected_flagged  # built-in outliers are always caught
        want_extreme = sorted(expected_flagged, key=lambda p: (-ratios[p], p))[:3]
        assert summary["extreme_ids"] == want_extreme

        report = (tmp_path / "qc_report.csv").read_text().splitlines()
        assert len(report) == 9
        assert report[0].startswith("patient_id,bl_mtv_cm3,mtv_ratio")
        batch = tmp_path / "annotation_batch"
        tasks = json.loads((batch / "tasks.json").read_text())
        assert len(tasks["tasks"]) == len(want_extreme)
        for task in tasks["tasks"]:
            assert (batch / task["volume"]).exists()
            assert (batch / task["mask_template"]).exists()

    def test_fixed_threshold(self, cohort_dir, tmp_path):
        entries = load_manifest(cohort_dir / "manifest.csv")
        summary = run_qc(entries, tmp_path, threshold=fixed_threshold(100.0))
        assert summary["threshold"] == 100.0
        assert summary["n_outliers"] == 0

    def test_followup_on_finer_grid_matches_check_pair(self, tmp_path):
        # p1's follow-up sits at x = 7..9 of 16: its own-grid centroid (x = 8) is
        # high-x, but on the baseline grid only x = 7 and 9 survive -> low-x
        bl1 = [(1, 1, 1), (2, 1, 1)]
        fu1 = [(7, 1, 1), (8, 1, 1), (9, 1, 1)]
        bl2 = [(5, 5, 1), (6, 6, 2)]
        fu2 = [(x, y, 5) for x in (11, 12, 13) for y in (11, 13)]
        manifest = _write_regrid_cohort(tmp_path, [("p1", bl1, fu1), ("p2", bl2, fu2)])
        thr = fixed_threshold(100.0)
        run_qc(load_manifest(manifest), tmp_path / "qc", threshold=thr)
        with open(tmp_path / "qc" / "qc_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["patient_id"] for r in rows] == ["p1", "p2"]
        for row in rows:
            want = check_pair(*_read_pair(tmp_path, row["patient_id"]), thr)
            assert row["baseline_quadrant"] == want.baseline_quadrant.value
            assert row["followup_quadrant"] == want.followup_quadrant.value
        assert rows[0]["followup_quadrant"] == "Q1"  # not the own-grid Q2

    def test_followup_empty_after_regrid_rejected(self, tmp_path):
        # the regrid samples odd follow-up indices only, so (8, 8, 2) vanishes
        manifest = _write_regrid_cohort(tmp_path, [("p1", [(1, 1, 1)], [(8, 8, 2)])])
        with pytest.raises(EmptyRegionError, match="vanished"):
            check_pair(*_read_pair(tmp_path, "p1"), fixed_threshold())
        with pytest.raises(ManifestError, match="p1: empty mask"):
            run_qc(load_manifest(manifest), tmp_path / "qc", threshold=fixed_threshold(100.0))
        with pytest.raises(ManifestError, match="p1: empty mask"):
            run_report(load_manifest(manifest), tmp_path / "report")
        for name in ("biomarker_table.csv", "deltas.csv", "boxplot.json"):
            assert (tmp_path / "report" / name).exists()  # written before QC runs


class TestRunReport:
    def test_emits_all_files(self, cohort_dir, tmp_path):
        entries = load_manifest(cohort_dir / "manifest.csv")
        stats = run_report(entries, tmp_path)
        for name in (
            "biomarker_table.csv",
            "deltas.csv",
            "boxplot.json",
            "qc_scatter.csv",
            "stats.json",
        ):
            assert (tmp_path / name).exists()
        assert stats["n"] == 8
        assert set(stats["delta"]) == {"suv_max", "mtv_cm3", "tlg"}
        for key in stats["delta"].values():
            assert "mean" in key and "sd" in key and "sem" in key
        table = (tmp_path / "biomarker_table.csv").read_text().splitlines()
        assert len(table) == 1 + 16  # 8 patients x 2 timepoints
        box = json.loads((tmp_path / "boxplot.json").read_text())
        assert set(box) == {"suv_max", "mtv_cm3", "tlg"}
        assert set(box["mtv_cm3"]) == {"baseline", "followup"}

    def test_byte_identical_across_threads(self, cohort_dir, tmp_path):
        entries = load_manifest(cohort_dir / "manifest.csv")
        run_report(entries, tmp_path / "t1", threads=1)
        run_report(entries, tmp_path / "t8", threads=8)
        for name in ("biomarker_table.csv", "deltas.csv", "boxplot.json", "stats.json"):
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t8" / name).read_bytes()


class TestEmptyCohort:
    def test_rejected_before_any_file(self, tmp_path):
        # run_qc used to write a header-only report with cohort_size 0, and
        # run_report two header-only CSVs before boxplot_summary raised
        with pytest.raises(ManifestError, match="cohort has no patients"):
            quantify_cohort([])
        with pytest.raises(ManifestError, match="cohort has no patients"):
            run_qc([], tmp_path / "qc", threshold=fixed_threshold(5.0))
        with pytest.raises(ManifestError, match="cohort has no patients"):
            run_report([], tmp_path / "report")
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


class TestReportLayout:
    """Each report file's columns or keys, in order (README, "Report files")."""

    @pytest.fixture(scope="class")
    def out(self, cohort_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("layout")
        entries = load_manifest(cohort_dir / "manifest.csv")
        run_qc(entries, out / "qc", select_extreme=1)
        run_report(entries, out / "report")
        return out

    @pytest.mark.parametrize(
        "name, header",
        [
            (
                "qc/qc_report.csv",
                "patient_id,bl_mtv_cm3,mtv_ratio,baseline_quadrant,followup_quadrant,"
                "quadrant_ok,ratio_ok,outlier_score,flagged",
            ),
            (
                "report/biomarker_table.csv",
                "patient_id,timepoint,suv_max,suv_mean,mtv_cm3,tlg,voxel_count",
            ),
            ("report/deltas.csv", "patient_id,d_suv_max,pct_d_suv_max,d_mtv_cm3,mtv_ratio,d_tlg"),
            ("report/qc_scatter.csv", "bl_mtv_cm3,mtv_ratio,flagged"),
        ],
    )
    def test_csv_header(self, out, name, header):
        assert (out / name).read_text().splitlines()[0] == header

    def test_json_keys(self, out):
        summary = json.loads((out / "qc" / "qc_summary.json").read_text())
        assert list(summary) == [
            "threshold",
            "derivation",
            "cohort_size",
            "n_outliers",
            "n_quadrant_mismatch",
            "extreme_ids",
        ]
        panels = ["suv_max", "mtv_cm3", "tlg"]
        box = json.loads((out / "report" / "boxplot.json").read_text())
        assert list(box) == panels
        for panel in box.values():
            assert list(panel) == ["baseline", "followup"]
            for summary in panel.values():
                assert list(summary) == [
                    "min",
                    "q1",
                    "median",
                    "q3",
                    "max",
                    "whisker_low",
                    "whisker_high",
                    "outliers",
                ]
        stats = json.loads((out / "report" / "stats.json").read_text())
        assert list(stats) == ["n", "threshold", "delta"]
        assert list(stats["delta"]) == panels
        keys = ["mean", "sd", "sem", "t", "p", "df", "significant"]
        assert list(stats["delta"]["mtv_cm3"]) == keys
        # noiseless phantoms: SUVmax never changes, so no t-test with sd = 0
        assert list(stats["delta"]["suv_max"]) == keys[:3]


class TestExportBatch:
    def test_unknown_id_rejected(self, cohort_dir, tmp_path):
        entries = load_manifest(cohort_dir / "manifest.csv")
        with pytest.raises(ManifestError, match="nope"):
            export_annotation_batch(["nope"], entries, tmp_path)

    def test_empty_ids(self, cohort_dir, tmp_path):
        entries = load_manifest(cohort_dir / "manifest.csv")
        tasks_path = export_annotation_batch([], entries, tmp_path)
        assert json.loads(tasks_path.read_text()) == {"tasks": []}

    def test_template_is_empty_mask(self, cohort_dir, tmp_path):
        from petquant import read_mask

        entries = load_manifest(cohort_dir / "manifest.csv")
        export_annotation_batch([entries[0].patient_id], entries, tmp_path)
        template = read_mask(tmp_path / f"{entries[0].patient_id}_mask_template.nii")
        assert template.is_empty
        assert template.dims == DIMS
