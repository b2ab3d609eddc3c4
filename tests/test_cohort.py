import csv
import json
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petquant import (
    AcquisitionInfo,
    BinaryMask,
    GeometryMismatchError,
    IntensityUnit,
    IntensityUnitError,
    ManifestError,
    PetQuantError,
    ResponseModel,
    Volume3D,
    VolumeDataError,
    analyse_cohort,
    export_annotation_batch,
    extract,
    fixed_threshold,
    generate_cohort,
    load_manifest,
    paired_ttest,
    read_mask,
    read_volume,
    run_cohort,
    write_mask,
    write_volume,
)
from petquant import mask as mask_mod, nifti
from petquant.cohort import (
    MANIFEST_COLUMNS,
    CohortEntry,
    extract_file,
    parallel_map,
    write_manifest,
)
from petquant.nifti import encode_nifti
from petquant.qc import pair_quadrants
from petquant.volume import StoredVolume

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

    @pytest.mark.parametrize("pid", ["../../escaped", "a/b", "a\\b", "/abs"])
    def test_path_separator_in_patient_id_names_line(self, tmp_path, pid):
        # outputs are named after the id: "../../escaped" wrote two levels above --out-dir
        bad = tmp_path / "sep.csv"
        bad.write_text(
            "patient_id,bl_volume,bl_mask,fu_volume,fu_mask\n"
            f"{pid},a.nii,b.nii,c.nii,d.nii\n"
        )
        with pytest.raises(ManifestError, match=r"sep\.csv:2: patient_id .* path separator"):
            load_manifest(bad)

    @pytest.mark.parametrize("blank", ["", "  "])
    @pytest.mark.parametrize("column", MANIFEST_COLUMNS[:5])
    def test_empty_cell_names_line_and_column(self, tmp_path, column, blank):
        # an empty path cell used to become the manifest's directory
        row = dict(zip(MANIFEST_COLUMNS[:5], ("p2", "a.nii", "b.nii", "c.nii", "d.nii")))
        row[column] = blank
        bad = tmp_path / "m.csv"
        bad.write_text(
            "patient_id,bl_volume,bl_mask,fu_volume,fu_mask\n"
            "p1,a.nii,b.nii,c.nii,d.nii\n" + ",".join(row.values()) + "\n"
        )
        with pytest.raises(ManifestError) as err:
            load_manifest(bad)
        assert str(err.value) == f"{bad}:3: empty {column}"

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
            ("1e300", "1e-300"),  # SUV scale underflows to 0
            ("1e-300", "1e300"),  # SUV scale overflows to inf
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

    def test_write_then_load_round_trip(self, tmp_path):
        entries = [
            CohortEntry("p1", *(Path(f"d/p1_{c}.nii") for c in MANIFEST_COLUMNS[1:5]), 180.0, 60.0),
            CohortEntry("p2", *(Path(f"../p2_{c}.nii") for c in MANIFEST_COLUMNS[1:5])),
        ]
        path = tmp_path / "m.csv"
        write_manifest(path, entries)
        header, _, no_dose = path.read_text().splitlines()
        assert header == ",".join(MANIFEST_COLUMNS) and no_dose.endswith(",,")
        joined = [
            replace(e, **{c: tmp_path / getattr(e, c) for c in MANIFEST_COLUMNS[1:5]})
            for e in entries
        ]
        assert load_manifest(path) == joined


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
        quants = analyse_cohort(entries).quants
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
        a = analyse_cohort(entries, threads=1)
        b = analyse_cohort(entries, threads=4)
        assert [(q.baseline, q.followup) for q in a.quants] == [
            (q.baseline, q.followup) for q in b.quants
        ]
        assert (a.threshold, a.records) == (b.threshold, b.records)

    def test_never_widens_a_whole_grid(self, cohort_dir, monkeypatch):
        # every volume is checked whole but widened to float64 on its mask's box only
        widened = []
        original = StoredVolume.widen

        def spy(stored, box=None):
            widened.append(stored.grid.shape if box is None else stored.grid[box].shape)
            return original(stored, box)

        monkeypatch.setattr(StoredVolume, "widen", spy)
        analyse_cohort(load_manifest(cohort_dir / "manifest.csv"), threads=2)
        assert len(widened) == 2 * 8
        assert all(np.prod(shape) < np.prod(DIMS) for shape in widened), widened

    def test_each_mask_is_scanned_for_its_box_once(self, cohort_dir, monkeypatch):
        # the box found for the read also serves is_empty, centroid and extract
        scans = []
        original = mask_mod.bounding_box
        monkeypatch.setattr(
            mask_mod, "bounding_box", lambda bits, *a: scans.append(bits.shape) or original(bits, *a)
        )
        quants = analyse_cohort(load_manifest(cohort_dir / "manifest.csv")[:3]).quants
        assert [s for s in scans if s == DIMS] == [DIMS] * 2 * 3
        assert all(q.bl_quadrant is not None for q in quants)


def _write_nifti(path, grid, datatype=16, slope=1.0, inter=0.0) -> None:
    header, payload = encode_nifti(grid, SPACING, datatype)
    header = bytearray(header)
    header[112:120] = np.array([slope, inter], dtype="<f4").tobytes()  # scl_slope, scl_inter
    path.write_bytes(bytes(header) + bytes(payload))


def _outcome(fn):
    try:
        return fn()
    except PetQuantError as exc:
        return type(exc), str(exc)


def _extract_both(path, mask, acq):
    """extract_file's outcome, and that of extracting from the whole volume read."""
    unit = IntensityUnit.SUV if acq is None else IntensityUnit.ACTIVITY_KBQ_PER_ML
    return (
        _outcome(lambda: extract_file(path, mask, acq)),
        _outcome(lambda: extract(read_volume(path, unit=unit), mask, acq)),
    )


class TestExtractFile:
    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 5)),
        seed=st.integers(0, 2**32 - 1),
        fill=st.floats(0.0, 1.0),
        datatype=st.sampled_from([4, 16]),
        scale=st.sampled_from([(1.0, 0.0), (0.0, 0.0), (2.5, -1.25), (1e-3, 7.0)]),
        acq=st.sampled_from([None, AcquisitionInfo(180.0, 60.0), AcquisitionInfo(333.0, 71.3)]),
    )
    def test_equals_extract_of_the_whole_volume(
        self, tmp_path_factory, dims, seed, fill, datatype, scale, acq
    ):
        rng = np.random.default_rng(seed)
        grid = rng.normal(20.0, 15.0, dims)
        if datatype == 4:
            grid = np.round(grid * 50).astype(np.int16)
        path = tmp_path_factory.mktemp("x") / "v.nii"
        _write_nifti(path, np.asfortranarray(grid), datatype, *scale)
        mask = BinaryMask(rng.random(dims) < fill, SPACING)
        new, old = _extract_both(path, mask, acq)
        assert new == old

    def test_sidecar_equals_extract_of_the_whole_volume(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "v.json"
        write_volume(Volume3D(rng.normal(3.0, 1.0, (6, 5, 4)), SPACING, IntensityUnit.SUV), path)
        mask = BinaryMask(rng.random((6, 5, 4)) < 0.3, SPACING)
        new, old = _extract_both(path, mask, None)
        assert new == old and new.voxel_count > 0

    def _nan_file(self, tmp_path):
        grid = np.full((6, 5, 4), 4.0)
        # the first non-finite voxel in C index order is (0, 1, 0); in the
        # x-fastest payload (3, 0, 0) comes first
        grid[3, 0, 0] = grid[0, 1, 0] = np.nan
        path = tmp_path / "nan.nii"
        _write_nifti(path, grid)
        return path

    def test_nan_outside_the_mask_rejected_alike(self, tmp_path):
        bits = np.zeros((6, 5, 4), dtype=bool)
        bits[5, 4, 3] = True
        new, old = _extract_both(self._nan_file(tmp_path), BinaryMask(bits, SPACING), None)
        assert new == old == (VolumeDataError, "non-finite voxel value at index (0, 1, 0)")

    @pytest.mark.parametrize("dims, spacing", [((6, 5, 3), SPACING), ((6, 5, 4), (4.0, 4.0, 2.0))])
    def test_geometry_mismatch_rejected_alike(self, tmp_path, dims, spacing):
        path = tmp_path / "v.nii"
        _write_nifti(path, np.ones((6, 5, 4)))
        new, old = _extract_both(path, BinaryMask(np.ones(dims, dtype=bool), spacing), None)
        assert new == old and new[0] is GeometryMismatchError

    def test_non_finite_reported_before_geometry(self, tmp_path):
        mask = BinaryMask(np.ones((2, 2, 2), dtype=bool), SPACING)
        new, old = _extract_both(self._nan_file(tmp_path), mask, None)
        assert new == old and new[0] is VolumeDataError

    def test_sidecar_unit_conflict_rejected_alike(self, tmp_path):
        path = tmp_path / "v.json"
        values = np.full((6, 5, 4), 2.0)
        values[0, 0, 0] = np.inf  # the unit is checked first
        write_volume(Volume3D(np.ones((6, 5, 4)), SPACING, IntensityUnit.SUV), path)
        path.with_suffix(".raw").write_bytes(values.astype("<f4").tobytes(order="F"))
        mask = BinaryMask(np.ones((1, 1, 1), dtype=bool), SPACING)
        new, old = _extract_both(path, mask, AcquisitionInfo(180.0, 60.0))
        assert new == old and new[0] is IntensityUnitError

    def test_empty_mask_reads_and_warns_alike(self, tmp_path):
        path = tmp_path / "v.nii"
        _write_nifti(path, np.ones((6, 5, 4)))
        mask = BinaryMask(np.zeros((6, 5, 4), dtype=bool), SPACING)
        new, old = _extract_both(path, mask, AcquisitionInfo(180.0, 60.0))
        assert new == old and new.warnings == ("empty mask: biomarkers set to zero",)
        new, old = _extract_both(self._nan_file(tmp_path), mask, None)
        assert new == old and new[0] is VolumeDataError


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


def _read_masks(out, pid):
    """The baseline and follow-up masks of one patient of such a cohort."""
    return [read_mask(out / f"{pid}_{tag}_mask.nii") for tag in ("bl", "fu")]


class TestRunQc:
    def test_derives_threshold_and_flags(self, cohort_dir, tmp_path):
        entries = load_manifest(cohort_dir / "manifest.csv")
        truth = json.loads((cohort_dir / "ground_truth.json").read_text())
        ratios = {p["patient_id"]: p["mtv_ratio"] for p in truth["patients"]}
        designated = {p["patient_id"] for p in truth["patients"] if p["is_outlier"]}
        expected_thr = 1.0 / (sum(ratios.values()) / len(ratios))
        expected_flagged = {pid for pid, r in ratios.items() if r > expected_thr}

        summary = json.loads(run_cohort(entries, tmp_path, select_extreme=3)["qc_summary.json"])
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
        files = run_cohort(entries, tmp_path, threshold=fixed_threshold(100.0))
        summary = json.loads(files["qc_summary.json"])
        assert summary["threshold"] == 100.0
        assert summary["n_outliers"] == 0

    def test_followup_on_finer_grid_takes_baseline_quadrants(self, tmp_path):
        # p1's follow-up sits at x = 7..9 of 16: its own-grid centroid (x = 8) is
        # high-x, but on the baseline grid only x = 7 and 9 survive (as 3 and 4
        # of 8, centroid 3.5) -> low-x. p2's follow-up lands on x, y = 5 and 6 of
        # 8, as its baseline does: high/high
        bl1 = [(1, 1, 1), (2, 1, 1)]
        fu1 = [(7, 1, 1), (8, 1, 1), (9, 1, 1)]
        bl2 = [(5, 5, 1), (6, 6, 2)]
        fu2 = [(x, y, 5) for x in (11, 12, 13) for y in (11, 13)]
        manifest = _write_regrid_cohort(tmp_path, [("p1", bl1, fu1), ("p2", bl2, fu2)])
        run_cohort(load_manifest(manifest), tmp_path / "qc", threshold=fixed_threshold(100.0))
        with open(tmp_path / "qc" / "qc_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = [(r["patient_id"], r["baseline_quadrant"], r["followup_quadrant"]) for r in rows]
        assert got == [("p1", "Q1", "Q1"), ("p2", "Q3", "Q3")]  # worked by hand
        assert rows[0]["followup_quadrant"] == "Q1"  # not the own-grid Q2

    def test_followup_empty_after_regrid_rejected(self, tmp_path):
        # the regrid samples odd follow-up indices only, so (8, 8, 2) vanishes
        manifest = _write_regrid_cohort(tmp_path, [("p1", [(1, 1, 1)], [(8, 8, 2)])])
        assert pair_quadrants(*_read_masks(tmp_path, "p1"))[1] is None
        with pytest.raises(ManifestError, match="p1: empty mask"):
            run_cohort(load_manifest(manifest), tmp_path / "qc", threshold=fixed_threshold(100.0))
        with pytest.raises(ManifestError, match="p1: empty mask"):
            run_cohort(load_manifest(manifest), tmp_path / "report")
        # report used to write three files before QC raised
        assert not (tmp_path / "qc").exists() and not (tmp_path / "report").exists()


class TestRunReport:
    def test_emits_all_files(self, cohort_dir, tmp_path):
        entries = load_manifest(cohort_dir / "manifest.csv")
        files = run_cohort(entries, tmp_path)
        assert list(files) == [
            "qc_report.csv",
            "qc_summary.json",
            "biomarker_table.csv",
            "deltas.csv",
            "boxplot.json",
            "qc_scatter.csv",
            "stats.json",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)  # no annotation batch
        for name, text in files.items():
            assert (tmp_path / name).read_text() == text
        stats = json.loads(files["stats.json"])
        assert stats["n"] == 8
        assert set(stats["delta"]) == {"suv_max", "mtv_cm3", "tlg"}
        for key in stats["delta"].values():
            assert "mean" in key and "sd" in key and "sem" in key
        table = (tmp_path / "biomarker_table.csv").read_text().splitlines()
        assert len(table) == 1 + 16  # 8 patients x 2 timepoints
        box = json.loads((tmp_path / "boxplot.json").read_text())
        assert set(box) == {"suv_max", "mtv_cm3", "tlg"}
        assert set(box["mtv_cm3"]) == {"baseline", "followup"}

    def test_stats_are_the_ttest_own(self, tmp_path):
        # stats.json's mean and sd used to be a second, sequential sum; on these
        # ten patients both differ from numpy's pairwise sum in the last digits
        # (the eight of `cohort_dir` happen to agree)
        generate_cohort(
            10,
            ResponseModel(
                ratio_mean=0.4, ratio_sd=0.05, outlier_fraction=0.25, outlier_ratio_min=5.0
            ),
            seed=13,
            out_dir=tmp_path / "c",
            dims=DIMS,
            spacing=SPACING,
            baseline_radius_mm=10.0,
        )
        entries = load_manifest(tmp_path / "c" / "manifest.csv")
        stats = json.loads(run_cohort(entries, tmp_path / "r")["stats.json"])
        quants = analyse_cohort(entries).quants
        for key in ("mtv_cm3", "tlg"):
            tt = paired_ttest(
                [getattr(q.baseline, key) for q in quants],
                [getattr(q.followup, key) for q in quants],
            )
            entry = stats["delta"][key]
            assert (entry["mean"], entry["sd"]) == (tt.mean_diff, tt.sd_diff)
            assert (entry["t"], entry["p"], entry["df"]) == (tt.t, tt.p, tt.df)

    def test_byte_identical_across_threads(self, cohort_dir, tmp_path):
        entries = load_manifest(cohort_dir / "manifest.csv")
        files = run_cohort(entries, tmp_path / "t1", threads=1)
        assert run_cohort(entries, tmp_path / "t8", threads=8) == files
        for name in files:
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t8" / name).read_bytes()


class TestOneDecodePerFile:
    """One run maps each volume and each mask file once: the analysis pass
    serves every cohort file, and the annotation export maps each exported
    follow-up volume once more."""

    @pytest.fixture
    def decoded(self, monkeypatch):
        paths = []
        original = nifti._decode
        monkeypatch.setattr(nifti, "_decode", lambda path: paths.append(path) or original(path))
        return paths

    @staticmethod
    def _inputs(entries):
        return [getattr(e, c) for e in entries for c in MANIFEST_COLUMNS[1:5]]

    def test_report(self, cohort_dir, tmp_path, decoded):
        entries = load_manifest(cohort_dir / "manifest.csv")
        run_cohort(entries, tmp_path, threads=2)
        assert len(decoded) == 4 * len(entries)
        assert sorted(decoded) == sorted(self._inputs(entries))

    def test_qc_and_its_annotation_export(self, cohort_dir, tmp_path, decoded):
        entries = load_manifest(cohort_dir / "manifest.csv")
        files = run_cohort(entries, tmp_path, select_extreme=3, threads=2)
        summary = json.loads(files["qc_summary.json"])
        extreme = [e.fu_volume for e in entries if e.patient_id in summary["extreme_ids"]]
        assert extreme and len(decoded) == 4 * len(entries) + len(extreme)
        assert sorted(decoded) == sorted(self._inputs(entries) + extreme)


class TestEmptyCohort:
    def test_rejected_before_any_file(self, tmp_path):
        # qc used to write a header-only report with cohort_size 0, and
        # report two header-only CSVs before boxplot_summary raised
        with pytest.raises(ManifestError, match="cohort has no patients"):
            analyse_cohort([])
        with pytest.raises(ManifestError, match="cohort has no patients"):
            run_cohort([], tmp_path / "qc", threshold=fixed_threshold(5.0))
        with pytest.raises(ManifestError, match="cohort has no patients"):
            run_cohort([], tmp_path / "report")
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


class TestReportLayout:
    """Each report file's columns or keys, in order (README, "Report files")."""

    @pytest.fixture(scope="class")
    def out(self, cohort_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("layout")
        entries = load_manifest(cohort_dir / "manifest.csv")
        run_cohort(entries, out / "qc", select_extreme=1)
        run_cohort(entries, out / "report")
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
