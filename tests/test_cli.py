import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from petquant import (
    BinaryMask,
    IntensityUnit,
    ResponseModel,
    Volume3D,
    generate,
    generate_cohort,
    write_mask,
    write_volume,
)
from petquant import cli
from petquant.cli import UsageError, _parse_roi, main
from petquant.cohort import MANIFEST_COLUMNS, load_manifest, write_manifest
from petquant.losses import LossParams
from petquant.phantom import LesionSpec

DIMS = (24, 24, 16)
SPACING = (4.0, 4.0, 4.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def lesion_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("lesion")
    spec = LesionSpec(
        center=(11.5, 11.5, 7.5), radius_mm=8.0, peak_suv=10.0, background_suv=1.0
    )
    vol, mask, truth = generate(spec, DIMS, SPACING)
    write_volume(vol, out / "vol.nii")
    write_mask(mask, out / "mask.nii")
    return out, truth


class TestCompare:
    def test_identical_masks(self, lesion_files, capsys):
        out, _ = lesion_files
        code, stdout, _ = run(capsys, "compare", str(out / "mask.nii"), str(out / "mask.nii"))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["dsc"] == 1.0
        assert payload["iou"] == 1.0
        assert payload["sensitivity"] == 1.0
        assert payload["hd_mm"] == 0.0

    def test_batch_mode(self, lesion_files, tmp_path, capsys):
        out, _ = lesion_files
        batch = tmp_path / "pairs.csv"
        batch.write_text(
            "pair_id,path_a,path_b\n"
            f"self,{out / 'mask.nii'},{out / 'mask.nii'}\n"
        )
        code, stdout, _ = run(capsys, "compare", "--batch", str(batch))
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "pair_id,dsc,iou,sensitivity,hd_mm"
        assert lines[1].startswith("self,1,1,1,0")

    def test_batch_empty_mask_writes_empty_cells(self, lesion_files, tmp_path, capsys):
        # used to abort the whole batch; single mode already reported null
        out, _ = lesion_files
        write_mask(BinaryMask(np.zeros(DIMS, bool), SPACING), tmp_path / "empty.nii")
        batch = tmp_path / "pairs.csv"
        batch.write_text(
            "pair_id,path_a,path_b\n"
            f"no_pred,{out / 'mask.nii'},empty.nii\n"
            f"no_gt,empty.nii,{out / 'mask.nii'}\n"
            "none,empty.nii,empty.nii\n"
        )
        code, stdout, _ = run(capsys, "compare", "--batch", str(batch))
        assert code == 0
        assert stdout.splitlines() == [
            "pair_id,dsc,iou,sensitivity,hd_mm",
            "no_pred,0,0,0,",
            "no_gt,0,0,,",
            "none,1,1,,",
        ]

    def test_batch_short_row_names_line(self, lesion_files, tmp_path, capsys):
        out, _ = lesion_files
        batch = tmp_path / "pairs.csv"
        batch.write_text(
            "pair_id,path_a,path_b\n"
            f"self,{out / 'mask.nii'},{out / 'mask.nii'}\n"
            f"short,{out / 'mask.nii'}\n"
        )
        code, stdout, err = run(capsys, "compare", "--batch", str(batch))
        assert code == 1
        assert "pairs.csv:3" in err and "Traceback" not in err
        assert stdout == ""

    def test_batch_missing_column_names_file(self, tmp_path, capsys):
        batch = tmp_path / "pairs.csv"
        batch.write_text("pair_id,path_a\nx,a.nii\n")
        code, _, err = run(capsys, "compare", "--batch", str(batch))
        assert code == 1
        assert "pairs.csv" in err and "path_b" in err


class TestQuantifyAndDelta:
    def test_quantify_matches_ground_truth(self, lesion_files, capsys):
        out, truth = lesion_files
        code, stdout, _ = run(
            capsys,
            "quantify",
            str(out / "vol.nii"),
            str(out / "mask.nii"),
            "--patient-id",
            "p1",
            "--timepoint",
            "baseline",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert list(payload) == [
            "patient_id",
            "timepoint",
            "suv_max",
            "suv_mean",
            "mtv_cm3",
            "tlg",
            "voxel_count",
            "warnings",
        ]
        assert payload["patient_id"] == "p1"
        assert payload["suv_max"] == truth.suv_max
        assert payload["suv_mean"] == truth.suv_mean
        assert payload["mtv_cm3"] == truth.mtv_cm3
        assert payload["tlg"] == truth.tlg

    def test_quantify_with_suv_conversion(self, tmp_path, capsys):
        # activity = SUV * dose/weight: SUV 6 -> 18 kBq/mL at 180 MBq / 60 kg
        values = np.full(DIMS, 18.0)
        write_volume(
            Volume3D(values, SPACING, IntensityUnit.ACTIVITY_KBQ_PER_ML), tmp_path / "act.nii"
        )
        bits = np.zeros(DIMS, bool)
        bits[2:4, 2:4, 2:4] = True
        write_mask(BinaryMask(bits, SPACING), tmp_path / "m.nii")
        code, stdout, _ = run(
            capsys,
            "quantify",
            str(tmp_path / "act.nii"),
            str(tmp_path / "m.nii"),
            "--dose",
            "180",
            "--weight",
            "60",
        )
        assert code == 0
        assert json.loads(stdout)["suv_max"] == 6.0

    def test_explicit_dose_on_suv_sidecar_exits_1(self, tmp_path, capsys):
        # used to exit 0 with SUVmax 3.33: the SUV values were scaled as kBq/mL
        write_volume(Volume3D(np.full(DIMS, 10.0), SPACING, IntensityUnit.SUV), tmp_path / "s.json")
        bits = np.zeros(DIMS, bool)
        bits[2:4, 2:4, 2:4] = True
        write_mask(BinaryMask(bits, SPACING), tmp_path / "m.nii")
        argv = ["quantify", str(tmp_path / "s.json"), str(tmp_path / "m.nii")]
        code, stdout, err = run(capsys, *argv, "--dose", "180", "--weight", "60")
        assert (code, stdout) == (1, "")
        assert "s.json" in err and "SUV" in err and "kBq/mL" in err
        code, stdout, _ = run(capsys, *argv)
        assert code == 0 and json.loads(stdout)["suv_max"] == 10.0

    def test_delta_roundtrip(self, lesion_files, tmp_path, capsys):
        out, _ = lesion_files
        for name, tp in (("bl.json", "baseline"), ("fu.json", "followup")):
            code, _, _ = run(
                capsys,
                "quantify",
                str(out / "vol.nii"),
                str(out / "mask.nii"),
                "--timepoint",
                tp,
                "--out",
                str(tmp_path / name),
            )
            assert code == 0
        code, stdout, _ = run(
            capsys, "delta", str(tmp_path / "bl.json"), str(tmp_path / "fu.json")
        )
        assert code == 0
        payload = json.loads(stdout)
        assert list(payload) == [
            "d_suv_max",
            "d_mtv_cm3",
            "d_tlg",
            "pct_d_suv_max",
            "mtv_ratio",
            "warnings",
        ]
        assert payload["d_suv_max"] == 0.0
        assert payload["mtv_ratio"] == 1.0


class TestSegment:
    def test_single_volume_pct(self, lesion_files, tmp_path, capsys):
        out, truth = lesion_files
        mask_path = tmp_path / "pred.nii"
        code, stdout, _ = run(
            capsys,
            "segment",
            str(out / "vol.nii"),
            "--out",
            str(mask_path),
            "--method",
            "pct_suvmax",
            "--pct",
            "0.5",
        )
        assert code == 0
        info = json.loads(stdout)
        assert info["voxel_count"] == truth.voxel_count  # 50% of max recovers the sphere
        code, stdout, _ = run(
            capsys, "compare", str(out / "mask.nii"), str(mask_path)
        )
        assert json.loads(stdout)["dsc"] == 1.0

    def test_contrast_method_with_config(self, lesion_files, tmp_path, capsys):
        out, truth = lesion_files
        cfg = tmp_path / "seg.json"
        # ROI box around the lesion leaves a uniform background shell (BG = 1)
        cfg.write_text(
            json.dumps({"method": "contrast", "a": 0.39, "b": 1.0, "roi": [6, 6, 2, 18, 18, 14]})
        )
        code, stdout, _ = run(
            capsys,
            "segment",
            str(out / "vol.nii"),
            "--out",
            str(tmp_path / "pred.nii"),
            "--config",
            str(cfg),
        )
        assert code == 0
        info = json.loads(stdout)
        assert info["converged"] is True
        # plateau 10 on background 1: threshold = 0.39*10 + 1 = 4.9
        assert info["threshold"] == pytest.approx(4.9, abs=1e-6)
        assert info["voxel_count"] == truth.voxel_count

    def test_flag_overrides_config(self, lesion_files, tmp_path, capsys):
        out, _ = lesion_files
        cfg = tmp_path / "seg.json"
        cfg.write_text(json.dumps({"method": "contrast"}))
        code, stdout, _ = run(
            capsys,
            "segment",
            str(out / "vol.nii"),
            "--out",
            str(tmp_path / "pred.nii"),
            "--config",
            str(cfg),
            "--method",
            "pct_suvmax",
            "--pct",
            "0.5",
        )
        assert code == 0
        assert json.loads(stdout)["method"] == "pct_suvmax"

    # DIMS is 24 x 24 x 16; negative bounds used to wrap (slice semantics),
    # overlong ones were clipped, and a config list skipped the empty check
    BAD_ROIS = [
        [-15, 0, 0, 10, 10, 10],
        [0, 0, 0, 25, 10, 10],
        [6, 6, 2, 18, 18, 17],
        [6, 6, 2, 6, 18, 14],
        [6, 6, 2, 18, 5, 14],
        [6, 6, 2, 18, 18],
        [6, 6, 2, 18.5, 18, 14],
    ]

    @pytest.mark.parametrize("roi", BAD_ROIS)
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_bad_roi_exits_1(self, lesion_files, tmp_path, capsys, roi, form):
        out, _ = lesion_files
        if form == "flag":
            roi_args = ["--roi=" + ",".join(str(v) for v in roi)]
        else:
            cfg = tmp_path / "seg.json"
            cfg.write_text(json.dumps({"method": "contrast", "roi": roi}))
            roi_args = ["--config", str(cfg)]
        mask_path = tmp_path / "m.nii"
        code, _, err = run(
            capsys, "segment", str(out / "vol.nii"), "--out", str(mask_path), *roi_args
        )
        assert code == 1
        assert "roi" in err
        assert not mask_path.exists()

    def test_benchmark_roi_is_valid(self):
        box = _parse_roi("52,52,13,92,92,53", np.zeros((144, 144, 66), order="F"))
        assert box.sum() == 40**3 and box[52, 52, 13] and not box[92, 92, 53]
        assert box.flags.f_contiguous  # the layout of the grid it sits on


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clicohort")
    generate_cohort(
        6,
        ResponseModel(ratio_mean=0.4, ratio_sd=0.03, outlier_fraction=0.0),
        seed=4,
        out_dir=out,
        dims=DIMS,
        spacing=SPACING,
        baseline_radius_mm=10.0,
    )
    return out


class TestPipelineCommands:
    def test_phantom_cli_lesion(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "lesion": {
                        "center": [11.5, 11.5, 7.5],
                        "radius_mm": 8.0,
                        "peak_suv": 10.0,
                        "background_suv": 1.0,
                        "dims": list(DIMS),
                        "spacing_mm": list(SPACING),
                    }
                }
            )
        )
        code, stdout, _ = run(capsys, "phantom", "--spec", str(spec), "--out", str(tmp_path / "o"))
        assert code == 0
        assert (tmp_path / "o" / "volume.nii").exists()
        assert (tmp_path / "o" / "mask.nii").exists()
        truth = json.loads((tmp_path / "o" / "ground_truth.json").read_text())
        assert truth["suv_max"] == 10.0

    def test_phantom_cli_cohort(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "cohort": {
                        "n": 2,
                        "ratio_mean": 0.5,
                        "seed": 1,
                        "dims": list(DIMS),
                        "spacing_mm": list(SPACING),
                        "baseline_radius_mm": 10.0,
                    }
                }
            )
        )
        code, stdout, _ = run(capsys, "phantom", "--spec", str(spec), "--out", str(tmp_path / "c"))
        assert code == 0
        assert (tmp_path / "c" / "manifest.csv").exists()

    def test_qc_command(self, cohort_dir, tmp_path, capsys):
        code, stdout, _ = run(
            capsys,
            "qc",
            "--manifest",
            str(cohort_dir / "manifest.csv"),
            "--out-dir",
            str(tmp_path / "qc"),
            "--derive-threshold",
            "--select-extreme",
            "15",
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["n_outliers"] == 0
        assert (tmp_path / "qc" / "qc_report.csv").exists()
        assert (tmp_path / "qc" / "qc_summary.json").exists()

    def test_qc_threshold_flags_are_exclusive(self, cohort_dir, tmp_path, capsys):
        # used to exit 0 with the fixed threshold ("derivation": "fixed")
        code, _, err = run(
            capsys,
            "qc",
            "--manifest",
            str(cohort_dir / "manifest.csv"),
            "--out-dir",
            str(tmp_path / "qc"),
            "--derive-threshold",
            "--threshold",
            "5",
        )
        assert code == 1
        assert "not allowed with" in err and "usage" in err
        assert not (tmp_path / "qc").exists()

    def test_negative_select_extreme_exits_1(self, cohort_dir, tmp_path, capsys):
        # used to exit 0: run_qc skipped the selection for any value <= 0
        code, stdout, err = run(
            capsys,
            "qc",
            "--manifest",
            str(cohort_dir / "manifest.csv"),
            "--out-dir",
            str(tmp_path / "qc"),
            "--select-extreme",
            "-3",
        )
        assert (code, stdout) == (1, "")
        assert "--select-extreme" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dose, weight", [("1e300", "1e-300"), ("1e-300", "1e300")])
    def test_qc_degenerate_suv_scale_names_line(self, cohort_dir, tmp_path, capsys, dose, weight):
        # used to exit 1 at extraction, without the line, after creating --out-dir
        entry = load_manifest(cohort_dir / "manifest.csv")[0]
        row = ",".join(str(getattr(entry, c)) for c in MANIFEST_COLUMNS[1:5])
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            ",".join(MANIFEST_COLUMNS) + f"\np1,{row},180,60\np2,{row},{dose},{weight}\n"
        )
        code, stdout, err = run(
            capsys, "qc", "--manifest", str(manifest), "--out-dir", str(tmp_path / "qc")
        )
        assert (code, stdout) == (1, "")
        assert "manifest.csv:3: " in err and "SUV scale" in err
        assert not (tmp_path / "qc").exists()

    def test_segment_batch_rejects_escaping_patient_id(self, cohort_dir, tmp_path, capsys):
        # "../../escaped" used to write escaped_{bl,fu}_pred.nii above --out-dir
        entry = load_manifest(cohort_dir / "manifest.csv")[0]
        manifest = tmp_path / "m" / "manifest.csv"
        manifest.parent.mkdir()
        write_manifest(manifest, [replace(entry, patient_id="../../escaped")])
        code, stdout, err = run(
            capsys,
            "segment",
            "--manifest",
            str(manifest),
            "--out-dir",
            str(tmp_path / "deep" / "seg"),
        )
        assert (code, stdout) == (1, "")
        assert "manifest.csv:2: " in err and "path separator" in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["m", "manifest.csv"]

    @pytest.mark.parametrize("command", ["qc", "report"])
    def test_missing_mask_leaves_no_out_dir(self, cohort_dir, tmp_path, capsys, command):
        # the out-dir used to be created before the cohort was quantified
        entry = load_manifest(cohort_dir / "manifest.csv")[0]
        manifest = tmp_path / "m" / "manifest.csv"
        manifest.parent.mkdir()
        write_manifest(manifest, [replace(entry, bl_mask=tmp_path / "missing.nii")])
        out = tmp_path / "out"
        code, stdout, err = run(capsys, command, "--manifest", str(manifest), "--out-dir", str(out))
        assert (code, stdout) == (2, "")
        assert "missing.nii" in err
        assert not out.exists()

    def test_report_command(self, cohort_dir, tmp_path, capsys):
        code, stdout, _ = run(
            capsys,
            "report",
            "--manifest",
            str(cohort_dir / "manifest.csv"),
            "--out-dir",
            str(tmp_path / "rep"),
        )
        assert code == 0
        assert (tmp_path / "rep" / "stats.json").exists()

    def test_segment_batch_then_qc(self, cohort_dir, tmp_path, capsys):
        code, stdout, _ = run(
            capsys,
            "segment",
            "--manifest",
            str(cohort_dir / "manifest.csv"),
            "--out-dir",
            str(tmp_path / "seg"),
            "--method",
            "pct_suvmax",
            "--pct",
            "0.5",
        )
        assert code == 0
        pred_manifest = Path(json.loads(stdout)["manifest"])
        assert pred_manifest.exists()
        code, stdout, _ = run(
            capsys,
            "qc",
            "--manifest",
            str(pred_manifest),
            "--out-dir",
            str(tmp_path / "qc2"),
        )
        assert code == 0

    def test_loss_check(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "loss-check", "--trials", "3", "--shape", "5")
        assert code == 0
        report = json.loads(stdout)
        assert report["passed"] is True
        assert report["max_relative_error"] < 1e-5

    @pytest.mark.parametrize(
        "argv, kwargs",
        [
            ((), {"params": LossParams()}),
            (
                ("--trials", "2", "--shape", "3", "--seed", "4", "--alpha", "0.5"),
                {"trials": 2, "shape": (3, 3, 3), "seed": 4, "params": LossParams(alpha=0.5)},
            ),
        ],
    )
    def test_loss_check_passes_only_given_flags(self, monkeypatch, capsys, argv, kwargs):
        # flags left out take gradient_check's and LossParams' own defaults
        calls = []

        def spy(**kw):
            calls.append(kw)
            return {"max_relative_error": 0.0}

        monkeypatch.setattr(cli, "gradient_check", spy)
        code, stdout, _ = run(capsys, "loss-check", *argv)
        assert code == 0 and calls == [kwargs]
        assert json.loads(stdout) == {"max_relative_error": 0.0, "passed": True, "tolerance": 1e-5}


    @pytest.mark.parametrize(
        "argv, kind",
        [
            # each used to exit 0 with "passed": true, or crash, or fail as a check
            (("--trials", "0"), "validation error"),
            (("--trials", "-2"), "validation error"),
            (("--alpha", "nan"), "validation error"),
            (("--alpha", "inf"), "validation error"),
            (("--gamma", "inf"), "validation error"),
            (("--shape", "0"), "validation error"),
            (("--shape", "-1"), "validation error"),
            (("--tolerance", "nan"), "usage error"),
            (("--tolerance", "-1"), "usage error"),
        ],
    )
    def test_loss_check_bad_flag_exits_1(self, tmp_path, capsys, argv, kind):
        out = tmp_path / "loss.json"
        code, stdout, err = run(
            capsys, "loss-check", "--shape", "3", "--out", str(out), "--json-errors", *argv
        )
        assert (code, stdout) == (1, "")
        assert json.loads(err)["error"] == kind
        assert not out.exists()


class TestThreadsDefault:
    def test_env_var_sets_default(self, monkeypatch):
        from petquant.cli import build_parser

        monkeypatch.setenv("PETQUANT_THREADS", "6")
        args = build_parser().parse_args(["loss-check"])
        assert args.threads == 6
        monkeypatch.setenv("PETQUANT_THREADS", "not-a-number")  # was silently 1 thread
        with pytest.raises(UsageError, match="PETQUANT_THREADS"):
            build_parser().parse_args(["loss-check"])

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_bad_thread_count_exits_1(self, monkeypatch, capsys, tmp_path, value, source):
        if source == "env":
            monkeypatch.setenv("PETQUANT_THREADS", value)
            argv = []
        else:
            argv = [f"--threads={value}"]
        out = tmp_path / "loss.json"
        code, _, err = run(capsys, "loss-check", "--trials", "1", "--out", str(out), *argv)
        assert code == 1
        assert "PETQUANT_THREADS" in err and "--threads" in err
        assert not out.exists()


class TestErrorPaths:
    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run(capsys, "compare", "--bogus")
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "compare", str(tmp_path / "a.nii"), str(tmp_path / "b.nii"))
        assert code == 2

    def test_malformed_volume_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.nii"
        bad.write_bytes(b"\x00" * 400)
        code, _, err = run(capsys, "quantify", str(bad), str(bad))
        assert code == 2

    def test_json_errors_flag(self, tmp_path, capsys):
        bad = tmp_path / "bad.nii"
        bad.write_bytes(b"\x00" * 400)
        code, _, err = run(capsys, "quantify", str(bad), str(bad), "--json-errors")
        assert code == 2
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "input error"

    def test_json_errors_on_usage_error(self, capsys):
        code, _, err = run(capsys, "segment", "--json-errors")
        assert code == 1
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "usage error"
        assert "VOLUME" in payload["message"]

    def test_json_errors_on_parse_error(self, capsys):
        code, _, err = run(capsys, "compare", "--bogus", "--json-errors")
        assert code == 1
        assert json.loads(err)["error"] == "usage error"

    def test_dose_without_weight_exits_1(self, lesion_files, capsys):
        out, _ = lesion_files
        code, _, err = run(
            capsys, "quantify", str(out / "vol.nii"), str(out / "mask.nii"), "--dose", "180"
        )
        assert code == 1
        assert "together" in err

    @pytest.mark.parametrize("dose, weight", [("1e300", "1e-300"), ("1e-300", "1e300")])
    def test_degenerate_suv_scale_exits_1(self, lesion_files, capsys, dose, weight):
        # weight/dose underflowed to 0 (exit 0, SUVmax 0) or overflowed to inf (exit 2)
        out, _ = lesion_files
        code, stdout, err = run(
            capsys,
            "quantify",
            str(out / "vol.nii"),
            str(out / "mask.nii"),
            "--dose",
            dose,
            "--weight",
            weight,
        )
        assert (code, stdout) == (1, "")
        assert "validation error" in err and "SUV scale" in err

    def test_validation_error_exits_1(self, lesion_files, tmp_path, capsys):
        out, _ = lesion_files
        code, _, _ = run(
            capsys,
            "segment",
            str(out / "vol.nii"),
            "--out",
            str(tmp_path / "m.nii"),
            "--pct",
            "1.5",
        )
        assert code == 1


_LESION = {"center": [11.5, 11.5, 7.5], "radius_mm": 8, "peak_suv": 10, "dims": [24, 24, 16]}
_COHORT = {"n": 2, "ratio_mean": 0.5, "dims": [24, 24, 16], "baseline_radius_mm": 10}
_BIO = {"suv_max": 10, "suv_mean": 10, "mtv_cm3": 1.5, "tlg": 15, "voxel_count": 20}

# (command, JSON text): each used to crash with a traceback, run on a
# silently converted value, or ignore the offending key
BAD_JSON = [
    ("phantom", "[1, 2]"),
    ("phantom", "{}"),
    ("phantom", json.dumps({"cohort": _COHORT, "lesion": _LESION})),
    ("phantom", json.dumps({"cohort": [1]})),
    ("phantom", json.dumps({"cohort": {**_COHORT, "bogus": 1}})),
    ("phantom", json.dumps({"cohort": {"ratio_mean": 0.5}})),
    ("phantom", json.dumps({"cohort": {**_COHORT, "n": True}})),
    ("phantom", json.dumps({"cohort": {**_COHORT, "n": 2.5}})),
    ("phantom", json.dumps({"cohort": {**_COHORT, "ratio_mean": "0.5"}})),
    ("phantom", json.dumps({"cohort": {**_COHORT, "dims": [24, 24]}})),
    ("phantom", json.dumps({"cohort": {**_COHORT, "spacing_mm": [4, "4", 4]}})),
    ("phantom", json.dumps({"lesion": {**_LESION, "center": [11.5, "a", 7.5]}})),
    ("phantom", json.dumps({"lesion": {**_LESION, "peak_suv": False}})),
    ("phantom", json.dumps({"lesion": {**_LESION, "profile": 1}})),
    ("segment", '"contrast"'),
    ("segment", json.dumps({"bogus": 1})),
    ("segment", json.dumps({"a": "0.39"})),
    ("segment", json.dumps({"pct": True})),
    ("segment", json.dumps({"max_iter": 10.5})),
    ("segment", json.dumps({"postprocess": "no"})),
    ("segment", json.dumps({"method": ["contrast"]})),
    ("delta", "{"),
    ("delta", "[]"),
    ("delta", json.dumps({k: v for k, v in _BIO.items() if k != "tlg"})),
    ("delta", json.dumps({**_BIO, "voxel_count": "20"})),
    ("delta", json.dumps({**_BIO, "suv_max": None})),
    ("delta", json.dumps({**_BIO, "bogus": 1})),
]


# a degenerate grid used to be blamed on the lesion ("does not fit", "leaves
# the volume"); the message now names the bad field
BAD_GRID = [
    ("phantom", json.dumps({"cohort": {**_COHORT, "dims": [0, 24, 16]}}), "dims"),
    ("phantom", json.dumps({"cohort": {**_COHORT, "spacing_mm": [4, -4, 4]}}), "spacing"),
    ("phantom", json.dumps({"lesion": {**_LESION, "dims": [0, 24, 16]}}), "dims"),
    ("phantom", json.dumps({"lesion": {**_LESION, "spacing_mm": [4, 4, -4]}}), "spacing"),
]
BAD_INPUTS = [(c, t, None) for c, t in BAD_JSON] + BAD_GRID


@pytest.mark.parametrize(
    "command, text, field", BAD_INPUTS, ids=[f"{c}{i}" for i, (c, _, _) in enumerate(BAD_INPUTS)]
)
def test_bad_json_input_exits_1(lesion_files, tmp_path, capsys, command, text, field):
    out, _ = lesion_files
    path = tmp_path / "in.json"
    path.write_text(text)
    result = tmp_path / "result"
    if command == "phantom":
        argv = ["phantom", "--spec", str(path), "--out", str(result)]
    elif command == "segment":
        argv = ["segment", str(out / "vol.nii"), "--out", str(result), "--config", str(path)]
    else:
        argv = ["delta", str(path), str(path), "--out", str(result)]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert str(path) in err and "Traceback" not in err
    assert field is None or field in err
    assert not result.exists()
