import json
import math
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
    read_mask,
    write_mask,
    write_volume,
)
from petquant import cli, nifti
from petquant.cli import UsageError, _roi_box, main
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

    def test_batch_honours_threads(self, lesion_files, tmp_path, capsys, monkeypatch):
        # --threads used to be accepted and ignored; every count gives the same bytes
        out, _ = lesion_files
        write_mask(BinaryMask(np.zeros(DIMS, bool), SPACING), tmp_path / "empty.nii")
        masks = [str(out / "mask.nii"), "empty.nii"]
        rows = [f"p{i}{j},{a},{b}\n" for i, a in enumerate(masks) for j, b in enumerate(masks)]
        batch = tmp_path / "pairs.csv"
        batch.write_text("pair_id,path_a,path_b\n" + "".join(rows))
        real, calls = cli.cohort_mod.parallel_map, []

        def spy(fn, items, threads):
            calls.append(threads)
            return real(fn, items, threads)

        monkeypatch.setattr(cli.cohort_mod, "parallel_map", spy)
        outputs = []
        for threads in ("1", "3"):
            result = tmp_path / f"pairs{threads}.csv"
            argv = ["compare", "--batch", str(batch), "--threads", threads, "--out", str(result)]
            assert run(capsys, *argv)[0] == 0
            outputs.append(result.read_bytes())
        assert calls == [1, 3]
        assert outputs[0] == outputs[1]
        assert outputs[0].decode().splitlines()[1:] == [
            "p00,1,1,1,0",
            "p01,0,0,0,",
            "p10,0,0,,",
            "p11,1,1,,",
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

    def test_mask_written_over_its_own_volume(self, lesion_files, tmp_path, capsys):
        # the volume is mapped while its path is replaced by the mask
        out, truth = lesion_files
        path = tmp_path / "vol.nii"
        path.write_bytes((out / "vol.nii").read_bytes())
        code, _, _ = run(capsys, "segment", str(path), "--out", str(path))
        assert code == 0
        assert int(read_mask(path).bits.sum()) == truth.voxel_count
        assert list(tmp_path.iterdir()) == [path]

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

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--contrast-b", "nan", "b"), ("--contrast-b", "inf", "b"), ("--tol", "nan", "tol")],
    )
    def test_non_finite_contrast_flag_exits_1(
        self, lesion_files, tmp_path, capsys, flag, value, name
    ):
        # each used to exit 0: every mask empty for b, all 100 iterations run for tol
        out, _ = lesion_files
        mask_path = tmp_path / "m.nii"
        argv = ["segment", str(out / "vol.nii"), "--out", str(mask_path), "--method", "contrast"]
        code, stdout, err = run(capsys, *argv, "--json-errors", flag, value)
        assert (code, stdout) == (1, "")
        assert json.loads(err)["error"] == "validation error"
        assert json.loads(err)["message"] == f"{name} must be finite and >= 0, got {value}"
        assert not mask_path.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--pct", "2"), "pct must"),
            (("--roi", "1,2,3"), "roi needs 6 integers"),
            (("--method", "contrast", "--max-iter", "0"), "max_iter must"),
            (("--method", "contrast", "--contrast-a", "1"), "a must"),
            # a parameter the method does not use is range-checked all the same (each exited 0)
            (("--contrast-a", "7", "--max-iter", "-3"), "a must be finite and > 0 and < 1, got 7.0"),
            (("--method", "contrast", "--pct", "7"), "pct must be finite and > 0 and < 1, got 7.0"),
            # then one the method does not use is refused (each exited 0)
            (("--contrast-a", "0.5", "--max-iter", "3"), "a is not a parameter of method pct_suvmax"),
            (("--method", "contrast", "--pct", "0.4"), "pct is not a parameter of method contrast"),
        ],
    )
    def test_bad_parameter_fails_before_any_file(
        self, cohort_dir, tmp_path, capsys, monkeypatch, flags, message
    ):
        # these used to read the first volume, then exit 1 leaving an empty --out-dir
        opened = []
        monkeypatch.setattr(nifti, "_decode", opened.append)
        out = tmp_path / "D"
        manifest = str(cohort_dir / "manifest.csv")
        code, stdout, err = run(capsys, "segment", "--manifest", manifest, "--out-dir", str(out), *flags)
        assert (code, stdout, opened) == (1, "", [])
        assert "validation error" in err and message in err
        assert not out.exists()

    def test_parameter_error_comes_before_io_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        code, _, err = run(capsys, "segment", "--manifest", missing, "--out-dir", str(tmp_path / "D"), "--pct", "2")
        assert code == 1 and "pct must" in err

    def test_bad_value_from_a_flag_does_not_name_the_config(self, lesion_files, tmp_path, capsys):
        out, _ = lesion_files
        cfg = tmp_path / "seg.json"
        cfg.write_text(json.dumps({"pct": 2}))
        argv = ["segment", str(out / "vol.nii"), "--out", str(tmp_path / "m.nii"), "--config", str(cfg)]
        code, _, err = run(capsys, *argv, "--json-errors")
        assert code == 1 and json.loads(err)["message"] == f"{cfg}: pct must be finite and > 0 and < 1, got 2.0"
        code, _, err = run(capsys, *argv, "--json-errors", "--pct", "3")
        assert code == 1 and json.loads(err)["message"] == "pct must be finite and > 0 and < 1, got 3.0"
        code, _, _ = run(capsys, *argv, "--pct", "0.5")  # the flag wins over the file
        assert code == 0

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            # each exited 0 with the value ignored
            (("--contrast-a", "0.5", "--max-iter", "3"), None, "a is not a parameter of method pct_suvmax"),
            ((), {"tol": 0.1}, "{cfg}: tol is not a parameter of method pct_suvmax"),
            (("--method", "pct_suvmax"), {"method": "contrast", "b": 1.0}, "{cfg}: b is not a parameter of method pct_suvmax"),
            # the flag's value, not the file's, is the one refused
            (("--method", "contrast", "--pct", "0.4"), {"pct": 0.3}, "pct is not a parameter of method contrast"),
        ],
    )
    def test_parameter_the_method_does_not_use_exits_1(
        self, lesion_files, tmp_path, capsys, monkeypatch, flags, config, message
    ):
        opened = []
        monkeypatch.setattr(nifti, "_decode", opened.append)
        out, _ = lesion_files
        cfg = tmp_path / "seg.json"
        argv = ["segment", str(out / "vol.nii"), "--out", str(tmp_path / "m.nii"), *flags]
        if config is not None:
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        code, stdout, err = run(capsys, *argv, "--json-errors")
        assert (code, stdout, opened) == (1, "", [])
        payload = {"error": "validation error", "type": "ParameterError", "message": message.format(cfg=cfg)}
        assert json.loads(err) == payload
        assert list(tmp_path.iterdir()) == ([] if config is None else [cfg])

    def test_benchmark_roi_is_valid(self):
        box = _roi_box("52,52,13,92,92,53", (144, 144, 66))
        assert box == (slice(52, 92), slice(52, 92), slice(13, 53))  # 40**3 voxels


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

    @pytest.mark.parametrize("threshold", [(), ("--threshold", "7.11")])
    @pytest.mark.parametrize("command", ["qc", "report"])
    def test_empty_baseline_masks_name_a_patient(
        self, cohort_dir, tmp_path, capsys, command, threshold
    ):
        # a derived threshold used to fail first, naming no patient:
        # "cannot derive a threshold from an empty cohort"
        empty = tmp_path / "empty.nii"
        write_mask(BinaryMask(np.zeros(DIMS, bool), SPACING), empty)
        entries = load_manifest(cohort_dir / "manifest.csv")
        manifest = tmp_path / "m" / "manifest.csv"
        manifest.parent.mkdir()
        write_manifest(manifest, [replace(e, bl_mask=empty) for e in entries])
        out = tmp_path / "out"
        argv = (command, "--manifest", str(manifest), "--out-dir", str(out), *threshold)
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert "patient p0000: empty mask, cannot run QC" in err
        assert not out.exists()

    def test_report_on_constant_change_cohort(self, tmp_path, capsys):
        # every MTV halves, so each change is one value: stats.json's sd was a
        # hand-written sum's rounding residue while paired_ttest's was 0, and
        # report exited 1 ("zero variance") after writing four of its files
        spec = tmp_path / "spec.json"
        cohort = {
            "n": 8,
            "ratio_mean": 0.5,
            "ratio_sd": 0.0,
            "dims": [32, 32, 20],
            "spacing_mm": [4, 4, 4],
            "baseline_radius_mm": 12,
            "seed": 3,
        }
        spec.write_text(json.dumps({"cohort": cohort}))
        assert run(capsys, "phantom", "--spec", str(spec), "--out", str(tmp_path / "c"))[0] == 0
        out = tmp_path / "rep"
        argv = ("report", "--manifest", str(tmp_path / "c" / "manifest.csv"), "--out-dir", str(out))
        code, stdout, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert sorted(p.name for p in out.iterdir()) == [
            "biomarker_table.csv",
            "boxplot.json",
            "deltas.csv",
            "qc_report.csv",
            "qc_scatter.csv",
            "qc_summary.json",
            "stats.json",
        ]
        stats = json.loads((out / "stats.json").read_text())
        assert stats == json.loads(stdout)
        for key in ("mtv_cm3", "tlg"):
            entry = stats["delta"][key]
            assert entry["mean"] < 0 and entry["sd"] == entry["sem"] == 0
            assert "t" not in entry

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

    def test_qc_and_report_write_the_same_files(self, cohort_dir, tmp_path, capsys):
        # one cohort pass and one writer: the commands differ only in the file
        # they print (report used to write five files and take no --select-extreme)
        flags = ("--manifest", str(cohort_dir / "manifest.csv"), "--threshold", "0.3")
        printed, written = {}, {}
        for command in ("qc", "report"):
            out = tmp_path / command
            argv = (command, *flags, "--select-extreme", "2", "--out-dir", str(out))
            code, printed[command], err = run(capsys, *argv)
            assert (code, err) == (0, "")
            written[command] = {
                str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()
            }
        assert written["qc"] == written["report"]
        assert sorted(p.name for p in (tmp_path / "report").iterdir()) == [
            "annotation_batch",
            "biomarker_table.csv",
            "boxplot.json",
            "deltas.csv",
            "qc_report.csv",
            "qc_scatter.csv",
            "qc_summary.json",
            "stats.json",
        ]
        summary = json.loads(written["report"]["qc_summary.json"])
        tasks = json.loads(written["report"]["annotation_batch/tasks.json"])["tasks"]
        assert len(summary["extreme_ids"]) == 2
        assert [t["patient_id"] for t in tasks] == summary["extreme_ids"]
        assert printed["qc"].encode() == written["qc"]["qc_summary.json"]
        assert printed["report"].encode() == written["report"]["stats.json"]

    def test_report_negative_select_extreme_reads_nothing(
        self, cohort_dir, tmp_path, capsys, monkeypatch
    ):
        opened = []
        monkeypatch.setattr(nifti, "_decode", opened.append)
        out = tmp_path / "rep"
        argv = ("--manifest", str(cohort_dir / "manifest.csv"), "--out-dir", str(out))
        code, stdout, err = run(capsys, "report", *argv, "--select-extreme", "-1")
        assert (code, stdout, opened) == (1, "", [])
        assert "report: --select-extreme must be >= 0, got -1" in err
        assert not out.exists()

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
            # used to print numpy overflow warnings, then fail as a check
            (("--trials", "2", "--alpha", "1e308", "--beta", "1e308"), "validation error"),
            # used to reach numpy's seeding and exit 1 with a traceback
            (("--seed", "-1"), "validation error"),
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


# one mode's arguments next to the other's: the first and the compare cases
# with --batch exited 0, ignoring --out or both positionals (missing.nii included)
MIXED_MODES = [
    ("segment", "{vol}", "--out", "{w}/m2.nii", "--manifest", "{manifest}", "--out-dir", "{w}/segd"),
    ("segment", "--out", "{w}/m2.nii", "--manifest", "{manifest}", "--out-dir", "{w}/segd"),
    ("segment", "{vol}", "--manifest", "{manifest}", "--out-dir", "{w}/segd"),
    ("segment", "{vol}", "--out-dir", "{w}/segd"),
    ("segment", "--manifest", "{manifest}"),
    ("segment", "{vol}"),
    ("compare", "{mask}", "{w}/missing.nii", "--batch", "{pairs}", "--out", "{w}/c.csv"),
    ("compare", "{mask}", "--batch", "{pairs}", "--out", "{w}/c.csv"),
    ("compare", "{mask}", "--out", "{w}/c.json"),
    ("compare", "--out", "{w}/c.json"),
]


@pytest.mark.parametrize("argv", MIXED_MODES)
def test_mixed_modes_are_a_usage_error(lesion_files, cohort_dir, tmp_path, capsys, monkeypatch, argv):
    opened = []
    monkeypatch.setattr(nifti, "_decode", opened.append)
    out, _ = lesion_files
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"pair_id,path_a,path_b\nself,{out / 'mask.nii'},{out / 'mask.nii'}\n")
    work = tmp_path / "w"
    work.mkdir()
    names = {"vol": out / "vol.nii", "mask": out / "mask.nii", "w": work, "pairs": pairs}
    names["manifest"] = cohort_dir / "manifest.csv"
    code, stdout, err = run(capsys, *(a.format(**names) for a in argv), "--json-errors")
    assert (code, stdout, opened) == (1, "", [])
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "usage error"
    assert f"{argv[0]}: needs exactly one of" in json.loads(line)["message"]
    assert list(work.iterdir()) == []


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

    def test_unmappable_volume_exits_2(self, lesion_files, monkeypatch, capsys):
        def failing_mmap(*args, **kwargs):
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr(nifti.mmap, "mmap", failing_mmap)
        out, _ = lesion_files
        code, _, err = run(capsys, "quantify", str(out / "vol.nii"), str(out / "mask.nii"))
        assert code == 2
        assert f"{out / 'mask.nii'}: data section cannot be mapped" in err

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


def _json(obj) -> str:
    """JSON text; the string "1e400" becomes a bare literal, which reads as inf."""
    return json.dumps(obj).replace('"1e400"', "1e400")


# JSON numbers that are not finite, and cohort lesion values that a single
# lesion refuses; the message names the literal or the field. Each used to
# exit 0, crash with an OverflowError, or fail as an input error (exit 2)
_SMALL = {"n": 2, "ratio_mean": 0.5, "dims": [16, 16, 12]}
BAD_VALUES = [
    ("phantom", _json({"cohort": {**_SMALL, "noise_sd": -1}}), "noise_sd"),
    ("phantom", _json({"cohort": {**_SMALL, "peak_suv": 0.5, "background_suv": 2}}), "background_suv"),
    ("phantom", _json({"cohort": {**_SMALL, "background_suv": -3}}), "background_suv"),
    ("phantom", _json({"cohort": {**_SMALL, "ratio_mean": math.inf}}), "Infinity"),
    (
        "phantom",
        _json({"cohort": {**_SMALL, "outlier_fraction": 0.5, "outlier_ratio_min": "1e400"}}),
        "1e400",
    ),
    ("phantom", _json({"cohort": {**_SMALL, "ratio_sd": math.nan}}), "NaN"),
    ("phantom", _json({"cohort": {**_SMALL, "peak_suv": math.nan}}), "NaN"),
    ("phantom", _json({"lesion": {**_LESION, "center": [math.nan, 12, 8]}}), "NaN"),
    ("phantom", _json({"lesion": {**_LESION, "noise_sd": math.nan}}), "NaN"),
    ("phantom", _json({"lesion": {**_LESION, "peak_suv": "1e400"}}), "1e400"),
    ("segment", _json({"method": "contrast", "tol": math.nan}), "NaN"),
    ("segment", _json({"method": "contrast", "b": -math.inf}), "-Infinity"),
    ("segment", _json({"pct": "1e400"}), "1e400"),
    ("delta", _json({**_BIO, "suv_max": math.nan}), "NaN"),
    ("delta", _json({**_BIO, "tlg": "1e400"}), "1e400"),
    ("phantom", _json({"cohort": {**_SMALL, "ratio_mean": 1e308}}), "blob of inf voxels"),
    # integer literals too large for a float
    ("phantom", json.dumps({"lesion": {**_LESION, "peak_suv": 10**400}}), "peak_suv"),
    ("phantom", json.dumps({"lesion": {**_LESION, "center": [11, 10**400, 7]}}), "center"),
    # checked before any volume is read (a traceback, or the first volume read, before)
    ("segment", _json({"pct": 2}), "pct must be finite and > 0 and < 1, got 2.0"),
    ("segment", _json({"roi": [1, 2, 3]}), "roi needs 6 integers"),
    ("segment", _json({"method": "contrast", "max_iter": 0}), "max_iter must"),
    ("phantom", json.dumps({"cohort": {**_SMALL, "n": 10**29}}), "n must be finite and >= 1 and <= 10000"),
    ("phantom", json.dumps({"cohort": {**_SMALL, "n": 10**400}}), "n must"),
    # a parameter the method does not use is range-checked all the same (each exited 0)
    ("segment", _json({"a": 7, "max_iter": -3}), "a must be finite and > 0 and < 1, got 7.0"),
    ("segment", _json({"method": "contrast", "pct": 7}), "pct must be finite and > 0 and < 1, got 7.0"),
]
# BAD_VALUES comes last so the earlier cases keep their ids
BAD_INPUTS = [(c, t, None) for c, t in BAD_JSON] + BAD_GRID + BAD_VALUES


@pytest.mark.parametrize("command", ["qc", "report", "segment", "compare"])
def test_empty_csv_cell_exits_1(cohort_dir, tmp_path, capsys, command):
    # an empty path cell used to become the CSV's directory: qc and report exited
    # 2 ("unsupported volume extension ''"), batch segment exited 0 and wrote its
    # own directory into the column, compare --batch exited 2
    entry = load_manifest(cohort_dir / "manifest.csv")[0]
    good = [str(getattr(entry, c)) for c in MANIFEST_COLUMNS[1:5]]
    out = tmp_path / "out"
    if command == "compare":
        table, column = tmp_path / "pairs.csv", "path_a"
        table.write_text(f"pair_id,path_a,path_b\nok,{good[1]},{good[1]}\nbad,,{good[1]}\n")
        argv = ["compare", "--batch", str(table), "--out", str(out)]
    else:
        table, column = tmp_path / "manifest.csv", "bl_mask"
        bad = [good[0], "", *good[2:]]
        table.write_text(
            ",".join(MANIFEST_COLUMNS[:5]) + f"\np1,{','.join(good)}\np2,{','.join(bad)}\n"
        )
        argv = [command, "--manifest", str(table), "--out-dir", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert err == f"petquant: validation error: {table}:3: empty {column}\n"
    assert not out.exists()


# bytes the CSV reader used to let through: a NUL in a path cell reached the
# volume reader (exit 2; batch segment, which never opens the mask column,
# exited 0), while non-UTF-8 bytes (UnicodeDecodeError) and a cell over csv's
# limit (_csv.Error) were tracebacks that ignored --json-errors
BAD_CSV_CELLS = {
    "nul": (lambda path: path + b"\0", "NUL byte in {column}"),
    "not_utf8": (lambda path: path + b"\xff", "not UTF-8 text (invalid start byte)"),
    "oversized": (lambda path: b"x" * 131_073, "field larger than field limit (131072)"),
}


@pytest.mark.parametrize("case", BAD_CSV_CELLS)
@pytest.mark.parametrize("command", ["qc", "report", "segment", "compare"])
def test_bad_csv_bytes_exit_1(cohort_dir, tmp_path, capsys, command, case):
    make_cell, message = BAD_CSV_CELLS[case]
    entry = load_manifest(cohort_dir / "manifest.csv")[0]
    good = [str(getattr(entry, c)).encode() for c in MANIFEST_COLUMNS[1:5]]
    out = tmp_path / "out"
    if command == "compare":
        table, column = tmp_path / "pairs.csv", "path_a"
        rows = [b"pair_id,path_a,path_b", b",".join([b"ok", good[1], good[1]])]
        rows.append(b",".join([b"bad", make_cell(good[1]), good[1]]))
        argv = ["compare", "--batch", str(table), "--out", str(out)]
    else:
        table, column = tmp_path / "manifest.csv", "bl_mask"
        rows = [",".join(MANIFEST_COLUMNS[:5]).encode(), b",".join([b"p1", *good])]
        rows.append(b",".join([b"p2", good[0], make_cell(good[1]), *good[2:]]))
        argv = [command, "--manifest", str(table), "--out-dir", str(out)]
    table.write_bytes(b"\n".join(rows) + b"\n")
    code, stdout, err = run(capsys, *argv, "--json-errors")
    assert (code, stdout, err.count("\n")) == (1, "", 1)
    assert json.loads(err) == {
        "error": "validation error",
        "type": "ManifestError",
        "message": f"{table}:3: " + message.format(column=column),
    }
    assert not out.exists()


# a negative seed used to reach numpy's seeding and exit 1 with a traceback,
# --json-errors or not; the lesion's seed only seeds its noise
NEGATIVE_SEEDS = {
    "cohort": {"cohort": {**_SMALL, "seed": -1}},
    "lesion": {"lesion": {**_LESION, "noise_sd": 0.5, "seed": -5}},
}


@pytest.mark.parametrize("kind", NEGATIVE_SEEDS)
def test_phantom_negative_seed_exits_1(tmp_path, capsys, kind):
    spec = NEGATIVE_SEEDS[kind]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "phantom", "--spec", str(path), "--out", str(out), "--json-errors")
    assert (code, stdout) == (1, "")
    (line,) = err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "validation error"
    seed = spec[kind]["seed"]
    assert payload["message"] == f"{path}: seed must be finite and >= 0, got {seed}"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, field", BAD_INPUTS, ids=[f"{c}{i}" for i, (c, _, _) in enumerate(BAD_INPUTS)]
)
def test_bad_json_input_exits_1(lesion_files, tmp_path, capsys, monkeypatch, command, text, field):
    out, _ = lesion_files
    opened = []
    monkeypatch.setattr(nifti, "_decode", opened.append)
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
    assert not result.exists() and opened == []
