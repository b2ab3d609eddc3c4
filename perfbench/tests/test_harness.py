"""Reduced-size self-test of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Runs each workload's pipeline on a few patients on a small grid (and a
3-trial gradient check), untraced and traced, and checks that the output
checks catch a wrong mask and a wrong QC threshold.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import checks  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS, stages  # noqa: E402

ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_SMALL_GRID = {"dims": [40, 40, 24], "spacing_mm": [4.0, 4.0, 4.0], "baseline_radius_mm": 16.0}

SMALL = {
    "ref_cohort": dataclasses.replace(
        WORKLOADS["ref_cohort"], cohort={**WORKLOADS["ref_cohort"].cohort, "n": 3, **_SMALL_GRID}
    ),
    "noisy_contrast": dataclasses.replace(
        WORKLOADS["noisy_contrast"],
        cohort={**WORKLOADS["noisy_contrast"].cohort, "n": 4, "outlier_fraction": 0.25, **_SMALL_GRID},
        segment=("--method", "contrast", "--roi", "8,8,2,32,32,22"),
    ),
    "loss_gradcheck": dataclasses.replace(WORKLOADS["loss_gradcheck"], loss_trials=3, loss_shape=4),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_run_is_correct_and_reports_every_end_to_end_metric(name):
    w = SMALL[name]
    result, record = bench.run(w, seed=3, seconds=1, trace=False)
    assert result["correct"], record["raw"]["passes"][0]["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == sum(n for _, n in stages(w)) * len(record["raw"]["passes"])
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(record["raw"]["passes"][0]["sha256"]) == {s for s, _ in stages(w)}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_replay_equals_cli_and_reports_every_layer_metric(name):
    w = SMALL[name]
    result, record = bench.run(w, seed=3, seconds=1, trace=True)
    assert record["raw"]["replay_problems"] == []
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if w.cohort:  # spans on the functions the qc and report commands call
        busy = ["segment.postprocess.ms_p50", "cohort.quantify_per_patient.ms_p50", "qc.build_record.us_p50"]
    else:
        busy = ["losses.combined_loss.us_p50"]
    assert all(values[name] > 0 for name in busy)
    assert 0 <= values["cli.unattributed_frac"] < 1
    assert Path(record["raw"]["replay"]["spans_file"]).stat().st_size > 0


@pytest.fixture
def cli_outputs(tmp_path):
    """One untraced pass of the small reference cohort, left on disk."""
    b = bench.Bench(SMALL["ref_cohort"], 5, ROOT / "src", tmp_path, tmp_path)
    work = tmp_path / "pass"
    b.spawn("cli", work)
    assert all(not p for p in checks.PassChecker(b.w, work).run().values())
    return b.w, work


def test_checks_catch_a_wrong_voxel(cli_outputs):
    w, work = cli_outputs
    path = work / "seg" / "p0001_fu_pred.nii"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 1  # flip the last voxel
    path.write_bytes(bytes(raw))
    problems = checks.PassChecker(w, work).run()
    assert problems["segment"] and not problems["phantom"]


def test_checks_catch_a_wrong_threshold(cli_outputs):
    w, work = cli_outputs
    path = work / "qc" / "qc_summary.json"
    summary = json.loads(path.read_text())
    summary["threshold"] = np.nextafter(summary["threshold"], np.inf)
    path.write_text(json.dumps(summary))
    problems = checks.PassChecker(w, work).run()
    assert problems["qc"] and not problems["segment"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loss_gradcheck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
