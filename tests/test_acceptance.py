"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
[PASS]/[FAIL] line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import filecmp
import io
import itertools
import json
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

from petquant import (
    BinaryMask,
    BiomarkerSet,
    LesionSpec,
    LossParams,
    QcRecord,
    Quadrant,
    ResponseModel,
    bce_loss,
    boxplot_summary,
    combined_loss,
    combined_loss_grad,
    delta,
    dice,
    extract,
    fixed_threshold,
    focal_tversky_loss,
    generate,
    generate_cohort,
    gradient_check,
    hausdorff_mm,
    iou,
    load_manifest,
    paired_ttest,
    pearson,
    read_volume,
    run_cohort,
    select_extreme_outliers,
    tversky_index,
    write_volume,
)
from petquant.cli import main
from petquant.nifti import VOX_OFFSET
from petquant.qc import build_record, pair_quadrants
from petquant.volume import IntensityUnit, Volume3D

from conftest import brute_force_hausdorff, mask_from_coords


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def crisp_pair_tp2_fn1_fp1():
    t = np.zeros((2, 2, 2))
    p = np.zeros((2, 2, 2))
    t[0, 0, 0] = t[0, 0, 1] = t[0, 1, 0] = 1.0
    p[0, 0, 0] = p[0, 0, 1] = p[1, 1, 1] = 1.0
    return t, p


def test_criterion_1_loss_crisp_parity():
    with criterion(1, "loss-kernel crisp parity and mixing-weight endpoints"):
        start = time.perf_counter()
        t, p = crisp_pair_tp2_fn1_fp1()
        # smoothing excluded from crisp-equality checks (kept > 0)
        ti = tversky_index(t, p, LossParams(alpha=0.5, beta=0.5, smooth=1e-12))
        assert abs(ti - 2.0 / 3.0) < 1e-9

        params = LossParams(alpha=0.7, beta=0.3, gamma=1.5, smooth=1e-12)
        assert abs(tversky_index(t, p, params) - 2.0 / 3.0) < 1e-9
        assert abs(focal_tversky_loss(t, p, params) - (1.0 / 3.0) ** 1.5) < 1e-12

        rng = np.random.default_rng(0)
        yt = (rng.random((6, 6, 6)) < 0.5).astype(float)
        yp = rng.uniform(0.05, 0.95, (6, 6, 6))
        p_bce = LossParams(ftl_weight=0.0)
        p_ftl = LossParams(ftl_weight=1.0)
        assert combined_loss(yt, yp, p_bce) == bce_loss(yt, yp, p_bce)
        assert combined_loss(yt, yp, p_ftl) == focal_tversky_loss(yt, yp, p_ftl)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_gradient_check():
    with criterion(2, "analytic gradient vs central differences on 100 random 8x8x8 pairs"):
        start = time.perf_counter()
        report = gradient_check(trials=100, shape=(8, 8, 8), step=1e-5, seed=12345)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        # untimed oracle: a per-voxel central-difference loop over the same draws
        rng = np.random.default_rng(12345)
        params = LossParams()
        h = 1e-5
        worst = 0.0
        for _ in range(100):
            t = (rng.random((8, 8, 8)) < 0.5).astype(float)
            p = rng.uniform(0.05, 0.95, (8, 8, 8))
            grad = combined_loss_grad(t, p, params).ravel()
            flat = p.ravel()
            fd = np.empty_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                hi = combined_loss(t, p, params)
                flat[i] = orig - h
                lo = combined_loss(t, p, params)
                flat[i] = orig
                fd[i] = (hi - lo) / (2.0 * h)
            rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-5, f"max relative error {worst:.3e}"
        assert report["max_relative_error"] == worst


def test_criterion_3_metric_identities():
    with criterion(3, "IoU/DSC identity, exact brute-force Hausdorff agreement, 12 mm shift"):
        rng = np.random.default_rng(99)
        spacing = (1.0, 1.0, 1.0)
        for _ in range(1000):
            a = BinaryMask(rng.random((8, 8, 8)) < rng.uniform(0.05, 0.6), spacing)
            b = BinaryMask(rng.random((8, 8, 8)) < rng.uniform(0.05, 0.6), spacing)
            d = dice(a, b)
            assert abs(iou(a, b) - d / (2.0 - d)) < 1e-12

        # exhaustive over every non-empty mask pair on a 2x2x2 grid
        sp = (4.0, 4.0, 3.0)
        all_masks = []
        for bitsno in range(1, 256):
            bits = np.array([(bitsno >> k) & 1 for k in range(8)], dtype=bool).reshape(2, 2, 2)
            all_masks.append(bits)
        for xa, xb in itertools.product(all_masks[::5], all_masks[::7]):
            got = hausdorff_mm(BinaryMask(xa, sp), BinaryMask(xb, sp))
            assert got == brute_force_hausdorff(xa, xb, sp)

        # random masks on the full 6x6x6 grid, exact equality
        sp = (4.0, 4.0, 4.0)
        for density in (0.1, 0.3, 0.55):
            for _ in range(12):
                xa = rng.random((6, 6, 6)) < density
                xb = rng.random((6, 6, 6)) < density
                if not (xa.any() and xb.any()):
                    continue
                got = hausdorff_mm(BinaryMask(xa, sp), BinaryMask(xb, sp))
                assert got == brute_force_hausdorff(xa, xb, sp)

        a = mask_from_coords([(0, 0, 0)], (4, 4, 4), spacing=(4.0, 4.0, 4.0))
        b = mask_from_coords([(0, 0, 3)], (4, 4, 4), spacing=(4.0, 4.0, 4.0))
        assert hausdorff_mm(a, b) == 12.0


def test_criterion_4_biomarker_oracle():
    with criterion(4, "phantom biomarkers exact; 100 voxels at 4 mm give MTV 6.4 cm3"):
        spec = LesionSpec(
            center=(15.5, 15.5, 15.5), radius_mm=10.0, peak_suv=10.0, background_suv=1.0
        )
        vol, mask, truth = generate(spec, (32, 32, 32), (4.0, 4.0, 4.0))
        measured = extract(vol, mask)
        assert measured.suv_max == truth.suv_max
        assert measured.suv_mean == truth.suv_mean
        assert measured.mtv_cm3 == truth.mtv_cm3
        assert measured.tlg == truth.tlg
        assert measured.voxel_count == truth.voxel_count

        values = np.ones((10, 10, 2))
        bits = np.zeros((10, 10, 2), bool)
        bits[:, :, 0] = True
        bio = extract(
            Volume3D(values, (4.0, 4.0, 4.0), IntensityUnit.SUV),
            BinaryMask(bits, (4.0, 4.0, 4.0)),
        )
        assert bio.voxel_count == 100
        assert bio.mtv_cm3 == 6.4  # exactly


def test_criterion_5_qc_parity(tmp_path):
    with criterion(5, "derived threshold 7.11 +/- 0.05; 6/5 validated, 27/1 flagged; top-15 oracle"):
        start = time.perf_counter()
        manifest = generate_cohort(
            180,
            ResponseModel(ratio_mean=0.1406, ratio_sd=0.002),
            seed=20250810,
            out_dir=tmp_path / "cohort",
            dims=(32, 32, 24),
            spacing=(4.0, 4.0, 4.0),
            baseline_radius_mm=16.0,
        )
        files = run_cohort(load_manifest(manifest), tmp_path / "qc", threads=2)
        summary = json.loads(files["qc_summary.json"])
        assert abs(summary["threshold"] - 7.11) <= 0.05, summary["threshold"]

        # worked longitudinal examples against the clinical-parity threshold, through
        # the per-pair QC the cohort pass runs: quadrants, then the record
        thr = fixed_threshold()  # 7.11
        v64 = 0.064
        ok = build_record(
            "worked_ok",
            *pair_quadrants(
                mask_from_coords([(2 + i, 2, 0) for i in range(5)], (20, 20, 4), (4.0, 4.0, 4.0)),
                mask_from_coords([(2 + i, 2, 0) for i in range(6)], (20, 20, 4), (4.0, 4.0, 4.0)),
            ),
            delta(
                BiomarkerSet(10.0, 5.0, 5 * v64, 5 * v64 * 5.0, 5),
                BiomarkerSet(8.0, 4.0, 6 * v64, 6 * v64 * 4.0, 6),
            ),
            thr,
        )
        assert ok.validated and ok.mtv_ratio == pytest.approx(6.0 / 5.0)
        bad = build_record(
            "worked_outlier",
            *pair_quadrants(
                mask_from_coords([(2, 2, 0)], (20, 20, 4), (4.0, 4.0, 4.0)),
                mask_from_coords(
                    [(2 + i % 3, 2 + (i // 3) % 3, i // 9) for i in range(27)],
                    (20, 20, 4),
                    (4.0, 4.0, 4.0),
                ),
            ),
            delta(
                BiomarkerSet(10.0, 5.0, 1 * v64, 1 * v64 * 5.0, 1),
                BiomarkerSet(8.0, 4.0, 27 * v64, 27 * v64 * 4.0, 27),
            ),
            thr,
        )
        assert bad.quadrant_ok and not bad.ratio_ok and not bad.validated
        assert bad.mtv_ratio == pytest.approx(27.0)

        # top-k selection vs a full-sort oracle, tie cases included
        scores = [0.0, 3.5, 3.5, 1.25, 0.0, 9.0, 3.5, 0.5, 9.0] * 4
        records = [
            QcRecord(f"p{i:03d}", Quadrant.Q1, Quadrant.Q1, 1.0, True, s == 0.0, s)
            for i, s in enumerate(scores)
        ]
        got = select_extreme_outliers(records, 15)
        flagged = [(s, f"p{i:03d}") for i, s in enumerate(scores) if s > 0.0]
        want = [pid for s, pid in sorted(flagged, key=lambda x: (-x[0], x[1]))[:15]]
        assert got == want
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_6_statistics():
    with criterion(6, "paired t-test, Pearson endpoints, inclusive quartiles, t-table point"):
        res = paired_ttest([0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0])
        assert abs(res.t - 3.873) <= 0.001
        assert res.df == 3
        assert abs(res.p - 0.0305) <= 0.0005

        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert abs(pearson(x, [2.0 * v + 1.0 for v in x]) - 1.0) <= 1e-12
        assert abs(pearson(x, [-v for v in x]) + 1.0) <= 1e-12

        s = boxplot_summary([1, 2, 3, 4, 5])
        assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)

        from petquant import student_t_two_sided_p

        assert round(student_t_two_sided_p(2.228, 10), 4) == pytest.approx(0.05, abs=5e-5)


def test_criterion_7_delta_parity():
    with criterion(7, "reference-cohort deltas -5.22 / -11.79 / -19.23 as fixed-point I/O"):
        bl = BiomarkerSet(14.36, 9.0, 27.21, 40.69, 425)
        fu = BiomarkerSet(9.14, 7.0, 15.42, 21.46, 241)
        d = delta(bl, fu)
        for got, want in (
            (d.d_suv_max, -5.22),
            (d.d_mtv_cm3, -11.79),
            (d.d_tlg, -19.23),
        ):
            assert abs(got - want) < 1e-12
            assert f"{got:.2f}" == f"{want:.2f}"  # 2-decimal fixed point reproduces the report


@pytest.mark.slow
def test_criterion_8_io_and_pipeline_determinism(tmp_path):
    with criterion(8, "bit-exact I/O; 200-volume pipeline under 60 s, byte-identical across threads"):
        rng = np.random.default_rng(5)
        vol = Volume3D(
            rng.normal(0, 10, (20, 20, 12)).astype(np.float32), (4.0, 4.0, 4.0)
        )
        p1, p2 = tmp_path / "rt1.nii", tmp_path / "rt2.nii"
        write_volume(vol, p1)
        back = read_volume(p1)
        np.testing.assert_array_equal(back.values, vol.values)
        write_volume(back, p2)
        assert p1.read_bytes()[VOX_OFFSET:] == p2.read_bytes()[VOX_OFFSET:]

        def pipeline(tag: str, threads: int) -> dict:
            base = tmp_path / tag
            manifest = generate_cohort(
                100,
                ResponseModel(ratio_mean=0.1406, ratio_sd=0.002),
                seed=1,
                out_dir=base / "phantom",
                dims=(144, 144, 66),
                spacing=(4.0, 4.0, 4.0),
                baseline_radius_mm=16.0,
                threads=threads,
            )
            t = str(threads)
            with redirect_stdout(io.StringIO()):
                assert main(["segment", "--manifest", str(manifest), "--out-dir",
                             str(base / "seg"), "--method", "pct_suvmax", "--pct", "0.5",
                             "--threads", t]) == 0
                assert main(["qc", "--manifest", str(base / "seg" / "manifest.csv"),
                             "--out-dir", str(base / "qc"), "--derive-threshold",
                             "--select-extreme", "15", "--threads", t]) == 0
                assert main(["report", "--manifest", str(base / "seg" / "manifest.csv"),
                             "--out-dir", str(base / "rep"), "--threads", t]) == 0
            return base

        start = time.perf_counter()
        base8 = pipeline("t8", threads=8)
        elapsed = time.perf_counter() - start
        base1 = pipeline("t1", threads=1)

        mismatches = []
        for sub in ("phantom", "seg", "qc", "rep"):
            d8, d1 = base8 / sub, base1 / sub
            names8 = sorted(p.name for p in d8.iterdir() if p.is_file())
            names1 = sorted(p.name for p in d1.iterdir() if p.is_file())
            assert names8 == names1, f"{sub}: file sets differ"
            for name in names8:
                if not filecmp.cmp(d8 / name, d1 / name, shallow=False):
                    mismatches.append(f"{sub}/{name}")
        assert not mismatches, f"thread-dependent bytes in {mismatches}"
        assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
