import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petquant import (
    IntensityUnit,
    LesionSpec,
    LesionSpecError,
    ParameterError,
    ResponseModel,
    derive_threshold,
    extract,
    generate,
    generate_cohort,
    phantom,
    read_mask,
)

from conftest import naive_cohort_files

DIMS = (24, 24, 24)
SPACING = (4.0, 4.0, 4.0)


def uniform_spec(**kw):
    base = dict(
        center=(11.5, 11.5, 11.5),
        radius_mm=8.0,
        peak_suv=10.0,
        profile="uniform",
        background_suv=1.0,
        noise_sd=0.0,
        seed=0,
    )
    base.update(kw)
    return LesionSpec(**base)


def count_voxels_within_radius(center, radius_mm, dims, spacing):
    """Brute-force voxel-center counting oracle."""
    n = 0
    for x in range(dims[0]):
        for y in range(dims[1]):
            for z in range(dims[2]):
                d = math.sqrt(
                    ((x - center[0]) * spacing[0]) ** 2
                    + ((y - center[1]) * spacing[1]) ** 2
                    + ((z - center[2]) * spacing[2]) ** 2
                )
                if d <= radius_mm:
                    n += 1
    return n


class TestGenerate:
    def test_uniform_analytic_equals_extracted(self):
        vol, mask, truth = generate(uniform_spec(), DIMS, SPACING)
        measured = extract(vol, mask)
        assert measured.suv_max == truth.suv_max == 10.0
        assert measured.suv_mean == truth.suv_mean
        assert measured.mtv_cm3 == truth.mtv_cm3
        assert measured.tlg == truth.tlg
        assert measured.voxel_count == truth.voxel_count

    def test_mask_count_matches_brute_force(self):
        spec = uniform_spec()
        _, mask, truth = generate(spec, DIMS, SPACING)
        want = count_voxels_within_radius(spec.center, spec.radius_mm, DIMS, SPACING)
        assert mask.voxel_count == want
        assert truth.voxel_count == want
        assert truth.mtv_cm3 == pytest.approx(want * 0.064)

    def test_gaussian_analytic_equals_extracted(self):
        vol, mask, truth = generate(uniform_spec(profile="gaussian"), DIMS, SPACING)
        measured = extract(vol, mask)
        assert measured.suv_max == pytest.approx(truth.suv_max, abs=0)
        assert measured.suv_mean == pytest.approx(truth.suv_mean, abs=0)
        assert measured.tlg == pytest.approx(truth.tlg, abs=0)

    def test_gaussian_half_contrast_at_radius(self):
        spec = uniform_spec(profile="gaussian", radius_mm=8.0)
        vol, mask, _ = generate(spec, DIMS, SPACING)
        # voxel centers on the mask boundary sit at half contrast or above
        boundary_min = vol.values[mask.bits].min()
        assert boundary_min >= 1.0 + 0.5 * 9.0 - 1e-9

    def test_seeded_noise_deterministic(self):
        spec = uniform_spec(noise_sd=0.5, seed=123)
        v1, m1, _ = generate(spec, DIMS, SPACING)
        v2, m2, _ = generate(spec, DIMS, SPACING)
        np.testing.assert_array_equal(v1.values, v2.values)
        np.testing.assert_array_equal(m1.bits, m2.bits)

    def test_noise_changes_values_not_mask(self):
        clean, mask0, truth = generate(uniform_spec(), DIMS, SPACING)
        noisy, mask1, _ = generate(uniform_spec(noise_sd=0.2), DIMS, SPACING)
        assert not np.array_equal(clean.values, noisy.values)
        np.testing.assert_array_equal(mask0.bits, mask1.bits)
        # mean over the lesion stays within 3 sigma / sqrt(n)
        sel = noisy.values[mask1.bits]
        assert abs(sel.mean() - truth.suv_mean) <= 3 * 0.2 / math.sqrt(truth.voxel_count)

    def test_unit_is_suv(self):
        vol, _, _ = generate(uniform_spec(), DIMS, SPACING)
        assert vol.unit is IntensityUnit.SUV

    def test_out_of_bounds_lesion_rejected(self):
        with pytest.raises(LesionSpecError):
            generate(uniform_spec(center=(1.0, 11.5, 11.5)), DIMS, SPACING)

    def test_invalid_spec_rejected(self):
        with pytest.raises(LesionSpecError):
            uniform_spec(peak_suv=0.5)  # below background
        with pytest.raises(LesionSpecError):
            uniform_spec(radius_mm=-1.0)
        with pytest.raises(LesionSpecError):
            uniform_spec(profile="square")
        with pytest.raises(LesionSpecError, match="seed"):
            uniform_spec(seed=-5)  # checked even without noise, where it is unused


def _hash_dir(path: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


class TestGenerateCohort:
    def test_single_pair(self, tmp_path):
        manifest = generate_cohort(
            1, ResponseModel(ratio_mean=0.5), seed=1, out_dir=tmp_path, dims=(20, 20, 16),
            spacing=SPACING, baseline_radius_mm=12.0,
        )
        lines = manifest.read_text().strip().splitlines()
        assert len(lines) == 2  # header + one row
        truth = json.loads((tmp_path / "ground_truth.json").read_text())
        assert len(truth["patients"]) == 1
        entry = truth["patients"][0]
        assert entry["mtv_ratio"] == pytest.approx(0.5, abs=0.5 / entry["baseline"]["voxel_count"] * 1.01)

    def test_realized_ratios_are_exact_voxel_rationals(self, tmp_path):
        generate_cohort(
            5, ResponseModel(ratio_mean=0.3, ratio_sd=0.05), seed=9, out_dir=tmp_path,
            dims=(20, 20, 16), spacing=SPACING, baseline_radius_mm=12.0,
        )
        truth = json.loads((tmp_path / "ground_truth.json").read_text())
        for p in truth["patients"]:
            assert p["mtv_ratio"] == p["followup"]["voxel_count"] / p["baseline"]["voxel_count"]

    def test_outlier_fraction_realized(self, tmp_path):
        generate_cohort(
            20,
            ResponseModel(ratio_mean=0.2, ratio_sd=0.01, outlier_fraction=0.25, outlier_ratio_min=10.0),
            seed=5,
            out_dir=tmp_path,
            dims=(40, 40, 24),
            spacing=SPACING,
            baseline_radius_mm=10.0,
        )
        truth = json.loads((tmp_path / "ground_truth.json").read_text())
        outliers = [p for p in truth["patients"] if p["is_outlier"]]
        assert len(outliers) == 5
        assert all(p["mtv_ratio"] >= 10.0 for p in outliers)
        normal = [p for p in truth["patients"] if not p["is_outlier"]]
        assert all(p["mtv_ratio"] < 1.0 for p in normal)

    def test_cohort_mean_within_two_sem(self, tmp_path):
        model = ResponseModel(ratio_mean=0.4, ratio_sd=0.05)
        generate_cohort(
            60, model, seed=3, out_dir=tmp_path, dims=(20, 20, 16), spacing=SPACING,
            baseline_radius_mm=12.0,
        )
        truth = json.loads((tmp_path / "ground_truth.json").read_text())
        ratios = [p["mtv_ratio"] for p in truth["patients"]]
        sem = model.ratio_sd / math.sqrt(len(ratios))
        # allow one voxel of quantization on top of sampling error
        quant = 0.5 / truth["patients"][0]["baseline"]["voxel_count"]
        assert abs(np.mean(ratios) - model.ratio_mean) <= 2 * sem + quant

    def test_deterministic_across_threads_and_runs(self, tmp_path):
        kw = dict(
            n=6,
            response=ResponseModel(ratio_mean=0.3, ratio_sd=0.02, outlier_fraction=0.5,
                                   outlier_ratio_min=4.0),
            seed=77,
            dims=(20, 20, 16),
            spacing=SPACING,
            baseline_radius_mm=10.0,
        )
        generate_cohort(out_dir=tmp_path / "a", threads=1, **kw)
        generate_cohort(out_dir=tmp_path / "b", threads=4, **kw)
        assert _hash_dir(tmp_path / "a") == _hash_dir(tmp_path / "b")

    def test_one_distance_grid_per_cohort(self, tmp_path, monkeypatch):
        # distances are taken per cohort, not per patient, and on the lesion's
        # box, not the grid: the largest lesion here fits a smaller box
        dims, calls = (20, 20, 16), []
        original = phantom._distance_mm_grid
        monkeypatch.setattr(
            phantom, "_distance_mm_grid", lambda *a: calls.append(a[0]) or original(*a)
        )
        shapes = []
        for n in (1, 4):
            calls.clear()
            generate_cohort(
                n, ResponseModel(ratio_mean=0.5), seed=1, out_dir=tmp_path / str(n), dims=dims,
                spacing=SPACING, baseline_radius_mm=12.0,
            )
            shapes.append(list(calls))
        assert shapes[0] == shapes[1]
        assert shapes[0] and all(math.prod(box) < math.prod(dims) for box in shapes[0])

    def test_baseline_is_the_voxel_center_sphere(self, tmp_path):
        dims, radius = (21, 20, 16), 12.0
        generate_cohort(
            2, ResponseModel(ratio_mean=0.5), seed=1, out_dir=tmp_path, dims=dims,
            spacing=SPACING, baseline_radius_mm=radius,
        )
        center = [(n - 1) / 2.0 for n in dims]
        want = np.zeros(dims, dtype=bool)
        for x, y, z in np.ndindex(*dims):
            d = math.sqrt(sum(((i - c) * s) ** 2 for i, c, s in zip((x, y, z), center, SPACING)))
            want[x, y, z] = d <= radius
        np.testing.assert_array_equal(read_mask(tmp_path / "p0000_bl_mask.nii").bits, want)

    @pytest.mark.parametrize(
        "grid, field",
        [
            (dict(dims=(0, 24, 16)), "dims"),
            (dict(dims=(24, 24)), "dims"),
            (dict(spacing=(4.0, -4.0, 4.0)), "spacing"),
            (dict(spacing=(4.0, float("nan"), 4.0)), "spacing"),
        ],
    )
    def test_degenerate_grid_named_by_both_entry_points(self, tmp_path, grid, field):
        kw = {"dims": (24, 24, 16), "spacing": SPACING, **grid}
        with pytest.raises(ParameterError, match=field) as lesion:
            generate(uniform_spec(center=(11.5, 11.5, 7.5)), **kw)
        with pytest.raises(ParameterError, match=field) as cohort:
            generate_cohort(2, ResponseModel(0.5), 0, tmp_path / "o", baseline_radius_mm=8.0, **kw)
        assert not isinstance(lesion.value, LesionSpecError)
        assert not isinstance(cohort.value, LesionSpecError)
        assert not (tmp_path / "o").exists()

    # noiseless, noisy, and outliers (one clamped to the grid) on odd-sized,
    # anisotropic grids
    RASTER_CASES = {
        "noiseless": dict(
            n=4, response=ResponseModel(0.6, 0.2), seed=3, dims=(17, 14, 11),
            spacing=(4.0, 3.5, 4.5), baseline_radius_mm=9.0, peak_suv=7.3, background_suv=0.7,
        ),
        "noisy": dict(
            n=4, response=ResponseModel(0.7, 0.3, 0.25, 3.0), seed=9, dims=(15, 16, 13),
            spacing=(3.0, 4.0, 2.5), baseline_radius_mm=8.0, noise_sd=0.4,
        ),
        "outliers": dict(
            n=5, response=ResponseModel(0.5, 0.1, 0.4, 1e308), seed=11, dims=(12, 13, 10),
            spacing=SPACING, baseline_radius_mm=8.0, noise_sd=1.0, background_suv=0.0,
        ),
    }

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("case", sorted(RASTER_CASES))
    def test_files_equal_the_whole_grid_raster(self, tmp_path, case, threads):
        kw = self.RASTER_CASES[case]
        generate_cohort(out_dir=tmp_path, threads=threads, **kw)
        want = naive_cohort_files(
            tmp_path,
            kw.get("peak_suv", 10.0),
            kw.get("background_suv", 1.0),
            kw.get("noise_sd", 0.0),
        )
        got = {p.name: p.read_bytes() for p in tmp_path.glob("*.nii")}
        assert sorted(got) == sorted(want)
        for name, data in want.items():
            assert got[name] == data, name
        if case == "outliers":  # a ratio of 1e308 or more fills the grid
            truth = json.loads((tmp_path / "ground_truth.json").read_text())
            counts = [p["followup"]["voxel_count"] for p in truth["patients"] if p["is_outlier"]]
            assert counts == [12 * 13 * 10] * 2

    @pytest.mark.parametrize(
        "response, count",
        [(ResponseModel(1e308), "inf"), (ResponseModel(100.0), str(100 * 36))],
    )
    def test_follow_up_beyond_the_grid_rejected_before_writing(self, tmp_path, response, count):
        # 36 voxel centers lie within 8 mm of the 12x13x10 grid's center
        with pytest.raises(LesionSpecError, match=f"blob of {count} voxels exceeds the 1560-voxel"):
            generate_cohort(
                3, response, 0, tmp_path / "o", dims=(12, 13, 10), spacing=SPACING,
                baseline_radius_mm=8.0,
            )
        assert not (tmp_path / "o").exists()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=80).flatmap(
            lambda d: st.tuples(st.just(d), st.integers(1, len(d)))
        )
    )
    def test_growth_prefix_is_the_stable_argsort_prefix(self, case):
        # few distinct distances: ties everywhere, broken by linear index
        d, k = np.sqrt(np.asarray(case[0], dtype=float)), case[1]
        want = np.argsort(d, kind="stable")[:k]
        np.testing.assert_array_equal(phantom._growth_prefix(d, k), want)

    @settings(max_examples=150, deadline=None)
    @given(
        st.tuples(*[st.integers(1, 11)] * 3),
        st.tuples(*[st.sampled_from([0.7, 1.0, 1.3, 2.5, 4.0])] * 3),
        st.data(),
    )
    def test_growth_order_on_the_box_is_the_whole_grid_order(self, dims, spacing, data):
        # odd and even dims put the center on a voxel or between two; radii
        # are drawn among the voxel distances too, and k up to the whole grid
        # is the clamped outlier
        center = tuple((n - 1) / 2.0 for n in dims)
        full = phantom._distance_mm_grid(dims, spacing, center).ravel()
        on_centers = sorted(set(full[full > 0].tolist())) or [1.0]
        radius = data.draw(st.sampled_from(on_centers) | st.floats(0.05, 60.0))
        k = data.draw(st.integers(1, full.size) | st.just(full.size))
        box = phantom._box_distances(dims, spacing, center, radius)[0]
        assert np.count_nonzero(box <= radius) == np.count_nonzero(full <= radius)
        got = phantom._growth_order(dims, spacing, center, radius, k)
        np.testing.assert_array_equal(got, np.argsort(full, kind="stable")[:k])

    def test_cohort_allocates_no_grid_sized_float64(self, tmp_path):
        # the float32 background payload (5.5 MB) and the empty mask (1.4 MB)
        # are the only grid-sized arrays; a float64 grid alone is 10.9 MB
        tracemalloc.start()
        try:
            generate_cohort(1, ResponseModel(0.1406), seed=5, out_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(Exception):
            ResponseModel(ratio_mean=0.0)
        with pytest.raises(Exception):
            ResponseModel(ratio_mean=0.5, outlier_fraction=1.5)
        with pytest.raises(Exception):
            generate_cohort(0, ResponseModel(ratio_mean=0.5), 0, tmp_path)


class TestThresholdParity:
    def test_threshold_tracks_reciprocal_mean(self, tmp_path):
        generate_cohort(
            40, ResponseModel(ratio_mean=0.1406, ratio_sd=0.002), seed=2, out_dir=tmp_path,
            dims=(32, 32, 24), spacing=SPACING, baseline_radius_mm=16.0,
        )
        truth = json.loads((tmp_path / "ground_truth.json").read_text())
        ratios = [p["mtv_ratio"] for p in truth["patients"]]
        thr = derive_threshold(ratios)
        assert thr.value == pytest.approx(1.0 / np.mean(ratios), rel=1e-12)
