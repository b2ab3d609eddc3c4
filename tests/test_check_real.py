"""errors.check_real, the one range check, and every parameter it guards.

A hand-written `x < 0` lets NaN through and a bare `x > 0` lets infinity
through; each parameter below used to take at least one of NaN, +inf and
-inf without a word.
"""

import math

import numpy as np
import pytest

from petquant import (
    AcquisitionInfo,
    BinaryMask,
    IntensityUnit,
    LesionSpec,
    LesionSpecError,
    LossParams,
    ParameterError,
    ResponseModel,
    Volume3D,
    derive_threshold,
    fixed_threshold,
    generate_cohort,
    select_extreme_outliers,
    student_t_two_sided_p,
    threshold_contrast_iterative,
    threshold_pct_suvmax,
)
from petquant.errors import check_real

CENTER = (7.5, 7.5, 5.5)


class TestCheckReal:
    def test_message_names_the_rule(self):
        with pytest.raises(ParameterError, match=r"^noise_sd must be finite and >= 0, got -1\.0$"):
            check_real("noise_sd", -1.0, ge=0)
        with pytest.raises(ParameterError, match=r"^pct must be finite and > 0 and < 1, got 1\.5$"):
            check_real("pct", 1.5, gt=0, lt=1)
        with pytest.raises(ParameterError, match=r"^x must be finite, got nan$"):
            check_real("x", math.nan)

    @pytest.mark.parametrize(
        "value, bounds",
        [(0.0, {"ge": 0}), (1.0, {"le": 1}), (0.5, {"gt": 0, "lt": 1}), (3, {"ge": 1}), (-2.0, {})],
    )
    def test_accepts_finite_values_in_range(self, value, bounds):
        check_real("x", value, **bounds)

    @pytest.mark.parametrize(
        "value, bounds",
        [(0.0, {"gt": 0}), (1.0, {"lt": 1}), (-1e-300, {"ge": 0}), (0, {"ge": 1}), (2.0, {"le": 1})],
    )
    def test_rejects_values_out_of_range(self, value, bounds):
        with pytest.raises(ParameterError):
            check_real("x", value, **bounds)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_rejects_non_finite_values_with_no_bound_at_all(self, value):
        with pytest.raises(ParameterError, match="finite"):
            check_real("x", value)

    def test_raises_the_given_error(self):
        with pytest.raises(LesionSpecError):
            check_real("radius_mm", 0.0, gt=0, error=LesionSpecError)
        with pytest.raises(ValueError):
            check_real("number", math.inf, error=ValueError)


def _phantom():
    dims = (16, 16, 12)
    values = np.ones(dims)
    values[6:10, 6:10, 4:8] = 10.0
    vol = Volume3D(values, (4.0, 4.0, 4.0), IntensityUnit.SUV)
    return vol, BinaryMask(np.ones(dims, bool), vol.spacing)


def _cohort(tmp_path, **kw):
    args = {"n": 2, "response": ResponseModel(0.5), "seed": 0, "out_dir": tmp_path / "cohort"}
    args.update(dims=(16, 16, 12), baseline_radius_mm=8.0)
    return generate_cohort(**{**args, **kw})


# (parameter, call that passes it the value under test)
GUARDED = {
    "LesionSpec.center": lambda v, _: LesionSpec((v, 7.5, 5.5), 8.0, 10.0),
    "LesionSpec.radius_mm": lambda v, _: LesionSpec(CENTER, v, 10.0),
    "LesionSpec.peak_suv": lambda v, _: LesionSpec(CENTER, 8.0, v),
    "LesionSpec.background_suv": lambda v, _: LesionSpec(CENTER, 8.0, 10.0, background_suv=v),
    "LesionSpec.noise_sd": lambda v, _: LesionSpec(CENTER, 8.0, 10.0, noise_sd=v),
    "ResponseModel.ratio_mean": lambda v, _: ResponseModel(v),
    "ResponseModel.ratio_sd": lambda v, _: ResponseModel(0.5, ratio_sd=v),
    "ResponseModel.outlier_fraction": lambda v, _: ResponseModel(0.5, outlier_fraction=v),
    "ResponseModel.outlier_ratio_min": lambda v, _: ResponseModel(0.5, outlier_ratio_min=v),
    "LossParams.alpha": lambda v, _: LossParams(alpha=v),
    "LossParams.beta": lambda v, _: LossParams(beta=v),
    "LossParams.gamma": lambda v, _: LossParams(gamma=v),
    "LossParams.ftl_weight": lambda v, _: LossParams(ftl_weight=v),
    "LossParams.smooth": lambda v, _: LossParams(smooth=v),
    "threshold_pct_suvmax.pct": lambda v, _: threshold_pct_suvmax(*_phantom(), v),
    "threshold_contrast_iterative.a": lambda v, _: threshold_contrast_iterative(*_phantom(), a=v),
    "threshold_contrast_iterative.b": lambda v, _: threshold_contrast_iterative(*_phantom(), b=v),
    "threshold_contrast_iterative.tol": lambda v, _: threshold_contrast_iterative(*_phantom(), tol=v),
    "threshold_contrast_iterative.max_iter": lambda v, _: threshold_contrast_iterative(
        *_phantom(), max_iter=v
    ),
    "QcThreshold.value": lambda v, _: fixed_threshold(v),
    "derive_threshold.ratios": lambda v, _: derive_threshold([0.5, v]),
    "select_extreme_outliers.k": lambda v, _: select_extreme_outliers([], v),
    "AcquisitionInfo.injected_dose_MBq": lambda v, _: AcquisitionInfo(v, 60.0),
    "AcquisitionInfo.body_weight_kg": lambda v, _: AcquisitionInfo(180.0, v),
    "student_t_two_sided_p.df": lambda v, _: student_t_two_sided_p(1.0, v),
    "generate_cohort.n": lambda v, tmp: _cohort(tmp, n=v),
    "generate_cohort.baseline_radius_mm": lambda v, tmp: _cohort(tmp, baseline_radius_mm=v),
    "generate_cohort.peak_suv": lambda v, tmp: _cohort(tmp, peak_suv=v),
    "generate_cohort.background_suv": lambda v, tmp: _cohort(tmp, background_suv=v),
    "generate_cohort.noise_sd": lambda v, tmp: _cohort(tmp, noise_sd=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_parameters_rejected(tmp_path, value):
    # one test per value, so each fails while any parameter lets the value through
    leaks = []
    for name, call in GUARDED.items():
        try:
            call(value, tmp_path)
        except ParameterError as exc:
            if "finite" not in str(exc):
                leaks.append(f"{name}: {exc}")
        except Exception as exc:  # a crash further in is a leak too
            leaks.append(f"{name}: {type(exc).__name__}: {exc}")
        else:
            leaks.append(f"{name}: accepted")
    assert leaks == []
    assert not (tmp_path / "cohort").exists()


@pytest.mark.parametrize(
    "kw, field",
    [
        ({"noise_sd": -1.0}, "noise_sd"),
        ({"peak_suv": 0.5, "background_suv": 2.0}, "background_suv"),
        ({"background_suv": -3.0}, "background_suv"),
    ],
)
def test_cohort_lesion_follows_lesion_spec_rules(tmp_path, kw, field):
    # each used to write a cohort: noise silently off, or a lesion darker than its background
    with pytest.raises(LesionSpecError, match=field):
        _cohort(tmp_path, **kw)
    assert not (tmp_path / "cohort").exists()
