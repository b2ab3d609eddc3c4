import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_central_differences
from petquant import losses
from petquant import (
    BinaryMask,
    GeometryMismatchError,
    LossParams,
    ParameterError,
    bce_loss,
    combined_loss,
    combined_loss_grad,
    dice,
    focal_tversky_loss,
    tversky_index,
)

CRISP = LossParams(alpha=0.5, beta=0.5, gamma=1.0, smooth=1e-12)


def crisp_pair():
    """Crisp maps with TP=2, FN=1, FP=1."""
    t = np.zeros((2, 2, 2))
    p = np.zeros((2, 2, 2))
    t[0, 0, 0] = t[0, 0, 1] = t[0, 1, 0] = 1.0  # |GT| = 3
    p[0, 0, 0] = p[0, 0, 1] = p[1, 1, 1] = 1.0  # TP = 2, FP = 1
    return t, p


def random_pair(rng, shape=(8, 8, 8)):
    t = (rng.random(shape) < 0.5).astype(float)
    p = rng.uniform(0.05, 0.95, shape)
    return t, p


class TestTverskyIndex:
    def test_perfect_prediction(self):
        t, _ = crisp_pair()
        assert tversky_index(t, t, CRISP) == pytest.approx(1.0, abs=1e-9)

    def test_hand_counts_equal_weights(self):
        t, p = crisp_pair()
        assert tversky_index(t, p, CRISP) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_hand_counts_asymmetric_weights(self):
        t, p = crisp_pair()
        params = LossParams(alpha=0.7, beta=0.3, smooth=1e-12)
        # 2 / (2 + 0.7·1 + 0.3·1)
        assert tversky_index(t, p, params) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(GeometryMismatchError):
            tversky_index(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))

    def test_nonbinary_target_rejected(self):
        with pytest.raises(ParameterError):
            tversky_index(np.full((2, 2, 2), 0.5), np.zeros((2, 2, 2)))

    def test_out_of_range_prediction_rejected(self):
        with pytest.raises(ParameterError):
            tversky_index(np.zeros((2, 2, 2)), np.full((2, 2, 2), 1.5))

    def test_equals_dice_on_crisp_masks(self, rng):
        spacing = (1.0, 1.0, 1.0)
        params = LossParams(alpha=0.5, beta=0.5, smooth=1e-30)
        for _ in range(50):
            a = rng.random((5, 5, 5)) < 0.4
            b = rng.random((5, 5, 5)) < 0.4
            if not (a.any() or b.any()):
                continue
            ti = tversky_index(a.astype(float), b.astype(float), params)
            d = dice(BinaryMask(a, spacing), BinaryMask(b, spacing))
            assert abs(ti - d) < 1e-9


class TestFocalTversky:
    def test_zero_at_perfection(self):
        t, _ = crisp_pair()
        assert focal_tversky_loss(t, t, LossParams(smooth=1e-12)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        t, p = crisp_pair()
        params = LossParams(alpha=0.7, beta=0.3, gamma=1.5, smooth=1e-12)
        assert focal_tversky_loss(t, p, params) == pytest.approx((1.0 / 3.0) ** 1.5, abs=1e-12)

    def test_gamma_one_is_plain_tversky_loss(self, rng):
        t, p = random_pair(rng, (4, 4, 4))
        params = LossParams(gamma=1.0)
        assert focal_tversky_loss(t, p, params) == pytest.approx(
            1.0 - tversky_index(t, p, params), abs=1e-15
        )

    def test_gamma_ordering(self, rng):
        t, p = random_pair(rng, (4, 4, 4))
        losses = [
            focal_tversky_loss(t, p, LossParams(gamma=g)) for g in (0.5, 1.0, 1.5, 2.0, 3.0)
        ]
        assert all(a > b for a, b in zip(losses, losses[1:]))


class TestBce:
    def test_near_zero_when_correct(self):
        t, _ = crisp_pair()
        assert bce_loss(t, t) == pytest.approx(0.0, abs=1e-10)

    def test_half_probability_is_ln2(self):
        t = np.ones((3, 3, 3))
        p = np.full((3, 3, 3), 0.5)
        assert bce_loss(t, p) == pytest.approx(math.log(2.0), abs=1e-15)
        assert bce_loss(1.0 - t, p) == pytest.approx(math.log(2.0), abs=1e-15)


class TestCombined:
    def test_endpoints_exact(self, rng):
        t, p = random_pair(rng)
        p0 = LossParams(ftl_weight=0.0)
        p1 = LossParams(ftl_weight=1.0)
        assert combined_loss(t, p, p0) == bce_loss(t, p, p0)
        assert combined_loss(t, p, p1) == focal_tversky_loss(t, p, p1)

    def test_hand_affine_value(self):
        # weight 0.7 over FTL=0.2, BCE=0.5 -> 0.29
        assert 0.7 * 0.2 + (1.0 - 0.7) * 0.5 == pytest.approx(0.29, abs=1e-15)

    @given(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    @settings(max_examples=10, deadline=None)
    def test_affine_in_weight(self, w):
        rng = np.random.default_rng(7)
        t, p = random_pair(rng, (4, 4, 4))
        params = LossParams(ftl_weight=w)
        expect = w * focal_tversky_loss(t, p, params) + (1.0 - w) * bce_loss(t, p, params)
        assert combined_loss(t, p, params) == expect

    def test_monotone_in_true_positive_prediction(self, rng):
        for _ in range(20):
            t, p = random_pair(rng, (4, 4, 4))
            fg = np.argwhere(t == 1.0)
            if not len(fg):
                continue
            i = tuple(fg[0])
            before = combined_loss(t, p)
            p2 = p.copy()
            p2[i] = min(1.0, p2[i] + 0.1)
            assert combined_loss(t, p2) <= before + 1e-15


class TestGradient:
    def test_single_voxel_bce_gradient(self):
        t = np.ones((1, 1, 1))
        p = np.full((1, 1, 1), 0.5)
        g = combined_loss_grad(t, p, LossParams(ftl_weight=0.0))
        assert g[0, 0, 0] == pytest.approx(-2.0, rel=1e-12)

    def test_zero_gradient_at_crisp_optimum(self):
        t, _ = crisp_pair()
        g = combined_loss_grad(t, t, LossParams(ftl_weight=1.0, gamma=1.5))
        assert np.abs(g).max() == pytest.approx(0.0, abs=1e-9)

    def test_matches_finite_differences(self, rng):
        # independent central-difference oracle, small sample (full run in acceptance)
        h = 1e-5
        params = LossParams()
        for _ in range(10):
            t, p = random_pair(rng)
            grad = combined_loss_grad(t, p, params)
            flat = p.ravel()
            idx = rng.integers(0, flat.size, 40)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                hi = combined_loss(t, p, params)
                flat[i] = orig - h
                lo = combined_loss(t, p, params)
                flat[i] = orig
                fd = (hi - lo) / (2.0 * h)
                denom = max(abs(fd), abs(grad.ravel()[i]), 1e-8)
                assert abs(grad.ravel()[i] - fd) / denom < 1e-5


class TestBatchedCentralDifferences:
    PARAMS = [
        LossParams(gamma=g, ftl_weight=w) for g in (0.5, 1.0, 1.5) for w in (0.0, 0.7, 1.0)
    ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("side", [1, 3, 5, 9])  # 9³ spans twelve 64-row blocks
    def test_bit_identical_to_per_voxel_loop(self, side, seed):
        rng = np.random.default_rng(seed)
        t, p = random_pair(rng, (side,) * 3)
        for params in self.PARAMS:
            a = losses._central_differences(t, p, 1e-5, params)
            b = naive_central_differences(t, p, 1e-5, params)
            assert (a.view(np.uint64) == b.view(np.uint64)).all(), params

    def test_report_equals_naive_loop(self):
        params = LossParams()
        rng = np.random.default_rng(4)
        rels = []
        for _ in range(3):
            t = (rng.random((5, 5, 5)) < 0.5).astype(np.float64)
            p = rng.uniform(0.05, 0.95, (5, 5, 5))
            grad = combined_loss_grad(t, p, params).ravel()
            fd = naive_central_differences(t, p, 1e-5, params)
            denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
            rels.append(float((np.abs(grad - fd) / denom).max()))
        last = {
            "tversky_index": tversky_index(t, p, params),
            "focal_tversky_loss": focal_tversky_loss(t, p, params),
            "bce_loss": bce_loss(t, p, params),
            "combined_loss": combined_loss(t, p, params),
        }
        report = losses.gradient_check(trials=3, shape=(5, 5, 5), seed=4, params=params)
        assert repr(report) == repr(
            {
                "trials": 3,
                "shape": [5, 5, 5],
                "step": 1e-5,
                "max_relative_error": max(rels),
                "losses_last_trial": last,
                "params": asdict(params),
            }
        )

    def test_step_outside_unit_interval_rejected(self):
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            losses.gradient_check(trials=1, shape=(3, 3, 3), step=0.5)

    def test_one_combined_loss_call_per_trial(self, monkeypatch):
        # the per-voxel loop made 2·27 + 1 calls per trial on 3³ maps
        calls = []

        def counted(*args):
            calls.append(1)
            return combined_loss(*args)

        monkeypatch.setattr(losses, "combined_loss", counted)
        losses.gradient_check(trials=4, shape=(3, 3, 3))
        assert len(calls) == 4

    def test_nan_relative_error_is_the_worst(self, monkeypatch):
        # max(0.0, nan) is 0.0: a NaN in the first trial used to vanish
        nan_grads = [np.full((3, 3, 3), np.nan)]

        def first_nan(t, p, params):
            return nan_grads.pop() if nan_grads else combined_loss_grad(t, p, params)

        monkeypatch.setattr(losses, "combined_loss_grad", first_nan)
        report = losses.gradient_check(trials=2, shape=(3, 3, 3))
        assert math.isnan(report["max_relative_error"])

    @pytest.mark.parametrize("kw", [{"trials": 0}, {"trials": -2}, {"shape": (3, 0, 3)}])
    def test_empty_check_rejected(self, kw):
        with pytest.raises(ParameterError, match="trials >= 1"):
            losses.gradient_check(**{"trials": 1, "shape": (3, 3, 3)} | kw)


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "smooth"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_params_rejected(name, value):
    with pytest.raises(ParameterError, match="finite"):
        LossParams(**{name: value})
