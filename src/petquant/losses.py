"""Differentiable segmentation-loss kernels over probability maps.

Targets are binary {0,1} arrays, predictions are probabilities in [0,1];
both must share a shape. Overlap counts use the soft extension
TP = Σ y·ŷ, FN = Σ y·(1−ŷ), FP = Σ (1−y)·ŷ, which reproduces crisp counts
exactly on binary inputs while keeping the losses differentiable.

All reductions run in float64 with numpy's deterministic pairwise
summation, so results are identical run to run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import GeometryMismatchError, ParameterError

BCE_CLAMP = 1e-12  # bound on log arguments


@dataclass(frozen=True)
class LossParams:
    """Parameters of the combined focal-Tversky / cross-entropy loss.

    alpha and beta weight false negatives and false positives in the Tversky
    denominator, gamma is the focusing exponent, ftl_weight mixes the focal
    Tversky term against BCE (1 = pure FTL, 0 = pure BCE), and smooth
    stabilizes the Tversky ratio on empty targets.
    """

    alpha: float = 0.7
    beta: float = 0.3
    gamma: float = 1.5
    ftl_weight: float = 0.7
    smooth: float = 1e-6

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ParameterError("alpha and beta must be >= 0")
        if self.gamma <= 0:
            raise ParameterError("gamma must be > 0")
        if not 0.0 <= self.ftl_weight <= 1.0:
            raise ParameterError("ftl_weight must lie in [0, 1]")
        if self.smooth <= 0:
            raise ParameterError("smooth must be > 0")


def _validate_pair(target: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(target, dtype=np.float64)
    p = np.asarray(pred, dtype=np.float64)
    if t.shape != p.shape:
        raise GeometryMismatchError(f"target/prediction shapes differ: {t.shape} vs {p.shape}")
    if not np.logical_or(t == 0.0, t == 1.0).all():
        raise ParameterError("target must be binary (0/1)")
    if p.size and (float(p.min()) < 0.0 or float(p.max()) > 1.0):
        raise ParameterError("predictions must lie in [0, 1]")
    return t, p


def _soft_counts(t: np.ndarray, p: np.ndarray) -> tuple[float, float, float]:
    tp = float(np.sum(t * p))
    fn = float(np.sum(t * (1.0 - p)))
    fp = float(np.sum((1.0 - t) * p))
    return tp, fn, fp


def tversky_index(target: np.ndarray, pred: np.ndarray, params: LossParams = LossParams()) -> float:
    """(TP + s) / (TP + alpha·FN + beta·FP + s), in (0, 1]."""
    t, p = _validate_pair(target, pred)
    tp, fn, fp = _soft_counts(t, p)
    return (tp + params.smooth) / (tp + params.alpha * fn + params.beta * fp + params.smooth)


def focal_tversky_loss(target: np.ndarray, pred: np.ndarray, params: LossParams = LossParams()) -> float:
    """(1 − Tversky index) ** gamma; gamma = 1 gives the plain Tversky loss."""
    ti = tversky_index(target, pred, params)
    return (1.0 - ti) ** params.gamma


def bce_loss(target: np.ndarray, pred: np.ndarray, params: LossParams = LossParams()) -> float:
    """Voxel-mean binary cross-entropy, predictions clamped away from {0, 1}."""
    t, p = _validate_pair(target, pred)
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    per_voxel = -(t * np.log(pc) + (1.0 - t) * np.log1p(-pc))
    return float(per_voxel.mean())


def combined_loss(target: np.ndarray, pred: np.ndarray, params: LossParams = LossParams()) -> float:
    """ftl_weight · FTL + (1 − ftl_weight) · BCE."""
    w = params.ftl_weight
    return w * focal_tversky_loss(target, pred, params) + (1.0 - w) * bce_loss(
        target, pred, params
    )


def combined_loss_grad(
    target: np.ndarray, pred: np.ndarray, params: LossParams = LossParams()
) -> np.ndarray:
    """Analytic per-voxel derivative of :func:`combined_loss` w.r.t. the prediction."""
    t, p = _validate_pair(target, pred)
    tp, fn, fp = _soft_counts(t, p)
    s = params.smooth
    num = tp + s
    den = tp + params.alpha * fn + params.beta * fp + s
    # dTI/dp_i = [y_i·den − num·(y_i − alpha·y_i + beta·(1 − y_i))] / den²
    dden = t - params.alpha * t + params.beta * (1.0 - t)
    dti = (t * den - num * dden) / (den * den)
    base = 1.0 - num / den
    if base > 0.0:
        ftl_factor = params.gamma * base ** (params.gamma - 1.0)
    elif params.gamma >= 1.0:
        ftl_factor = 0.0 if params.gamma > 1.0 else 1.0
    else:
        ftl_factor = math.inf
    grad_ftl = -ftl_factor * dti

    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    grad_bce = (-(t / pc) + (1.0 - t) / (1.0 - pc)) / p.size

    w = params.ftl_weight
    return w * grad_ftl + (1.0 - w) * grad_bce


def gradient_check(
    trials: int = 100,
    shape: tuple[int, int, int] = (8, 8, 8),
    step: float = 1e-5,
    seed: int = 0,
    params: LossParams = LossParams(),
) -> dict:
    """Compare the analytic gradient against central finite differences on
    random map pairs; returns the worst relative error and per-term losses."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    last = {}
    for _ in range(trials):
        t = (rng.random(shape) < 0.5).astype(np.float64)
        p = rng.uniform(0.05, 0.95, shape)
        grad = combined_loss_grad(t, p, params)
        flat = p.ravel()
        fd = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = combined_loss(t, p, params)
            flat[i] = orig - step
            lo = combined_loss(t, p, params)
            flat[i] = orig
            fd[i] = (hi - lo) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(grad.ravel()), np.abs(fd)), 1e-8)
        rel = float((np.abs(grad.ravel() - fd) / denom).max())
        worst = max(worst, rel)
        last = {
            "tversky_index": tversky_index(t, p, params),
            "focal_tversky_loss": focal_tversky_loss(t, p, params),
            "bce_loss": bce_loss(t, p, params),
            "combined_loss": combined_loss(t, p, params),
        }
    return {
        "trials": trials,
        "shape": list(shape),
        "step": step,
        "max_relative_error": worst,
        "losses_last_trial": last,
        "params": asdict(params),
    }
