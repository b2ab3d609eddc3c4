"""Differentiable segmentation-loss kernels over probability maps.

Targets are binary {0,1} arrays, predictions are probabilities in [0,1];
both must share a shape. Overlap counts use the soft extension
TP = Σ y·ŷ, FN = Σ y·(1−ŷ), FP = Σ (1−y)·ŷ, which reproduces crisp counts
exactly on binary inputs while keeping the losses differentiable.

All reductions run in float64 with numpy's deterministic pairwise
summation, so results are identical run to run, and the gradient check's
batched central differences have the bits of a per-voxel combined_loss loop.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import GeometryMismatchError, ParameterError

BCE_CLAMP = 1e-12  # bound on log arguments
_FD_BLOCK = 64  # perturbed copies summed per reduction in gradient_check


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
        if not all(map(math.isfinite, (self.alpha, self.beta, self.gamma, self.smooth))):
            raise ParameterError("alpha, beta, gamma and smooth must be finite")
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


def _count_terms(t: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-voxel summands of TP, FN and FP."""
    return t * p, t * (1.0 - p), (1.0 - t) * p


def _bce_terms(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per-voxel cross-entropy, predictions clamped away from {0, 1}."""
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return -(t * np.log(pc) + (1.0 - t) * np.log1p(-pc))


def _soft_counts(t: np.ndarray, p: np.ndarray) -> tuple[float, float, float]:
    return tuple(float(np.sum(x)) for x in _count_terms(t, p))


def _tversky_ratio(tp: float, fn: float, fp: float, params: LossParams) -> float:
    return (tp + params.smooth) / (tp + params.alpha * fn + params.beta * fp + params.smooth)


def tversky_index(target: np.ndarray, pred: np.ndarray, params: LossParams = LossParams()) -> float:
    """(TP + s) / (TP + alpha·FN + beta·FP + s), in (0, 1]."""
    t, p = _validate_pair(target, pred)
    return _tversky_ratio(*_soft_counts(t, p), params)


def focal_tversky_loss(target: np.ndarray, pred: np.ndarray, params: LossParams = LossParams()) -> float:
    """(1 − Tversky index) ** gamma; gamma = 1 gives the plain Tversky loss."""
    ti = tversky_index(target, pred, params)
    return (1.0 - ti) ** params.gamma


def bce_loss(target: np.ndarray, pred: np.ndarray, params: LossParams = LossParams()) -> float:
    """Voxel-mean binary cross-entropy, predictions clamped away from {0, 1}."""
    t, p = _validate_pair(target, pred)
    return float(_bce_terms(t, p).mean())


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


def _central_differences(
    t: np.ndarray, p: np.ndarray, step: float, params: LossParams
) -> np.ndarray:
    """(L(p + step·e_i) − L(p − step·e_i)) / (2·step) for every voxel i, with
    L = combined_loss: each perturbed copy is a row of the base summands with
    voxel i's replaced, so one row sum per block of _FD_BLOCK rows is numpy's
    pairwise sum over combined_loss's own summands, in their order."""
    tf, pf = t.ravel(), p.ravel()
    n, w = pf.size, params.ftl_weight
    base = (*_count_terms(tf, pf), _bce_terms(tf, pf))
    sides = []
    for q in (pf + step, pf - step):
        _validate_pair(tf, q)
        perturbed = (*_count_terms(tf, q), _bce_terms(tf, q))
        for start in range(0, n, _FD_BLOCK):
            idx = np.arange(start, min(start + _FD_BLOCK, n))
            sums = []
            for row, diag in zip(base, perturbed):
                m = np.tile(row, (idx.size, 1))
                m[idx - start, idx] = diag[idx]
                sums.append(m.sum(axis=1).tolist())
            for tp, fn, fp, bce_sum in zip(*sums):
                ftl = (1.0 - _tversky_ratio(tp, fn, fp, params)) ** params.gamma
                sides.append(w * ftl + (1.0 - w) * (bce_sum / n))
    hi, lo = np.reshape(sides, (2, n))
    return (hi - lo) / (2.0 * step)


def gradient_check(
    trials: int = 100,
    shape: tuple[int, int, int] = (8, 8, 8),
    step: float = 1e-5,
    seed: int = 0,
    params: LossParams = LossParams(),
) -> dict:
    """Compare the analytic gradient against central finite differences on
    random map pairs; returns the worst relative error (NaN if any is NaN)
    and per-term losses. The differences are batched in blocks of _FD_BLOCK
    perturbed copies, bit for bit those of a per-voxel combined_loss loop."""
    if trials < 1 or min(shape) < 1:
        raise ParameterError(
            f"need trials >= 1 and every shape entry >= 1, got trials={trials}, shape={shape}"
        )
    rng = np.random.default_rng(seed)
    rels = []
    for _ in range(trials):
        t = (rng.random(shape) < 0.5).astype(np.float64)
        p = rng.uniform(0.05, 0.95, shape)
        grad = combined_loss_grad(t, p, params).ravel()
        fd = _central_differences(t, p, step, params)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
        rels.append(float((np.abs(grad - fd) / denom).max()))
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
        "max_relative_error": float(np.max(rels)),  # max() would drop a NaN
        "losses_last_trial": last,
        "params": asdict(params),
    }
