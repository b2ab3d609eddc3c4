"""Cohort statistics: Pearson correlation, paired t-test, box-plot summaries
and ordinary least squares, all in float64 with deterministic reductions.

The t-test p-value is exact via the regularized incomplete beta,
p = I_x(df/2, 1/2) with x = df/(df + t²); no normal approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .errors import DegenerateInputError, GeometryMismatchError, ParameterError

SIGNIFICANCE_LEVEL = 0.05


def _paired_arrays(x, y, min_len: int) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ParameterError("inputs must be one-dimensional sequences")
    if xa.size != ya.size:
        raise GeometryMismatchError(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < min_len:
        raise ParameterError(f"need at least {min_len} paired values, got {xa.size}")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ParameterError("inputs must be finite")
    return xa, ya


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient, in [-1, 1]."""
    xa, ya = _paired_arrays(x, y, min_len=3)
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sxx = float(np.sum(dx * dx))
    syy = float(np.sum(dy * dy))
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInputError("correlation undefined for constant input")
    r = float(np.sum(dx * dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if df < 1:
        raise ParameterError(f"df must be >= 1, got {df}")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return float(betainc(df / 2.0, 0.5, x))


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    df: int
    mean_diff: float
    sd_diff: float
    significant: bool


def paired_ttest(before, after) -> TTestResult:
    """Two-sided paired t-test on after − before."""
    b, a = _paired_arrays(before, after, min_len=2)
    d = a - b
    n = d.size
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise DegenerateInputError("paired differences have zero variance")
    t = mean / (sd / math.sqrt(n))
    df = n - 1
    p = student_t_two_sided_p(t, df)
    return TTestResult(t, p, df, mean, sd, p < SIGNIFICANCE_LEVEL)


def _median(sorted_vals: np.ndarray) -> float:
    n = sorted_vals.size
    mid = n // 2
    if n % 2:
        return float(sorted_vals[mid])
    return float((sorted_vals[mid - 1] + sorted_vals[mid]) / 2.0)


@dataclass(frozen=True)
class BoxplotSummary:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.maximum,
            "whisker_low": self.whisker_low,
            "whisker_high": self.whisker_high,
            "outliers": list(self.outliers),
        }


def boxplot_summary(values) -> BoxplotSummary:
    """Five-number summary with Tukey whiskers.

    Quartiles use the inclusive-median method (hinges): each half contains
    the middle element when the count is odd. Whiskers sit on the most
    extreme data points within 1.5·IQR of the quartiles; points strictly
    beyond the whisker fences are listed as outliers.
    """
    vals = np.sort(np.asarray(values, dtype=np.float64))
    if vals.size == 0:
        raise ParameterError("boxplot of an empty list is undefined")
    if not np.isfinite(vals).all():
        raise ParameterError("inputs must be finite")
    n = vals.size
    med = _median(vals)
    half = (n + 1) // 2  # inclusive halves
    q1 = _median(vals[:half])
    q3 = _median(vals[n - half :])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = vals[(vals >= lo_fence) & (vals <= hi_fence)]
    whisker_low = float(inside[0])
    whisker_high = float(inside[-1])
    outliers = tuple(float(v) for v in vals[(vals < lo_fence) | (vals > hi_fence)])
    return BoxplotSummary(
        float(vals[0]), q1, med, q3, float(vals[-1]), whisker_low, whisker_high, outliers
    )


@dataclass(frozen=True)
class RegressionLine:
    slope: float
    intercept: float
    r: float


def regression_line(x, y) -> RegressionLine:
    """Ordinary least squares y = slope·x + intercept; r matches pearson()."""
    xa, ya = _paired_arrays(x, y, min_len=3)
    r = pearson(xa, ya)  # raises on constant input
    dx = xa - xa.mean()
    slope = float(np.sum(dx * (ya - ya.mean()))) / float(np.sum(dx * dx))
    intercept = float(ya.mean()) - slope * float(xa.mean())
    return RegressionLine(slope, intercept, r)
