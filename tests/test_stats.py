import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petquant import (
    DegenerateInputError,
    GeometryMismatchError,
    ParameterError,
    boxplot_summary,
    paired_ttest,
    pearson,
    regression_line,
    student_t_two_sided_p,
)
from petquant.stats import paired_change

# two-sided critical points from published t tables
T_TABLE = [
    (1, 12.706, 0.05),
    (1, 6.314, 0.10),
    (3, 3.182, 0.05),
    (5, 2.571, 0.05),
    (5, 2.015, 0.10),
    (10, 2.228, 0.05),
    (10, 3.169, 0.01),
    (20, 2.086, 0.05),
    (20, 2.845, 0.01),
    (30, 2.042, 0.05),
    (120, 1.980, 0.05),
]


class TestPearson:
    def test_exact_line(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0, abs=1e-12)

    def test_exact_anti_line(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        assert pearson([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-15)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            pearson([1, 2, 3], [5, 5, 5])

    def test_length_mismatch(self):
        with pytest.raises(GeometryMismatchError):
            pearson([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(ParameterError):
            pearson([1, 2], [3, 4])

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_invariance(self, scale, shift):
        rng = np.random.default_rng(11)
        x = rng.random(12)
        y = rng.random(12)
        base = pearson(x, y)
        assert pearson(x * scale + shift, y) == pytest.approx(base, abs=1e-10)
        assert pearson(x, -y) == pytest.approx(-base, abs=1e-10)


class TestPairedTtest:
    def test_hand_values(self):
        res = paired_ttest([0, 0, 0, 0], [1, 2, 3, 4])
        assert res.mean_diff == pytest.approx(2.5)
        assert res.sd_diff == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-9)
        assert res.t == pytest.approx(3.873, abs=1e-3)
        assert res.df == 3
        assert res.p == pytest.approx(0.0305, abs=5e-4)
        assert res.significant

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            paired_ttest([1, 2, 3], [2, 3, 4])

    def test_antisymmetry(self, rng):
        a = rng.random(10).tolist()
        b = (rng.random(10) + 0.2).tolist()
        fwd = paired_ttest(a, b)
        rev = paired_ttest(b, a)
        assert fwd.t == -rev.t
        assert fwd.p == rev.p
        assert fwd.df == rev.df

    @pytest.mark.parametrize("df,t,table_p", T_TABLE)
    def test_published_table_grid(self, df, t, table_p):
        assert round(student_t_two_sided_p(t, df), 4) == pytest.approx(table_p, abs=5e-5)

    def test_p_monotone_in_t(self):
        ps = [student_t_two_sided_p(t, 7) for t in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_t_zero_gives_p_one(self):
        assert student_t_two_sided_p(0.0, 5) == 1.0


class TestPairedChange:
    def test_is_the_ttest_own(self, rng):
        before, after = rng.random(13).tolist(), rng.random(13).tolist()
        res = paired_ttest(before, after)
        assert paired_change(before, after) == {
            "mean": res.mean_diff,
            "sd": res.sd_diff,
            "sem": res.sd_diff / math.sqrt(13),
            "t": res.t,
            "p": res.p,
            "df": res.df,
            "significant": res.significant,
        }

    def test_zero_variance_has_no_ttest(self):
        assert paired_change([1, 2, 3], [2, 3, 4]) == {"mean": 1.0, "sd": 0.0, "sem": 0.0}

    def test_one_pair_has_a_mean_only(self):
        assert paired_change([2.0], [5.5]) == {"mean": 3.5}

    def test_inputs_checked_like_the_ttest(self):
        with pytest.raises(ParameterError, match="at least 1"):
            paired_change([], [])
        with pytest.raises(GeometryMismatchError):
            paired_change([1.0, 2.0], [1.0])


class TestBoxplot:
    def test_inclusive_quartiles(self):
        s = boxplot_summary([1, 2, 3, 4, 5])
        assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)
        assert (s.whisker_low, s.whisker_high) == (1.0, 5.0)
        assert s.outliers == ()

    def test_constant_degenerate_box(self):
        s = boxplot_summary([7, 7, 7])
        assert s.q1 == s.median == s.q3 == 7.0
        assert s.outliers == ()

    def test_outlier_beyond_fence(self):
        s = boxplot_summary([1, 2, 3, 4, 100])
        assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)
        assert s.outliers == (100.0,)
        assert s.whisker_high == 4.0

    def test_even_count_hinges(self):
        s = boxplot_summary([1, 2, 3, 4])
        assert (s.q1, s.median, s.q3) == (1.5, 2.5, 3.5)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            boxplot_summary([])

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_structural_invariants(self, values):
        s = boxplot_summary(values)
        data = sorted(values)
        assert s.q1 <= s.median <= s.q3
        assert s.whisker_low in data and s.whisker_high in data  # whiskers are data points
        iqr = s.q3 - s.q1
        for o in s.outliers:
            assert o < s.q1 - 1.5 * iqr or o > s.q3 + 1.5 * iqr
            assert o < s.whisker_low or o > s.whisker_high


class TestRegression:
    def test_exact_fit(self):
        x = [0.0, 1.0, 2.0, 3.0]
        line = regression_line(x, [3 * v - 2 for v in x])
        assert line.slope == pytest.approx(3.0, abs=1e-12)
        assert line.intercept == pytest.approx(-2.0, abs=1e-12)
        assert line.r == pytest.approx(1.0, abs=1e-12)

    def test_hand_ols(self):
        line = regression_line([0, 1, 2], [0, 2, 3])
        assert line.slope == pytest.approx(1.5, abs=1e-12)
        assert line.intercept == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_constant_y_rejected(self):
        with pytest.raises(DegenerateInputError):
            regression_line([0, 1, 2], [4, 4, 4])

    def test_r_consistent_with_pearson(self, rng):
        x = rng.random(15)
        y = x * 2 + rng.random(15)
        assert regression_line(x, y).r == pearson(x, y)
