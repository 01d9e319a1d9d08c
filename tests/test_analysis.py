"""Unit tests for the analysis helpers."""

import math
import statistics

import pytest

from repro.analysis import (
    Range,
    fit_linear,
    normalize_to_baseline,
    range_across_objects,
    render_table,
    summarize,
    t_quantile,
)


# scipy.stats.t.ppf(0.95, dof) under scipy 1.17.1: the two-sided 90 %
# quantile, pinned as literals so the suite needs no scipy.
_T90_SCIPY = {
    1: 6.313751514675037,
    2: 2.9199855803537242,
    3: 2.3533634348018233,
    4: 2.1318467863266495,
    5: 2.0150483733330233,
    6: 1.9431802805153042,
    7: 1.8945786050900062,
    8: 1.8595480375308973,
    9: 1.833112932656237,
    10: 1.8124611228116756,
    11: 1.7958848187040433,
    12: 1.782287555649319,
    15: 1.753050355692572,
    20: 1.7247182429207866,
    30: 1.697260886593957,
    60: 1.6706488649046363,
    61: 1.6702194837737365,
    120: 1.6576508993552352,
    1000: 1.6463788172854643,
}


class TestSummarize:
    def test_single_value(self):
        stats = summarize([5.0])
        assert stats.mean == 5.0
        assert stats.stdev == 0.0
        assert stats.ci90 == 0.0
        assert stats.n == 1

    def test_known_values(self):
        stats = summarize([10.0, 12.0, 14.0])
        assert stats.mean == pytest.approx(12.0)
        assert stats.stdev == pytest.approx(2.0)
        assert stats.n == 3

    def test_ci_uses_t_distribution(self):
        stats = summarize([10.0, 12.0, 14.0])
        expected_half = t_quantile(2) * 2.0 / math.sqrt(3)
        assert stats.ci90 == pytest.approx(expected_half)

    def test_low_high_bracket_mean(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.low < stats.mean < stats.high

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_format(self):
        text = f"{summarize([1.0, 2.0]):.2f}"
        assert "±" in text

    @pytest.mark.parametrize("dof", sorted(_T90_SCIPY))
    def test_t_quantile_matches_scipy(self, dof):
        assert t_quantile(dof) == pytest.approx(_T90_SCIPY[dof], rel=1e-12)

    def test_t_quantile_decreases_with_dof(self):
        values = [t_quantile(dof) for dof in range(1, 201)]
        assert all(a > b for a, b in zip(values, values[1:]))
        normal = statistics.NormalDist().inv_cdf(0.95)
        assert values[-1] > t_quantile(5000) > normal
        assert t_quantile(5000) == pytest.approx(normal, rel=1e-3)

    def test_t_quantile_invalid_dof(self):
        for dof in (0, -1, 2.5):
            with pytest.raises(ValueError):
                t_quantile(dof)
        assert t_quantile(4.0) == t_quantile(4)


class TestLinearFit:
    def test_perfect_line(self):
        fit = fit_linear([0, 5, 10, 20], [10, 35, 60, 110])
        assert fit.slope == pytest.approx(5.0)
        assert fit.intercept == pytest.approx(10.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_linear([0, 10], [1.0, 21.0])
        assert fit.predict(5.0) == pytest.approx(11.0)

    def test_noisy_data_r_squared_below_one(self):
        fit = fit_linear([0, 5, 10, 20], [10, 40, 55, 112])
        assert 0.9 < fit.r_squared < 1.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            fit_linear([1, 2], [1.0])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            fit_linear([1], [1.0])

    def test_identical_x_rejected(self):
        with pytest.raises(ValueError):
            fit_linear([2, 2, 2], [1.0, 2.0, 3.0])

    def test_flat_line(self):
        fit = fit_linear([0, 1, 2], [5.0, 5.0, 5.0])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r_squared == 1.0


class TestNormalize:
    TABLE = {
        "baseline": {"a": 100.0, "b": 200.0},
        "improved": {"a": 80.0, "b": 120.0},
    }

    def test_baseline_normalizes_to_one(self):
        normalized = normalize_to_baseline(self.TABLE)
        assert normalized["baseline"] == {"a": 1.0, "b": 1.0}

    def test_other_rows_are_fractions(self):
        normalized = normalize_to_baseline(self.TABLE)
        assert normalized["improved"]["a"] == pytest.approx(0.8)
        assert normalized["improved"]["b"] == pytest.approx(0.6)

    def test_missing_baseline_config_rejected(self):
        with pytest.raises(KeyError):
            normalize_to_baseline({"x": {"a": 1.0}})

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            normalize_to_baseline(
                {"baseline": {"a": 0.0}, "x": {"a": 1.0}}
            )

    def test_range_across_objects(self):
        normalized = normalize_to_baseline(self.TABLE)
        band = range_across_objects(normalized["improved"])
        assert band.low == pytest.approx(0.6)
        assert band.high == pytest.approx(0.8)

    def test_range_empty_rejected(self):
        with pytest.raises(ValueError):
            range_across_objects({})

    def test_range_formatting_and_predicates(self):
        band = Range(0.31, 0.76)
        assert f"{band:.2f}" == "0.31-0.76"
        assert band.contains(0.5)
        assert not band.contains(0.9)
        assert band.overlaps(Range(0.7, 0.9))
        assert not band.overlaps(Range(0.8, 0.9))


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table(
            ["Name", "Value"],
            [["alpha", "1"], ["beta-long", "22"]],
            title="Demo",
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "Name" in lines[1] and "Value" in lines[1]
        assert lines[2].startswith("---")
        assert "alpha" in text and "beta-long" in text

    def test_mismatched_row_width_rejected(self):
        with pytest.raises(ValueError):
            render_table(["A", "B"], [["only-one"]])

    def test_numeric_cells_stringified(self):
        text = render_table(["X"], [[3.14159]])
        assert "3.14159" in text
