import math
from datetime import date, datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentepi.corpus import SentimentLabel, Tweet
from sentepi.timeseries import (
    DailyCounts,
    RegionScore,
    daily_series,
    moving_average,
    region_scores,
    regional_correlation,
    sentiment_score,
    write_daily_counts_csv,
)

POS = SentimentLabel.POSITIVE
NEG = SentimentLabel.NEGATIVE
NEU = SentimentLabel.NEUTRAL
IRR = SentimentLabel.IRRELEVANT


def _tweet(i, day, region=None, user="u1"):
    return Tweet(
        id=f"t{i}",
        user_id=user,
        timestamp=datetime(2009, 9, day, 12, 0, tzinfo=timezone.utc),
        text="x",
        region=region,
    )


class TestSentimentScore:
    def test_published_corpus_totals(self):
        assert sentiment_score(35884, 26667, 255828) == pytest.approx(
            0.02895, abs=1e-5
        )

    def test_neutral_only(self):
        assert sentiment_score(0, 0, 10) == 0.0

    def test_direct_arithmetic(self):
        assert sentiment_score(3, 1, 6) == pytest.approx(0.2, abs=1e-15)

    def test_all_zero_is_a_distinct_signal(self):
        assert sentiment_score(0, 0, 0) is None

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            sentiment_score(-1, 0, 5)

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    def test_antisymmetric_in_polarity(self, a, b, c):
        if a + b + c == 0:
            return
        assert sentiment_score(a, b, c) == pytest.approx(
            -sentiment_score(b, a, c), abs=1e-15
        )

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    def test_magnitude_bounded_by_opinionated_fraction(self, a, b, c):
        if a + b + c == 0:
            return
        assert abs(sentiment_score(a, b, c)) <= (a + b) / (a + b + c) + 1e-15


class TestDailySeries:
    def test_one_of_each_label_same_day(self):
        labeled = [(_tweet(1, 3), POS), (_tweet(2, 3), NEG), (_tweet(3, 3), NEU)]
        series = daily_series(labeled, date(2009, 9, 3), date(2009, 9, 3))
        assert series == [DailyCounts(date(2009, 9, 3), 1, 1, 1)]

    def test_out_of_range_excluded_and_days_zero_filled(self):
        labeled = [(_tweet(1, 3), POS), (_tweet(2, 9), POS)]
        series = daily_series(labeled, date(2009, 9, 2), date(2009, 9, 4))
        assert [d.n_pos for d in series] == [0, 1, 0]
        assert series[0].score is None

    def test_irrelevant_never_counted(self):
        labeled = [(_tweet(1, 3), IRR)]
        series = daily_series(labeled, date(2009, 9, 3), date(2009, 9, 3))
        assert series == [DailyCounts(date(2009, 9, 3), 0, 0, 0)]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            daily_series([], date(2009, 9, 3), date(2009, 9, 2))


class TestMovingAverage:
    def test_constant_series(self):
        assert moving_average([2.5] * 20) == [2.5] * 20

    def test_single_day(self):
        assert moving_average([0.7]) == [0.7]

    def test_linear_ramp(self):
        out = moving_average([float(i) for i in range(28)], window=14)
        assert out[14] == pytest.approx(sum(range(1, 15)) / 14)  # 7.5
        assert out[0] == 0.0
        assert out[5] == pytest.approx(sum(range(6)) / 6)

    def test_none_days_are_gaps(self):
        out = moving_average([1.0, None, 3.0, None], window=2)
        assert out == [1.0, 1.0, 3.0, 3.0]
        assert moving_average([None, None], window=2) == [None, None]


class TestRegionScores:
    def test_aggregation_and_empty_flag(self):
        labeled = [
            (_tweet(1, 3, region="R1"), POS),
            (_tweet(2, 3, region="R1"), NEG),
            (_tweet(3, 3, region="R1"), NEU),
            (_tweet(4, 4, region="R2"), IRR),
            (_tweet(5, 4, region=None), POS),
        ]
        scores = region_scores(labeled)
        assert [s.region for s in scores] == ["R1"]
        assert scores[0].weight == 3
        assert scores[0].score == pytest.approx(0.0)


class TestRegionalCorrelation:
    def _scores(self, values, weights=None):
        weights = weights or [10] * len(values)
        return [
            RegionScore(region=f"R{i}", score=v, weight=w)
            for i, (v, w) in enumerate(zip(values, weights))
        ]

    def test_affine_coverage(self):
        scores = self._scores([0.1, 0.2, 0.4, 0.5])
        coverage = {f"R{i}": 2 * s.score + 0.3 for i, s in enumerate(scores)}
        r, p = regional_correlation(scores, coverage)
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_negated_coverage(self):
        scores = self._scores([0.1, 0.2, 0.4])
        coverage = {s.region: -s.score for s in scores}
        r, _ = regional_correlation(scores, coverage)
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_unequal_weights_match_manual_oracle(self):
        scores = self._scores([0.1, 0.3, 0.2, 0.5], weights=[1, 2, 3, 4])
        coverage = {"R0": 0.2, "R1": 0.5, "R2": 0.3, "R3": 0.9}
        x = [0.1, 0.3, 0.2, 0.5]
        y = [0.2, 0.5, 0.3, 0.9]
        w = [1.0, 2.0, 3.0, 4.0]
        wsum = sum(w)
        mx = sum(wi * xi for wi, xi in zip(w, x)) / wsum
        my = sum(wi * yi for wi, yi in zip(w, y)) / wsum
        cov = sum(wi * (xi - mx) * (yi - my) for wi, xi, yi in zip(w, x, y)) / wsum
        vx = sum(wi * (xi - mx) ** 2 for wi, xi in zip(w, x)) / wsum
        vy = sum(wi * (yi - my) ** 2 for wi, yi in zip(w, y)) / wsum
        r, _ = regional_correlation(scores, coverage)
        assert r == pytest.approx(cov / math.sqrt(vx * vy), abs=1e-12)

    def test_insufficient_overlap_rejected(self):
        scores = self._scores([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            regional_correlation(scores, {"R0": 0.5, "R1": 0.6})


def test_daily_counts_csv_is_deterministic(tmp_path):
    series = [
        DailyCounts(date(2009, 9, 1), 1, 2, 3),
        DailyCounts(date(2009, 9, 2), 0, 0, 0),
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_daily_counts_csv(a, series)
    write_daily_counts_csv(b, series)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "date,n_pos,n_neg,n_neu,score"
    assert lines[2].endswith(",")  # empty-score marker on the zero day
