"""Daily sentiment aggregation, smoothing, and regional correlation.

The sentiment score of a tally (n_pos, n_neg, n_neu) is
(n_pos - n_neg) / (n_pos + n_neg + n_neu); a tally with no relevant
tweets scores None rather than 0.0, and its day is written with an
empty score.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import write_csv
from .corpus import SentimentLabel, Tweet, tally_by
from .stats import weighted_pearson

__all__ = [
    "DailyCounts",
    "RegionScore",
    "sentiment_score",
    "daily_series",
    "moving_average",
    "region_scores",
    "regional_correlation",
    "write_daily_counts_csv",
    "write_moving_average_csv",
    "write_region_scores_csv",
]


def sentiment_score(n_pos: int, n_neg: int, n_neu: int) -> float | None:
    """Relative excess of positive over negative among relevant tweets.

    None marks "no relevant tweets" (an all-zero tally), which stays
    distinguishable from a genuine 0.0.
    """
    if min(n_pos, n_neg, n_neu) < 0:
        raise ValueError("counts must be non-negative")
    total = n_pos + n_neg + n_neu
    return (n_pos - n_neg) / total if total else None


@dataclass(frozen=True)
class DailyCounts:
    """Exact tallies of relevant tweets on one UTC calendar day."""

    date: date
    n_pos: int
    n_neg: int
    n_neu: int

    @property
    def score(self) -> float | None:
        """Sentiment score, or None on days without relevant tweets."""
        return sentiment_score(self.n_pos, self.n_neg, self.n_neu)


@dataclass(frozen=True)
class RegionScore:
    """Aggregate sentiment of one region; ``weight`` is its count of
    relevant tweets, at least 1."""

    region: str
    score: float
    weight: int


def daily_series(
    labeled_tweets: Iterable[tuple[Tweet, SentimentLabel]],
    start: date,
    end: date,
) -> list[DailyCounts]:
    """Tally relevant tweets per UTC calendar day over [start, end].

    Irrelevant-labeled tweets are never counted; days without tweets are
    zero-filled.
    """
    if end < start:
        raise ValueError("empty date range")
    n_days = (end - start).days + 1

    def day_offset(tweet: Tweet) -> int | None:
        offset = (tweet.timestamp.date() - start).days
        return offset if 0 <= offset < n_days else None

    tallies = tally_by(labeled_tweets, day_offset)
    return [
        DailyCounts(start + timedelta(days=i), *tallies.get(i, (0, 0, 0)))
        for i in range(n_days)
    ]


def moving_average(
    scores: Sequence[float | None], window: int = 14
) -> list[float | None]:
    """Trailing moving average including the current day.

    The first ``window - 1`` entries average over the days available so
    far. Empty-score days (None) are excluded from their windows; a
    window with no scored days yields None.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    out: list[float | None] = []
    for i in range(len(scores)):
        chunk = [s for s in scores[max(0, i - window + 1) : i + 1] if s is not None]
        out.append(sum(chunk) / len(chunk) if chunk else None)
    return out


def region_scores(
    labeled_tweets: Iterable[tuple[Tweet, SentimentLabel]]
) -> list[RegionScore]:
    """Aggregate per-region sentiment over all relevant, region-tagged tweets."""
    tallies = tally_by(labeled_tweets, lambda tweet: tweet.region)
    return [
        RegionScore(region=region, score=sentiment_score(*tally), weight=sum(tally))
        for region, tally in sorted(tallies.items())
    ]


def regional_correlation(
    scores: Sequence[RegionScore], coverage: Mapping[str, float]
) -> tuple[float, float]:
    """Weighted Pearson correlation of region scores against coverage.

    Weights are the per-region relevant tweet totals. Regions missing
    from ``coverage`` are dropped; fewer than 3 remaining regions is an
    error.
    """
    used = [rs for rs in scores if rs.region in coverage]
    if len(used) < 3:
        raise ValueError(f"need at least 3 overlapping regions with data, got {len(used)}")
    return weighted_pearson(
        [rs.score for rs in used], [coverage[rs.region] for rs in used], [rs.weight for rs in used]
    )


def write_daily_counts_csv(path: str | Path, series: Sequence[DailyCounts]) -> None:
    write_csv(path, ["date", "n_pos", "n_neg", "n_neu", "score"], (
        [row.date.isoformat(), row.n_pos, row.n_neg, row.n_neu, row.score]
        for row in series
    ))


def write_moving_average_csv(
    path: str | Path, series: Sequence[DailyCounts], window: int = 14
) -> None:
    smoothed = moving_average([row.score for row in series], window=window)
    write_csv(path, ["date", "score", "moving_avg"], (
        [row.date.isoformat(), row.score, avg]
        for row, avg in zip(series, smoothed)
    ))


def write_region_scores_csv(path: str | Path, scores: Sequence[RegionScore]) -> None:
    write_csv(path, ["region", "score", "weight"], map(astuple, scores))
