"""Deterministic synthetic data for tests, demos and the bundled pipeline.

Real tweet corpora and school contact networks are not redistributable,
so the test suite and the example pipeline run on generated stand-ins:
a pipeline fixture of four-class tweets with partially shared vocabulary
and a homophilous follower graph, and the one calibrated
group-structured contact network, whose bundled CSV ``gen-net`` copies.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .corpus import LABEL_ORDER, SentimentLabel
from .epi import ContactNetwork, generate_synthetic_contact_network
from .stats import derive_stream

__all__ = [
    "default_contact_network",
    "write_pipeline_fixture",
]

_LABEL_PREFIX = {
    SentimentLabel.POSITIVE: "pos",
    SentimentLabel.NEGATIVE: "neg",
    SentimentLabel.NEUTRAL: "neu",
    SentimentLabel.IRRELEVANT: "irr",
}


def _class_vocabularies(
    words_per_class: int, shared_fraction: float
) -> dict[SentimentLabel, list[str]]:
    """Per-class vocabularies sharing ``shared_fraction`` of their words.

    Words carry a digit so the tokenizer passes them through unstemmed.
    """
    n_shared = int(round(words_per_class * shared_fraction))
    n_own = words_per_class - n_shared
    shared = [f"common{i}x" for i in range(n_shared)]
    return {
        label: [f"{_LABEL_PREFIX[label]}{i}x" for i in range(n_own)] + shared
        for label in LABEL_ORDER
    }


def _homophilous_edges(
    gen: np.random.Generator, signs: np.ndarray, n_edges: int, homophily: float
) -> set[tuple[int, int]]:
    """``n_edges`` distinct directed edges between nodes signed +1 or -1.

    Each draw picks a uniform source, then with probability ``homophily``
    a uniform target of the source's sign, otherwise a uniform target;
    self-loops are redrawn.
    """
    by_sign = {1: np.flatnonzero(signs == 1), -1: np.flatnonzero(signs == -1)}
    edges: set[tuple[int, int]] = set()
    while len(edges) < n_edges:
        src = int(gen.integers(signs.size))
        if homophily > 0.0 and gen.random() < homophily:
            pool = by_sign[int(signs[src])]
            dst = int(pool[gen.integers(pool.size)])
        else:
            dst = int(gen.integers(signs.size))
        if src != dst:
            edges.add((src, dst))
    return edges


def default_contact_network() -> ContactNetwork:
    """The calibrated contact network (1000 nodes, 3 groups); ``gen-net`` copies its bundled CSV."""
    # Calibrated so that, with everything unvaccinated, the conditional
    # basic reproduction number lands near 2.3, the generated graph is
    # connected at exactly 1000 nodes, and clustering vaccination at
    # coverage 0.624 visibly raises outbreak risk.
    return generate_synthetic_contact_network(
        1000, 3, p_intra=0.021, p_inter=0.00125, weight_range=(90, 210), stream=derive_stream(73)
    )


# --- end-to-end pipeline fixture -------------------------------------------

_REGIONS = [f"R{i:02d}" for i in range(1, 11)]
_SOCIAL_EDGES = 900  # fewer when the users cannot hold that many pairs


def write_pipeline_fixture(
    directory: str | Path,
    seed: int,
    n_users: int = 120,
    n_tweets: int = 1500,
    labeled_fraction: float = 0.7,
) -> dict[str, Path]:
    """Write a coherent input-file set for the full pipeline.

    Produces tweets.jsonl, labels.csv (covering the first
    ``labeled_fraction`` of tweets), followers.txt, friends.txt and
    coverage.csv in ``directory``. Users lean positive or negative by
    region, follow same-leaning users preferentially, and regional
    coverage tracks regional sentiment, so every downstream analysis has
    signal. Fully deterministic given ``seed``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stream = derive_stream(seed)
    gen = stream.generator()
    vocabs = _class_vocabularies(words_per_class=60, shared_fraction=0.2)

    # Region positivity rises with region index; user lean follows region.
    region_positivity = np.linspace(0.25, 0.75, len(_REGIONS))
    user_region = gen.integers(0, len(_REGIONS), size=n_users)
    user_lean = np.where(
        gen.random(n_users) < region_positivity[user_region], 1, -1
    )

    def label_for(lean: int) -> SentimentLabel:
        roll = gen.random()
        if roll < 0.15:
            return SentimentLabel.NEUTRAL
        if roll < 0.25:
            return SentimentLabel.IRRELEVANT
        if lean > 0:
            return (
                SentimentLabel.POSITIVE if gen.random() < 0.85
                else SentimentLabel.NEGATIVE
            )
        return (
            SentimentLabel.NEGATIVE if gen.random() < 0.85
            else SentimentLabel.POSITIVE
        )

    start = datetime(2009, 9, 1, tzinfo=timezone.utc)
    tweets_path = directory / "tweets.jsonl"
    labels_path = directory / "labels.csv"
    n_labeled = int(round(labeled_fraction * n_tweets))
    with open(tweets_path, "w") as tw, open(labels_path, "w") as lb:
        lb.write("tweet_id,label\n")
        for i in range(n_tweets):
            user = int(gen.integers(n_users))
            label = label_for(int(user_lean[user]))
            vocab = vocabs[label]
            length = int(gen.integers(6, 15))
            tokens = [vocab[int(k)] for k in gen.integers(0, len(vocab), size=length)]
            ts = start + timedelta(
                days=int(gen.integers(0, 60)), seconds=int(gen.integers(0, 86400))
            )
            record = {
                "id": f"t{i:06d}",
                "user_id": f"u{user:04d}",
                "timestamp": ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "text": " ".join(tokens),
                "region": _REGIONS[int(user_region[user])],
            }
            tw.write(json.dumps(record, sort_keys=True) + "\n")
            if i < n_labeled:
                lb.write(f"t{i:06d},{label.value}\n")

    # Social edges with homophily on lean; each edge lands in the
    # followers file, the friends file, or both, exercising both rules.
    n_social_edges = min(_SOCIAL_EDGES, n_users * (n_users - 1) // 2)
    edges = _homophilous_edges(gen, user_lean, n_social_edges, homophily=0.7)

    followers: dict[str, list[str]] = {}
    friends: dict[str, list[str]] = {}
    for src, dst in sorted(edges):
        a, b = f"u{src:04d}", f"u{dst:04d}"
        where = gen.random()
        if where < 0.45:
            followers.setdefault(a, []).append(b)
        elif where < 0.9:
            friends.setdefault(b, []).append(a)
        else:
            followers.setdefault(a, []).append(b)
            friends.setdefault(b, []).append(a)

    followers_path = directory / "followers.txt"
    friends_path = directory / "friends.txt"
    with open(followers_path, "w") as fh:
        for user in sorted(followers):
            fh.write(f"{user}: {','.join(followers[user])}\n")
    with open(friends_path, "w") as fh:
        for user in sorted(friends):
            fh.write(f"{user}: {','.join(friends[user])}\n")

    coverage_path = directory / "coverage.csv"
    with open(coverage_path, "w") as fh:
        fh.write("region,coverage\n")
        for idx, region in enumerate(_REGIONS):
            coverage = 0.3 + 0.4 * region_positivity[idx] + 0.02 * gen.random()
            fh.write(f"{region},{coverage:.4f}\n")

    return {
        "tweets": tweets_path,
        "labels": labels_path,
        "followers": followers_path,
        "friends": friends_path,
        "coverage": coverage_path,
    }
