"""Tweet ingestion and text-to-feature tokenization.

Input files are JSON-lines: one record per line with fields ``id``,
``user_id``, ``timestamp`` (ISO-8601, UTC), ``text`` and an optional
``region``. Labels arrive as a CSV headed ``tweet_id,label``.
"""

from __future__ import annotations

import functools
import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import IO, Callable, Hashable, Iterable

from . import read_mapping
from .stemming import stem

logger = logging.getLogger(__name__)

__all__ = [
    "Tweet",
    "SentimentLabel",
    "LABEL_ORDER",
    "Tally",
    "TokenVector",
    "STOP_WORDS",
    "parse_tweets",
    "parse_labels",
    "tokenize",
    "tally_by",
]


class SentimentLabel(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"
    IRRELEVANT = "irrelevant"


# Fixed order used everywhere an argmax tie must be broken.
LABEL_ORDER = (
    SentimentLabel.POSITIVE,
    SentimentLabel.NEGATIVE,
    SentimentLabel.NEUTRAL,
    SentimentLabel.IRRELEVANT,
)

# (n_pos, n_neg, n_neu) relevant tweets: the first three of LABEL_ORDER
Tally = tuple[int, int, int]

# Classic 33-word English analyzer stop list minus "no" and "not",
# which carry sentiment in this domain.
STOP_WORDS = frozenset(
    """a an and are as at be but by for if in into is it of on or such
    that the their then there these they this to was will with""".split()
)


@dataclass(frozen=True)
class Tweet:
    """One short message. ``text`` is nominally <= 140 visible characters;
    that bound is documented, not enforced."""

    id: str
    user_id: str
    timestamp: datetime
    text: str
    region: str | None = None


@dataclass(frozen=True)
class TokenVector:
    """Normalized token sequence plus per-token multiplicities."""

    tokens: tuple[str, ...]
    counts: dict[str, int] = field(compare=False)

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "TokenVector":
        toks = tuple(tokens)
        return cls(tokens=toks, counts=dict(Counter(toks)))

    def __len__(self) -> int:
        return len(self.tokens)


def parse_tweets(lines: IO | Iterable[str]) -> tuple[list[Tweet], int]:
    """Parse JSON-lines tweets, skipping malformed lines with a warning.

    Returns (tweets in input order, number of skipped lines). Duplicate
    ids are rejected: the later line is skipped. Blank lines are ignored.
    Raises OSError only if ``lines`` itself cannot be read.
    """
    tweets: list[Tweet] = []
    seen_ids: set[str] = set()
    skipped = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tweet = _parse_tweet_line(line, lineno)
        if tweet is None:
            skipped += 1
            continue
        if tweet.id in seen_ids:
            logger.warning("line %d: duplicate tweet id %r, skipped", lineno, tweet.id)
            skipped += 1
            continue
        seen_ids.add(tweet.id)
        tweets.append(tweet)
    return tweets, skipped


def _parse_tweet_line(line: str, lineno: int) -> Tweet | None:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        logger.warning("line %d: invalid JSON (%s), skipped", lineno, exc.msg)
        return None
    if not isinstance(record, dict):
        logger.warning("line %d: record is not an object, skipped", lineno)
        return None
    try:
        tweet_id = str(record["id"])
        user_id = str(record["user_id"])
        timestamp = _parse_timestamp(str(record["timestamp"]))
        text = str(record["text"])
    except KeyError as exc:
        logger.warning("line %d: missing field %s, skipped", lineno, exc)
        return None
    except ValueError as exc:
        logger.warning("line %d: %s, skipped", lineno, exc)
        return None
    region = record.get("region")
    return Tweet(
        id=tweet_id,
        user_id=user_id,
        timestamp=timestamp,
        text=text,
        region=str(region) if region is not None else None,
    )


def _parse_timestamp(value: str) -> datetime:
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(f"unparseable timestamp {value!r}") from None
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def parse_labels(source: str | Path | Iterable[str]) -> dict[str, SentimentLabel]:
    """Parse a ``tweet_id,label`` CSV, header required, from a path or lines.

    A wrong header, an unknown label, a wrong column count or a tweet id
    labeled on an earlier line raises InputError ``name:line:``.
    """
    return read_mapping(
        source, ["tweet_id", "label"],
        lambda tweet_id, label: (tweet_id.strip(), SentimentLabel(label.strip().lower())),
        "tweet_id,label with a known label",
    )


def _stem_fixpoint(word: str) -> str:
    # Porter stemming is not idempotent (agreed -> agre -> agr), so stem
    # until stable: re-tokenizing tokenizer output must reproduce it. The
    # loop ends: a call that changes the word shortens it, or keeps its
    # length through y -> i, enci -> ence, anci -> ance or abli -> able,
    # which lower its count of y, or else of i, so no word recurs.
    while (stemmed := stem(word)) != word:
        word = stemmed
    return word


@functools.lru_cache(maxsize=1 << 16)
def _chunk_tokens(chunk: str) -> tuple[str, ...]:
    # '!' is not alphanumeric, so the word and the bangs never overlap.
    word = "".join(filter(str.isalnum, chunk))
    bangs = ("!",) * chunk.count("!")
    if not word or word in STOP_WORDS:
        return bangs
    if word.isalpha():
        word = _stem_fixpoint(word)
    return bangs if word in STOP_WORDS else (word, *bangs)


def tokenize(text: str) -> TokenVector:
    """Normalize text into the feature tokens both classifiers consume.

    Pipeline: lowercase; split on whitespace; drop every character that
    is neither alphanumeric nor '!', with each retained '!' emitted as
    its own token; remove stop words; Porter-stem the remaining purely
    alphabetic tokens (to a fixed point). Stems that collapse onto a
    stop word are dropped as well, so the output never contains a
    stop-list token and re-tokenizing the output reproduces it.

    The tokens of each whitespace chunk are memoized process-wide in a
    least-recently-used cache of at most 65,536 chunks, so a repeated
    word is cleaned and stemmed once.
    """
    out: list[str] = []
    for chunk in text.lower().split():
        out.extend(_chunk_tokens(chunk))
    return TokenVector.from_tokens(out)


def tally_by(
    labeled_tweets: Iterable[tuple[Tweet, SentimentLabel]],
    key: Callable[[Tweet], Hashable | None],
) -> dict[Hashable, Tally]:
    """Relevant-tweet tallies grouped by ``key(tweet)``.

    Irrelevant tweets and tweets whose key is None are skipped, so every
    returned tally has at least one tweet. Groups keep first-seen order.
    """
    acc: dict[Hashable, list[int]] = {}
    for tweet, label in labeled_tweets:
        if label is SentimentLabel.IRRELEVANT:
            continue
        group = key(tweet)
        if group is not None:
            acc.setdefault(group, [0, 0, 0])[LABEL_ORDER.index(label)] += 1
    return {group: (t[0], t[1], t[2]) for group, t in acc.items()}
