"""Tweet ingestion and text-to-feature tokenization.

Input files are JSON-lines: one record per line with fields ``id``,
``user_id``, ``timestamp`` (ISO-8601, UTC), ``text`` and an optional
``region``. Labels arrive as a CSV headed ``tweet_id,label``.
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import IO, Callable, Hashable, Iterable

from . import _name, read_mapping
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


@dataclass(frozen=True, slots=True)
class Tweet:
    """One short message. ``text`` is nominally <= 140 visible characters;
    that bound is documented, not enforced."""

    id: str
    user_id: str
    timestamp: datetime
    text: str
    region: str | None = None


@dataclass(frozen=True, slots=True)
class TokenVector:
    """Normalized token sequence, the one stored field; :attr:`counts`
    derives the per-token multiplicities from it on each access."""

    tokens: tuple[str, ...]

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "TokenVector":
        """The vector of ``tokens``, kept in order as one tuple."""
        return cls(tuple(tokens))

    @property
    def counts(self) -> dict[str, int]:
        """Multiplicity of each distinct token, keyed in first-seen order."""
        counts: dict[str, int] = {}
        for token in self.tokens:
            counts[token] = counts.get(token, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.tokens)


def parse_tweets(lines: IO | Iterable[str]) -> tuple[list[Tweet], int]:
    """Parse JSON-lines tweets, skipping malformed lines with a warning.

    Returns (tweets in input order, number of skipped lines). A line that
    :func:`_parse_tweet` rejects, or that repeats an earlier line's id, is
    skipped and logged as ``name:line: reason``. Blank lines are ignored.
    Raises OSError only if ``lines`` itself cannot be read.

    Within one call, tweets with equal ``user_id`` (or ``region``) values
    share one ``str`` object, so a user's id is held once however many
    tweets they wrote.
    """
    tweets: list[Tweet] = []
    seen_ids: set[str] = set()
    shared: dict[str, str] = {}
    skipped = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            tweet = _parse_tweet(line, shared)
            if tweet.id in seen_ids:
                raise ValueError(f"duplicate tweet id {tweet.id!r}")
        except ValueError as exc:
            reason = f"invalid JSON ({exc.msg})" if isinstance(exc, json.JSONDecodeError) else exc
            logger.warning("%s:%d: %s, skipped", _name(lines), lineno, reason)
            skipped += 1
            continue
        seen_ids.add(tweet.id)
        tweets.append(tweet)
    return tweets, skipped


# The JSON types each field may hold (``type(x) in`` keeps out true and
# false, which are ints to Python); a missing or blank region reads as null.
_FIELD_TYPES = {"id": (str, int), "user_id": (str, int), "timestamp": (str,), "text": (str,),
                "region": (str, type(None))}
_JSON_NAMES = {str: "string", int: "integer", float: "number", bool: "boolean",
               type(None): "null", list: "array", dict: "object"}


def _parse_tweet(line: str, shared: dict[str, str]) -> Tweet:
    """The tweet on one JSON line, its user id and region taken from (or
    added to) ``shared``; raises ValueError naming the problem."""
    record = json.loads(line)
    if type(record) is not dict:
        raise ValueError(f"expected a JSON object, got {_JSON_NAMES[type(record)]}")
    for key, types in _FIELD_TYPES.items():
        if type(record.get(key)) not in types:
            if key not in record:
                raise ValueError(f"missing field {key!r}")
            allowed = " or ".join(_JSON_NAMES[t] for t in types)
            raise ValueError(f"{key} must be {allowed}, got {_JSON_NAMES[type(record[key])]}")
    text = record["timestamp"].strip()
    try:
        ts = datetime.fromisoformat(text[:-1] + "+00:00" if text.endswith(("Z", "z")) else text)
        ts = ts.astimezone(timezone.utc) if ts.tzinfo else ts.replace(tzinfo=timezone.utc)
    except (ValueError, OverflowError) as exc:
        reason = str(exc).partition(": ")[0]  # cut before datetime quotes its rewritten input
        raise ValueError(f"timestamp {record['timestamp']!r}: {reason}") from None
    user_id, region = str(record["user_id"]), record.get("region")
    return Tweet(
        id=str(record["id"]),
        user_id=shared.setdefault(user_id, user_id),
        timestamp=ts,
        text=record["text"],
        region=shared.setdefault(region, region) if region and region.strip() else None,
    )


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
