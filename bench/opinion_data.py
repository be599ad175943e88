"""Seeded input files for the ``opinion`` workload.

The bundled pipeline fixture spells every word with a digit, so the
tokenizer never reaches the Porter stemmer on it, and its vocabulary is
240 words. This corpus uses alphabetic words built from syllables plus
English suffixes, drawn from a Zipf-like vocabulary of several thousand
words, so stemming does the work it does on real tweets and a cache of
stems would not look perfect. Labels stay learnable: every class has
its own words next to a shared pool.

The files have the formats the CLI reads (tweets.jsonl, labels.csv,
followers.txt, friends.txt, coverage.csv). The vocabulary is the same
for every seed, as the language of real tweets would be; which words a
tweet uses, its label, user, time and the social graph are drawn from
the workload seed. A seed therefore fixes the bytes, and seeds differ
in content but hardly in how much stemming work their words need.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

N_USERS = 2000
N_TWEETS = 20_000
N_SOCIAL_EDGES = 16_000
LABELED_FRACTION = 0.7
SHARED_WORDS = 3000
WORDS_PER_CLASS = 1200
CLASS_WORD_SHARE = 0.55
ZIPF_EXPONENT = 1.05
HOMOPHILY = 0.7
N_DAYS = 60
VOCABULARY_SEED = 2011
REGIONS = [f"R{i:02d}" for i in range(1, 11)]
LABELS = ("positive", "negative", "neutral", "irrelevant")

_ONSETS = ("b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t",
           "v", "w", "br", "cl", "dr", "gr", "pl", "st", "tr", "sh", "ch")
_NUCLEI = ("a", "e", "i", "o", "u", "ea", "ou", "ai")
_CODAS = ("", "", "", "n", "r", "t", "l", "s", "nd", "st", "ck")
_SUFFIXES = ("", "", "", "s", "s", "ing", "ed", "er", "ly", "ness", "ation",
             "ment", "ful", "ive", "al", "ize", "able", "ies", "ional", "ousness")
_FILLERS = ("the", "a", "and", "is", "to", "of", "in", "for", "it", "this")


def _words(gen: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < count:
        n_syll = int(gen.integers(1, 4))
        stem = "".join(
            _ONSETS[gen.integers(len(_ONSETS))]
            + _NUCLEI[gen.integers(len(_NUCLEI))]
            + _CODAS[gen.integers(len(_CODAS))]
            for _ in range(n_syll)
        )
        word = stem + _SUFFIXES[gen.integers(len(_SUFFIXES))]
        if len(word) > 2 and word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _zipf(size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1) ** ZIPF_EXPONENT
    return weights / weights.sum()


def write_opinion_corpus(directory: Path, seed: int) -> dict[str, Path]:
    """Write the corpus into ``directory`` and return the file paths."""
    directory.mkdir(parents=True, exist_ok=True)
    words = np.random.default_rng(VOCABULARY_SEED)
    taken = set(_FILLERS)
    shared = _words(words, SHARED_WORDS, taken)
    own = {label: _words(words, WORDS_PER_CLASS, taken) for label in LABELS}
    gen = np.random.default_rng(seed)
    p_shared, p_own = _zipf(SHARED_WORDS), _zipf(WORDS_PER_CLASS)

    region_positivity = np.linspace(0.25, 0.75, len(REGIONS))
    user_region = gen.integers(0, len(REGIONS), size=N_USERS)
    user_lean = np.where(gen.random(N_USERS) < region_positivity[user_region], 1, -1)

    tweet_user = gen.integers(0, N_USERS, size=N_TWEETS)
    roll = gen.random(N_TWEETS)
    agrees = gen.random(N_TWEETS) < 0.85
    lean = user_lean[tweet_user]
    polar = np.where(agrees == (lean > 0), 0, 1)  # 0 positive, 1 negative
    label_idx = np.where(roll < 0.15, 2, np.where(roll < 0.25, 3, polar))
    lengths = gen.integers(6, 16, size=N_TWEETS)
    days = gen.integers(0, N_DAYS, size=N_TWEETS)
    seconds = gen.integers(0, 86400, size=N_TWEETS)

    n_tokens = int(lengths.sum())
    from_own = gen.random(n_tokens) < CLASS_WORD_SHARE
    shared_draw = gen.choice(SHARED_WORDS, size=n_tokens, p=p_shared)
    own_draw = gen.choice(WORDS_PER_CLASS, size=n_tokens, p=p_own)
    bang = gen.random(n_tokens) < 0.04
    filler = gen.random(n_tokens) < 0.08
    filler_draw = gen.integers(0, len(_FILLERS), size=n_tokens)

    start = datetime(2009, 9, 1, tzinfo=timezone.utc)
    n_labeled = int(round(LABELED_FRACTION * N_TWEETS))
    paths = {name: directory / name for name in (
        "tweets.jsonl", "labels.csv", "followers.txt", "friends.txt", "coverage.csv")}
    pos = 0
    with open(paths["tweets.jsonl"], "w") as tw, open(paths["labels.csv"], "w") as lb:
        lb.write("tweet_id,label\n")
        for i in range(N_TWEETS):
            label = LABELS[label_idx[i]]
            vocab = own[label]
            tokens = []
            for k in range(pos, pos + int(lengths[i])):
                if filler[k]:
                    word = _FILLERS[filler_draw[k]]
                elif from_own[k]:
                    word = vocab[own_draw[k]]
                else:
                    word = shared[shared_draw[k]]
                tokens.append(word + "!" if bang[k] else word)
            pos += int(lengths[i])
            ts = start + timedelta(days=int(days[i]), seconds=int(seconds[i]))
            user = int(tweet_user[i])
            record = {
                "id": f"t{i:06d}",
                "user_id": f"u{user:05d}",
                "timestamp": ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "text": " ".join(tokens),
                "region": REGIONS[int(user_region[user])],
            }
            tw.write(json.dumps(record, sort_keys=True) + "\n")
            if i < n_labeled:
                lb.write(f"t{i:06d},{label}\n")

    pos_users = np.flatnonzero(user_lean > 0)
    neg_users = np.flatnonzero(user_lean < 0)
    edges: set[tuple[int, int]] = set()
    while len(edges) < N_SOCIAL_EDGES:
        batch = N_SOCIAL_EDGES - len(edges)
        src = gen.integers(0, N_USERS, size=batch)
        same = gen.random(batch) < HOMOPHILY
        pick = gen.random(batch)
        uniform = gen.integers(0, N_USERS, size=batch)
        for s, h, p, u in zip(src.tolist(), same.tolist(), pick.tolist(), uniform.tolist()):
            if h:
                pool = pos_users if user_lean[s] > 0 else neg_users
                d = int(pool[int(p * pool.size)])
            else:
                d = u
            if s != d and len(edges) < N_SOCIAL_EDGES:
                edges.add((s, d))

    followers: dict[str, list[str]] = {}
    friends: dict[str, list[str]] = {}
    where = gen.random(len(edges))
    for (s, d), w in zip(sorted(edges), where.tolist()):
        a, b = f"u{s:05d}", f"u{d:05d}"
        if w < 0.45 or w >= 0.9:
            followers.setdefault(a, []).append(b)
        if w >= 0.45:
            friends.setdefault(b, []).append(a)
    for name, table in (("followers.txt", followers), ("friends.txt", friends)):
        with open(paths[name], "w") as fh:
            for user in sorted(table):
                fh.write(f"{user}: {','.join(table[user])}\n")

    with open(paths["coverage.csv"], "w") as fh:
        fh.write("region,coverage\n")
        for idx, region in enumerate(REGIONS):
            coverage = 0.3 + 0.4 * region_positivity[idx] + 0.02 * gen.random()
            fh.write(f"{region},{coverage:.4f}\n")
    return paths
