import dataclasses
import hashlib
import io
import json
import pickle
import random
import tracemalloc
from collections import Counter
from datetime import datetime, timezone
from string import ascii_lowercase

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentepi import InputError
from sentepi.corpus import (
    STOP_WORDS,
    SentimentLabel,
    TokenVector,
    Tweet,
    parse_labels,
    parse_tweets,
    tokenize,
)
from sentepi.corpus import _chunk_tokens, _stem_fixpoint
from sentepi.stemming import stem
from sentepi.synthetic import write_pipeline_fixture

# Full-pipeline values for the worked examples that come with the
# algorithm definition, each hand-traced through all steps. Entries
# like agreed -> agre (not agree) are correct: step 5a strips the
# final e after step 1b has run.
STEM_VECTORS = {
    "caresses": "caress", "ponies": "poni", "ties": "ti", "caress": "caress",
    "cats": "cat", "feed": "feed", "agreed": "agre", "plastered": "plaster",
    "bled": "bled", "motoring": "motor", "sing": "sing", "conflated": "conflat",
    "troubled": "troubl", "sized": "size", "hopping": "hop", "tanned": "tan",
    "falling": "fall", "hissing": "hiss", "fizzed": "fizz", "failing": "fail",
    "filing": "file", "happy": "happi", "sky": "sky", "relational": "relat",
    "conditional": "condit", "rational": "ration", "valenci": "valenc",
    "hesitanci": "hesit", "digitizer": "digit", "conformabli": "conform",
    "radicalli": "radic", "differentli": "differ", "vileli": "vile",
    "analogousli": "analog", "vietnamization": "vietnam",
    "predication": "predic", "operator": "oper", "feudalism": "feudal",
    "decisiveness": "decis", "hopefulness": "hope", "callousness": "callous",
    "formaliti": "formal", "sensitiviti": "sensit", "sensibiliti": "sensibl",
    "triplicate": "triplic", "formative": "form", "formalize": "formal",
    "electriciti": "electr", "electrical": "electr", "hopeful": "hope",
    "goodness": "good", "revival": "reviv", "allowance": "allow",
    "inference": "infer", "airliner": "airlin", "gyroscopic": "gyroscop",
    "adjustable": "adjust", "defensible": "defens", "irritant": "irrit",
    "replacement": "replac", "adjustment": "adjust", "dependent": "depend",
    "adoption": "adopt", "homologou": "homolog", "communism": "commun",
    "activate": "activ", "angulariti": "angular", "homologous": "homolog",
    "effective": "effect", "bowdlerize": "bowdler", "probate": "probat",
    "rate": "rate", "cease": "ceas", "controll": "control", "roll": "roll",
    "vaccinated": "vaccin", "vaccine": "vaccin", "vaccination": "vaccin",
}

# Every suffix a rule of the algorithm names, steps 1 to 5.
RULE_SUFFIXES = """s sses ies ss eed ed ing at bl iz y ational tional enci anci izer abli alli
    entli eli ousli ization ation ator alism iveness fulness ousness aliti iviti biliti icate
    ative alize iciti ical ful ness al ance ence er ic able ible ant ement ment ent ion sion tion
    ou ism ate iti ous ive ize e ll""".split()


class TestStemmer:
    @pytest.mark.parametrize("word,expected", sorted(STEM_VECTORS.items()))
    def test_reference_vectors(self, word, expected):
        assert stem(word) == expected

    def test_short_words_untouched(self):
        assert stem("a") == "a"
        assert stem("") == ""

    def test_every_stem_is_pinned(self):
        # 50,000 words of 0-4 random letters plus 1-3 suffixes that the
        # rules name; the digest was taken from the character-buffer port
        # of Porter's C code that the string form replaced.
        rng = random.Random(1980)
        words = [
            "".join(rng.choices(ascii_lowercase, k=rng.randint(0, 4)))
            + "".join(rng.choices(RULE_SUFFIXES, k=rng.randint(1, 3)))
            for _ in range(50_000)
        ]
        listing = "\n".join(f"{w}\t{stem(w)}" for w in words)
        assert hashlib.sha256(listing.encode()).hexdigest() == (
            "d30c7747a66bc2a8fd97b36a0a2d9fabb617c4180e681a99ae9caf19069ae467"
        )


def _tweet_line(**overrides):
    record = {
        "id": "t1",
        "user_id": "u1",
        "timestamp": "2009-10-02T08:30:00Z",
        "text": "off to get swine flu vaccinated before work",
        "region": "R01",
    }
    record.update(overrides)
    return json.dumps(record)


class TestParseTweets:
    def test_empty_stream(self):
        tweets, skipped = parse_tweets(io.StringIO(""))
        assert tweets == []
        assert skipped == 0

    def test_single_valid_line_round_trips(self):
        tweets, skipped = parse_tweets(io.StringIO(_tweet_line()))
        assert skipped == 0
        assert tweets == [
            Tweet(
                id="t1",
                user_id="u1",
                timestamp=datetime(2009, 10, 2, 8, 30, tzinfo=timezone.utc),
                text="off to get swine flu vaccinated before work",
                region="R01",
            )
        ]

    def test_missing_text_field_skipped(self):
        record = json.loads(_tweet_line(id="t2"))
        del record["text"]
        stream = io.StringIO(_tweet_line() + "\n" + json.dumps(record))
        tweets, skipped = parse_tweets(stream)
        assert [t.id for t in tweets] == ["t1"]
        assert skipped == 1

    def test_duplicate_id_rejected(self):
        stream = io.StringIO(_tweet_line() + "\n" + _tweet_line(text="again"))
        tweets, skipped = parse_tweets(stream)
        assert len(tweets) == 1
        assert skipped == 1

    def test_bad_json_and_bad_timestamp_skipped(self):
        stream = io.StringIO(
            "{not json}\n" + _tweet_line(id="t3", timestamp="yesterday")
        )
        tweets, skipped = parse_tweets(stream)
        assert tweets == []
        assert skipped == 2

    @pytest.mark.parametrize(
        "line, reason",
        [
            (_tweet_line(id=None), "id must be string or integer, got null"),
            (_tweet_line(user_id=None), "user_id must be string or integer, got null"),
            (_tweet_line(id=True), "id must be string or integer, got boolean"),
            (_tweet_line(text=["off", "to", "work"]), "text must be string, got array"),
            (_tweet_line(region=3), "region must be string or null, got integer"),
            # before UTC's year 1
            (_tweet_line(timestamp="0001-01-01T00:00:00+01:00"),
             "timestamp '0001-01-01T00:00:00+01:00': date value out of range"),
            # the value as written, not datetime's 'yesterday+00:00'
            (_tweet_line(timestamp="yesterdayZ"),
             "timestamp 'yesterdayZ': Invalid isoformat string"),
            (_tweet_line()[:-5], "invalid JSON ("),
            (json.dumps([_tweet_line()]), "expected a JSON object, got array"),
        ],
        ids=["null-id", "null-user", "bool-id", "list-text", "number-region",
             "timestamp-overflow", "timestamp-unreadable", "truncated", "array"],
    )
    def test_bad_record_is_skipped_and_named_by_line(self, caplog, line, reason):
        stream = io.StringIO(_tweet_line(id=7) + "\n\n" + line + "\n")
        stream.name = "tweets.jsonl"
        tweets, skipped = parse_tweets(stream)
        assert [t.id for t in tweets] == ["7"]
        assert skipped == 1
        [record] = caplog.records
        assert record.getMessage().startswith(f"tweets.jsonl:3: {reason}")
        assert record.getMessage().endswith(", skipped")

    def test_region_optional_and_offset_timestamps_normalized(self):
        record = json.loads(_tweet_line())
        del record["region"]
        record["timestamp"] = "2009-10-02T10:30:00+02:00"
        tweets, _ = parse_tweets(io.StringIO(json.dumps(record)))
        assert tweets[0].region is None
        assert tweets[0].timestamp == datetime(
            2009, 10, 2, 8, 30, tzinfo=timezone.utc
        )

    @pytest.mark.parametrize("region, read", [("", None), (" ", None), ("\t \n", None),
                                              (" R01 ", " R01 ")])
    def test_blank_region_reads_as_missing(self, region, read):
        # predictions.csv writes None and "" alike, so only None round-trips
        tweets, skipped = parse_tweets(io.StringIO(_tweet_line(region=region)))
        assert skipped == 0
        assert tweets[0].region == read


class TestParseLabels:
    def test_basic_with_header(self):
        stream = io.StringIO("tweet_id,label\nt1,positive\nt2,irrelevant\n")
        assert parse_labels(stream) == {
            "t1": SentimentLabel.POSITIVE,
            "t2": SentimentLabel.IRRELEVANT,
        }

    @staticmethod
    def _reject(tmp_path, text):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        with open(path, encoding="utf-8") as fh:
            with pytest.raises(InputError, match=r"labels\.csv:3: expected tweet_id,label"):
                parse_labels(fh)

    def test_unknown_label_rejected(self, tmp_path):
        self._reject(tmp_path, "tweet_id,label\nt1,negative\nt2,great\n")

    @pytest.mark.parametrize("row", ["t2", "t2,positive,x"], ids=["one-column", "three-columns"])
    def test_wrong_column_count_rejected(self, tmp_path, row):
        self._reject(tmp_path, f"tweet_id,label\nt1,negative\n{row}\n")


def test_active_stop_list_has_31_words():
    assert len(STOP_WORDS) == 31
    assert "no" not in STOP_WORDS
    assert "not" not in STOP_WORDS


class TestTokenize:
    def test_no_is_retained(self):
        assert tokenize("no vaccine").tokens == ("no", "vaccin")

    def test_not_is_retained(self):
        assert "not" in tokenize("I will not do this").tokens

    def test_empty_string(self):
        tv = tokenize("")
        assert tv.tokens == ()
        assert tv.counts == {}

    def test_exclamation_marks_become_tokens(self):
        assert tokenize("Vaccinated!!").tokens == ("vaccin", "!", "!")

    def test_stop_words_removed(self):
        tv = tokenize("the flu and the shot are at a clinic")
        assert tv.tokens == ("flu", "shot", "clinic")

    def test_other_punctuation_stripped(self):
        assert tokenize("swine-flu (h1n1): ready?").tokens == (
            "swineflu",
            "h1n1",
            "readi",
        )

    def test_stems_to_the_real_fixed_point(self):
        # eleven stem calls: jtoateeedatorismoueedalizeeed -> ... -> jtoat
        assert tokenize("jtoateeedatorismoueedalizeeed").tokens == ("jtoat",)
        assert tokenize("jtoateeed").tokens == ("jtoat",)

    def test_counts_match_multiplicity(self):
        tv = tokenize("shot shot shot!")
        assert tv.counts == {"shot": 3, "!": 1}

    @given(st.text(max_size=120))
    @settings(max_examples=300)
    def test_idempotent_on_own_output(self, text):
        tv = tokenize(text)
        again = tokenize(" ".join(tv.tokens))
        assert again.tokens == tv.tokens

    @given(st.text(max_size=120))
    @settings(max_examples=300)
    def test_never_emits_stop_words_or_bare_punctuation(self, text):
        tv = tokenize(text)
        for token in tv.tokens:
            assert token not in STOP_WORDS
            assert token == "!" or all(ch.isalnum() for ch in token)

    @given(st.text(max_size=120))
    def test_counts_are_exact_multiplicities(self, text):
        tv = tokenize(text)
        assert sum(tv.counts.values()) == len(tv.tokens)
        for token in set(tv.tokens):
            assert tv.counts[token] == tv.tokens.count(token)


def _reference_tokens(text):
    """The uncached per-character tokenizer that ``_chunk_tokens`` memoizes."""
    out = []
    for chunk in text.lower().split():
        word_chars = []
        bangs = 0
        for ch in chunk:
            if ch == "!":
                bangs += 1
            elif ch.isalnum():
                word_chars.append(ch)
        word = "".join(word_chars)
        if word and word not in STOP_WORDS:
            if word.isalpha():
                word = _stem_fixpoint(word)
            if word not in STOP_WORDS:
                out.append(word)
        out.extend("!" * bangs)
    return tuple(out)


class TestChunkMemo:
    @given(st.text(max_size=120))
    @settings(max_examples=300)
    def test_equals_the_uncached_reference(self, text):
        assert tokenize(text).tokens == _reference_tokens(text)

    @pytest.mark.parametrize("text", [
        "!!", "wow!!!", "!a!n!", "h1n1", "H1N1!", "Ünïcödé café naïve", "日本語 ١٢٣",
        "thes", "i!s !the! vaccines worked", "12!34 ab-12",
    ])
    def test_equals_the_reference_on_edge_cases(self, text):
        assert tokenize(text).tokens == _reference_tokens(text)

    def test_word_stemming_onto_a_stop_word_is_dropped(self):
        assert _stem_fixpoint("thes") == "the"
        assert tokenize("thes! shots").tokens == ("!", "shot")

    def test_repeated_chunk_is_stable_across_a_cache_clear(self):
        text = "Vaccines vaccines! vaccines"
        first = tokenize(text).tokens
        assert first == tokenize(text).tokens == _reference_tokens(text)
        _chunk_tokens.cache_clear()
        assert tokenize(text).tokens == first
        assert _chunk_tokens.cache_info().hits >= 1

    def test_cache_is_bounded(self):
        assert _chunk_tokens.cache_info().maxsize == 1 << 16


@pytest.fixture(scope="module")
def fixture_lines(tmp_path_factory):
    """The tweets.jsonl lines of the bundled pipeline fixture (1,500 tweets)."""
    paths = write_pipeline_fixture(tmp_path_factory.mktemp("fixture"), seed=0)
    return paths["tweets"].read_text().splitlines()


def _retained_bytes(build):
    """(result of ``build()``, bytes it still holds once built)."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestRecordShape:
    def test_records_are_slotted(self, fixture_lines):
        tweet = parse_tweets(fixture_lines[:1])[0][0]
        assert not hasattr(tweet, "__dict__")
        assert not hasattr(tokenize(tweet.text), "__dict__")

    def test_token_vector_stores_only_its_tokens(self):
        assert [f.name for f in dataclasses.fields(TokenVector)] == ["tokens"]

    def test_counts_are_derived_in_first_seen_order(self, fixture_lines):
        tweets, _ = parse_tweets(fixture_lines)
        for tweet in tweets:
            tv = tokenize(tweet.text)
            expected = dict(Counter(tv.tokens))
            assert tv.counts == expected
            assert list(tv.counts) == list(expected)

    def test_equality_hash_and_pickle_follow_the_fields(self):
        tv = TokenVector.from_tokens(["shot", "!", "shot"])
        same = TokenVector(("shot", "!", "shot"))
        assert tv == same and hash(tv) == hash(same)
        assert tv != TokenVector(("shot", "shot", "!"))
        tweet = parse_tweets([_tweet_line()])[0][0]
        twin = parse_tweets([_tweet_line()])[0][0]
        assert tweet == twin and hash(tweet) == hash(twin)
        assert tweet != parse_tweets([_tweet_line(region="R02")])[0][0]
        for record in (tv, tweet):
            back = pickle.loads(pickle.dumps(record))
            assert back == record and hash(back) == hash(record)
            assert type(back) is type(record)

    @pytest.mark.parametrize("user", ["u7", 7], ids=["string-id", "integer-id"])
    def test_repeated_user_and_region_share_one_string(self, user):
        lines = [_tweet_line(id="t1", user_id=user), _tweet_line(id="t2", user_id=user),
                 _tweet_line(id="t3", user_id="u8")]
        first, second, other = parse_tweets(lines)[0]
        assert first.user_id == second.user_id == str(user)
        assert first.user_id is second.user_id
        assert first.region is second.region is other.region == "R01"


class TestRecordMemory:
    # Bytes retained per tweet on the fixture: a Tweet holding a per-line
    # copy of its user id and region in a __dict__ took about 452, and a
    # TokenVector that also held a counts dict about 546; the slotted
    # records with shared strings and derived counts take about 310 and 167.
    TWEET_BOUND, TOKEN_VECTOR_BOUND = 380, 350

    def test_parsed_tweet_bytes_are_bounded(self, fixture_lines):
        (tweets, skipped), held = _retained_bytes(lambda: parse_tweets(fixture_lines))
        assert (len(tweets), skipped) == (1500, 0)
        assert held / len(tweets) < self.TWEET_BOUND

    def test_token_vector_bytes_are_bounded(self, fixture_lines):
        texts = [tweet.text for tweet in parse_tweets(fixture_lines)[0]]
        for text in texts:  # warm the chunk memo, which the vectors then share
            tokenize(text)
        vectors, held = _retained_bytes(lambda: [tokenize(text) for text in texts])
        assert held / len(vectors) < self.TOKEN_VECTOR_BOUND
