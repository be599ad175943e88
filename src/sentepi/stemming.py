"""Porter suffix-stripping stemmer (the original 1980 algorithm).

The implementation follows the algorithm as published, including its
well-known quirks (e.g. "gas" -> "ga"); no later revisions such as the
short-word cutoff or the extra step-2/step-4 rules are applied. Words
are expected to be lowercase; the stemmer only interprets ASCII a-z and
passes other characters through as consonants.
"""

from __future__ import annotations

__all__ = ["stem"]


def _form(word: str) -> str:
    """One 'c' or 'v' per letter; 'y' is a vowel only after a consonant."""
    form = []
    prev = "v"
    for ch in word:
        prev = "v" if ch in "aeiou" or (ch == "y" and prev == "c") else "c"
        form.append(prev)
    return "".join(form)


def _m(stem: str) -> int:
    """Porter's measure: the m of the form [C](VC)^m[V]."""
    return _form(stem).count("vc")


def _ends_cvc(stem: str) -> bool:
    """*o: consonant-vowel-consonant at the end, the last not w, x or y."""
    return _form(stem).endswith("cvc") and stem[-1] not in "wxy"


def _step1ab(word: str) -> str:
    if word.endswith(("sses", "ies")):
        word = word[:-2]
    elif word.endswith("s") and not word.endswith("ss"):
        word = word[:-1]
    if word.endswith("eed"):
        return word[:-1] if _m(word[:-3]) > 0 else word
    for suffix in ("ed", "ing"):
        stem = word[: -len(suffix)]
        if word.endswith(suffix) and "v" in _form(stem):
            if stem.endswith(("at", "bl", "iz")):
                return stem + "e"
            if len(stem) > 1 and stem[-1] == stem[-2] and _form(stem)[-1] == "c":
                return stem if stem[-1] in "lsz" else stem[:-1]
            if _m(stem) == 1 and _ends_cvc(stem):
                return stem + "e"
            return stem
    return word


# Porter keys each rule group by one letter (steps 2 and 4: the second
# to last, step 3: the last) that every suffix of the group contains at
# that place, so a word can match only one group, and the first match
# in these flat tables is the rule the lettered dispatch would pick.
_STEP2_RULES = {
    "ational": "ate", "tional": "tion",
    "enci": "ence", "anci": "ance",
    "izer": "ize",
    "abli": "able", "alli": "al", "entli": "ent", "eli": "e",
    "ousli": "ous",
    "ization": "ize", "ation": "ate", "ator": "ate",
    "alism": "al", "iveness": "ive", "fulness": "ful",
    "ousness": "ous",
    "aliti": "al", "iviti": "ive", "biliti": "ble",
}

_STEP3_RULES = {
    "icate": "ic", "ative": "", "alize": "al",
    "iciti": "ic",
    "ical": "ic", "ful": "",
    "ness": "",
}

_STEP4_RULES = dict.fromkeys((
    "al",
    "ance", "ence",
    "er",
    "ic",
    "able", "ible",
    "ant", "ement", "ment", "ent",
    "ion", "ou",
    "ism",
    "ate", "iti",
    "ous",
    "ive",
    "ize",
), "")


def _replace(word: str, rules: dict[str, str], min_m: int) -> str:
    """Apply the first rule whose suffix ends the word, if the stem's m > min_m."""
    if not word.endswith(tuple(rules)):  # one test in C rejects most words
        return word
    suffix = next(filter(word.endswith, rules))
    stem = word[: -len(suffix)]
    return stem + rules[suffix] if _m(stem) > min_m else word


def _step5(word: str) -> str:
    m = _m(word)  # a final e is a vowel, so dropping it keeps m
    if word.endswith("e") and (m > 1 or (m == 1 and not _ends_cvc(word[:-1]))):
        word = word[:-1]
    return word[:-1] if word.endswith("ll") and m > 1 else word


def stem(word: str) -> str:
    """Stem a single lowercase word."""
    if len(word) <= 1:
        return word
    word = _step1ab(word)
    if word.endswith("y") and "v" in _form(word[:-1]):  # step 1c
        word = word[:-1] + "i"
    word = _replace(word, _STEP2_RULES, 0)
    word = _replace(word, _STEP3_RULES, 0)
    if not word.endswith("ion") or word[:-3].endswith(("s", "t")):  # 'ion' only after s, t
        word = _replace(word, _STEP4_RULES, 1)
    return _step5(word)
