"""Text normalization primitives: a light English lemmatizer and the
classic suffix-stripping stemmer.

Everything here is self-contained so that label creation needs no external
resources or downloads.
"""

from __future__ import annotations

_VOWELS = "aeiou"


# ---------------------------------------------------------------------------
# Lemmatization: a small rule pass that undoes common English inflection
# before stemming. Deliberately conservative; the stemmer does the rest.

_IRREGULAR = {
    "children": "child", "men": "man", "women": "woman", "feet": "foot",
    "teeth": "tooth", "mice": "mouse", "geese": "goose", "people": "person",
    "lives": "life", "wolves": "wolf", "knives": "knife", "leaves": "leaf",
    "am": "be", "is": "be", "are": "be", "was": "be", "were": "be",
    "been": "be", "does": "do", "did": "do", "done": "do", "has": "have",
    "had": "have", "went": "go", "gone": "go", "made": "make",
    "said": "say", "took": "take", "taken": "take", "came": "come",
    "saw": "see", "seen": "see", "got": "get", "gave": "give",
    "given": "give", "knew": "know", "known": "know", "sang": "sing",
    "sung": "sing", "wrote": "write", "written": "write", "began": "begin",
    "begun": "begin", "told": "tell", "thought": "think",
    "brought": "bring", "bought": "buy", "felt": "feel", "kept": "keep",
    "held": "hold", "met": "meet", "ran": "run", "sat": "sit",
    "stood": "stand", "lost": "lose", "paid": "pay", "found": "find",
    "heard": "hear", "sold": "sell", "sent": "send", "built": "build",
    "spoke": "speak", "spoken": "speak", "wore": "wear", "worn": "wear",
    "broke": "break", "broken": "break", "chose": "choose",
    "chosen": "choose", "fell": "fall", "fallen": "fall", "grew": "grow",
    "grown": "grow", "drew": "draw", "drawn": "draw", "flew": "fly",
    "flown": "fly", "drove": "drive", "driven": "drive", "ate": "eat",
    "eaten": "eat",
}


def lemmatize(word: str) -> str:
    """Map an inflected English word to a base form (mostly plural nouns)."""
    if word in _IRREGULAR:
        return _IRREGULAR[word]
    if len(word) < 3 or not word.isalpha():
        return word
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith(("xes", "ches", "shes", "zes", "oes")):
        return word[:-2]
    if word.endswith("s") and not word.endswith(("ss", "us", "is")):
        return word[:-1]
    return word


# ---------------------------------------------------------------------------
# Suffix-stripping stemmer (the classic five-step algorithm).

def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant transitions [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
    ("ation", "ate"), ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"),
    ("iviti", "ive"), ("biliti", "ble"), ("logi", "log"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _longest_rule(word, rules):
    best = None
    for suffix, repl in rules:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best[0])):
            best = (suffix, repl)
    return best


def porter_stem(word: str) -> str:
    """Stem a lowercase English word; words of length <= 2 pass through."""
    if len(word) <= 2 or not word.isalpha():
        return word

    # step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif not word.endswith("ss") and word.endswith("s"):
        word = word[:-1]

    # step 1b
    fired = False
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    elif word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
        fired = True
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
        fired = True
    if fired:
        if word.endswith(("at", "bl", "iz")):
            word = word + "e"
        elif _ends_double_consonant(word) and not word.endswith(("l", "s", "z")):
            word = word[:-1]
        elif _measure(word) == 1 and _ends_cvc(word):
            word = word + "e"

    # step 1c
    if word.endswith("y") and _contains_vowel(word[:-1]):
        word = word[:-1] + "i"

    # step 2
    rule = _longest_rule(word, _STEP2)
    if rule is not None and _measure(word[: -len(rule[0])]) > 0:
        word = word[: -len(rule[0])] + rule[1]

    # step 3
    rule = _longest_rule(word, _STEP3)
    if rule is not None and _measure(word[: -len(rule[0])]) > 0:
        word = word[: -len(rule[0])] + rule[1]

    # step 4
    best = None
    for suffix in _STEP4:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best)):
            best = suffix
    if best is not None:
        stem = word[: -len(best)]
        if _measure(stem) > 1:
            if best != "ion" or (stem and stem[-1] in "st"):
                word = stem

    # step 5a
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem

    # step 5b
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]

    return word
