"""Text analysis pipeline: tokenization, stopword removal and stemming.

The paper (Section 5) indexes ClueWeb-B with the Terrier platform using
"Porter's stemmer and standard English stopword removal".  This module
provides the equivalent pipeline for our in-package search engine:

* :func:`tokenize` — lower-cased alphanumeric tokenization,
* :data:`ENGLISH_STOPWORDS` — a standard English stopword list,
* :class:`PorterStemmer` — a complete implementation of M.F. Porter's 1980
  suffix-stripping algorithm ("An algorithm for suffix stripping",
  *Program* 14(3) 130-137),
* :class:`Analyzer` — the composed pipeline used by the index, the engine
  and the query-log recommender.

Everything is implemented from scratch (no external IR toolkit).
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator

__all__ = [
    "ENGLISH_STOPWORDS",
    "PorterStemmer",
    "Analyzer",
    "tokenize",
]


_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Entries the stem memo holds before it is dropped and refilled.  The
#: distinct tokens of web text are unbounded (numbers, typos, ids), so an
#: unbounded memo is a leak in a long-lived server; 64k entries (~10 MB at
#: worst) hold the Zipfian head of any collection, and refilling after a
#: clear costs one stemmer run per distinct token.
_STEM_MEMO_CAP = 1 << 16

# The classic SMART-derived English stopword list trimmed to the terms that
# actually occur in web-scale text with high frequency.  Terrier's standard
# list is a superset; for retrieval behaviour only the high-frequency terms
# matter.
ENGLISH_STOPWORDS: frozenset[str] = frozenset(
    """
    a about above after again against all am an and any are aren as at be
    because been before being below between both but by can cannot could
    couldn did didn do does doesn doing don down during each few for from
    further had hadn has hasn have haven having he her here hers herself him
    himself his how i if in into is isn it its itself just ll me mightn more
    most mustn my myself needn no nor not now o of off on once only or other
    our ours ourselves out over own re s same shan she should shouldn so some
    such t than that the their theirs them themselves then there these they
    this those through to too under until up ve very was wasn we were weren
    what when where which while who whom why will with won would wouldn y you
    your yours yourself yourselves
    """.split()
)


def tokenize(text: str) -> list[str]:
    """Split *text* into lower-cased alphanumeric tokens.

    Punctuation and whitespace separate tokens; digits are kept because web
    queries frequently contain them (model numbers, years, ...).

    >>> tokenize("Barack Obama's family-tree, 2009!")
    ['barack', 'obama', 's', 'family', 'tree', '2009']
    """
    return _TOKEN_RE.findall(text.lower())


def _original_offsets(text: str, lowered_offsets: list[int]) -> list[int]:
    """Map increasing offsets into ``text.lower()`` back into *text*.

    Lower-casing can lengthen a string (``"İ".lower()`` is two
    characters), so a token end found in the lowered text is not an
    offset into the original.  Each offset maps to the end of the
    original character whose lowering covers it.
    """
    out: list[int] = []
    pending = iter(lowered_offsets)
    target = next(pending)
    covered = 0
    for position, char in enumerate(text, 1):
        covered += len(char.lower())
        while covered >= target:
            out.append(position)
            target = next(pending, None)
            if target is None:
                return out
    return out


class PorterStemmer:
    """M.F. Porter's 1980 suffix-stripping algorithm.

    The implementation follows the original paper's five steps (with steps
    1 and 5 split into their published sub-steps).  Words of length <= 2 are
    returned unchanged, as in the reference implementation.

    >>> stem = PorterStemmer()
    >>> stem("caresses"), stem("ponies"), stem("relational")
    ('caress', 'poni', 'relat')
    """

    _VOWELS = frozenset("aeiou")

    # The algorithm is a pure function of the word, so one memo serves
    # every instance in the process.
    _memo: dict[str, str] = {}

    def __call__(self, word: str) -> str:
        return self.stem(word)

    # -- public API ---------------------------------------------------------

    def stem(self, word: str) -> str:
        """Return the Porter stem of *word* (assumed lower-case)."""
        memo = self._memo
        stemmed = memo.get(word)
        if stemmed is None:
            if len(memo) >= _STEM_MEMO_CAP:
                memo.clear()
            stemmed = memo[word] = self._stem(word)
        return stemmed

    def _stem(self, word: str) -> str:
        if len(word) <= 2:
            return word
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    # -- conditions ---------------------------------------------------------

    def _is_consonant(self, word: str, i: int) -> bool:
        ch = word[i]
        if ch in self._VOWELS:
            return False
        if ch == "y":
            # 'y' is a consonant when it starts the word or follows a vowel.
            return i == 0 or not self._is_consonant(word, i - 1)
        return True

    def _measure(self, stem: str) -> int:
        """The Porter measure m: number of VC sequences in the stem."""
        m = 0
        prev_vowel = False
        for i in range(len(stem)):
            vowel = not self._is_consonant(stem, i)
            if not vowel and prev_vowel:
                m += 1
            prev_vowel = vowel
        return m

    def _contains_vowel(self, stem: str) -> bool:
        return any(not self._is_consonant(stem, i) for i in range(len(stem)))

    def _ends_double_consonant(self, word: str) -> bool:
        return (
            len(word) >= 2
            and word[-1] == word[-2]
            and self._is_consonant(word, len(word) - 1)
        )

    def _ends_cvc(self, word: str) -> bool:
        """*o: stem ends consonant-vowel-consonant, last not w, x or y."""
        if len(word) < 3:
            return False
        return (
            self._is_consonant(word, len(word) - 3)
            and not self._is_consonant(word, len(word) - 2)
            and self._is_consonant(word, len(word) - 1)
            and word[-1] not in "wxy"
        )

    # -- steps --------------------------------------------------------------

    def _step1a(self, word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            if self._measure(word[:-3]) > 0:
                return word[:-1]
            return word
        flag = False
        if word.endswith("ed") and self._contains_vowel(word[:-2]):
            word = word[:-2]
            flag = True
        elif word.endswith("ing") and self._contains_vowel(word[:-3]):
            word = word[:-3]
            flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if self._ends_double_consonant(word) and word[-1] not in "lsz":
                return word[:-1]
            if self._measure(word) == 1 and self._ends_cvc(word):
                return word + "e"
        return word

    def _step1c(self, word: str) -> str:
        if word.endswith("y") and self._contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_SUFFIXES = (
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    )

    def _step2(self, word: str) -> str:
        for suffix, replacement in self._STEP2_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if self._measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    _STEP3_SUFFIXES = (
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    )

    def _step3(self, word: str) -> str:
        for suffix, replacement in self._STEP3_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if self._measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    _STEP4_SUFFIXES = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )

    def _step4(self, word: str) -> str:
        for suffix in self._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if suffix == "ion" and (not stem or stem[-1] not in "st"):
                    continue
                if self._measure(stem) > 1:
                    return stem
                return word
        # 'ion' needs the preceding s/t check, handled separately so the
        # generic loop above stays a simple suffix table.
        if word.endswith("ion"):
            stem = word[:-3]
            if stem and stem[-1] in "st" and self._measure(stem) > 1:
                return stem
        return word

    def _step5a(self, word: str) -> str:
        if word.endswith("e"):
            stem = word[:-1]
            m = self._measure(stem)
            if m > 1:
                return stem
            if m == 1 and not self._ends_cvc(stem):
                return stem
        return word

    def _step5b(self, word: str) -> str:
        if (
            self._measure(word) > 1
            and self._ends_double_consonant(word)
            and word.endswith("l")
        ):
            return word[:-1]
        return word


class Analyzer:
    """The composed text-analysis pipeline used across the library.

    Parameters
    ----------
    stopwords:
        Terms removed after tokenization.  Pass an empty set to disable
        stopword removal (useful for query-log text, where stopwords can
        carry intent).
    stemmer:
        A callable mapping a token to its stem, or ``None`` to disable
        stemming.

    >>> analyzer = Analyzer()
    >>> analyzer.analyze("The leopards are running")
    ['leopard', 'run']
    """

    def __init__(
        self,
        stopwords: Iterable[str] | None = None,
        stemmer: PorterStemmer | None = None,
        *,
        use_stemming: bool = True,
    ) -> None:
        if stopwords is None:
            stopwords = ENGLISH_STOPWORDS
        self.stopwords = frozenset(stopwords)
        if stemmer is None and use_stemming:
            stemmer = PorterStemmer()
        self.stemmer = stemmer if use_stemming else None

    def analyze(self, text: str) -> list[str]:
        """Tokenize, stop and stem *text*, preserving token order."""
        return list(self.iter_terms(text))

    def iter_terms(self, text: str) -> Iterator[str]:
        """Lazily yield analysed terms of *text*."""
        for token in tokenize(text):
            if token in self.stopwords:
                continue
            if self.stemmer is not None:
                token = self.stemmer.stem(token)
            yield token

    def analyze_with_ends(self, text: str) -> tuple[list[str], list[int]]:
        """``analyze(text)`` plus, per term, where its token ends in *text*.

        ``analyze(text[:n])`` is then the terms whose end is ``<= n``
        followed by ``analyze(text[end_of_the_last_such_term:n])`` — what
        lets the forward index answer for a truncated surrogate without
        re-analysing the text before the cut.
        """
        lowered = text.lower()
        stopwords = self.stopwords
        stem = self.stemmer.stem if self.stemmer is not None else None
        terms: list[str] = []
        ends: list[int] = []
        for match in _TOKEN_RE.finditer(lowered):
            token = match.group()
            if token in stopwords:
                continue
            terms.append(stem(token) if stem is not None else token)
            ends.append(match.end())
        if ends and len(lowered) != len(text):
            ends = _original_offsets(text, ends)
        return terms, ends

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Analyzer(stopwords={len(self.stopwords)}, "
            f"stemming={self.stemmer is not None})"
        )
