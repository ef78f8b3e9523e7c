"""Synthetic vocabulary and unigram language models.

The corpus generator (the ClueWeb-B substitute) needs a
realistic lexical substrate: a Zipf-distributed vocabulary and per-topic /
per-aspect unigram language models.  Everything is deterministic given a
seed, so experiments are reproducible bit-for-bit.

* :class:`Vocabulary` — `size` pronounceable synthetic words.
* :class:`ZipfSampler` — O(log V) sampling from a Zipf(s) distribution.
* :class:`LanguageModel` — a unigram distribution supporting mixtures.
"""

from __future__ import annotations

import bisect
import random
from collections.abc import Mapping, Sequence

__all__ = ["Vocabulary", "ZipfSampler", "LanguageModel"]

_ONSETS = "b c d f g h j k l m n p r s t v w z br cr dr fr gr pr tr st sl".split()
_NUCLEI = "a e i o u ai ea ou".split()
_CODAS = ["", "n", "r", "s", "t", "l", "x"]


def _syllables() -> list[str]:
    return [o + n + c for o in _ONSETS for n in _NUCLEI for c in _CODAS]


class Vocabulary:
    """A deterministic synthetic vocabulary of pronounceable words.

    Words are built from syllable combinations, so they survive the Porter
    stemmer mostly intact and do not collide with English stopwords.

    >>> vocab = Vocabulary(size=100, seed=7)
    >>> len(vocab), vocab[0] == Vocabulary(size=100, seed=7)[0]
    (100, True)
    """

    def __init__(self, size: int, seed: int = 0, min_syllables: int = 2) -> None:
        if size <= 0:
            raise ValueError("vocabulary size must be positive")
        rng = random.Random(seed)
        syllables = _syllables()
        words: list[str] = []
        seen: set[str] = set()
        # Randomly composed words (rather than lexicographic enumeration)
        # so that consecutive vocabulary slices — which the corpus
        # generator reserves for topics and aspects — do not share
        # prefixes and therefore stay lexically distinct.
        syllable_count = min_syllables
        attempts_at_count = 0
        while len(words) < size:
            word = "".join(rng.choice(syllables) for _ in range(syllable_count))
            attempts_at_count += 1
            if word in seen:
                # Exhausting a length class: move to longer words.
                if attempts_at_count > 50 * (len(words) + 1):
                    syllable_count += 1
                    attempts_at_count = 0
                continue
            seen.add(word)
            words.append(word)
        self.words = words

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, i: int) -> str:
        return self.words[i]

    def __iter__(self):
        return iter(self.words)

    def __contains__(self, word: str) -> bool:
        return word in set(self.words)


class ZipfSampler:
    """Sample ranks 0..n-1 with P(rank) proportional to 1/(rank+1)^s.

    Uses a precomputed cumulative table and binary search, so each draw is
    O(log n).

    >>> sampler = ZipfSampler(10, s=1.0)
    >>> rng = random.Random(0)
    >>> all(0 <= sampler.sample(rng) < 10 for _ in range(100))
    True
    """

    def __init__(self, n: int, s: float = 1.0) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if s < 0:
            raise ValueError("s must be non-negative")
        self.n = n
        self.s = s
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total = sum(weights)
        self._cumulative: list[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cumulative.append(acc)
        self._cumulative[-1] = 1.0  # guard against floating point drift

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cumulative, rng.random())

    def probability(self, rank: int) -> float:
        if not 0 <= rank < self.n:
            raise IndexError("rank out of range")
        previous = self._cumulative[rank - 1] if rank else 0.0
        return self._cumulative[rank] - previous


class LanguageModel:
    """A unigram language model over a finite set of terms.

    >>> lm = LanguageModel({"apple": 3.0, "fruit": 1.0})
    >>> rng = random.Random(1)
    >>> set(lm.sample(rng, 50)) <= {"apple", "fruit"}
    True
    """

    def __init__(self, weights: Mapping[str, float]) -> None:
        items = [(t, w) for t, w in weights.items() if w > 0]
        if not items:
            raise ValueError("language model needs at least one positive weight")
        total = sum(w for _, w in items)
        self.terms: list[str] = [t for t, _ in items]
        self._cumulative: list[float] = []
        acc = 0.0
        for _, w in items:
            acc += w / total
            self._cumulative.append(acc)
        self._cumulative[-1] = 1.0

    @classmethod
    def uniform(cls, terms: Sequence[str]) -> "LanguageModel":
        return cls({t: 1.0 for t in terms})

    @classmethod
    def zipfian(cls, terms: Sequence[str], s: float = 1.0) -> "LanguageModel":
        return cls({t: 1.0 / (i + 1) ** s for i, t in enumerate(terms)})

    @classmethod
    def mixture(
        cls, components: Sequence[tuple["LanguageModel", float]]
    ) -> "LanguageModel":
        """Linear interpolation of language models."""
        mixed: dict[str, float] = {}
        for model, weight in components:
            if weight < 0:
                raise ValueError("mixture weights must be non-negative")
            previous = 0.0
            for term, cum in zip(model.terms, model._cumulative):
                mixed[term] = mixed.get(term, 0.0) + weight * (cum - previous)
                previous = cum
        return cls(mixed)

    def sample_one(self, rng: random.Random) -> str:
        return self.terms[bisect.bisect_left(self._cumulative, rng.random())]

    def sample(self, rng: random.Random, n: int) -> list[str]:
        return [self.sample_one(rng) for _ in range(n)]

    def probability(self, term: str) -> float:
        try:
            i = self.terms.index(term)
        except ValueError:
            return 0.0
        previous = self._cumulative[i - 1] if i else 0.0
        return self._cumulative[i] - previous

    def __len__(self) -> int:
        return len(self.terms)
