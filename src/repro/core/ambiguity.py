"""Ambiguous-query detection — Algorithm 1 of the paper.

``AmbiguousQueryDetect(q, A, f(), s)``:

1. ``Ŝ_q ← A(q)`` — ask a query-recommendation algorithm ``A`` trained on
   the query log for candidate specializations of ``q``;
2. ``S_q ← { q' ∈ Ŝ_q | f(q') ≥ f(q)/s }`` — keep only candidates whose
   log popularity is at least ``1/s`` of the popularity of ``q``;
3. return ``S_q`` if ``|S_q| ≥ 2``, else the empty set (the query is not
   considered ambiguous/faceted).

Definition 1 then turns frequencies into the specialization distribution::

    P(q'|q) = f(q') / Σ_{q''∈S_q} f(q'')

Both the algorithm and the resulting :class:`SpecializationSet` are
recommender agnostic: ``A`` is any callable returning candidate queries
*present in the log* and ``f`` any frequency function, exactly as the
paper requires ("any other approach for deriving user intents from query
logs could be used and easily integrated").
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass

__all__ = ["SpecializationSet", "ambiguous_query_detect"]


@dataclass(frozen=True)
class SpecializationSet:
    """The mined specializations ``S_q`` of a query with ``P(q'|q)``.

    Probabilities are normalised to sum to 1 (Definition 1 assumes the
    distribution "is known and complete").

    >>> s = SpecializationSet.from_frequencies("apple",
    ...         {"apple iphone": 30, "apple fruit": 10})
    >>> s.probability("apple iphone")
    0.75
    """

    query: str
    items: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if self.items:
            total = sum(p for _, p in self.items)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"probabilities must sum to 1, got {total}")
            if any(p < 0 for _, p in self.items):
                raise ValueError("probabilities must be non-negative")
            if len({q for q, _ in self.items}) != len(self.items):
                raise ValueError("duplicate specialization")

    @classmethod
    def from_frequencies(
        cls, query: str, frequencies: Mapping[str, float]
    ) -> "SpecializationSet":
        """Normalise raw frequencies into ``P(q'|q)`` (Definition 1).

        Specializations are ordered by descending probability, ties broken
        lexicographically, so downstream iteration is deterministic.
        """
        total = float(sum(frequencies.values()))
        if total <= 0:
            return cls(query=query, items=())
        items = sorted(
            ((q, f / total) for q, f in frequencies.items()),
            key=lambda item: (-item[1], item[0]),
        )
        return cls(query=query, items=tuple(items))

    @property
    def queries(self) -> tuple[str, ...]:
        return tuple(q for q, _ in self.items)

    def probability(self, specialization: str) -> float:
        """``P(q'|q)``; zero for unknown specializations (Definition 1)."""
        for q, p in self.items:
            if q == specialization:
                return p
        return 0.0

    def top(self, k: int) -> "SpecializationSet":
        """Keep the *k* most probable specializations, renormalised.

        Used when ``|S_q| > k``: "we select from S_q the k specializations
        with the largest probabilities" (Section 3.1.3).
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if len(self.items) <= k:
            return self
        kept = self.items[:k]
        total = sum(p for _, p in kept)
        return SpecializationSet(
            query=self.query,
            items=tuple((q, p / total) for q, p in kept),
        )

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)


def ambiguous_query_detect(
    query: str,
    recommend: Callable[[str], Sequence[str]],
    frequency: Callable[[str], float],
    s: float = 2.0,
) -> SpecializationSet:
    """Algorithm 1: detect whether *query* needs diversification.

    Parameters
    ----------
    query:
        The submitted query ``q``.
    recommend:
        The recommendation algorithm ``A``; must return candidate
        specializations present in the training log.
    frequency:
        The popularity function ``f`` over the log.
    s:
        The popularity-ratio parameter of step 2; a candidate survives if
        ``f(q') >= f(q) / s``.  Larger ``s`` admits rarer specializations.

    Returns an empty :class:`SpecializationSet` when fewer than two
    candidates survive (the query is treated as unambiguous).
    """
    if s <= 0:
        raise ValueError("s must be positive")
    candidates = recommend(query)
    threshold = frequency(query) / s
    surviving = {}
    for candidate in candidates:
        if candidate == query:
            continue
        f = frequency(candidate)
        if f >= threshold and f > 0:
            surviving[candidate] = float(f)
    if len(surviving) < 2:
        return SpecializationSet(query=query, items=())
    return SpecializationSet.from_frequencies(query, surviving)

