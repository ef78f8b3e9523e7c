"""Query-biased snippet (document surrogate) extraction.

Section 5 of the paper: "We extended Terrier in order to obtain short
summaries of retrieved documents, which are used as document surrogates in
our diversification algorithm" and Section 4.1: "only short summaries, and
not whole documents, can be used without significative loss in the
precision of our method".

:class:`SnippetExtractor` implements the classic query-biased summarisation
scheme: split the document into sentences (or fixed-size windows when no
sentence boundaries exist), score each window by query-term coverage,
density and position, and return the best windows concatenated, truncated
to a byte budget.  The byte budget is the ``L`` of the paper's Section 4.1
memory footprint estimate.

The extractor has two halves.  :meth:`SnippetExtractor.extract` is the
text API: it analyses every window of the text it is given.
:meth:`SnippetExtractor.analyse_document` does that analysis once, at
index time, into a :class:`ForwardRow`;
:meth:`SnippetExtractor.surrogate_terms` then answers
``analyze(extract(...).text)`` for any query from the row alone, which is
the path the search engines serve (``extract`` is its reference oracle).
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass

from repro.retrieval.analysis import Analyzer
from repro.retrieval.documents import Document

__all__ = ["Snippet", "ForwardRow", "SnippetExtractor"]

_SENTENCE_RE = re.compile(r"[^.!?\n]+[.!?\n]?")


@dataclass(frozen=True)
class Snippet:
    """A document surrogate: short text plus its source document id."""

    doc_id: str
    text: str

    def __len__(self) -> int:
        return len(self.text)


class ForwardRow:
    """One document's forward-index entry: its text, analysed once.

    A document is a sequence of *pieces* — piece 0 is the stripped title
    (empty when there is none), pieces 1.. are the extractor's windows in
    document order.  The row keeps, flat across the pieces:

    * ``terms`` — the analysed terms, title first; exactly
      ``analyze(document.full_text)``, so the postings are counted from
      this same tuple.  Terms are interned: every row and the vocabulary
      share one ``str`` per term.
    * ``ends`` — per term, the offset at which its token ends inside its
      piece (what a ``max_chars`` cut is compared against).
    * ``bounds`` — piece *i* owns ``terms[bounds[i]:bounds[i + 1]]``.
    * ``lengths`` — the character length of each piece.
    """

    __slots__ = ("terms", "ends", "bounds", "lengths")

    def __init__(self, terms, ends, bounds, lengths) -> None:
        self.terms: tuple[str, ...] = tuple(map(sys.intern, terms))
        self.ends = array("I", ends)
        self.bounds = array("I", bounds)
        self.lengths = array("I", lengths)

    def encode(self) -> bytes:
        """The row as the store's ``documents.forward`` blob."""
        return json.dumps(
            [self.terms, self.ends.tolist(), self.bounds.tolist(),
             self.lengths.tolist()],
            ensure_ascii=False,
            separators=(",", ":"),
        ).encode("utf-8")

    @classmethod
    def decode(cls, blob: bytes) -> "ForwardRow":
        return cls(*json.loads(blob))

    def memory_bytes(self) -> int:
        """Resident bytes of the row's own containers (not its shared,
        interned term strings)."""
        return (
            sys.getsizeof(self.terms)
            + sys.getsizeof(self.ends)
            + sys.getsizeof(self.bounds)
            + sys.getsizeof(self.lengths)
            + 64  # the row object and its four slots
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ForwardRow):
            return NotImplemented
        return (self.terms, self.ends, self.bounds, self.lengths) == (
            other.terms, other.ends, other.bounds, other.lengths
        )

    # Unpickling goes through __init__ so the terms are interned again:
    # a worker process shares one string per term like its parent did.
    def __getstate__(self) -> tuple:
        return self.terms, self.ends, self.bounds, self.lengths

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ForwardRow(terms={len(self.terms)}, pieces={len(self.lengths)})"


class SnippetExtractor:
    """Produce short query-biased summaries of documents.

    Parameters
    ----------
    max_chars:
        Byte/character budget ``L`` for the surrogate (paper §4.1 uses the
        average surrogate length in its footprint estimate).
    window_terms:
        When a document has no sentence punctuation (common in synthetic
        corpora and stripped web text), fall back to windows of this many
        whitespace tokens.
    analyzer:
        Used to match query terms against window terms in stemmed space.
    """

    def __init__(
        self,
        max_chars: int = 240,
        window_terms: int = 24,
        analyzer: Analyzer | None = None,
    ) -> None:
        if max_chars <= 0:
            raise ValueError("max_chars must be positive")
        if window_terms <= 0:
            raise ValueError("window_terms must be positive")
        self.max_chars = max_chars
        self.window_terms = window_terms
        self.analyzer = analyzer or Analyzer()

    # -- public API -------------------------------------------------------------

    def extract(self, query: str, doc_id: str, text: str, title: str = "") -> Snippet:
        """Return the query-biased surrogate of a document.

        The title, when present, is always included first (titles are the
        strongest surrogate signal); remaining budget is filled with the
        highest scoring text windows in document order.
        """
        query_terms = set(self.analyzer.analyze(query))
        windows = self._windows(text)
        scored = [
            (
                self._score(self.analyzer.analyze(window), query_terms, position),
                position,
                window,
            )
            for position, window in enumerate(windows)
        ]
        scored.sort(key=lambda item: (-item[0], item[1]))

        pieces: list[str] = []
        budget = self.max_chars
        if title:
            title = title.strip()[: self.max_chars]
            pieces.append(title)
            budget -= len(title)
        chosen: list[tuple[int, str]] = []
        for score, position, window in scored:
            if budget <= 0:
                break
            window = window.strip()
            if not window:
                continue
            take = window[: max(budget, 0)]
            chosen.append((position, take))
            budget -= len(take) + 1
        # Re-assemble selected windows in their original document order so
        # the surrogate reads like the document, as extractive summarisers do.
        chosen.sort(key=lambda item: item[0])
        pieces.extend(text for _, text in chosen)
        return Snippet(doc_id=doc_id, text=" ".join(pieces)[: self.max_chars])

    # -- forward index ---------------------------------------------------------

    def analyse_document(self, document: Document) -> ForwardRow:
        """Split *document* into title and windows and analyse each once."""
        pieces = [document.title.strip(), *self._windows(document.text)]
        terms: list[str] = []
        ends: list[int] = []
        bounds = [0]
        for piece in pieces:
            piece_terms, piece_ends = self.analyzer.analyze_with_ends(piece)
            terms += piece_terms
            ends += piece_ends
            bounds.append(len(terms))
        return ForwardRow(terms, ends, bounds, map(len, pieces))

    def surrogate_terms(
        self, query_terms: set[str], row: ForwardRow, document: Document
    ) -> list[str]:
        """The analysed terms of *document*'s surrogate, from its *row*.

        Equals ``analyze(extract(query, doc_id, text, title).text)`` for
        ``query_terms = set(analyze(query))`` and ``row =
        analyse_document(document)``.  Windows are scored, budgeted and
        ordered by the rules of :meth:`extract`, over the stored terms
        and piece lengths; text is only touched for a piece that
        ``max_chars`` cuts, and only the stretch between its last whole
        kept term and the cut is analysed.
        """
        terms, bounds, lengths = row.terms, row.bounds, row.lengths
        scored = sorted(
            (
                -self._score(
                    terms[bounds[position + 1]:bounds[position + 2]],
                    query_terms,
                    position,
                ),
                position,
            )
            for position in range(len(lengths) - 1)
        )
        title = document.title
        title_take = min(lengths[0], self.max_chars) if title else 0
        budget = self.max_chars - title_take
        chosen: list[tuple[int, int]] = []  # (piece, characters of it kept)
        for _, position in scored:
            if budget <= 0:
                break
            take = min(lengths[position + 1], budget)
            chosen.append((position + 1, take))
            budget -= take + 1
        chosen.sort()
        if title and budget < 0:
            # Title, windows and their joining spaces came to one over
            # max_chars: the final cut drops the last character of the
            # last piece in document order.
            piece, take = chosen[-1]
            chosen[-1] = (piece, take - 1)

        out: list[str] = []
        windows: list[str] | None = None
        ends = row.ends
        for piece, take in [(0, title_take), *chosen]:
            low, high = bounds[piece], bounds[piece + 1]
            if take >= lengths[piece]:
                out += terms[low:high]
                continue
            whole = bisect_right(ends, take, low, high)
            out += terms[low:whole]
            resume = ends[whole - 1] if whole > low else 0
            if take > resume:
                if piece == 0:
                    source = title.strip()
                else:
                    if windows is None:
                        windows = self._windows(document.text)
                    source = windows[piece - 1]
                out += self.analyzer.analyze(source[resume:take])
        return out

    # -- internals ------------------------------------------------------------

    def _windows(self, text: str) -> list[str]:
        sentences = [s.strip() for s in _SENTENCE_RE.findall(text) if s.strip()]
        if len(sentences) > 1:
            return sentences
        tokens = text.split()
        if not tokens:
            return []
        return [
            " ".join(tokens[i : i + self.window_terms])
            for i in range(0, len(tokens), self.window_terms)
        ]

    @staticmethod
    def _score(terms, query_terms: set[str], position: int) -> float:
        """Score a window from its analysed *terms*."""
        if not terms:
            return 0.0
        coverage = len(query_terms.intersection(terms))
        matches = sum(1 for t in terms if t in query_terms) if coverage else 0
        density = matches / len(terms)
        # Earlier windows win ties: web pages front-load their topic.
        position_bonus = 1.0 / (1.0 + position)
        return 2.0 * coverage + density + 0.1 * position_bonus
