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
:meth:`SnippetExtractor.surrogate_vector` then answers
``TermVector.from_terms(analyze(extract(...).text))`` for any query from
the row, which is the path the search engines serve (``extract`` is its
reference oracle).  The surrogate a query gets when it takes the windows
in document order is the same for every such query, so the row keeps it
(:class:`OrderedSurrogate`).
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from repro.retrieval.analysis import Analyzer
from repro.retrieval.documents import Document
from repro.retrieval.similarity import TermVector

__all__ = ["Snippet", "OrderedSurrogate", "ForwardRow", "SnippetExtractor"]

_SENTENCE_RE = re.compile(r"[^.!?\n]+[.!?\n]?")


@dataclass(frozen=True)
class Snippet:
    """A document surrogate: short text plus its source document id."""

    doc_id: str
    text: str

    def __len__(self) -> int:
        return len(self.text)


class OrderedSurrogate(NamedTuple):
    """A document's surrogate when its windows are taken in document
    order: the ``(piece, take)`` selection :meth:`SnippetExtractor.extract`
    then makes, and that selection's vector."""

    selection: list[tuple[int, int]]  # (piece, characters kept), in order
    vector: TermVector


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
    * ``starts`` — where each piece begins in its source string (the
      title for piece 0, the text for the windows), so a cut piece is
      sliced out of the document instead of re-split from it; ``-1`` for
      a window that is not a verbatim substring of the text (its tokens
      were re-joined across tabs or repeated spaces).

    Beside them it holds one piece of derived state, ``ordered``: the
    document-order :class:`OrderedSurrogate`, kept by
    :meth:`SnippetExtractor.surrogate_vector` the first time a query
    takes that selection, ``None`` until then.  It is not encoded,
    pickled or compared.
    """

    __slots__ = ("terms", "ends", "bounds", "lengths", "starts", "ordered")

    def __init__(self, terms, ends, bounds, lengths, starts) -> None:
        self.terms: tuple[str, ...] = tuple(map(sys.intern, terms))
        self.ends = array("I", ends)
        self.bounds = array("I", bounds)
        self.lengths = array("I", lengths)
        self.starts = array("i", starts)
        self.ordered: OrderedSurrogate | None = None

    def _lists(self) -> tuple:
        return self.terms, self.ends, self.bounds, self.lengths, self.starts

    def encode(self) -> bytes:
        """The row as the store's ``documents.forward`` blob."""
        return json.dumps(
            [list(column) for column in self._lists()],
            ensure_ascii=False,
            separators=(",", ":"),
        ).encode("utf-8")

    @classmethod
    def decode(cls, blob: bytes) -> "ForwardRow":
        return cls(*json.loads(blob))

    def memory_bytes(self) -> int:
        """Resident bytes of the row's own containers (not its shared,
        interned term strings), plus its document-order surrogate once
        it is kept."""
        size = sum(map(sys.getsizeof, self._lists())) + 80  # + object, six slots
        if self.ordered is not None:  # its tuple, selection pairs, vector
            selection, vector = self.ordered
            weights = vector.weights
            size += sys.getsizeof(self.ordered) + sys.getsizeof(selection)
            size += 56 * len(selection) + 48 + sys.getsizeof(weights)
            size += 24 * len(weights)  # boxed floats
        return size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ForwardRow):
            return NotImplemented
        return self._lists() == other._lists()

    # Unpickling goes through __init__ so the terms are interned again:
    # a worker process shares one string per term like its parent did.
    def __getstate__(self) -> tuple:
        return self._lists()

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
        scored = []
        for position, window in enumerate(windows):
            terms = self.analyzer.analyze(window)
            coverage = len(query_terms.intersection(terms))
            matches = sum(1 for t in terms if t in query_terms)
            scored.append(
                (self._score(coverage, matches, len(terms), position), position, window)
            )
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
        title, text = document.title, document.text
        pieces = [title.strip(), *self._windows(text)]
        terms: list[str] = []
        ends: list[int] = []
        bounds = [0]
        for piece in pieces:
            piece_terms, piece_ends = self.analyzer.analyze_with_ends(piece)
            terms += piece_terms
            ends += piece_ends
            bounds.append(len(terms))
        starts = [len(title) - len(title.lstrip())]
        cursor = 0
        for window in pieces[1:]:
            # Any verbatim occurrence serves: only its characters are read.
            start = text.find(window, cursor)
            starts.append(start)
            if start >= 0:
                cursor = start + len(window)
        return ForwardRow(terms, ends, bounds, map(len, pieces), starts)

    def surrogate_vector(
        self, query_terms: set[str], row: ForwardRow, document: Document
    ) -> TermVector:
        """The term vector of *document*'s surrogate, from its *row*.

        Equals ``TermVector.from_terms(analyze(extract(query, doc_id,
        text, title).text))`` — same terms, same order, same floats — for
        ``query_terms = set(analyze(query))`` and ``row =
        analyse_document(document)``.  Windows are scored, budgeted and
        ordered by the rules of :meth:`extract` over the stored terms and
        lengths (a document that fits ``max_chars`` skips the scoring:
        it keeps every piece whole).  When that selection is the row's
        document-order one, ``row.ordered``, its shared vector is
        returned: the vector is a function of the selection alone, so a
        row served under another ``max_chars`` stays exact.  Otherwise the
        selection is counted, and the only text read is the stretch of a
        cut piece between its last whole kept term and the cut, sliced at
        the piece's stored offset.  Counted once either way: the first
        count of the document-order selection is kept in ``row.ordered``.
        """
        terms, bounds, lengths = row.terms, row.bounds, row.lengths
        title = document.title
        windows = len(lengths) - 1
        # Title, windows and one joining space each (none leads a
        # surrogate without a title): every score order takes them whole.
        fits = sum(lengths) + windows - (not title) <= self.max_chars
        if fits:
            selection = list(enumerate(lengths))
        else:
            scored = []
            high = bounds[1]
            for position in range(windows):
                low, high = high, bounds[position + 2]
                window = terms[low:high]
                coverage = matches = 0
                for term in query_terms:
                    occurrences = window.count(term)
                    if occurrences:
                        coverage += 1
                        matches += occurrences
                score = self._score(coverage, matches, high - low, position)
                scored.append((-score, position + 1))
            scored.sort()
            selection = self._select(scored, lengths, title)
        ordered = row.ordered
        if ordered is not None:
            if selection == ordered.selection:
                return ordered.vector
            return self._count(selection, row, document)
        vector = self._count(selection, row, document)
        # Document order keeps pieces 0, 1, 2, ...: a gap rules it out.
        in_order = enumerate(range(1, windows + 1))
        if fits or (
            selection[-1][0] == len(selection) - 1
            and selection == self._select(in_order, lengths, title)
        ):
            row.ordered = OrderedSurrogate(selection, vector)
        return vector

    def _select(self, ranked, lengths, title: str) -> list[tuple[int, int]]:
        """Replay :meth:`extract`'s budget over the windows *ranked*
        (``(rank key, piece number)`` pairs, best first): ``(piece,
        characters of it kept)`` for the title and each kept window, in
        document order."""
        title_take = min(lengths[0], self.max_chars) if title else 0
        budget = self.max_chars - title_take
        selection = [(0, title_take)]
        for _, piece in ranked:
            if budget <= 0:
                break
            take = min(lengths[piece], budget)
            selection.append((piece, take))
            budget -= take + 1
        selection.sort()
        if title and budget < 0:
            # Title, windows and their joining spaces came to one over
            # max_chars: the final cut drops the last character of the
            # last piece in document order.
            piece, take = selection[-1]
            selection[-1] = (piece, take - 1)
        return selection

    def _count(
        self, selection: list[tuple[int, int]], row: ForwardRow, document: Document
    ) -> TermVector:
        """The vector of the surrogate that keeps *selection* of *row*."""
        terms, bounds, lengths = row.terms, row.bounds, row.lengths
        counts: dict[str, int] = {}
        count, ends = counts.get, row.ends
        for piece, take in selection:
            low, high = bounds[piece], bounds[piece + 1]
            cut: list[str] = []  # terms of the token the cut splits, if any
            if take < lengths[piece]:
                high = bisect_right(ends, take, low, high)  # whole terms kept
                resume = ends[high - 1] if high > low else 0
                if take > resume:
                    start = row.starts[piece]
                    source = document.text if piece else document.title
                    if start < 0:  # not verbatim in the text: re-split for it
                        source, start = self._windows(source)[piece - 1], 0
                    cut = self.analyzer.analyze(source[start + resume:start + take])
            for term in (*terms[low:high], *cut):
                counts[term] = count(term, 0) + 1
        return TermVector.from_counts(counts)

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
    def _score(coverage: int, matches: int, size: int, position: int) -> float:
        """Score a window of *size* terms holding *matches* occurrences
        of *coverage* distinct query terms."""
        if not size:
            return 0.0
        density = matches / size
        # Earlier windows win ties: web pages front-load their topic.
        position_bonus = 1.0 / (1.0 + position)
        return 2.0 * coverage + density + 0.1 * position_bonus
