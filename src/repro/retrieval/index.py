"""Inverted index over a :class:`~repro.retrieval.documents.DocumentCollection`.

This is the indexing half of the Terrier substitute used by the paper's
evaluation (Section 5).  It supports:

* term-at-a-time scoring with any :class:`~repro.retrieval.models.WeightingModel`,
* collection statistics needed by DFR models (collection frequency,
  document frequency, average document length),
* incremental construction (used by the Search-Shortcuts recommender,
  which indexes query-log "virtual documents").

The index stores postings as parallel lists per term, which keeps the pure
Python implementation compact and fast enough for collections of a few
hundred thousand documents.
"""

from __future__ import annotations

import itertools
import sys
import threading
from array import array
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.retrieval.analysis import Analyzer
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.snippets import ForwardRow, SnippetExtractor

__all__ = ["Posting", "PostingList", "ImpactMemo", "InvertedIndex", "DocumentIndex"]

#: Postings one :class:`ImpactMemo` may hold (~16 bytes each); like the
#: stem memo it is cleared and refilled when full.
_IMPACT_MEMO_CAP = 1 << 18

#: Estimated bytes of one boxed CPython ``int`` (64-bit build).  Small
#: interned ints are cheaper in reality; the estimate deliberately prices
#: every element so partition footprints stay comparable.
_INT_BYTES = 28


@dataclass(frozen=True)
class Posting:
    """A single (document, term-frequency) pair."""

    ordinal: int
    tf: int


class PostingList:
    """Postings of one term, stored as parallel arrays sorted by ordinal."""

    __slots__ = ("ordinals", "tfs", "collection_frequency")

    def __init__(self) -> None:
        self.ordinals: list[int] = []
        self.tfs: list[int] = []
        self.collection_frequency = 0

    def append(self, ordinal: int, tf: int) -> None:
        if self.ordinals and ordinal <= self.ordinals[-1]:
            raise ValueError("postings must be appended in ordinal order")
        self.ordinals.append(ordinal)
        self.tfs.append(tf)
        self.collection_frequency += tf

    @property
    def document_frequency(self) -> int:
        return len(self.ordinals)

    def __iter__(self):
        return (Posting(o, t) for o, t in zip(self.ordinals, self.tfs))

    def __len__(self) -> int:
        return len(self.ordinals)


class ImpactMemo:
    """``(term, qtf) -> (ordinals, impacts)`` for one state of an index.

    An impact is ``model.score(...)`` of one posting: a pure function of
    the posting and the collection statistics, so it is computed once
    per index state, and every search naming the term — a query and each
    of its specializations — sums the same floats in the same order.
    Derived state: bounded, priced, droppable, and pickled empty.
    """

    __slots__ = ("lists", "postings", "_lock")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        with self._lock:
            self.lists: dict[tuple[str, int], tuple[Sequence[int], array]] = {}
            self.postings = 0

    def add(self, key: tuple[str, int], impact_list: tuple[Sequence[int], array]):
        held = len(impact_list[1])
        with self._lock:  # two searches may have gathered the same list
            if key not in self.lists:
                if self.postings + held > _IMPACT_MEMO_CAP:
                    self.lists, self.postings = {}, 0
                self.lists[key] = impact_list
                self.postings += held
        return impact_list

    def memory_bytes(self) -> int:
        # Per posting a double and an ordinal reference; per list its
        # key, the pair and two sequence headers.
        return 16 * self.postings + 256 * len(self.lists)

    def __reduce__(self):
        return ImpactMemo, ()


class InvertedIndex:
    """A term → postings map with collection statistics.

    Documents are keyed by **sequence number** (the ordinal of a
    posting): assigned once when a document is indexed, never shifted,
    never reused, and ascending in indexing order.

    Parameters
    ----------
    analyzer:
        Pipeline used for both documents and queries, so that query terms
        and index terms live in the same stemmed space.

    >>> index = InvertedIndex()
    >>> index.index_document(Document("d1", "apple iphone store"))
    0
    >>> index.index_document(Document("d2", "apple fruit orchard"))
    1
    >>> index.document_frequency("appl")
    2
    """

    def __init__(self, analyzer: Analyzer | None = None) -> None:
        self.analyzer = analyzer or Analyzer()
        self._postings: dict[str, PostingList] = {}
        # seq -> length / doc_id; insertion order is seq order.
        self._doc_lengths: dict[int, int] = {}
        self._doc_ids: dict[int, str] = {}
        self._ordinal_by_id: dict[str, int] = {}
        self._next_seq = 0
        self._total_tokens = 0

    # -- construction ---------------------------------------------------------

    def index_document(self, document: Document, seq: int | None = None) -> int:
        """Analyse and add *document*; returns its sequence number."""
        return self.index_terms(
            document.doc_id, self.analyzer.analyze(document.full_text), seq
        )

    def index_terms(
        self, doc_id: str, terms: Sequence[str], seq: int | None = None
    ) -> int:
        """Add a document from its already analysed *terms*.

        *seq* defaults to the number after the last one assigned; a given
        one must be at least that, so postings stay in seq order.
        """
        if doc_id in self._ordinal_by_id:
            raise ValueError(f"doc_id already indexed: {doc_id!r}")
        if seq is None:
            seq = self._next_seq
        elif seq < self._next_seq:
            raise ValueError(
                f"seq {seq} is below the next sequence number {self._next_seq}"
            )
        self._next_seq = seq + 1
        self._doc_ids[seq] = doc_id
        self._ordinal_by_id[doc_id] = seq
        self._doc_lengths[seq] = len(terms)
        self._total_tokens += len(terms)
        for term, tf in Counter(terms).items():
            postings = self._postings.get(term)
            if postings is None:
                postings = self._postings[term] = PostingList()
            postings.append(seq, tf)
        return seq

    @classmethod
    def from_collection(
        cls,
        collection: DocumentCollection,
        *args,
        seqs: Iterable[int] | None = None,
    ) -> "InvertedIndex":
        """Index *collection* into ``cls(*args)`` — the analyzer here, the
        extractor for a :class:`DocumentIndex` — with the ascending
        sequence numbers *seqs* (default ``0, 1, …``)."""
        index = cls(*args)
        for document, seq in zip(collection, seqs or itertools.repeat(None)):
            index.index_document(document, seq)
        return index

    # -- statistics -------------------------------------------------------------

    @property
    def num_documents(self) -> int:
        return len(self._doc_ids)

    @property
    def num_terms(self) -> int:
        """Vocabulary size (number of distinct indexed terms)."""
        return len(self._postings)

    @property
    def total_tokens(self) -> int:
        return self._total_tokens

    @property
    def average_document_length(self) -> float:
        if not self._doc_ids:
            return 0.0
        return self._total_tokens / len(self._doc_ids)

    def document_length(self, seq: int) -> int:
        return self._doc_lengths[seq]

    def doc_id(self, seq: int) -> str:
        return self._doc_ids[seq]

    def ordinal(self, doc_id: str) -> int:
        """The sequence number of *doc_id*."""
        return self._ordinal_by_id[doc_id]

    def members(self) -> Iterable[tuple[int, str]]:
        """``(seq, doc_id)`` of every indexed document, in seq order."""
        return self._doc_ids.items()

    def __contains__(self, term: str) -> bool:
        return term in self._postings

    def postings(self, term: str) -> PostingList | None:
        """Posting list for an *analysed* term, or ``None`` if absent."""
        return self._postings.get(term)

    def document_frequency(self, term: str) -> int:
        postings = self._postings.get(term)
        return postings.document_frequency if postings else 0

    def collection_frequency(self, term: str) -> int:
        postings = self._postings.get(term)
        return postings.collection_frequency if postings else 0

    def vocabulary(self) -> Iterable[str]:
        return self._postings.keys()

    @property
    def num_postings(self) -> int:
        """Total posting entries across all terms (Σ_t df_t)."""
        return sum(len(p) for p in self._postings.values())

    def memory_estimate(self) -> dict[str, int]:
        """Estimated resident bytes of this index, by component.

        Sums ``sys.getsizeof`` of the actual containers (dicts, lists,
        term strings) plus a flat per-element price for the boxed ints
        inside posting lists and length tables — an *estimate* of the
        CPython heap footprint, not an exact accounting (small interned
        ints are shared, dict load factors vary), but computed the same
        way for every partition, so partitions compare.

        Returns ``{"postings_bytes", "vocabulary_bytes",
        "documents_bytes", "total_bytes"}``.
        """
        postings_bytes = 0
        vocabulary_bytes = sys.getsizeof(self._postings)
        for term, postings in self._postings.items():
            vocabulary_bytes += sys.getsizeof(term)
            n = len(postings.ordinals)
            postings_bytes += (
                sys.getsizeof(postings.ordinals)
                + sys.getsizeof(postings.tfs)
                + 2 * n * _INT_BYTES
                + 64  # PostingList object + its collection_frequency int
            )
        documents_bytes = (
            sys.getsizeof(self._doc_ids)
            + sys.getsizeof(self._doc_lengths)
            + sys.getsizeof(self._ordinal_by_id)
            + sum(sys.getsizeof(doc_id) for doc_id in self._ordinal_by_id)
            + 2 * len(self._doc_ids) * _INT_BYTES
        )
        return {
            "postings_bytes": postings_bytes,
            "vocabulary_bytes": vocabulary_bytes,
            "documents_bytes": documents_bytes,
            "total_bytes": postings_bytes + vocabulary_bytes + documents_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(docs={self.num_documents}, "
            f"terms={self.num_terms}, tokens={self._total_tokens})"
        )


class DocumentIndex(InvertedIndex):
    """An inverted index that also keeps each document's forward row.

    The search engines' index: a document is split into the extractor's
    windows and analysed **once**
    (:meth:`~repro.retrieval.snippets.SnippetExtractor.analyse_document`);
    the postings are counted from the row's terms and the row is kept by
    doc_id, so surrogates are built at query time without re-analysing
    document text.
    """

    def __init__(self, extractor: SnippetExtractor | None = None) -> None:
        self.extractor = extractor or SnippetExtractor()
        super().__init__(self.extractor.analyzer)
        self._rows: dict[str, ForwardRow] = {}

    def index_document(self, document: Document, seq: int | None = None) -> int:
        row = self.extractor.analyse_document(document)
        seq = self.index_terms(document.doc_id, row.terms, seq)
        self._rows[document.doc_id] = row
        return seq

    def forward_row(self, doc_id: str) -> ForwardRow:
        return self._rows[doc_id]

    def memory_estimate(self) -> dict[str, int]:
        """As :meth:`InvertedIndex.memory_estimate`, with the forward rows
        priced into ``documents_bytes`` (their term strings are the
        vocabulary's, already counted there)."""
        estimate = super().memory_estimate()
        forward_bytes = sys.getsizeof(self._rows) + sum(
            row.memory_bytes() for row in self._rows.values()
        )
        estimate["documents_bytes"] += forward_bytes
        estimate["total_bytes"] += forward_bytes
        return estimate
