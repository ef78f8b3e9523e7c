"""Documents and in-memory document collections.

The paper's search substrate (Section 5) indexes the ClueWeb-B collection
``D`` and returns, for each query ``q``, a ranked list ``R_q`` of documents.
This module defines the two data types every other subsystem builds on:

* :class:`Document` — an identified piece of text with optional metadata,
* :class:`DocumentCollection` — an ordered, id-addressable set of documents
  with the aggregate statistics (token counts, average length) needed by
  DFR weighting models.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

__all__ = ["Document", "DocumentCollection"]


@dataclass(frozen=True)
class Document:
    """A retrievable unit of text.

    Attributes
    ----------
    doc_id:
        Stable external identifier (e.g. ``"clueweb09-en0000-23-00102"`` or
        a synthetic ``"d00042"``).
    text:
        The raw body used for indexing and snippet extraction.
    title:
        Optional short title, given extra weight by the snippet extractor.
    metadata:
        Free-form provenance information.  The synthetic corpus generator
        stores the ground-truth ``topic`` and ``aspect`` here, which the
        TREC testbed builder turns into subtopic-level judgements.
    """

    doc_id: str
    text: str
    title: str = ""
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("Document requires a non-empty doc_id")

    @property
    def full_text(self) -> str:
        """Title and body concatenated — the indexed representation."""
        if self.title:
            return f"{self.title}\n{self.text}"
        return self.text

    def __len__(self) -> int:
        return len(self.text)


class DocumentCollection:
    """An ordered, id-addressable collection of :class:`Document`.

    The collection preserves insertion order (document ordinals are used as
    internal ids by the inverted index) and rejects duplicate ``doc_id``s,
    because a duplicated id would make qrels and run files ambiguous.

    >>> coll = DocumentCollection([Document("d1", "apple fruit")])
    >>> coll.add(Document("d2", "apple computer"))
    >>> len(coll), coll["d1"].text
    (2, 'apple fruit')
    """

    def __init__(self, documents: Iterable[Document] = ()) -> None:
        self._documents: list[Document] = []
        self._by_id: dict[str, int] = {}
        for document in documents:
            self.add(document)

    # -- mutation ------------------------------------------------------------

    def add(self, document: Document) -> int:
        """Append *document* and return its ordinal position."""
        if document.doc_id in self._by_id:
            raise ValueError(f"duplicate doc_id: {document.doc_id!r}")
        ordinal = len(self._documents)
        self._documents.append(document)
        self._by_id[document.doc_id] = ordinal
        return ordinal

    def extend(self, documents: Iterable[Document]) -> None:
        for document in documents:
            self.add(document)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, doc_id: str) -> Document:
        return self._documents[self._by_id[doc_id]]

    def get(self, doc_id: str, default: Document | None = None) -> Document | None:
        ordinal = self._by_id.get(doc_id)
        if ordinal is None:
            return default
        return self._documents[ordinal]

    def ordinal(self, doc_id: str) -> int:
        """Internal ordinal of *doc_id* (used by the inverted index)."""
        return self._by_id[doc_id]

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def __len__(self) -> int:
        return len(self._documents)

    @property
    def doc_ids(self) -> list[str]:
        return [document.doc_id for document in self._documents]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DocumentCollection(n={len(self)})"
