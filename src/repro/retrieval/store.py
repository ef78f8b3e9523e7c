"""Disk-backed index & warm store: cold start as an attach, not a rebuild.

Every index partition and warm artifact used to live fully in RAM, so
serving capacity was capped by resident memory and every cold start was
a full rebuild.  This module moves the durable copy into a single SQLite
file — postings, document metadata, collection-global statistics and the
serving layer's warm artifacts — written by the offline pipeline
(:func:`write_store`), advanced one epoch at a time by live ingest
(:func:`append_epoch`), and attached **read-only** by any number of
serving processes (:class:`IndexStore`).  The database follows the
paged-store recipe common to the storage designs surveyed in PAPERS.md:
WAL journal, a ``busy_timeout`` so concurrent readers never fail
spuriously.  ``synchronous=NORMAL`` holds only for :func:`write_store`'s
connection: the setting is per connection, and :func:`append_epoch`
opens its own, which runs a WAL file at SQLite's default ``FULL`` (each
epoch's commit is synced before it returns).

On top of the store sit three pieces:

* :class:`StoreBackedInvertedIndex` — the
  :class:`~repro.retrieval.index.InvertedIndex` surface over one stored
  partition, paging posting lists in on demand through a shared,
  byte-bounded :class:`PostingPageCache`.
* :class:`StoreBackedCollection` — the
  :class:`~repro.retrieval.documents.DocumentCollection` surface with
  fully lazy document rows behind a small LRU.
* :class:`StoreBackedSearchEngine` — a
  :class:`~repro.retrieval.engine.SearchEngine` whose partitions are
  store-backed.  It inherits the identity-critical ``search()`` and
  partition gather, and the store round-trips every
  statistic as exact integers (tf, document lengths, df, cf, N, tokens), so
  rankings *and scores* are byte-identical to the in-memory build.  The
  engine pickles as just its store path plus configuration: process
  workers and respawned workers rehydrate in O(attach), not O(rebuild).

Combined with :class:`~repro.retrieval.engine.MemoryBudget`, the
store-backed engine turns ``memory_estimate()`` into an *enforced*
limit: whole partitions are evicted least-recently-touched first and
page back in transparently on the next query.
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
import threading
from array import array
from collections import Counter
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.core.cache import LRUCache
from repro.retrieval.analysis import Analyzer
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import (
    EngineSnapshot,
    MemoryBudget,
    ResultList,
    SearchEngine,
    stable_shard,
)
from repro.retrieval.index import _INT_BYTES, PostingList
from repro.retrieval.models import WeightingModel
from repro.retrieval.similarity import TermVector
from repro.retrieval.snippets import ForwardRow, SnippetExtractor

__all__ = [
    "SCHEMA_VERSION",
    "StoreError",
    "StaleEpochError",
    "write_store",
    "append_epoch",
    "IndexStore",
    "PageCacheStats",
    "PostingPageCache",
    "StoreBackedInvertedIndex",
    "StoreBackedCollection",
    "StoreBackedSearchEngine",
    "MemoryBudget",
    "encode_warm_artifact",
    "decode_warm_artifact",
    "read_warm_artifacts",
]

#: Bump on any on-disk layout change; readers fail fast on a mismatch.
#: v2: live-ingest support — ``store_epoch`` in ``meta`` plus a
#: per-partition ``epoch`` column recording the last epoch that touched
#: each partition (what lets :meth:`StoreBackedSearchEngine.refresh`
#: re-page only the partitions an append actually changed).
#: v3: the forward index — a ``forward`` blob per ``documents`` row (the
#: document analysed once into title and window terms, see
#: :class:`~repro.retrieval.snippets.ForwardRow`) plus ``window_terms``
#: in ``meta``, the window size those rows were split with.
#: v4: forward rows carry ``starts``, each piece's offset in its source
#: string, so a surrogate cut is sliced out of the text, never re-split.
#: v5: documents are keyed by a never-reused sequence number (``seq``,
#: with ``next_seq`` in ``meta``); postings and each partition's member
#: list carry seqs, so an epoch edits only the rows its batch touches.
#: v6: an ``epoch_log`` row per appended epoch — the documents it added
#: and removed and the ``postings`` rows it rewrote — so a refreshing
#: reader drops exactly the pages and document rows the epochs changed.
#: v7: a ``warm_artifacts`` payload carries each result's seq, the key
#: its vector is memoised under, so a reader installs it as written.
SCHEMA_VERSION = 7

#: Default byte capacity of the shared postings page cache (per engine).
DEFAULT_PAGE_CACHE_BYTES = 64 * 1024 * 1024

#: Default entry capacity of the lazy document row cache.
DEFAULT_DOCUMENT_CACHE_SIZE = 8192

_BUSY_TIMEOUT_MS = 5000
_IN_CHUNK = 500  # ids bound per ``IN (?, …)``, under SQLite's 999 floor


class StoreError(ValueError):
    """A store file is missing, malformed, or from another schema."""


class StaleEpochError(StoreError):
    """A store is behind the epoch the attacher requires.

    Raised when attaching with ``expected_epoch`` and the store's
    published ``store_epoch`` is older — e.g. a respawned worker whose
    attach recipe remembers the epoch it was serving, pointed at a store
    file that was rolled back or never received the appends.  Carries
    both epochs so operators see exactly how far behind the file is.
    """

    def __init__(self, path, found: int, expected: int) -> None:
        self.found = int(found)
        self.expected = int(expected)
        super().__init__(
            f"{path}: store is at stale epoch {self.found}, expected at "
            f"least epoch {self.expected}; re-apply the missing appends "
            "or rebuild the store from the current collection"
        )


def _pack_ints(values) -> bytes:
    """Integers as a little-endian ``int32`` blob (portable across hosts)."""
    arr = array("i", values)
    if sys.byteorder != "little":
        arr.byteswap()
    return arr.tobytes()


def _unpack_ints(blob: bytes) -> list[int]:
    arr = array("i")
    arr.frombytes(blob)
    if sys.byteorder != "little":
        arr.byteswap()
    return arr.tolist()


def _page_bytes(postings: PostingList) -> int:
    """Resident-byte price of one paged-in posting list — the same
    boxed-int pricing as ``InvertedIndex.memory_estimate`` so in-memory
    and store-backed footprints are directly comparable."""
    n = len(postings.ordinals)
    return (
        sys.getsizeof(postings.ordinals)
        + sys.getsizeof(postings.tfs)
        + 2 * n * _INT_BYTES
        + 64
    )


#: The page of a term its partition does not hold.
_ABSENT = PostingList()

_SCHEMA_STATEMENTS = (
    """CREATE TABLE meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )""",
    """CREATE TABLE partitions (
        partition     INTEGER PRIMARY KEY,
        num_documents INTEGER NOT NULL,
        num_terms     INTEGER NOT NULL,
        num_postings  INTEGER NOT NULL,
        total_tokens  INTEGER NOT NULL,
        seqs          BLOB NOT NULL,
        lengths       BLOB NOT NULL,
        epoch         INTEGER NOT NULL DEFAULT 0
    )""",
    """CREATE TABLE documents (
        seq      INTEGER PRIMARY KEY,
        doc_id   TEXT NOT NULL UNIQUE,
        title    TEXT NOT NULL,
        text     TEXT NOT NULL,
        metadata TEXT NOT NULL,
        forward  BLOB NOT NULL
    )""",
    """CREATE TABLE postings (
        partition INTEGER NOT NULL,
        term      TEXT NOT NULL,
        df        INTEGER NOT NULL,
        cf        INTEGER NOT NULL,
        seqs      BLOB NOT NULL,
        tfs       BLOB NOT NULL,
        PRIMARY KEY (partition, term)
    ) WITHOUT ROWID""",
    """CREATE TABLE warm_artifacts (
        shard      INTEGER NOT NULL,
        spec_query TEXT NOT NULL,
        payload    TEXT NOT NULL,
        PRIMARY KEY (shard, spec_query)
    ) WITHOUT ROWID""",
    """CREATE TABLE epoch_log (
        epoch    INTEGER PRIMARY KEY,
        added    TEXT NOT NULL,
        removed  TEXT NOT NULL,
        postings TEXT NOT NULL
    )""",
)


_INSERT_DOCUMENT = (
    "INSERT INTO documents (seq, doc_id, title, text, metadata, forward)"
    " VALUES (?, ?, ?, ?, ?, ?)"
)

_WRITE_POSTINGS = (
    "INSERT OR REPLACE INTO postings (partition, term, df, cf, seqs, tfs)"
    " VALUES (?, ?, ?, ?, ?, ?)"
)


def _edited(seqs_blob, values_blob, leaving, arriving) -> tuple[tuple, tuple]:
    """Parallel ``(seqs, values)`` blobs as tuples, without the *leaving*
    seqs and with the *arriving* ``(seq, value)`` pairs appended — still
    in seq order, since an arriving seq is new and so the largest."""
    pairs = [
        pair
        for pair in zip(_unpack_ints(seqs_blob), _unpack_ints(values_blob))
        if pair[0] not in leaving
    ]
    return tuple(zip(*(pairs + arriving))) or ((), ())


def _postings_row(partition: int, term: str, seqs, tfs) -> tuple:
    return (partition, term, len(seqs), sum(tfs), _pack_ints(seqs), _pack_ints(tfs))


def _check_schema(path, meta: Mapping[str, str]) -> None:
    """Refuse a store written under another schema, naming both versions."""
    raw = meta.get("schema_version")
    if raw is None:
        raise StoreError(
            f"{path}: store has no schema_version (expected {SCHEMA_VERSION})"
        )
    if int(raw) != SCHEMA_VERSION:
        raise StoreError(
            f"{path}: store schema version {raw} does not match the "
            f"supported version {SCHEMA_VERSION}; rebuild the store with "
            "the current offline pipeline"
        )


def encode_warm_artifact(
    spec_query: str,
    results: ResultList,
    vectors: Mapping[str, TermVector],
) -> str:
    """One warm artifact as the ``payload`` of its ``warm_artifacts`` row:
    ``{"q", "results", "vectors"}`` JSON, each result as ``[doc_id,
    score, seq]``.  Floats survive via shortest-repr JSON, so a decode is
    bit-identical to what was encoded.
    """
    return json.dumps(
        {
            "q": spec_query,
            "results": [
                [r.doc_id, r.score, seq] for r, seq in zip(results, results.seqs)
            ],
            "vectors": {
                doc_id: vector.weights for doc_id, vector in vectors.items()
            },
        },
        ensure_ascii=False,
    )


def decode_warm_artifact(
    payload: str, context: str
) -> tuple[str, tuple[ResultList, dict[str, TermVector]]]:
    """Decode one :func:`encode_warm_artifact` payload.

    Returns ``(spec_query, (ResultList, {doc_id: TermVector}))``, vectors
    restored without renormalisation; raises :class:`ValueError`
    prefixed with *context* on malformed input.
    """
    try:
        raw = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{context}: invalid JSON") from exc
    try:
        spec_query = raw["q"]
        rows = raw.get("results", ())
        results = ResultList(
            spec_query,
            [(doc_id, float(score)) for doc_id, score, _ in rows],
            [int(seq) for _, _, seq in rows],
        )
        vectors = {
            doc_id: TermVector.from_normalized(weights)
            for doc_id, weights in raw.get("vectors", {}).items()
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"{context}: malformed warm artifact ({exc})") from exc
    return spec_query, (results, vectors)


def write_store(
    path: str | Path,
    engine: SearchEngine,
    warm_payloads: Mapping[int, Mapping[str, str]] | None = None,
) -> Path:
    """Write *engine* (a built :class:`~repro.retrieval.engine.SearchEngine`)
    as a durable store at *path*, atomically.

    The database is assembled in a sibling tmp file under the recipe
    pragmas (WAL, ``synchronous=NORMAL``, ``busy_timeout``), the
    connection is closed — which checkpoints and removes the WAL
    sidecars — and only then renamed over *path*: a killed writer never
    leaves a truncated store where readers attach.

    *warm_payloads* maps ``shard → {spec_query: payload}`` where each
    payload is an :func:`encode_warm_artifact` string.  Returns the final
    path.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    if tmp.exists():
        tmp.unlink()
    connection = sqlite3.connect(tmp)
    try:
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        for statement in _SCHEMA_STATEMENTS:
            connection.execute(statement)
        with engine.pinned() as snapshot:
            collection = snapshot.collection
            meta = {
                "schema_version": SCHEMA_VERSION,
                "num_partitions": engine.num_partitions,
                "seed": engine.seed,
                "num_documents": len(collection),
                "total_tokens": snapshot.total_tokens,
                "model": engine.model.name,
                "store_epoch": snapshot.epoch,
                "window_terms": engine.snippets.window_terms,
                # An in-memory engine is a fresh build: seqs are the
                # collection positions.
                "next_seq": len(collection),
            }
            connection.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                [(key, str(value)) for key, value in meta.items()],
            )
            seq_of = {doc_id: seq for seq, doc_id in snapshot.doc_ids.items()}
            forward_row = engine.forward_row
            connection.executemany(
                _INSERT_DOCUMENT,
                (
                    (
                        seq_of[doc.doc_id],
                        doc.doc_id,
                        doc.title,
                        doc.text,
                        json.dumps(doc.metadata, ensure_ascii=False),
                        forward_row(doc.doc_id).encode(),
                    )
                    for doc in collection
                ),
            )
            for shard, index in enumerate(snapshot.partitions):
                seqs = [seq for seq, _ in index.members()]
                connection.execute(
                    "INSERT INTO partitions (partition, num_documents, num_terms,"
                    " num_postings, total_tokens, seqs, lengths, epoch)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        shard,
                        index.num_documents,
                        index.num_terms,
                        index.num_postings,
                        index.total_tokens,
                        _pack_ints(seqs),
                        _pack_ints([index.document_length(seq) for seq in seqs]),
                        snapshot.epoch,
                    ),
                )
                connection.executemany(
                    _WRITE_POSTINGS,
                    (
                        _postings_row(shard, term, postings.ordinals, postings.tfs)
                        for term, postings in (
                            (term, index.postings(term))
                            for term in index.vocabulary()
                        )
                    ),
                )
        if warm_payloads:
            connection.executemany(
                "INSERT INTO warm_artifacts (shard, spec_query, payload)"
                " VALUES (?, ?, ?)",
                (
                    (shard, spec_query, payload)
                    for shard, per_shard in warm_payloads.items()
                    for spec_query, payload in per_shard.items()
                ),
            )
        connection.commit()
        # Closing checkpoints the WAL and removes the -wal/-shm sidecars,
        # so the rename below publishes one complete, self-contained file.
        connection.close()
        connection = None
        os.replace(tmp, path)
    except BaseException:
        if connection is not None:
            connection.close()
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def append_epoch(
    path: str | Path,
    add_documents: Sequence[Document] = (),
    remove_doc_ids: Sequence[str] = (),
    *,
    analyzer: Analyzer | None = None,
) -> int:
    """Apply one ingest batch to an existing store; returns the new epoch.

    The incremental counterpart of :func:`write_store`, in O(the batch):
    added documents take the next sequence numbers in batch order, a
    removal deletes its own ``documents`` row, and each ``postings`` row
    a changed document holds is edited in place — an added document's
    ``(seq, tf)`` is appended (its seq is the largest, so the row stays
    sorted), a removed one's entry dropped, an emptied row deleted.  The
    partitions a changed document hashes to (``stable_shard``) get their
    member list and statistics rewritten and are tagged with the new
    epoch.  One ``epoch_log`` row records what the epoch changed: the
    added and removed ``(doc_id, seq)`` and the ``(partition, term)``
    of every ``postings`` row it rewrote or deleted — what lets a
    refreshing reader drop exactly those pages and document rows and
    keep everything else.  Nothing else is read or written.

    The whole append — validation included — is one ``BEGIN IMMEDIATE``
    transaction, so concurrent writers serialise on the store's write
    lock and each plans against the epoch it replaces; and a reader
    attaching mid-append sees either the old epoch complete or the new
    epoch complete — never a half-applied batch.

    Every stored warm artifact is deleted, by the rule the serving
    layer applies to its caches: an epoch drops every cached score.

    *analyzer* must be the pipeline the serving engines use (defaults to
    the stock :class:`Analyzer`): the added documents are analysed here,
    into forward rows split with the store's own ``window_terms``.  A
    removed document's terms are read off its stored forward row.
    """
    path = Path(path)
    adds = list(add_documents)
    removes = list(remove_doc_ids)
    if not adds and not removes:
        raise StoreError("an epoch must change the collection")
    analyzer = analyzer or Analyzer()
    connection = sqlite3.connect(path)
    try:
        connection.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        # The write lock before the first read: a plan made against an
        # epoch another writer is replacing would publish a stale batch.
        connection.execute("BEGIN IMMEDIATE")
        meta = dict(connection.execute("SELECT key, value FROM meta"))
        _check_schema(path, meta)
        num_partitions = int(meta["num_partitions"])
        seed = int(meta["seed"])
        new_epoch = int(meta["store_epoch"]) + 1
        next_seq = int(meta["next_seq"])
        wanted = removes + [doc.doc_id for doc in adds]
        stored: dict[str, tuple[int, bytes]] = {}
        for at in range(0, len(wanted), _IN_CHUNK):
            chunk = wanted[at : at + _IN_CHUNK]
            for seq, doc_id, forward in connection.execute(
                "SELECT seq, doc_id, forward FROM documents"
                f" WHERE doc_id IN ({', '.join('?' * len(chunk))})",
                chunk,
            ):
                stored[doc_id] = (seq, forward)
        removed: set[str] = set()
        for doc_id in removes:
            if doc_id in removed:
                raise StoreError(f"duplicate removal in batch: {doc_id!r}")
            if doc_id not in stored:
                raise StoreError(f"cannot remove unknown doc_id: {doc_id!r}")
            removed.add(doc_id)
        added: set[str] = set()
        for doc in adds:
            if doc.doc_id in added:
                raise StoreError(f"duplicate doc_id in batch: {doc.doc_id!r}")
            if doc.doc_id in stored and doc.doc_id not in removed:
                raise StoreError(f"doc_id already stored: {doc.doc_id!r}")
            added.add(doc.doc_id)

        extractor = SnippetExtractor(
            window_terms=int(meta["window_terms"]), analyzer=analyzer
        )
        gone = [
            (doc_id, stored[doc_id][0], ForwardRow.decode(stored[doc_id][1]))
            for doc_id in removes
        ]
        new = [
            (doc, next_seq + offset, extractor.analyse_document(doc))
            for offset, doc in enumerate(adds)
        ]
        # Per touched partition (its members' lengths) and per (partition,
        # term) (its postings' tfs): the seqs leaving, the pairs arriving.
        members: dict[int, tuple[set[int], list]] = {}
        postings: dict[tuple[int, str], tuple[set[int], list]] = {}
        for doc_id, seq, row, arrives in [(*g, False) for g in gone] + [
            (doc.doc_id, seq, row, True) for doc, seq, row in new
        ]:
            shard = stable_shard(doc_id, num_partitions, seed)
            edits = [(members, shard, len(row.terms))] + [
                (postings, (shard, term), tf)
                for term, tf in Counter(row.terms).items()
            ]
            for table, key, value in edits:
                leaving, arriving = table.setdefault(key, (set(), []))
                if arrives:
                    arriving.append((seq, value))
                else:
                    leaving.add(seq)

        connection.executemany(
            "DELETE FROM documents WHERE seq = ?", [(seq,) for _, seq, _ in gone]
        )
        connection.executemany(
            _INSERT_DOCUMENT,
            [
                (
                    seq,
                    doc.doc_id,
                    doc.title,
                    doc.text,
                    json.dumps(doc.metadata, ensure_ascii=False),
                    row.encode(),
                )
                for doc, seq, row in new
            ],
        )
        terms_delta: Counter[int] = Counter()
        postings_delta: Counter[int] = Counter()
        for (shard, term), edit in postings.items():
            df, old_seqs, old_tfs = connection.execute(
                "SELECT df, seqs, tfs FROM postings WHERE partition = ? AND term = ?",
                (shard, term),
            ).fetchone() or (0, b"", b"")
            seqs, tfs = _edited(old_seqs, old_tfs, *edit)
            postings_delta[shard] += len(seqs) - df
            terms_delta[shard] += bool(seqs) - bool(df)
            if seqs:
                connection.execute(
                    _WRITE_POSTINGS, _postings_row(shard, term, seqs, tfs)
                )
            else:
                connection.execute(
                    "DELETE FROM postings WHERE partition = ? AND term = ?",
                    (shard, term),
                )
        for shard, edit in members.items():
            old_seqs, old_lengths, num_terms, num_postings = connection.execute(
                "SELECT seqs, lengths, num_terms, num_postings FROM partitions"
                " WHERE partition = ?",
                (shard,),
            ).fetchone()
            seqs, lengths = _edited(old_seqs, old_lengths, *edit)
            connection.execute(
                "UPDATE partitions SET num_documents = ?, num_terms = ?,"
                " num_postings = ?, total_tokens = ?, seqs = ?, lengths = ?,"
                " epoch = ? WHERE partition = ?",
                (
                    len(seqs),
                    num_terms + terms_delta[shard],
                    num_postings + postings_delta[shard],
                    sum(lengths),
                    _pack_ints(seqs),
                    _pack_ints(lengths),
                    new_epoch,
                    shard,
                ),
            )

        connection.execute("DELETE FROM warm_artifacts")
        tokens_delta = sum(len(r.terms) for _, _, r in new) - sum(
            len(r.terms) for _, _, r in gone
        )

        terms_of: dict[int, list[str]] = {}
        for shard, term in postings:
            terms_of.setdefault(shard, []).append(term)
        connection.execute(
            "INSERT INTO epoch_log (epoch, added, removed, postings)"
            " VALUES (?, ?, ?, ?)",
            (
                new_epoch,
                json.dumps([[doc.doc_id, seq] for doc, seq, _ in new]),
                json.dumps([[doc_id, seq] for doc_id, seq, _ in gone]),
                json.dumps(sorted(terms_of.items()), ensure_ascii=False),
            ),
        )
        num_documents = int(meta["num_documents"]) + len(adds) - len(removes)
        connection.executemany(
            "UPDATE meta SET value = ? WHERE key = ?",
            (
                (str(num_documents), "num_documents"),
                (str(int(meta["total_tokens"]) + tokens_delta), "total_tokens"),
                (str(new_epoch), "store_epoch"),
                (str(next_seq + len(adds)), "next_seq"),
            ),
        )
        connection.commit()
    except BaseException:
        connection.rollback()
        raise
    finally:
        connection.close()
    return new_epoch


class IndexStore:
    """Read-only attachment to a store written by :func:`write_store`.

    One SQLite connection (``mode=ro`` URI) guarded by a lock — safe to
    share across the threads of a thread-backend cluster — and re-opened
    lazily if the owning process changes, so an engine inherited across
    ``fork()`` never touches the parent's connection.  Attaching
    validates the schema version and fails fast with the file name and
    both versions in the error; passing *expected_epoch* additionally
    fails fast (:class:`StaleEpochError`) when the store's published
    epoch is older — newer is fine, a reader always serves the latest.
    """

    def __init__(
        self, path: str | Path, *, expected_epoch: int | None = None
    ) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._connection: sqlite3.Connection | None = None
        self._owner_pid: int | None = None
        self._meta: dict[str, str] = {}
        self._connect()
        self._validate()
        if expected_epoch is not None and self.store_epoch < expected_epoch:
            found = self.store_epoch
            self.close()
            raise StaleEpochError(self.path, found, expected_epoch)

    # -- connection management --------------------------------------------

    def _connect(self) -> None:
        if not self.path.is_file():
            raise StoreError(f"{self.path}: store file does not exist")
        uri = f"file:{self.path}?mode=ro"
        try:
            connection = sqlite3.connect(
                uri, uri=True, check_same_thread=False
            )
            connection.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        except sqlite3.Error as exc:
            raise StoreError(
                f"{self.path}: cannot attach store ({exc})"
            ) from exc
        self._connection = connection
        self._owner_pid = os.getpid()

    def _conn(self) -> sqlite3.Connection:
        # Re-attach after fork: sqlite connections must not be shared
        # across processes, so each process opens its own on first use.
        if self._connection is None or self._owner_pid != os.getpid():
            self._connect()
        return self._connection

    def _validate(self) -> None:
        try:
            rows = self._fetchall("SELECT key, value FROM meta")
        except sqlite3.Error as exc:
            self.close()
            raise StoreError(
                f"{self.path}: not a repro index store ({exc})"
            ) from exc
        self._meta = dict(rows)
        try:
            _check_schema(self.path, self._meta)
        except StoreError:
            self.close()
            raise

    def close(self) -> None:
        with self._lock:
            if self._connection is not None and self._owner_pid == os.getpid():
                self._connection.close()
            self._connection = None
            self._owner_pid = None

    def _fetchone(self, sql: str, params=()) -> tuple | None:
        with self._lock:
            return self._conn().execute(sql, params).fetchone()

    def _fetchall(self, sql: str, params=()) -> list[tuple]:
        with self._lock:
            return self._conn().execute(sql, params).fetchall()

    # -- collection-global metadata ----------------------------------------

    @property
    def num_partitions(self) -> int:
        return int(self._meta["num_partitions"])

    @property
    def seed(self) -> int:
        return int(self._meta["seed"])

    @property
    def num_documents(self) -> int:
        return int(self._meta["num_documents"])

    @property
    def total_tokens(self) -> int:
        return int(self._meta["total_tokens"])

    @property
    def store_epoch(self) -> int:
        """The last epoch published into this store (0 for a fresh build)."""
        return int(self._meta.get("store_epoch", "0"))

    @property
    def next_seq(self) -> int:
        """The sequence number the next added document will get."""
        return int(self._meta["next_seq"])

    @property
    def window_terms(self) -> int:
        """The extractor window size the stored forward rows were split
        with; an engine attaching with another would serve different
        surrogates than the rows describe."""
        return int(self._meta["window_terms"])

    def reload(self) -> None:
        """Re-read the ``meta`` table — how a live engine observes an
        epoch another process appended after this attachment opened."""
        rows = self._fetchall("SELECT key, value FROM meta")
        with self._lock:
            self._meta = dict(rows)

    def partition_epoch(self, partition: int) -> int:
        """The epoch that last rewrote *partition*'s rows."""
        row = self._fetchone(
            "SELECT epoch FROM partitions WHERE partition = ?", (partition,)
        )
        if row is None:
            raise StoreError(f"{self.path}: no partition {partition}")
        return int(row[0])

    def partition_table(self) -> list[tuple]:
        """Per partition, in partition order: ``(epoch, num_documents,
        num_terms, num_postings, total_tokens)`` — all an attach or a
        refresh reads of them, in one statement."""
        return self._fetchall(
            "SELECT epoch, num_documents, num_terms, num_postings,"
            " total_tokens FROM partitions ORDER BY partition"
        )

    def lengths(self, partition: int) -> dict[int, int]:
        """``seq -> document length`` of *partition*'s members."""
        row = self._fetchone(
            "SELECT seqs, lengths FROM partitions WHERE partition = ?",
            (partition,),
        )
        if row is None:
            raise StoreError(f"{self.path}: no partition {partition}")
        return dict(zip(_unpack_ints(row[0]), _unpack_ints(row[1])))

    def changes(
        self, after: int, upto: int
    ) -> tuple[tuple[str, ...], tuple[str, ...], set[tuple[int, str]]]:
        """What the epochs in (*after*, *upto*] changed, merged from
        their ``epoch_log`` rows in epoch order: ``(added doc_ids,
        removed doc_ids, (partition, term) keys of every postings row
        rewritten or deleted)`` — a re-added doc_id is in both, and the
        keys are each changed document's terms in its partition.  A
        missing row is a :class:`StoreError`: without it a reader cannot
        tell what to drop."""
        rows = self._fetchall(
            "SELECT added, removed, postings FROM epoch_log"
            " WHERE epoch > ? AND epoch <= ? ORDER BY epoch",
            (after, upto),
        )
        if len(rows) != upto - after:
            raise StoreError(
                f"{self.path}: epoch_log holds {len(rows)} of the "
                f"{upto - after} rows for epochs {after + 1}..{upto}"
            )
        added, removed, pages = [], [], set()
        for added_json, removed_json, postings_json in rows:
            added.extend(doc_id for doc_id, _ in json.loads(added_json))
            removed.extend(doc_id for doc_id, _ in json.loads(removed_json))
            pages.update(
                (partition, term)
                for partition, terms in json.loads(postings_json)
                for term in terms
            )
        return tuple(added), tuple(removed), pages

    # -- postings -----------------------------------------------------------

    def postings(self, partition: int, term: str) -> PostingList | None:
        row = self._fetchone(
            "SELECT cf, seqs, tfs FROM postings"
            " WHERE partition = ? AND term = ?",
            (partition, term),
        )
        if row is None:
            return None
        postings = PostingList()
        postings.ordinals = _unpack_ints(row[1])
        postings.tfs = _unpack_ints(row[2])
        postings.collection_frequency = row[0]
        return postings

    def term_stats(self, partition: int, term: str) -> tuple[int, int] | None:
        """``(df, cf)`` without paging the posting blobs in."""
        row = self._fetchone(
            "SELECT df, cf FROM postings WHERE partition = ? AND term = ?",
            (partition, term),
        )
        return (row[0], row[1]) if row is not None else None

    def vocabulary(self, partition: int) -> list[str]:
        return [
            row[0]
            for row in self._fetchall(
                "SELECT term FROM postings WHERE partition = ? ORDER BY term",
                (partition,),
            )
        ]

    # -- documents ----------------------------------------------------------

    def document_row(self, doc_id: str) -> tuple | None:
        return self._fetchone(
            "SELECT seq, title, text, metadata, forward FROM documents"
            " WHERE doc_id = ?",
            (doc_id,),
        )

    def doc_id_at(self, seq: int) -> str | None:
        row = self._fetchone("SELECT doc_id FROM documents WHERE seq = ?", (seq,))
        return row[0] if row is not None else None

    def seq_of(self, doc_id: str) -> int | None:
        row = self._fetchone(
            "SELECT seq FROM documents WHERE doc_id = ?", (doc_id,)
        )
        return row[0] if row is not None else None

    def doc_ids(self) -> list[str]:
        return [
            row[0]
            for row in self._fetchall("SELECT doc_id FROM documents ORDER BY seq")
        ]

    # -- warm artifacts ------------------------------------------------------

    def warm_payloads(self, shard: int) -> dict[str, str]:
        return dict(
            self._fetchall(
                "SELECT spec_query, payload FROM warm_artifacts"
                " WHERE shard = ? ORDER BY spec_query",
                (shard,),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexStore({str(self.path)!r})"


@dataclass(frozen=True)
class PageCacheStats:
    """Counters of the postings page cache, ``CacheStats``-style."""

    capacity_bytes: int
    resident_bytes: int
    pages: int
    hits: int
    misses: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PostingPageCache:
    """A byte-bounded, thread-safe LRU over paged-in posting lists.

    Keys are ``(partition, term)``; one cache is shared by all the
    partitions of a store-backed engine so the bound covers the engine's
    whole postings footprint.  A single page larger than the capacity is
    admitted alone (evicting everything else) — refusing it would make
    its term unservable from cache and thrash the store instead.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_PAGE_CACHE_BYTES) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self._lock = threading.Lock()
        self._pages: dict[tuple[int, str], tuple[PostingList, int]] = {}
        self._resident = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: tuple[int, str]) -> PostingList | None:
        with self._lock:
            entry = self._pages.get(key)
            if entry is None:
                self._misses += 1
                return None
            # Re-insert to refresh LRU order (dicts iterate oldest-first).
            del self._pages[key]
            self._pages[key] = entry
            self._hits += 1
            return entry[0]

    def put(self, key: tuple[int, str], postings: PostingList, nbytes: int) -> None:
        with self._lock:
            old = self._pages.pop(key, None)
            if old is not None:
                self._resident -= old[1]
            self._pages[key] = (postings, nbytes)
            self._resident += nbytes
            while self._resident > self.capacity_bytes and len(self._pages) > 1:
                oldest = next(iter(self._pages))
                if oldest == key:
                    break
                _, freed = self._pages.pop(oldest)
                self._resident -= freed
                self._evictions += 1

    def evict_partitions(self, partitions: Collection[int]) -> int:
        """Drop every page of *partitions*; returns the bytes freed."""
        with self._lock:
            doomed = [key for key in self._pages if key[0] in partitions]
            freed = 0
            for key in doomed:
                _, nbytes = self._pages.pop(key)
                freed += nbytes
            self._resident -= freed
            self._evictions += len(doomed)
            return freed

    def evict_pages(self, keys: Collection[tuple[int, str]]) -> int:
        """Drop the pages of *keys* that are resident (absent-term
        entries included); returns the bytes freed."""
        with self._lock:
            freed = 0
            for key in keys:
                entry = self._pages.pop(key, None)
                if entry is not None:
                    freed += entry[1]
                    self._evictions += 1
            self._resident -= freed
            return freed

    def partition_bytes(self, partition: int) -> int:
        with self._lock:
            return sum(
                nbytes
                for key, (_, nbytes) in self._pages.items()
                if key[0] == partition
            )

    def clear(self) -> None:
        with self._lock:
            self._pages.clear()
            self._resident = 0

    def stats(self) -> PageCacheStats:
        with self._lock:
            return PageCacheStats(
                capacity_bytes=self.capacity_bytes,
                resident_bytes=self._resident,
                pages=len(self._pages),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
            )


class StoreBackedInvertedIndex:
    """One stored partition behind the ``InvertedIndex`` read surface.

    Postings page in on demand through the shared
    :class:`PostingPageCache`; document lengths load lazily and can be
    dropped again by :meth:`evict` (the
    :class:`~repro.retrieval.engine.MemoryBudget` hook) — everything
    pages back in transparently, so eviction never changes a result.
    """

    def __init__(
        self,
        store: IndexStore,
        partition: int,
        page_cache: PostingPageCache,
        stats: Sequence[int],
    ) -> None:
        self._store = store
        self.partition = partition
        self._page_cache = page_cache
        # (documents, terms, postings, tokens) of IndexStore.partition_table
        (
            self._num_documents,
            self._num_terms,
            self._num_postings,
            self._total_tokens,
        ) = stats
        self._lengths: dict[int, int] | None = None

    # -- statistics (exact ints, straight from the partitions table) -------

    @property
    def num_documents(self) -> int:
        return self._num_documents

    @property
    def num_terms(self) -> int:
        return self._num_terms

    @property
    def num_postings(self) -> int:
        return self._num_postings

    @property
    def total_tokens(self) -> int:
        return self._total_tokens

    @property
    def average_document_length(self) -> float:
        if not self._num_documents:
            return 0.0
        return self._total_tokens / self._num_documents

    # -- documents ----------------------------------------------------------

    def _doc_lengths(self) -> dict[int, int]:
        lengths = self._lengths
        if lengths is None:
            # Benign race under threads: both loaders read identical data.
            lengths = self._store.lengths(self.partition)
            self._lengths = lengths
        return lengths

    def _lengths_bytes(self) -> int:
        if self._lengths is None:
            return 0
        return sys.getsizeof(self._lengths) + 2 * len(self._lengths) * _INT_BYTES

    def document_length(self, seq: int) -> int:
        return self._doc_lengths()[seq]

    # -- postings -----------------------------------------------------------

    def postings(self, term: str) -> PostingList | None:
        key = (self.partition, term)
        page = self._page_cache.get(key)
        if page is None:
            # A term the partition lacks is remembered too, as the empty
            # page: one probe per partition epoch, evicted with the rest.
            page = self._store.postings(self.partition, term) or _ABSENT
            self._page_cache.put(key, page, _page_bytes(page))
        return page or None

    def document_frequency(self, term: str) -> int:
        stats = self._store.term_stats(self.partition, term)
        return stats[0] if stats else 0

    def collection_frequency(self, term: str) -> int:
        stats = self._store.term_stats(self.partition, term)
        return stats[1] if stats else 0

    def __contains__(self, term: str) -> bool:
        return self._store.term_stats(self.partition, term) is not None

    def vocabulary(self) -> list[str]:
        return self._store.vocabulary(self.partition)

    # -- residency accounting and eviction ----------------------------------

    def resident_bytes(self) -> int:
        """Estimated bytes this partition holds in RAM right now."""
        return self._page_cache.partition_bytes(self.partition) + self._lengths_bytes()

    def evict(self) -> int:
        """Drop this partition's resident state; returns bytes freed.

        Everything pages back in from the store on the next touch, so
        eviction trades next-query latency for memory — never results.
        """
        freed = self._page_cache.evict_partitions((self.partition,))
        freed += self._lengths_bytes()
        self._lengths = None
        return freed

    def memory_estimate(self) -> dict[str, int]:
        """Resident estimate in the ``InvertedIndex.memory_estimate``
        shape.  Vocabulary stays on disk (never paged in wholesale), so
        its resident price is zero."""
        postings_bytes = self._page_cache.partition_bytes(self.partition)
        documents_bytes = self._lengths_bytes()
        return {
            "postings_bytes": postings_bytes,
            "vocabulary_bytes": 0,
            "documents_bytes": documents_bytes,
            "total_bytes": postings_bytes + documents_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StoreBackedInvertedIndex(partition={self.partition}, "
            f"docs={self._num_documents}, terms={self._num_terms})"
        )


class StoreBackedCollection:
    """The ``DocumentCollection`` read surface over stored documents.

    Nothing loads at attach time: document rows fetch lazily (behind a
    small LRU) when snippets or result mapping need them — the bulk of
    why attach is O(1) in collection size.  A row's forward-index blob
    is decoded with it and shares its LRU entry.  Entries are keyed by
    doc_id, so a refresh keeps every one an epoch did not change:
    *carried* is ``(doc_id, entry)`` pairs copied from the previous
    epoch's collection.
    """

    def __init__(
        self,
        store: IndexStore,
        cache_size: int = DEFAULT_DOCUMENT_CACHE_SIZE,
        carried: Iterable[tuple] = (),
    ) -> None:
        self._store = store
        self._num_documents = store.num_documents
        # doc_id -> (ForwardRow, Document, seq)
        self._entries = LRUCache(cache_size, carried)

    def cached_entries(self, changed: Collection[str]) -> list[tuple]:
        """The cached ``(doc_id, entry)`` pairs of documents not in
        *changed*, least recently used first."""
        return [pair for pair in self._entries.snapshot() if pair[0] not in changed]

    def forward_entry(self, doc_id: str) -> tuple[ForwardRow, Document, int]:
        """``(forward row, document, seq)`` of *doc_id* — one cache
        lookup; the seq is the stored version the row and document are."""
        entry = self._entries.get(doc_id)
        if entry is None:
            row = self._store.document_row(doc_id)
            if row is None:
                raise KeyError(doc_id)
            document = Document(
                doc_id=doc_id,
                text=row[2],
                title=row[1],
                metadata=json.loads(row[3]),
            )
            entry = (ForwardRow.decode(row[4]), document, row[0])
            self._entries.put(doc_id, entry)
        return entry

    def __getitem__(self, doc_id: str) -> Document:
        return self.forward_entry(doc_id)[1]

    def get(self, doc_id: str, default: Document | None = None):
        try:
            return self[doc_id]
        except KeyError:
            return default

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._entries or self._store.seq_of(doc_id) is not None

    def __len__(self) -> int:
        return self._num_documents

    def __iter__(self) -> Iterator[Document]:
        return map(self.__getitem__, self.doc_ids)

    @property
    def doc_ids(self) -> list[str]:
        """Every doc_id in sequence order — a full store scan; meant for
        validation and tests, not the serving path."""
        return self._store.doc_ids()


class StoredDocIds:
    """``seq -> doc_id`` of a store, through an LRU.

    One instance serves every snapshot of an engine: a seq is never
    reused, so a cached entry stays true across ``refresh()`` and a
    repeated query after an unrelated epoch resolves without a probe.
    """

    def __init__(self, store: IndexStore, cache_size: int) -> None:
        self._store = store
        self._cache = LRUCache(cache_size)

    def __getitem__(self, seq: int) -> str:
        doc_id = self._cache.get(seq)
        if doc_id is None:
            doc_id = self._store.doc_id_at(seq)
            if doc_id is None:
                raise KeyError(seq)
            self._cache.put(seq, doc_id)
        return doc_id


class StoreBackedSearchEngine(SearchEngine):
    """An engine attached to an :class:`IndexStore`.

    Construction is O(attach): open the store read-only and read the
    per-partition statistics rows — no documents, no postings, no ids.
    The identity-critical :meth:`~repro.retrieval.engine.SearchEngine.search`
    is inherited unchanged; because every statistic round-trips as exact
    integers and ``avg_dl`` is the same ``total_tokens / num_documents``
    division, scores are byte-identical to the in-memory build.

    Pickles as its store path plus configuration and re-attaches on
    unpickle, so spawn-method process workers and respawned ones
    hydrate in O(attach) instead of shipping (or rebuilding) the index.
    The recipe remembers the epoch the donor was serving, so a respawn
    pointed at a rolled-back store fails fast (:class:`StaleEpochError`)
    instead of silently serving old data — a *newer* store is fine, the
    respawn simply rehydrates to the latest published epoch.

    This is the one engine whose collection changes while it serves: a
    writer appends an epoch to the store file (:func:`append_epoch`) and
    every attached engine re-snapshots from it on :meth:`refresh`,
    re-paging only the postings rows and documents the append actually
    changed.  A snapshot keeps its epoch's statistics, memoised impacts
    and cached pages and rows; a read that misses those reads the
    store's current rows, so a query pinned to an epoch a later append
    superseded is isolated only as far as its caches reach.
    """

    def __init__(
        self,
        store_path: str | Path,
        *,
        model: WeightingModel | None = None,
        analyzer: Analyzer | None = None,
        snippet_extractor=None,
        page_cache_bytes: int = DEFAULT_PAGE_CACHE_BYTES,
        document_cache_size: int = DEFAULT_DOCUMENT_CACHE_SIZE,
        memory_budget: MemoryBudget | int | None = None,
        expected_epoch: int | None = None,
    ) -> None:
        # Attaches instead of building: the in-memory partitions that
        # SearchEngine.__init__ indexes are the store's to page in.
        self.store_path = str(store_path)
        self._page_cache_bytes = page_cache_bytes
        self._document_cache_size = document_cache_size
        store = IndexStore(self.store_path, expected_epoch=expected_epoch)
        self.store = store
        self._configure(
            store.num_partitions, store.seed, model, analyzer, snippet_extractor
        )
        if store.window_terms != self.snippets.window_terms:
            store.close()
            raise StoreError(
                f"{store.path}: forward rows were split with window_terms="
                f"{store.window_terms}, this engine's extractor uses "
                f"{self.snippets.window_terms}; attach with the store's "
                "window size or rebuild the store"
            )
        self.page_cache = PostingPageCache(page_cache_bytes)
        self._doc_ids = StoredDocIds(store, document_cache_size)
        self._snapshot = self._attach_snapshot(previous=None)
        if memory_budget is not None:
            self.set_memory_budget(memory_budget)

    def _attach_snapshot(
        self, previous: EngineSnapshot | None
    ) -> EngineSnapshot:
        """Assemble a snapshot of the store's current epoch.

        With *previous*, the ``epoch_log`` rows of the epochs in between
        say what changed, and exactly that is dropped: the posting pages
        (absent-term entries included) of the rewritten ``(partition,
        term)`` rows are evicted, and the new collection view starts with
        a *copy* of the previous one's cached rows minus the added and
        removed doc_ids (a copy: a query still pinned to *previous*
        cannot write into this epoch's cache).  Partitions whose stored
        ``epoch`` tag has not advanced keep their wrapper and its
        resident lengths.  The seq → doc_id lookup is shared by every
        snapshot: seqs never move.
        """
        store = self.store
        table = store.partition_table()
        if len(table) != self.num_partitions:
            raise StoreError(f"{store.path}: partition rows are missing")
        epoch = store.store_epoch
        num_documents = store.num_documents
        total_tokens = store.total_tokens
        shards = range(self.num_partitions)
        kept, carried = set(), ()
        if previous is not None:
            added, removed, pages = store.changes(previous.epoch, epoch)
            self.page_cache.evict_pages(pages)
            kept = {p for p in shards if table[p][0] <= previous.epoch}
            carried = previous.collection.cached_entries({*added, *removed})
        partitions = [
            previous.partitions[p]
            if p in kept
            else StoreBackedInvertedIndex(store, p, self.page_cache, table[p][1:])
            for p in shards
        ]
        return EngineSnapshot(
            epoch=epoch,
            collection=StoreBackedCollection(
                store, self._document_cache_size, carried
            ),
            partitions=tuple(partitions),
            doc_ids=self._doc_ids,
            num_documents=num_documents,
            total_tokens=total_tokens,
            average_document_length=(
                total_tokens / num_documents if num_documents else 0.0
            ),
        )

    def _forward_lookup(self):
        return self._pinned_snapshot().collection.forward_entry

    def refresh(self) -> int:
        """Re-attach to the latest epoch published into the store.

        However many epochs behind the engine is, the ``epoch_log`` rows
        in between say what changed, and only that is dropped (see
        :meth:`_attach_snapshot`).  Idempotent under the epoch lock:
        engines that share this one (in-process shards) may all call
        it, and only the first advances.
        Returns the (possibly unchanged) published epoch.  Raises
        :class:`StaleEpochError` if the store file moved *backwards* —
        a swapped-in older file — since serving an epoch and then
        un-serving it would silently break the identity guarantee.
        """
        with self._epoch_lock:
            self.store.reload()
            current = self._snapshot
            latest = self.store.store_epoch
            if latest < current.epoch:
                raise StaleEpochError(
                    self.store.path, latest, current.epoch
                )
            if latest > current.epoch:
                self._snapshot = self._attach_snapshot(previous=current)
            return latest

    # -- pickling: ship the attach recipe, not the data ---------------------

    def __getstate__(self) -> dict:
        return {
            "store_path": self.store_path,
            "model": self.model,
            "analyzer": self.analyzer,
            "snippet_extractor": self.snippets,
            "page_cache_bytes": self._page_cache_bytes,
            "document_cache_size": self._document_cache_size,
            "memory_budget": (
                self.memory_budget.limit_bytes if self.memory_budget else None
            ),
            "expected_epoch": self.epoch,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["store_path"],
            model=state["model"],
            analyzer=state["analyzer"],
            snippet_extractor=state["snippet_extractor"],
            page_cache_bytes=state["page_cache_bytes"],
            document_cache_size=state["document_cache_size"],
            memory_budget=state["memory_budget"],
            expected_epoch=state.get("expected_epoch"),
        )

    # -- reporting ----------------------------------------------------------

    def page_cache_info(self) -> PageCacheStats:
        """Live counters of the shared postings page cache."""
        return self.page_cache.stats()

    def close(self) -> None:
        self.page_cache.clear()
        self.store.close()


def read_warm_artifacts(
    path: str | Path, shard: int
) -> dict[str, tuple[ResultList, dict[str, TermVector]]]:
    """*shard*'s stored warm artifacts, decoded — ``{spec_query:
    (ResultList, {doc_id: TermVector})}``, ready for
    :meth:`~repro.core.framework.DiversificationFramework.install_warm_state`.
    Opens and closes its own attachment, so callers need no live store.
    A malformed row raises :class:`ValueError` naming the path, the shard
    and the row's spec query."""
    store = IndexStore(path)
    try:
        payloads = store.warm_payloads(shard)
    finally:
        store.close()
    artifacts = {}
    for spec_query, payload in payloads.items():
        decoded_query, value = decode_warm_artifact(
            payload, f"{path}[shard={shard}] {spec_query!r}"
        )
        artifacts[decoded_query] = value
    return artifacts
