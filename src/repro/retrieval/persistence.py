"""Persistence: collections and query logs as JSON lines.

The synthetic corpus and logs are cheap to regenerate, but experiments
that must be byte-stable across machines (or that plug in real data
prepared elsewhere) want them on disk.  JSON-lines keeps files
greppable, diffable and append-friendly — one document or record per
line, UTF-8.

The TREC artefacts (topics, qrels, runs) already have their official
text formats in :mod:`repro.corpus.trec`.  The serving layer's warm
artifacts persist in the index store (:mod:`repro.retrieval.store`);
this module only prices them in memory (:func:`estimate_warm_memory`).
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path

from repro.querylog.records import QueryLog, QueryRecord
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import ResultList
from repro.retrieval.similarity import TermVector

__all__ = [
    "dump_collection",
    "load_collection",
    "dump_query_log",
    "load_query_log",
    "estimate_warm_memory",
]


def _write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write *lines* atomically: a sibling tmp file is renamed over
    *path* only after every line has been flushed, so a writer killed
    mid-dump never leaves a truncated file where readers look — they
    see either the previous complete file or the new complete one."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_lines(path: str | Path) -> Iterator[str]:
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield line


def dump_collection(collection: DocumentCollection, path: str | Path) -> None:
    """Write *collection* as JSON lines (one document per line)."""
    _write_lines(
        path,
        (
            json.dumps(
                {
                    "doc_id": doc.doc_id,
                    "title": doc.title,
                    "text": doc.text,
                    "metadata": doc.metadata,
                },
                ensure_ascii=False,
            )
            for doc in collection
        ),
    )


def load_collection(path: str | Path) -> DocumentCollection:
    """Read a collection written by :func:`dump_collection`."""
    collection = DocumentCollection()
    for line_no, line in enumerate(_read_lines(path), start=1):
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: invalid JSON") from exc
        collection.add(
            Document(
                doc_id=raw["doc_id"],
                text=raw.get("text", ""),
                title=raw.get("title", ""),
                metadata=raw.get("metadata", {}),
            )
        )
    return collection


def dump_query_log(log: QueryLog, path: str | Path) -> None:
    """Write *log* as JSON lines (one ⟨q, u, t, V, C⟩ record per line)."""
    _write_lines(
        path,
        (
            json.dumps(
                {
                    "t": record.timestamp,
                    "u": record.user_id,
                    "q": record.query,
                    "V": list(record.results),
                    "C": list(record.clicks),
                },
                ensure_ascii=False,
            )
            for record in log
        ),
    )


#: Estimated bytes of one boxed CPython float (64-bit build).
_FLOAT_BYTES = 24


def estimate_warm_memory(
    artifacts: Mapping[str, tuple[ResultList, Mapping[str, TermVector]]],
) -> dict[str, int]:
    """Estimated resident bytes of warm artifacts, plus their counts.

    *artifacts* is ``{spec_query: (ResultList, {doc_id: TermVector})}``
    as :meth:`~repro.core.framework.DiversificationFramework.export_warm_state`
    returns it, or ``(spec_query, entry)`` pairs; an entry whose
    ``ResultList`` is ``None`` (retained vectors) prices its vectors
    only.  Sums ``sys.getsizeof`` of the real strings/dicts plus flat per-element
    prices for boxed floats — the same estimation discipline as
    :meth:`~repro.retrieval.index.InvertedIndex.memory_estimate`, so the
    offline pipeline's per-partition index footprints and per-shard warm
    footprints are directly comparable.  Returns ``{"specializations",
    "results", "vectors", "result_bytes", "vector_bytes", "total_bytes"}``.
    """
    specializations = 0
    results_count = 0
    vectors_count = 0
    result_bytes = 0
    vector_bytes = 0
    for spec_query, (results, vectors) in dict(artifacts).items():
        specializations += 1
        results = results or ()  # None: a retained-vectors entry
        results_count += len(results)
        result_bytes += sys.getsizeof(spec_query)
        for result in results:
            # SearchResult object + its doc_id string + score float.
            result_bytes += 64 + sys.getsizeof(result.doc_id) + _FLOAT_BYTES
        for doc_id, vector in vectors.items():
            vectors_count += 1
            vector_bytes += sys.getsizeof(doc_id) + sys.getsizeof(
                vector.weights
            )
            for term in vector.weights:
                vector_bytes += sys.getsizeof(term) + _FLOAT_BYTES
    return {
        "specializations": specializations,
        "results": results_count,
        "vectors": vectors_count,
        "result_bytes": result_bytes,
        "vector_bytes": vector_bytes,
        "total_bytes": result_bytes + vector_bytes,
    }


def load_query_log(path: str | Path, name: str = "") -> QueryLog:
    """Read a log written by :func:`dump_query_log`."""
    records = []
    for line_no, line in enumerate(_read_lines(path), start=1):
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: invalid JSON") from exc
        records.append(
            QueryRecord(
                timestamp=float(raw["t"]),
                user_id=raw["u"],
                query=raw["q"],
                results=tuple(raw.get("V", ())),
                clicks=tuple(raw.get("C", ())),
            )
        )
    return QueryLog(records, name=name)
