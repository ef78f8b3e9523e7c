"""Using the retrieval substrate standalone.

The library's Terrier-equivalent engine is useful on its own: this example
indexes a handful of hand-written documents, compares DPH and BM25
rankings, extracts query-biased snippets, and computes the paper's
snippet-cosine distance δ (Equation 2) between results.

Run::

    python examples/build_search_engine.py
"""

from __future__ import annotations

from repro import (
    BM25,
    Document,
    DocumentCollection,
    SearchEngine,
    TermVector,
    cosine,
)

DOCUMENTS = [
    Document(
        "leopard-cat",
        "The leopard is a large cat native to Africa and Asia. Leopards "
        "hunt at night and are powerful climbers. The leopard's spotted "
        "coat provides camouflage.",
        title="Leopard (animal)",
    ),
    Document(
        "leopard-tank",
        "The Leopard 2 is a main battle tank developed in Germany. The "
        "tank entered service in 1979 and remains in use by many armies.",
        title="Leopard 2 tank",
    ),
    Document(
        "leopard-osx",
        "Mac OS X Leopard is the sixth major release of the Mac operating "
        "system from Apple. Leopard introduced Time Machine and Spaces.",
        title="Mac OS X Leopard",
    ),
    Document(
        "snow-leopard",
        "The snow leopard lives in the mountain ranges of Central Asia. "
        "Snow leopards are adapted to cold, high-altitude habitats.",
        title="Snow leopard",
    ),
    Document(
        "gardening",
        "Planting a garden requires soil, water and patience. Tomatoes "
        "grow best in full sunlight with regular watering.",
        title="Gardening basics",
    ),
]


def main() -> None:
    collection = DocumentCollection(DOCUMENTS)

    dph_engine = SearchEngine(collection)
    bm25_engine = SearchEngine(collection, model=BM25())

    query = "leopard operating system"
    print(f"query: {query!r}\n")
    for engine, label in ((dph_engine, "DPH"), (bm25_engine, "BM25")):
        results = engine.search(query, k=4)
        print(f"{label} ranking:")
        for r in results:
            print(f"  {r.rank}. {r.doc_id:14s} score={r.score:.3f}")
        print()

    print("query-biased snippets (the paper's document surrogates):")
    results = dph_engine.search("leopard", k=4)
    for r in results:
        snippet = dph_engine.snippet("leopard", r.doc_id)
        print(f"  [{r.doc_id}] {snippet.text[:90]}...")

    print("\nsnippet-space distances δ = 1 − cosine (Equation 2):")
    vectors = dph_engine.snippet_vectors("leopard", results)
    doc_ids = results.doc_ids
    for i, a in enumerate(doc_ids):
        for b in doc_ids[i + 1 :]:
            d = 1.0 - cosine(vectors[a], vectors[b])
            print(f"  δ({a}, {b}) = {d:.3f}")

    print("\nindex statistics:")
    (index,) = dph_engine.partitions  # a default engine has one partition
    print(f"  documents            : {index.num_documents}")
    print(f"  distinct terms       : {index.num_terms}")
    print(f"  avg document length  : {index.average_document_length:.1f} terms")
    print(f"  df('leopard' stem)   : {index.document_frequency('leopard')}")

    print("\nad-hoc similarity between raw texts:")
    v1 = TermVector.from_text("the leopard hunts at night")
    v2 = TermVector.from_text("leopards hunting after dark")
    print(f"  cosine = {cosine(v1, v2):.3f}")


if __name__ == "__main__":
    main()
