"""The engine under its old scale-out name.

One reader is left: ``bench/ingest_mixed.py`` imports
``PartitionedSearchEngine`` from here.  Everything else imports
:class:`~repro.retrieval.engine.SearchEngine` (and the placement and
build-report pieces) from :mod:`repro.retrieval.engine`; this module
goes when that benchmark does too.
"""

from __future__ import annotations

from repro.retrieval.engine import SearchEngine

#: Read by ``bench/ingest_mixed.py`` only; the same class, not a subclass.
PartitionedSearchEngine = SearchEngine
