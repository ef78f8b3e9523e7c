"""Corpus substrate: synthetic ClueWeb-B substitute and TREC testbed.

The substitution (docs/ARCHITECTURE.md, layer table): the licensed
ClueWeb09-B collection is replaced by a generated corpus of ambiguous
topics with Zipf-popular aspects, and the TREC diversity-task data model
(topics, subtopics, subtopic-level qrels, run files) is implemented in
full, with parsers accepting the real TREC qrels and run files when
available.
"""
