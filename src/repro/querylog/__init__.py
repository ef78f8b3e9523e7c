"""Query-log substrate: records, sessions, QFG, recommender, mining.

Implements Section 3's pipeline: the ⟨q, u, t, V, C⟩ log model, time-gap
and Query-Flow-Graph sessionization (Boldi et al.), the Search-Shortcuts
query recommender (Broccolo et al.), synthetic AOL/MSN-like log
generation (the substitution for the AOL/MSN logs; docs/ARCHITECTURE.md,
layer table), and the specialization miner that feeds Algorithm 1.
"""
