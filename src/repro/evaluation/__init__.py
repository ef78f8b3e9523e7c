"""Evaluation substrate: diversity metrics, significance, TREC runner.

Implements the paper's Section 5 methodology: α-NDCG and IA-P at the
official cutoffs, the wider intent-aware metric family, the Wilcoxon
signed-rank test, and a runner that turns per-topic rankings into
Table 3-style rows.
"""
