"""Core diversification algorithms and framework — the paper's contribution.

* Algorithm 1 (:mod:`repro.core.ambiguity`) — ambiguous-query detection.
* Definition 2 (:mod:`repro.core.utility`) — the utility measure Ũ.
* **OptSelect** (:mod:`repro.core.optselect`) — the paper's O(n log k)
  algorithm for MaxUtility Diversify(k).
* IASelect / xQuAD (:mod:`repro.core.iaselect`, :mod:`repro.core.xquad`)
  — the two state-of-the-art competitors, re-cast in the query-log
  framework exactly as Sections 3.1.1–3.1.2 describe.
* MMR (:mod:`repro.core.mmr`) — the classic related-work baseline.
* :mod:`repro.core.framework` — the end-to-end pipeline.
* :mod:`repro.core.arrays` / :mod:`repro.core.kernels` /
  :mod:`repro.core.fast` — the dense task representation and the
  kernel-backed (numpy) variants of all four diversifiers; imported
  lazily so numpy stays optional.  When numpy is present the framework
  and serving layer *default* onto the fast kernels
  (:func:`~repro.core.framework.default_diversifier`); the kernels are
  selection-identical to the references, so the default changes speed,
  never rankings.
* :mod:`repro.core.cache` — the bounded LRU shared by the framework,
  the search engine and the serving layer.
"""
