"""Experiment harnesses — one module per paper table/figure.

==================  ==========================================  =============================
Paper artefact      Module                                      CLI
==================  ==========================================  =============================
Table 1             :mod:`repro.experiments.table1`             ``python -m repro.experiments.table1``
Table 2             :mod:`repro.experiments.table2`             ``python -m repro.experiments.table2 [--full] [--fast]``
Table 3             :mod:`repro.experiments.table3`             ``python -m repro.experiments.table3 [--paper-scale]``
Offline pipeline    :mod:`repro.experiments.offline`            ``python -m repro.experiments.offline``
Figure 1            :mod:`repro.experiments.figure1`            ``python -m repro.experiments.figure1``
Recall (App. C)     :mod:`repro.experiments.recall`             ``python -m repro.experiments.recall``
Feasibility (§4.1)  :mod:`repro.experiments.feasibility`        ``python -m repro.experiments.feasibility``
λ ablation          :mod:`repro.experiments.ablation_lambda`    ``python -m repro.experiments.ablation_lambda``
Constraint ablation :mod:`repro.experiments.ablation_constraint`  ``python -m repro.experiments.ablation_constraint``
==================  ==========================================  =============================

Shared workload builders live in :mod:`repro.experiments.workloads`.
"""
