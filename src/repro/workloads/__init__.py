"""Seeded churn: the network misbehaving, as reproducible op batches.

The paper's demonstration is provenance staying correct and queryable *while
the network misbehaves*.  :mod:`repro.workloads.churn` holds the op
vocabulary (:class:`ChurnOp`, :class:`ChurnBatch`, :func:`apply_churn_op`,
:func:`apply_batch`), five seeded generators (link flaps, node
fail/recover, prefix announce/withdraw, hot-hub skew, random link churn)
and :class:`ZipfSampler`, the rank skew of hot hubs and hot queries.
"""

from repro.workloads.churn import ChurnBatch, ChurnOp, ZipfSampler, apply_batch, apply_churn_op

__all__ = ["ChurnBatch", "ChurnOp", "ZipfSampler", "apply_batch", "apply_churn_op"]
