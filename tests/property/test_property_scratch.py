"""Random churn, maintained incrementally, equals a from-scratch run.

Every node holds one dict store driven by one join path, so there is no
alternative execution strategy left to diff that path against; the oracle
is the paper's own claim instead.  After *every* step of the seeded churn
scripts of :mod:`churn_harness` (removals, re-adds, brand-new links and
in-batch flaps), the incrementally maintained runtime must hold exactly the
protocol state and provenance tables of a fresh runtime seeded on the
topology as it stands after that step.  Like its siblings the suite honours
``NETTRAILS_CHURN_SEED``.
"""

from __future__ import annotations

import pytest

from churn_harness import SEEDS, TOPOLOGIES, apply_op, build_runtime, generate_churn_script
from repro.protocols import mincost

RELATIONS = ["link", "path", "minCost"]


class TestChurnEqualsFreshRun:
    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
    def test_every_step_matches_a_fresh_run(
        self, topology_name, seed, global_state, provenance_fingerprint
    ):
        net = TOPOLOGIES[topology_name]()
        script = generate_churn_script(seed, net)
        context = f"topology={topology_name} seed={seed} (NETTRAILS_CHURN_SEED={seed})"

        incremental = build_runtime(mincost.program(), net)
        for step, op in enumerate(script):
            apply_op(incremental, op)
            fresh = build_runtime(mincost.program(), incremental.topology)
            where = f"{context} step={step} op={op}"
            assert global_state(incremental, RELATIONS) == global_state(fresh, RELATIONS), where
            assert provenance_fingerprint(incremental) == provenance_fingerprint(fresh), where
            fresh.close()
        incremental.close()
