"""The workloads' sizes, per ``--size``.

``full`` is what BENCHMARK.json's numbers are measured at; ``smoke`` is the
seconds-fast shape ``test_bench_smoke.py`` runs.  A cycle's contents are
counts per cost class (see workloads.py for why they are stratified), never
probabilities, so two seeds do the same amount of each kind of work.
"""

from __future__ import annotations

from typing import Dict

SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "churn-scale": {
            "dims": (10, 10, 9),  # isp_hierarchy: 1010 nodes
            "prefixes": 16,
            "cut_off_origins": 4,  # origins below a tier-2 without lateral peering
            "cutoff_uplink_pairs": 1,  # the prefix is withdrawn everywhere: ~6000 + ~2200 messages
            "reroute_uplink_pairs": 2,  # the prefix is rerouted through a peer: ~2150 messages a commit
            "plain_uplink_pairs": 14,  # no origin behind the uplink: ~25 messages a commit
            "queries_per_commit": 3,
            "cycles": 2,
            "warmup_fraction": 0.2,
            "setup_repeats": 1,
        },
        "churn-flap": {
            "dims": (5, 4, 4),  # 105 nodes
            "prefixes": 12,
            "prefix_toggles": 11,
            "stub_node_pairs": 6,
            "plain_t2_node_pairs": 3,
            "origin_t2_node_pairs": 2,
            "plain_stub_link_pairs": 42,
            "origin_stub_link_pairs": 7,
            "plain_uplink_pairs": 2,
            "mesh_link_pairs": 2,
            "queries_per_commit": 1,
            "cycles": 3,
            "warmup_fraction": 0.2,
            "setup_repeats": 2,
        },
        "query-deep": {
            "grid": (10, 10),
            "max_cost": 10,
            "min_query_cost": 5,
            "queries": 160,
            "queries_per_window": 10,
            "edge_pairs": 8,
            "min_edge_depth": 4,  # summed distance of the edge's ends from the border
            "cycles": 3,
            "warmup_fraction": 0.2,
            "setup_repeats": 1,
        },
        "serve-mixed": {
            "dims": (5, 4, 4),
            "prefixes": 12,
            "operations": 2500,  # 100 commits: a whole number of checkpoint intervals
            "operations_per_commit": 25,
            "prefix_toggles": 10,
            "zipf_s": 1.1,  # puts the root-cache hit ratio at ~0.74, mid-range
            "checkpoint_every": 25,
            "hit_ratio_range": (0.65, 0.80),
            "cycles": 3,
            "warmup_fraction": 1.0,  # a whole cycle: the query caches must be in their periodic state
            "setup_repeats": 1,
        },
    },
    "smoke": {
        "churn-scale": {
            "dims": (3, 3, 3),
            "prefixes": 4,
            "cut_off_origins": None,
            "cutoff_uplink_pairs": 0,
            "reroute_uplink_pairs": 0,
            "plain_uplink_pairs": 2,
            "queries_per_commit": 3,
            "cycles": 300,
            "warmup_fraction": 0.2,
            "setup_repeats": 1,
        },
        "churn-flap": {
            "dims": (3, 2, 3),
            "prefixes": 3,
            "prefix_toggles": 2,
            "stub_node_pairs": 1,
            "plain_t2_node_pairs": 1,
            "origin_t2_node_pairs": 1,
            "plain_stub_link_pairs": 4,
            "origin_stub_link_pairs": 1,
            "plain_uplink_pairs": 1,
            "mesh_link_pairs": 1,
            "queries_per_commit": 1,
            "cycles": 300,
            "warmup_fraction": 0.2,
            "setup_repeats": 1,
        },
        "query-deep": {
            "grid": (5, 5),
            "max_cost": 6,
            "min_query_cost": 3,
            "queries": 21,
            "queries_per_window": 7,
            "edge_pairs": 1,
            "min_edge_depth": 1,
            "cycles": 300,
            "warmup_fraction": 0.2,
            "setup_repeats": 1,
        },
        "serve-mixed": {
            "dims": (3, 2, 3),
            "prefixes": 3,
            "operations": 100,
            "operations_per_commit": 25,
            "prefix_toggles": 1,
            "zipf_s": 1.0,
            "checkpoint_every": 3,
            "hit_ratio_range": None,
            "cycles": 300,
            "warmup_fraction": 1.0,
            "setup_repeats": 1,
        },
    },
}
