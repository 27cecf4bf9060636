"""Per-layer metrics of a traced cycle: span aggregates plus public counters.

Counts come from the program's own public counters (simulator events and
rounds, per-node ``NodeStats``, traffic by category, provenance table sizes)
read before and after the traced cycle; times come from the span aggregates
in :mod:`bench.tracing` and are speed-normalised like every other timing.
In brackets in README.md: the end-to-end metric each of these should move.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from bench.harness import CycleRecord
from bench.tracing import Tracer, layer_self_seconds, span_count, span_self, span_total
from bench.workloads import System

#: name -> unit, in reporting order.  BENCHMARK.json's ``per_layer`` lists the same names.
PER_LAYER_UNITS: Dict[str, str] = {
    "ndlog.parse_ms": "ms",
    "engine.compiler.compile_ms": "ms",
    "engine.runtime.build_ms": "ms",
    "engine.runtime.apply_ms_per_commit": "ms",
    "engine.simulator.self_ms_per_commit": "ms",
    "engine.simulator.events_per_commit": "count",
    "engine.simulator.rounds_per_commit": "count",
    "engine.backends.waves_per_commit": "count",
    "engine.node.self_ms_per_commit": "ms",
    "engine.node.drains_per_commit": "count",
    "engine.node.updates_per_drain": "count",
    "engine.store.apply_calls_per_commit": "count",
    "engine.store.apply_ms_per_commit": "ms",
    "engine.store.facts": "count",
    "engine.evaluator.on_batch_calls_per_commit": "count",
    "engine.evaluator.self_ms_per_commit": "ms",
    "engine.evaluator.firings_per_commit": "count",
    "engine.evaluator.effects_per_update": "ratio",
    "core.maintenance.calls_per_commit": "count",
    "core.maintenance.self_ms_per_commit": "ms",
    "core.maintenance.prov_rows": "count",
    "core.maintenance.rule_exec_rows": "count",
    "core.maintenance.rows_per_fact": "ratio",
    "engine.network.sends_per_commit": "count",
    "engine.network.self_ms_per_commit": "ms",
    "engine.network.deltas_per_tuple_msg": "ratio",
    "engine.network.tuple_msgs_per_commit": "count",
    "engine.network.query_msgs_per_query": "count",
    "engine.messages.size_calls_per_op": "count",
    "engine.messages.size_ms_per_op": "ms",
    "engine.messages.bytes_per_msg": "bytes",
    "core.query.self_ms_per_query": "ms",
    "core.query.handler_calls_per_query": "count",
    "core.query.rounds_per_query": "count",
    "core.query.nodes_visited_per_query": "count",
    "core.query.msgs_per_query": "count",
    "core.optimizations.lookups_per_query": "count",
    "core.optimizations.hit_ratio": "ratio",
    "core.optimizations.root_hit_ratio": "ratio",
    "core.optimizations.evictions": "count",
    "core.optimizations.invalidations_per_commit": "count",
    "core.interval_index.closure_calls_per_query": "count",
    "core.interval_index.self_ms_per_query": "ms",
    "core.interval_index.rebuilds": "count",
    "durability.wal.appends_per_commit": "count",
    "durability.wal.append_ms_per_commit": "ms",
    "durability.wal.bytes_per_commit": "bytes",
    "durability.wal.fsyncs_per_commit": "count",
    "durability.checkpoint.count": "count",
    "durability.checkpoint.ms_each": "ms",
    "durability.recovery.recover_ms": "ms",
    "durability.recovery.batches_replayed": "count",
    "bench.host_speed": "ratio",
    "bench.kernel_share": "ratio",
    "bench.raw_ops_per_s": "1/s",
    "bench.cycle_drift": "ratio",
    "bench.rss_growth_mb": "MiB",
    "bench.trace_overhead": "ratio",
    "bench.untraced_share": "ratio",
    "bench.commit_time_share": "ratio",
    "bench.query_time_share": "ratio",
    "bench.layer_sum_error": "ratio",
}


def read_counters(system: System, tracer: Tracer) -> Dict[str, float]:
    """The program's public counters, summed over nodes, as one flat snapshot."""
    runtime = system.runtime
    counters: Dict[str, float] = {
        "events": runtime.simulator.processed_events,
        "rounds": runtime.simulator.rounds,
        "facts": runtime.total_facts(),
    }
    for node in runtime.nodes.values():
        for name, value in dataclasses.asdict(node.stats).items():
            counters[f"node.{name}"] = counters.get(f"node.{name}", 0) + value
    traffic = runtime.message_stats()
    for category, count in traffic.by_category.items():
        counters[f"msgs.{category}"] = count
    counters["msgs"] = traffic.messages
    counters["bytes"] = traffic.bytes
    for name, value in runtime.provenance.table_sizes().items():
        counters[f"prov.{name}"] = value
    for cache in tracer.instances["NodeQueryCache"].values():
        for name in ("evictions", "stale_dropped"):
            counters[f"cache.{name}"] = counters.get(f"cache.{name}", 0) + getattr(cache, name, 0)
    for index in tracer.instances["PartitionIntervalIndex"].values():
        stats = index.counters()
        counters["interval.rebuilds"] = (
            counters.get("interval.rebuilds", 0) + stats.get("builds", 0) + stats.get("rebuilds", 0)
        )
    for log in tracer.instances["WriteAheadLog"].values():
        for name, value in log.counters().items():
            counters[f"wal.{name}"] = counters.get(f"wal.{name}", 0) + value
    if system.service is not None:
        counters["checkpoints"] = system.service.checkpoints_taken
    return counters


def per_layer_metrics(
    setup_totals: Dict[Tuple[str, str], List[float]],
    setup_speed: float,
    totals: Dict[Tuple[str, str], List[float]],
    traced: CycleRecord,
    untraced: List[CycleRecord],
    before: Dict[str, float],
    after: Dict[str, float],
    recovery: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of one traced run (zero where a layer did no work)."""
    commits = max(1, len(traced.commit_s))
    queries = max(1, len(traced.query_s))
    ops = max(1, traced.ops)
    speed = traced.speed

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    def ms(seconds: float, factor: float = speed) -> float:
        return seconds / factor * 1e3

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    commit_layers = layer_self_seconds(totals, "commit")
    query_layers = layer_self_seconds(totals, "query")
    maintenance_calls = sum(
        count for (kind, name), (count, _t, _s) in totals.items()
        if kind == "commit" and name.startswith("core.maintenance:")
    )
    # Applying a window's mutators: the commit minus its quiescence run (mutators
    # nest — add_link calls insert — so their own span totals would double-count).
    apply_s = (
        span_total(totals, "bench:commit")
        - span_total(totals, "engine.runtime:run_to_quiescence", "commit")
        - span_self(totals, "bench:commit")
        - span_self(totals, "durability.service:commit")
    )
    tuple_msgs = delta("msgs.tuple")
    query_msgs = delta("msgs.provenance-query") + delta("msgs.provenance-reply")
    size_calls = span_count(totals, "engine.messages:size_estimate")
    lookups = span_count(totals, "core.optimizations:lookup")
    untraced_s = span_self(totals, "bench:commit") + span_self(totals, "bench:query")
    layer_sum = sum(commit_layers.values()) + sum(query_layers.values())
    checkpoints = span_count(totals, "durability.checkpoint:checkpoint")
    first, last = untraced[0], untraced[-1]
    metrics = {
        "ndlog.parse_ms": ms(span_total(setup_totals, "ndlog:parse_program"), setup_speed),
        "engine.compiler.compile_ms": ms(
            span_total(setup_totals, "engine.compiler:compile_program"), setup_speed
        ),
        "engine.runtime.build_ms": ms(span_self(setup_totals, "engine.runtime:__init__"), setup_speed),
        "engine.runtime.apply_ms_per_commit": ms(apply_s) / commits,
        "engine.simulator.self_ms_per_commit": ms(commit_layers.get("engine.simulator", 0.0)) / commits,
        "engine.simulator.events_per_commit": traced.commit_events / commits,
        "engine.simulator.rounds_per_commit": traced.commit_rounds / commits,
        "engine.backends.waves_per_commit": span_count(totals, "engine.backends:execute_wave", "commit")
        / commits,
        "engine.node.self_ms_per_commit": ms(commit_layers.get("engine.node", 0.0)) / commits,
        "engine.node.drains_per_commit": delta("node.batches_processed") / commits,
        "engine.node.updates_per_drain": ratio(
            delta("node.updates_processed"), delta("node.batches_processed")
        ),
        "engine.store.apply_calls_per_commit": span_count(totals, "engine.store:apply_delta_batch")
        / commits,
        "engine.store.apply_ms_per_commit": ms(commit_layers.get("engine.store", 0.0)) / commits,
        "engine.store.facts": after.get("facts", 0),
        "engine.evaluator.on_batch_calls_per_commit": span_count(totals, "engine.evaluator:on_batch")
        / commits,
        "engine.evaluator.self_ms_per_commit": ms(commit_layers.get("engine.evaluator", 0.0)) / commits,
        "engine.evaluator.firings_per_commit": (
            delta("node.rule_firings") + delta("node.rule_retractions")
        )
        / commits,
        "engine.evaluator.effects_per_update": ratio(
            delta("node.rule_firings") + delta("node.rule_retractions"), delta("node.updates_processed")
        ),
        "core.maintenance.calls_per_commit": maintenance_calls / commits,
        "core.maintenance.self_ms_per_commit": ms(commit_layers.get("core.maintenance", 0.0)) / commits,
        "core.maintenance.prov_rows": after.get("prov.prov", 0),
        "core.maintenance.rule_exec_rows": after.get("prov.ruleExec", 0),
        "core.maintenance.rows_per_fact": ratio(
            after.get("prov.prov", 0) + after.get("prov.ruleExec", 0), after.get("facts", 0)
        ),
        "engine.network.sends_per_commit": span_count(totals, "engine.network:send", "commit") / commits,
        "engine.network.self_ms_per_commit": ms(commit_layers.get("engine.network", 0.0)) / commits,
        "engine.network.deltas_per_tuple_msg": ratio(delta("node.deltas_sent"), tuple_msgs),
        "engine.network.tuple_msgs_per_commit": tuple_msgs / commits,
        "engine.network.query_msgs_per_query": query_msgs / queries,
        "engine.messages.size_calls_per_op": size_calls / ops,
        "engine.messages.size_ms_per_op": ms(
            commit_layers.get("engine.messages", 0.0) + query_layers.get("engine.messages", 0.0)
        )
        / ops,
        "engine.messages.bytes_per_msg": ratio(delta("bytes"), delta("msgs")),
        "core.query.self_ms_per_query": ms(query_layers.get("core.query", 0.0)) / queries,
        "core.query.handler_calls_per_query": span_count(totals, "core.query:handler") / queries,
        "core.query.rounds_per_query": traced.query_rounds / queries,
        "core.query.nodes_visited_per_query": traced.nodes_visited / queries,
        "core.query.msgs_per_query": traced.query_messages / queries,
        "core.optimizations.lookups_per_query": lookups / queries,
        "core.optimizations.hit_ratio": ratio(traced.cache_hits, lookups),
        "core.optimizations.root_hit_ratio": traced.root_cache_hits / queries,
        "core.optimizations.evictions": delta("cache.evictions"),
        "core.optimizations.invalidations_per_commit": delta("cache.stale_dropped") / commits,
        "core.interval_index.closure_calls_per_query": span_count(totals, "core.interval_index:closure")
        / queries,
        "core.interval_index.self_ms_per_query": ms(
            commit_layers.get("core.interval_index", 0.0) + query_layers.get("core.interval_index", 0.0)
        )
        / queries,
        "core.interval_index.rebuilds": delta("interval.rebuilds"),
        "durability.wal.appends_per_commit": delta("wal.records_appended") / commits,
        "durability.wal.append_ms_per_commit": ms(commit_layers.get("durability.wal", 0.0)) / commits,
        "durability.wal.bytes_per_commit": delta("wal.bytes_appended") / commits,
        "durability.wal.fsyncs_per_commit": delta("wal.fsyncs") / commits,
        "durability.checkpoint.count": checkpoints,
        "durability.checkpoint.ms_each": ratio(
            ms(span_total(totals, "durability.checkpoint:checkpoint")), checkpoints
        ),
        "durability.recovery.recover_ms": ms(recovery.get("recover_s", 0.0), last.speed),
        "durability.recovery.batches_replayed": recovery.get("batches_replayed", 0.0),
        "bench.host_speed": sum(r.speed for r in untraced) / len(untraced),
        "bench.kernel_share": sum(r.kernel_share for r in untraced) / len(untraced),
        "bench.raw_ops_per_s": first.ops / first.measured_s,
        "bench.cycle_drift": last.normalised_s / first.normalised_s,
        "bench.rss_growth_mb": last.rss_end_mb - first.rss_start_mb,
        "bench.trace_overhead": traced.normalised_s / first.normalised_s,
        "bench.untraced_share": untraced_s / traced.measured_s,
        "bench.commit_time_share": sum(traced.commit_s) / traced.measured_s,
        "bench.query_time_share": sum(traced.query_s) / traced.measured_s,
        "bench.layer_sum_error": abs(layer_sum - traced.measured_s) / traced.measured_s,
    }
    return metrics


def layer_table(totals: Dict[Tuple[str, str], List[float]], traced: CycleRecord) -> List[str]:
    """Self time per layer and operation kind, as shares of the traced cycle."""
    lines = []
    for kind in ("commit", "query"):
        layers = layer_self_seconds(totals, kind)
        for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
            lines.append(
                f"  {kind:6s} {layer:22s} {seconds / traced.speed * 1e3:10.2f} ms "
                f"{seconds / traced.measured_s:6.1%}"
            )
    return lines
