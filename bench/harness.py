"""Run cycles, time operations, check outputs, turn samples into metrics.

A run is *set-up -> warm-up -> identical measured cycles -> verification*.
Two operation types are timed individually: a **commit** (apply a window's
mutators, run to quiescence) and a **query** (one tuple; drawing the target
is not timed).  The load generator is this same single thread — a closed
loop with one client: the runtime is single-writer behind a lock and the box
has two cores, so more clients would measure the interpreter lock.
"""

from __future__ import annotations

import gc
import os
import resource
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from bench.kernel import Pacer
from bench.workloads import Commit, Query, System, rng_for

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)


def current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], share: float) -> float:
    """Linear interpolation between closest ranks (0 <= share <= 1)."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def share_near(values: Sequence[float], centre: float, tolerance: float = 0.2) -> float:
    """Share of samples within +-tolerance of *centre*: low means the percentile
    sits in a gap between two modes, where a small shift moves it a lot."""
    return sum(1 for value in values if abs(value - centre) <= tolerance * centre) / len(values)


def canonical(result) -> object:
    """A query answer in a form that compares across cycles and with the oracle."""
    value = result.value
    if result.mode == "lineage":
        return tuple(sorted((ref.relation, ref.values, ref.location) for ref in value))
    if result.mode == "participants":
        return tuple(sorted(value))
    if result.mode == "subgraph":  # the distributed answer carries the tuple vertices only
        return tuple(sorted(vertex.vid for vertex in value.tuple_vertices()))
    return value


@dataclass
class CycleRecord:
    """Everything one cycle measured; raw seconds, normalised later by ``speed``."""

    commit_s: List[float] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    commit_virt_ms: List[float] = field(default_factory=list)
    query_virt_ms: List[float] = field(default_factory=list)
    answers: List[object] = field(default_factory=list)
    failed_ops: int = 0
    first_error: str = ""
    messages: int = 0
    bytes: int = 0
    root_cache_hits: int = 0
    cache_hits: int = 0
    query_messages: int = 0
    query_rounds: int = 0
    nodes_visited: int = 0
    commit_events: int = 0
    commit_rounds: int = 0
    measured_s: float = 0.0
    speed: float = 1.0
    kernel_share: float = 0.0
    rss_start_mb: float = 0.0
    rss_end_mb: float = 0.0
    peak_rss_end_mb: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.commit_s) + len(self.query_s)

    @property
    def normalised_s(self) -> float:
        return self.measured_s / self.speed

    def exact_counts(self) -> Tuple[object, ...]:
        """What must repeat bit for bit from cycle to cycle.

        Bytes are not in it: query envelopes carry running request numbers,
        so their ``repr`` grows by a digit now and then (well under 1 %).
        """
        return (self.messages, tuple(self.commit_virt_ms), tuple(self.query_virt_ms))


def run_cycle(
    system: System, plan: Sequence[object], tracer=None, pacer: Optional[Pacer] = None
) -> CycleRecord:
    """Execute *plan* once; time every operation; interleave the reference kernel.

    A cycle normally owns its pacer (one speed factor per cycle); the warm-up
    runs under the set-up's pacer instead, because it is part of ``setup_s``.
    """
    record = CycleRecord()
    runtime = system.runtime
    simulator = runtime.simulator
    pacer = pacer if pacer is not None else Pacer()
    clock = time.perf_counter
    gc.collect()
    record.rss_start_mb = current_rss_mb()
    traffic = runtime.message_stats()
    messages_before, bytes_before = traffic.messages, traffic.bytes
    for step in plan:
        is_commit = isinstance(step, Commit)
        started = clock()
        try:
            if is_commit:
                virtual_before = runtime.now
                events_before, rounds_before = simulator.processed_events, simulator.rounds
                started = clock()
                if tracer is not None:
                    tracer.begin_op("commit")
                try:
                    system.commit(step.ops)
                finally:
                    if tracer is not None:
                        tracer.end_op()
                elapsed = clock() - started
                record.commit_s.append(elapsed)
                record.commit_virt_ms.append(round((runtime.now - virtual_before) * 1000.0, 6))
                record.commit_events += simulator.processed_events - events_before
                record.commit_rounds += simulator.rounds - rounds_before
            else:
                row = system.resolve(step)
                started = clock()
                if tracer is not None:
                    tracer.begin_op("query")
                try:
                    result = system.query(step.relation, row, step.mode)
                finally:
                    if tracer is not None:
                        tracer.end_op()
                elapsed = clock() - started
                record.query_s.append(elapsed)
                stats = result.stats
                record.query_virt_ms.append(round(stats.latency * 1000.0, 6))
                record.answers.append(canonical(result))
                record.cache_hits += stats.cache_hits
                record.query_messages += stats.messages
                record.query_rounds += stats.rounds
                record.nodes_visited += stats.nodes_visited
                if stats.cache_hits and not stats.messages:
                    record.root_cache_hits += 1
        except Exception:  # the boundary that must keep running: a failed operation is a result
            elapsed = clock() - started
            record.failed_ops += 1
            if not record.first_error:
                record.first_error = traceback.format_exc()
            if is_commit:
                record.commit_s.append(elapsed)
                record.commit_virt_ms.append(-1.0)
            else:
                record.query_s.append(elapsed)
                record.query_virt_ms.append(-1.0)
                record.answers.append(None)
        record.measured_s += elapsed
        pacer.account(elapsed)
    traffic = runtime.message_stats()
    record.messages = traffic.messages - messages_before
    record.bytes = traffic.bytes - bytes_before
    record.speed = pacer.speed
    record.kernel_share = pacer.share
    record.rss_end_mb = current_rss_mb()
    record.peak_rss_end_mb = peak_rss_mb()
    return record


# -- checks -------------------------------------------------------------------------


@dataclass
class Checks:
    """Attempted and failed operations and checks, with the reasons."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def expect(self, ok: bool, note: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.notes.append(note)


def check_cycles(
    checks: Checks,
    records: Sequence[CycleRecord],
    states_equal: Sequence[bool],
    expected_answers: Sequence[object],
) -> None:
    """Per-operation verdicts: exceptions, answers against cycle 1, state at cycle end."""
    first = records[0]
    for index, (record, state_ok) in enumerate(zip(records, states_equal), start=1):
        if not state_ok:
            # The cycle did not return to the base state: nothing it did can be trusted.
            checks.expect(False, f"cycle {index}: state differs from the base state", record.ops)
            continue
        wrong = sum(
            1
            for answer, expected in zip(record.answers, expected_answers)
            if answer is not None and answer != expected
        )
        checks.expect(True, "", record.ops - record.failed_ops - wrong)
        if record.failed_ops:
            checks.expect(
                False, f"cycle {index}: {record.failed_ops} operations raised:\n{record.first_error}",
                record.failed_ops,
            )
        if wrong:
            checks.expect(False, f"cycle {index}: {wrong} answers differ from cycle 1's", wrong)
        if index > 1:
            checks.expect(
                record.exact_counts() == first.exact_counts()
                and abs(record.bytes - first.bytes) <= 0.01 * first.bytes,
                f"cycle {index}: message/virtual-time counts differ from cycle 1's, or bytes by over 1% "
                f"({record.messages} msgs {record.bytes} B vs {first.messages} msgs {first.bytes} B)",
            )


def _oracle_closure(graph, vid: str) -> Tuple[str, ...]:
    """Every tuple below *vid*, from the centralised graph."""
    tuples, execs, pending = {vid}, set(), [vid]
    while pending:
        for vertex in graph.derivations_of(pending.pop()):
            if vertex.rid not in execs:
                execs.add(vertex.rid)
                for child in graph.input_vids_of(vertex.rid):
                    if child not in tuples:
                        tuples.add(child)
                        pending.append(child)
    return tuple(sorted(tuples))


def check_against_oracle(
    checks: Checks, system: System, plan: Sequence[object], seed: int, per_mode: int
) -> None:
    """Seeded queries per mode against the centralised provenance graph."""
    graph = system.runtime.provenance.build_graph()
    rng = rng_for(seed, "oracle")
    targets = [step for step in plan if isinstance(step, Query)]
    for mode in ("lineage", "participants", "subgraph"):
        for query in rng.sample(targets, min(per_mode, len(targets))):
            row = system.resolve(query)
            result = system.query(query.relation, row, mode)
            vid = result.root_vid
            if mode == "lineage":
                expected = tuple(
                    sorted((v.relation, v.values, v.location) for v in graph.base_tuples_of(vid))
                )
            elif mode == "participants":
                expected = tuple(sorted(graph.participating_nodes(vid)))
            else:
                expected = _oracle_closure(graph, vid)
            checks.expect(
                canonical(result) == expected and not result.truncated,
                f"oracle: {mode} of {query.relation}{row} differs from the centralised graph",
            )


def check_recovery(checks: Checks, system: System, size: Dict[str, object]) -> Dict[str, float]:
    """Crash the service, recover it, compare with the pre-crash service."""
    from repro.durability import ServiceRuntime
    from repro.durability.checkpoint import state_digest
    from repro.logstore.snapshot import take_snapshot

    service = system.service
    state_before = system.base_state()
    digest_before = state_digest(take_snapshot(service.runtime))
    batches_before = service.committed_batches
    service.crash()
    started = time.perf_counter()
    recovered = ServiceRuntime.recover(
        system.durable_dir, wal_fsync=True, checkpoint_every=size["checkpoint_every"]
    )
    seconds = time.perf_counter() - started
    try:
        twin = System(
            recovered.runtime, system.options, system.state_relations, system.reference,
            system.origins, service=recovered,
        )
        checks.expect(twin.base_state() == state_before, "recovery: state differs from pre-crash state")
        checks.expect(
            state_digest(take_snapshot(recovered.runtime)) == digest_before,
            "recovery: state digest differs from the pre-crash digest",
        )
        checks.expect(
            recovered.committed_batches == batches_before,
            f"recovery: {recovered.committed_batches} batches present, {batches_before} acknowledged",
        )
        result = recovered.last_recovery
        return {"recover_s": seconds, "batches_replayed": float(result.batches_replayed)}
    finally:
        recovered.close()


# -- metrics ------------------------------------------------------------------------


def end_to_end_metrics(
    records: Sequence[CycleRecord], setup_s: float, peak_mb: float
) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of one run, every timing speed-normalised."""
    commits = [s / record.speed for record in records for s in record.commit_s]
    queries = [s / record.speed for record in records for s in record.query_s]
    ops = sum(record.ops for record in records)
    commit_count = sum(len(record.commit_s) for record in records)
    query_count = sum(len(record.query_s) for record in records)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (percentile([r.ops / r.normalised_s for r in records], 0.5), "1/s"),
        "commit_p50_ms": (percentile(commits, 0.5) * 1e3, "ms"),
        "commit_p90_ms": (percentile(commits, 0.9) * 1e3, "ms"),
        "query_p50_ms": (percentile(queries, 0.5) * 1e3, "ms"),
        "query_p90_ms": (percentile(queries, 0.9) * 1e3, "ms"),
        "msgs_per_op": (sum(r.messages for r in records) / ops, "messages"),
        "bytes_per_op": (sum(r.bytes for r in records) / ops, "bytes"),
        "virt_ms_per_commit": (sum(sum(r.commit_virt_ms) for r in records) / commit_count, "virtual_ms"),
        "virt_ms_per_query": (sum(sum(r.query_virt_ms) for r in records) / query_count, "virtual_ms"),
        "peak_rss_mb": (peak_mb, "MiB"),
    }


def describe_samples(records: Sequence[CycleRecord]) -> List[str]:
    """Sample counts and how well each reported percentile sits inside a mode."""
    lines = []
    for label, attribute in (("commit", "commit_s"), ("query", "query_s")):
        samples = [s / record.speed for record in records for s in getattr(record, attribute)]
        for share in (0.5, 0.9):
            centre = percentile(samples, share)
            raw = percentile([s for record in records for s in getattr(record, attribute)], share)
            lines.append(
                f"  {label}_p{int(share * 100)}: {centre * 1e3:.3f} ms (raw {raw * 1e3:.3f} ms) over "
                f"{len(samples)} samples, {share_near(samples, centre):.0%} of them within +-20% of it"
            )
    return lines


def root_hit_ratio(records: Sequence[CycleRecord]) -> float:
    """Share of queries answered from the issuing node's cache without a message."""
    queries = sum(len(record.query_s) for record in records)
    return sum(record.root_cache_hits for record in records) / queries if queries else 0.0
