"""No environment variable changes a runtime.

Every construction knob is a constructor argument.  The suite below sets
retired ``NETTRAILS_*`` hooks, to good and bad values alike, and checks
that the runtime builds and runs exactly as with none set; the
``durable_dir=`` argument, which replaced one of them, checks its path at
construction.
"""

from __future__ import annotations

import os

import pytest

from repro.core.query import DistributedQueryEngine
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.errors import EngineError
from repro.protocols import mincost


def build_runtime(**kwargs):
    return NetTrailsRuntime(mincost.SOURCE, topology.line(3), **kwargs)


class TestRetiredHooks:
    """``NETTRAILS_BACKEND`` and ``NETTRAILS_BACKEND_WORKERS`` once picked
    an execution backend and its pool size; ``NETTRAILS_QUERY_CACHE_CAPACITY``,
    ``NETTRAILS_DURABLE_DIR`` and ``NETTRAILS_OBSERVABILITY`` stood in for
    the query-cache bound and the ``durable_dir`` and ``observability``
    arguments.  All five rejected bad values at construction.  None is read
    any more: whatever one holds, the runtime builds and runs as with none
    set, with the constant cache bound, no write-ahead log and no telemetry."""

    @pytest.mark.parametrize(
        "var,raw",
        [
            ("NETTRAILS_BACKEND", "thread"),
            ("NETTRAILS_BACKEND", "process"),
            ("NETTRAILS_BACKEND", "junk"),
            ("NETTRAILS_BACKEND_WORKERS", "4"),
            ("NETTRAILS_BACKEND_WORKERS", "0"),
            ("NETTRAILS_BACKEND_WORKERS", "junk"),
            ("NETTRAILS_QUERY_CACHE_CAPACITY", "17"),
            ("NETTRAILS_QUERY_CACHE_CAPACITY", "0"),
            ("NETTRAILS_QUERY_CACHE_CAPACITY", "-3"),
            ("NETTRAILS_QUERY_CACHE_CAPACITY", "1.5"),
            ("NETTRAILS_QUERY_CACHE_CAPACITY", "junk"),
            ("NETTRAILS_DURABLE_DIR", "{tmp_path}/durable"),
            ("NETTRAILS_DURABLE_DIR", "{tmp_path}/a-file"),
            ("NETTRAILS_DURABLE_DIR", "{tmp_path}/a-file/nested"),
            ("NETTRAILS_OBSERVABILITY", "1"),
            ("NETTRAILS_OBSERVABILITY", "on"),
            ("NETTRAILS_OBSERVABILITY", "junk"),
        ],
    )
    def test_retired_hook_is_not_read(self, monkeypatch, tmp_path, store_snapshots, var, raw):
        def run():
            with build_runtime() as runtime:
                runtime.seed_links(run=True)
                return (
                    store_snapshots(runtime),
                    runtime.message_stats().messages,
                    runtime.simulator.processed_events,
                    DistributedQueryEngine(runtime).agent("n0").cache.capacity,
                    runtime.durable_dir,
                    runtime.obs,
                )

        (tmp_path / "a-file").write_text("not a directory")
        monkeypatch.delenv(var, raising=False)
        reference = run()
        monkeypatch.setenv(var, raw.format(tmp_path=tmp_path))
        assert run() == reference
        assert not (tmp_path / "durable").exists()


class TestDurableDirArgument:
    """``durable_dir=`` turns on durable mode, and a path that cannot hold a
    write-ahead log raises at construction."""

    def test_valid_path_turns_on_durable_mode(self, tmp_path):
        target = tmp_path / "durable"
        with build_runtime(durable_dir=target, wal_fsync=False) as runtime:
            assert runtime.durable_dir == str(target)
            assert (target / "wal.log").exists()

    def test_existing_non_directory_raises(self, tmp_path):
        collision = tmp_path / "a-file"
        collision.write_text("not a directory")
        with pytest.raises(EngineError, match="not a directory"):
            build_runtime(durable_dir=collision)

    def test_uncreatable_path_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(EngineError, match="cannot create durable_dir"):
            build_runtime(durable_dir=blocker / "nested")

    def test_unwritable_directory_raises(self, monkeypatch, tmp_path):
        # os.access reports writable for root whatever the mode bits say, so
        # the permission probe itself is patched to simulate a read-only dir.
        real_access = os.access
        monkeypatch.setattr(
            "repro.engine.runtime.os.access",
            lambda path, mode: False if mode == os.W_OK else real_access(path, mode),
        )
        with pytest.raises(EngineError, match="not writable"):
            build_runtime(durable_dir=tmp_path)
