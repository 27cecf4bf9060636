"""One parameterized parity suite for every ``NETTRAILS_*`` environment hook.

The engine exposes one construction-time knob through the environment,
``NETTRAILS_OBSERVABILITY``, and a hook promises this contract:

* unset or empty/whitespace value ⇒ the built-in default, silently;
* a well-formed value ⇒ applied to every runtime built afterwards;
* a malformed value ⇒ a loud :class:`~repro.errors.EngineError` at runtime
  construction, never a silent fallback;
* an explicit constructor argument always beats the hook.

Keeping the matrix in one table means a new hook cannot ship with divergent
rejection semantics unnoticed.  Retired hooks are listed too, to prove they
are no longer read.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import topology
from repro.engine.runtime import OBSERVABILITY_ENV_VAR, NetTrailsRuntime
from repro.errors import EngineError
from repro.protocols import mincost


def build_runtime(**kwargs):
    return NetTrailsRuntime(mincost.SOURCE, topology.line(3), **kwargs)


#: hook -> (a valid value, an observation of the applied default/value, and
#: malformed values that must raise at construction)
HOOKS = {
    OBSERVABILITY_ENV_VAR: {
        "valid": "on",
        "observe": lambda runtime: runtime.obs is not None,
        "expect": True,
        "default": False,
        "malformed": ["observably", "2"],
    },
}


def hook_cases(field):
    for var, spec in HOOKS.items():
        yield pytest.param(var, spec, id=var)


@pytest.fixture(autouse=True)
def clean_hooks(monkeypatch):
    """Every test starts with no NETTRAILS_* hooks exported."""
    for var in (OBSERVABILITY_ENV_VAR, "NETTRAILS_QUERY_CACHE_CAPACITY", "NETTRAILS_DURABLE_DIR"):
        monkeypatch.delenv(var, raising=False)


class TestHookParity:
    @pytest.mark.parametrize("var,spec", hook_cases("valid"))
    def test_valid_value_applies(self, monkeypatch, var, spec):
        monkeypatch.setenv(var, spec["valid"])
        with build_runtime() as runtime:
            assert spec["observe"](runtime) == spec["expect"]

    @pytest.mark.parametrize("var,spec", hook_cases("default"))
    @pytest.mark.parametrize("raw", [None, "", "   "], ids=["unset", "empty", "blank"])
    def test_unset_and_empty_mean_default(self, monkeypatch, var, spec, raw):
        if raw is not None:
            monkeypatch.setenv(var, raw)
        with build_runtime() as runtime:
            assert spec["observe"](runtime) == spec["default"]

    @pytest.mark.parametrize("var,spec", hook_cases("malformed"))
    def test_malformed_value_raises_at_construction(self, monkeypatch, var, spec):
        for bad in spec["malformed"]:
            monkeypatch.setenv(var, bad)
            with pytest.raises(EngineError):
                build_runtime()

    def test_explicit_argument_beats_hook(self, monkeypatch):
        monkeypatch.setenv(OBSERVABILITY_ENV_VAR, "1")
        with build_runtime(observability=False) as runtime:
            assert runtime.obs is None


class TestRetiredHooks:
    """``NETTRAILS_BACKEND`` and ``NETTRAILS_BACKEND_WORKERS`` once picked
    an execution backend and its pool size; ``NETTRAILS_QUERY_CACHE_CAPACITY``
    and ``NETTRAILS_DURABLE_DIR`` stood in for the ``query_cache_capacity``
    and ``durable_dir`` arguments.  All four rejected bad values at
    construction.  None is read any more: whatever one holds, the runtime
    builds and runs as with none set, with the default cache bound and no
    write-ahead log."""

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
                    runtime.query_cache_capacity,
                    runtime.durable_dir,
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
