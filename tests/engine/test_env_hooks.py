"""One parameterized parity suite for every ``NETTRAILS_*`` environment hook.

The engine exposes three construction-time knobs through the environment —
``NETTRAILS_QUERY_CACHE_CAPACITY``, ``NETTRAILS_OBSERVABILITY`` and
``NETTRAILS_DURABLE_DIR`` — and they all promise the same contract:

* unset or empty/whitespace value ⇒ the built-in default, silently;
* a well-formed value ⇒ applied to every runtime built afterwards;
* a malformed value ⇒ a loud :class:`~repro.errors.EngineError` at runtime
  construction, never a silent fallback;
* an explicit constructor argument always beats the hook.

Keeping the matrix in one table means a new hook (like the durable
directory) cannot ship with divergent rejection semantics unnoticed.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import topology
from repro.engine.runtime import (
    CACHE_CAPACITY_ENV_VAR,
    DURABLE_DIR_ENV_VAR,
    OBSERVABILITY_ENV_VAR,
    NetTrailsRuntime,
)
from repro.errors import EngineError
from repro.protocols import mincost


def build_runtime(**kwargs):
    return NetTrailsRuntime(mincost.SOURCE, topology.line(3), **kwargs)


#: hook -> (a valid value, an observation of the applied default/value, and
#: malformed values that must raise at construction)
HOOKS = {
    CACHE_CAPACITY_ENV_VAR: {
        "valid": "17",
        "observe": lambda runtime: runtime.query_cache_capacity,
        "expect": 17,
        "default": None,
        "malformed": ["many", "-3", "1.5"],
    },
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
    for var in (
        CACHE_CAPACITY_ENV_VAR,
        OBSERVABILITY_ENV_VAR,
        DURABLE_DIR_ENV_VAR,
    ):
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
        monkeypatch.setenv(CACHE_CAPACITY_ENV_VAR, "17")
        monkeypatch.setenv(OBSERVABILITY_ENV_VAR, "1")
        with build_runtime(
            query_cache_capacity=5,
            observability=False,
        ) as runtime:
            assert runtime.query_cache_capacity == 5
            assert runtime.obs is None


class TestRetiredHooks:
    """``NETTRAILS_BACKEND`` and ``NETTRAILS_BACKEND_WORKERS`` once picked
    an execution backend and its pool size, and rejected bad values at
    construction.  One event loop runs every node now, so neither is read:
    whatever either holds, the runtime builds and runs as with neither set."""

    @pytest.mark.parametrize(
        "var,raw",
        [
            ("NETTRAILS_BACKEND", "thread"),
            ("NETTRAILS_BACKEND", "process"),
            ("NETTRAILS_BACKEND", "junk"),
            ("NETTRAILS_BACKEND_WORKERS", "4"),
            ("NETTRAILS_BACKEND_WORKERS", "0"),
            ("NETTRAILS_BACKEND_WORKERS", "junk"),
        ],
    )
    def test_retired_hook_is_not_read(self, monkeypatch, store_snapshots, var, raw):
        def run():
            with build_runtime() as runtime:
                runtime.seed_links(run=True)
                return (
                    store_snapshots(runtime),
                    runtime.message_stats().messages,
                    runtime.simulator.processed_events,
                )

        monkeypatch.delenv(var, raising=False)
        reference = run()
        monkeypatch.setenv(var, raw)
        assert run() == reference


class TestDurableDirHook:
    """NETTRAILS_DURABLE_DIR follows the same parity contract; its "applied"
    observation is a live WAL, and its malformed axis is path-shaped."""

    def test_valid_path_turns_on_durable_mode(self, monkeypatch, tmp_path):
        target = tmp_path / "durable"
        monkeypatch.setenv(DURABLE_DIR_ENV_VAR, str(target))
        with build_runtime(wal_fsync=False) as runtime:
            assert runtime.durable_dir == str(target)
            assert (target / "wal.log").exists()

    @pytest.mark.parametrize("raw", [None, "", "   "], ids=["unset", "empty", "blank"])
    def test_unset_and_empty_mean_non_durable(self, monkeypatch, raw):
        if raw is not None:
            monkeypatch.setenv(DURABLE_DIR_ENV_VAR, raw)
        with build_runtime() as runtime:
            assert runtime.durable_dir is None

    def test_existing_non_directory_raises(self, monkeypatch, tmp_path):
        collision = tmp_path / "a-file"
        collision.write_text("not a directory")
        monkeypatch.setenv(DURABLE_DIR_ENV_VAR, str(collision))
        with pytest.raises(EngineError, match="not a directory"):
            build_runtime()

    def test_uncreatable_path_raises(self, monkeypatch, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv(DURABLE_DIR_ENV_VAR, str(blocker / "nested"))
        with pytest.raises(EngineError, match="cannot create durable_dir"):
            build_runtime()

    def test_unwritable_directory_raises(self, monkeypatch, tmp_path):
        # os.access reports writable for root whatever the mode bits say, so
        # the permission probe itself is patched to simulate a read-only dir.
        monkeypatch.setenv(DURABLE_DIR_ENV_VAR, str(tmp_path))
        real_access = os.access
        monkeypatch.setattr(
            "repro.engine.runtime.os.access",
            lambda path, mode: False if mode == os.W_OK else real_access(path, mode),
        )
        with pytest.raises(EngineError, match="not writable"):
            build_runtime()

    def test_explicit_argument_beats_hook(self, monkeypatch, tmp_path):
        from_env = tmp_path / "from-env"
        explicit = tmp_path / "explicit"
        monkeypatch.setenv(DURABLE_DIR_ENV_VAR, str(from_env))
        with build_runtime(durable_dir=explicit, wal_fsync=False) as runtime:
            assert runtime.durable_dir == str(explicit)
            assert (explicit / "wal.log").exists()
            assert not from_env.exists()
