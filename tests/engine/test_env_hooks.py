"""One parameterized parity suite for every ``NETTRAILS_*`` environment hook.

The engine exposes six construction-time knobs through the environment —
``NETTRAILS_BACKEND``, ``NETTRAILS_BACKEND_WORKERS``,
``NETTRAILS_QUERY_CACHE_CAPACITY``, ``NETTRAILS_INTERVAL_INDEX``,
``NETTRAILS_OBSERVABILITY`` and ``NETTRAILS_DURABLE_DIR`` — and they all promise the same contract:

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
    INTERVAL_INDEX_ENV_VAR,
    OBSERVABILITY_ENV_VAR,
    NetTrailsRuntime,
)
from repro.engine.backends import (
    BACKEND_ENV_VAR,
    BACKEND_WORKERS_ENV_VAR,
    default_worker_count,
)
from repro.errors import EngineError
from repro.protocols import mincost


def build_runtime(**kwargs):
    return NetTrailsRuntime(mincost.SOURCE, topology.line(3), **kwargs)


#: hook -> (a valid value, an observation of the applied default/value,
#: malformed values that must raise at construction, and extra runtime
#: kwargs some hooks need to be observable — e.g. the worker-count hook is
#: only visible on a concurrent backend, since serial pins workers to 1)
HOOKS = {
    BACKEND_ENV_VAR: {
        "valid": "thread",
        "observe": lambda runtime: runtime.backend.name,
        "expect": "thread",
        "default": "serial",
        # "asyncio" and "process" named backends that no longer exist:
        # unknown, so loud.
        "malformed": ["bogus-backend", "asyncio", "process"],
    },
    BACKEND_WORKERS_ENV_VAR: {
        "valid": "3",
        "observe": lambda runtime: runtime.backend.workers,
        "expect": 3,
        "default": default_worker_count(),
        "malformed": ["lots", "0", "-2", "2.5"],
        "kwargs": {"backend": "thread"},
    },
    CACHE_CAPACITY_ENV_VAR: {
        "valid": "17",
        "observe": lambda runtime: runtime.query_cache_capacity,
        "expect": 17,
        "default": None,
        "malformed": ["many", "-3", "1.5"],
    },
    INTERVAL_INDEX_ENV_VAR: {
        "valid": "yes",
        "observe": lambda runtime: runtime.use_interval_index,
        "expect": True,
        "default": False,
        "malformed": ["maybe", "2"],
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
        BACKEND_ENV_VAR,
        BACKEND_WORKERS_ENV_VAR,
        CACHE_CAPACITY_ENV_VAR,
        INTERVAL_INDEX_ENV_VAR,
        OBSERVABILITY_ENV_VAR,
        DURABLE_DIR_ENV_VAR,
    ):
        monkeypatch.delenv(var, raising=False)


class TestHookParity:
    @pytest.mark.parametrize("var,spec", hook_cases("valid"))
    def test_valid_value_applies(self, monkeypatch, var, spec):
        monkeypatch.setenv(var, spec["valid"])
        with build_runtime(**spec.get("kwargs", {})) as runtime:
            assert spec["observe"](runtime) == spec["expect"]

    @pytest.mark.parametrize("var,spec", hook_cases("default"))
    @pytest.mark.parametrize("raw", [None, "", "   "], ids=["unset", "empty", "blank"])
    def test_unset_and_empty_mean_default(self, monkeypatch, var, spec, raw):
        if raw is not None:
            monkeypatch.setenv(var, raw)
        with build_runtime(**spec.get("kwargs", {})) as runtime:
            assert spec["observe"](runtime) == spec["default"]

    @pytest.mark.parametrize("var,spec", hook_cases("malformed"))
    def test_malformed_value_raises_at_construction(self, monkeypatch, var, spec):
        for bad in spec["malformed"]:
            monkeypatch.setenv(var, bad)
            with pytest.raises(EngineError):
                build_runtime(**spec.get("kwargs", {}))

    def test_explicit_argument_beats_hook(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "thread")
        monkeypatch.setenv(BACKEND_WORKERS_ENV_VAR, "7")
        monkeypatch.setenv(CACHE_CAPACITY_ENV_VAR, "17")
        monkeypatch.setenv(INTERVAL_INDEX_ENV_VAR, "1")
        monkeypatch.setenv(OBSERVABILITY_ENV_VAR, "1")
        with build_runtime(
            backend="serial",
            query_cache_capacity=5,
            use_interval_index=False,
            observability=False,
        ) as runtime:
            assert runtime.backend.name == "serial"
            assert runtime.query_cache_capacity == 5
            assert runtime.use_interval_index is False
            assert runtime.obs is None

    def test_explicit_backend_workers_beats_hook(self, monkeypatch):
        monkeypatch.setenv(BACKEND_WORKERS_ENV_VAR, "7")
        with build_runtime(backend="thread", backend_workers=2) as runtime:
            assert runtime.backend.workers == 2

    def test_thread_backend_via_hook(self, monkeypatch):
        """NETTRAILS_BACKEND=thread builds (and runs) the thread backend,
        and NETTRAILS_BACKEND_WORKERS sizes its pool."""
        monkeypatch.setenv(BACKEND_ENV_VAR, "thread")
        monkeypatch.setenv(BACKEND_WORKERS_ENV_VAR, "2")
        with build_runtime() as runtime:
            assert runtime.backend.name == "thread"
            assert runtime.backend.workers == 2
            runtime.seed_links(run=True)
            assert runtime.state("minCost")

    @pytest.mark.parametrize("retired", ["process", "asyncio"])
    def test_retired_backend_is_unknown(self, monkeypatch, retired):
        """A retired backend name raises the unknown-backend error, whether
        it comes from the hook or from the ``backend=`` argument."""
        expected = rf"unknown execution backend '{retired}'; known backends: \['serial', 'thread'\]"
        with pytest.raises(EngineError, match=expected):
            build_runtime(backend=retired)
        monkeypatch.setenv(BACKEND_ENV_VAR, retired)
        with pytest.raises(EngineError, match=expected):
            build_runtime()


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
