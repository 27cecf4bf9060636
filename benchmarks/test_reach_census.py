"""Tests for the reach census: its function table, call collector and classes.

Each test points the census at a small package of its own (``SRC``
monkeypatched), so the figures are exact and no leg subprocess runs.
"""

from __future__ import annotations

import importlib.util
import os
import textwrap

import pytest

import reach_census

MODULE = textwrap.dedent(
    """\
    import functools


    def outer():
        def inner():
            return 1

        return inner()


    class Box:
        def get(self):
            return 2


    @functools.lru_cache(maxsize=None)
    def cached():
        return 3


    def never():
        return 4
    """
)


@pytest.fixture
def package(tmp_path, monkeypatch):
    """A one-module package ``repro.mod`` that the census treats as the source tree."""
    src = tmp_path / "repro"
    src.mkdir()
    path = src / "mod.py"
    path.write_text(MODULE, encoding="utf-8")
    monkeypatch.setattr(reach_census, "SRC", src)
    return path


def load(path):
    spec = importlib.util.spec_from_file_location("census_probe_mod", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def by_qualname(table):
    return {qualname: (key, lines) for key, (_module, qualname, lines) in table.items()}


class TestFunctionTable:
    def test_every_def_is_listed_under_its_qualname(self, package):
        table = by_qualname(reach_census.functions())
        assert set(table) == {"outer", "outer.<locals>.inner", "Box.get", "cached", "never"}
        assert {module for module, _qualname, _lines in reach_census.functions().values()} == {"repro.mod"}

    def test_own_lines_exclude_nested_functions(self, package):
        table = by_qualname(reach_census.functions())
        assert table["outer.<locals>.inner"][1] == 2
        assert table["outer"][1] == 5 - 2
        assert table["never"][1] == 2

    def test_a_decorated_function_starts_at_its_decorator(self, package):
        (path, first, name), _lines = by_qualname(reach_census.functions())["cached"]
        assert (path, name) == (str(package), "cached")
        assert MODULE.splitlines()[first - 1].startswith("@functools.lru_cache")


class TestCollector:
    def test_records_the_calls_made_into_the_source_tree_only(self, package):
        module = load(package)
        collector = reach_census.CensusPlugin()
        collector.start()
        try:
            module.outer()
            module.Box().get()
            os.path.join("a", "b")  # outside the source tree
        finally:
            collector.stop()
        reached = {name for _path, _line, name in collector.reached()}
        assert reached == {"outer", "inner", "get"}

    def test_reached_keys_match_the_function_table(self, package):
        module = load(package)
        collector = reach_census.CensusPlugin()
        collector.start()
        try:
            module.never()
        finally:
            collector.stop()
        table = reach_census.functions()
        reached = [tuple(entry) for entry in collector.reached()]
        assert len(reached) == 1 and table[reached[0]][1] == "never"


class TestCensus:
    def legs(self, package, monkeypatch, reached):
        first = {name: line for (_path, line, name) in reach_census.functions()}
        keys = {name: (os.path.realpath(package), first[name], name) for name in first}
        monkeypatch.setattr(
            reach_census, "run_leg", lambda leg, _scratch: {keys[name] for name in reached[leg]}
        )

    def test_three_classes_with_both_legs(self, package, monkeypatch):
        self.legs(package, monkeypatch, {"system": {"outer", "inner"}, "tests": {"outer", "get", "cached"}})
        document = reach_census.census(reach_census.LEGS)
        assert document["classes"] == ["system", "tests_only", "unreached"]
        assert document["totals"] == {"system": [2, 5], "tests_only": [2, 4], "unreached": [1, 2]}
        assert document["modules"] == {"repro.mod": document["totals"]}
        assert document["functions"] == {
            "tests_only": ["repro.mod:Box.get", "repro.mod:cached"],
            "unreached": ["repro.mod:never"],
        }

    def test_system_leg_alone_folds_the_rest_into_other(self, package, monkeypatch):
        self.legs(package, monkeypatch, {"system": {"get"}})
        document = reach_census.census(("system",))
        assert document["classes"] == ["system", "other"]
        assert document["totals"] == {"system": [1, 2], "other": [4, 9]}

    def test_render_prints_one_row_per_module_and_a_total(self, package, monkeypatch):
        self.legs(package, monkeypatch, {"system": {"never"}})
        lines = reach_census.render(reach_census.census(("system",))).splitlines()
        assert [line.split()[0] for line in lines[2:]] == ["repro.mod", "total"]
        assert lines[-1].split() == ["total", "1", "/", "2", "4", "/", "9"]
