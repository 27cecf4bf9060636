"""Tests for the builtin f_* function library."""

import pytest

from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.errors import UnknownFunctionError
from repro.ndlog import functions
from repro.ndlog.functions import FunctionRegistry, default_registry


@pytest.fixture
def registry():
    return default_registry()


class TestListFunctions:
    def test_make_list_and_init(self):
        assert functions.f_make_list(1, 2, 3) == (1, 2, 3)
        assert functions.f_init("a", "b") == ("a", "b")

    def test_concat_and_prepend_append(self):
        assert functions.f_concat((1, 2), (3,)) == (1, 2, 3)
        assert functions.f_concat((1, 2), 3) == (1, 2, 3)
        assert functions.f_prepend(0, (1, 2)) == (0, 1, 2)
        assert functions.f_append((1, 2), 3) == (1, 2, 3)

    def test_member_and_size(self):
        assert functions.f_member((1, 2, 3), 2) == 1
        assert functions.f_member((1, 2, 3), 9) == 0
        assert functions.f_size((1, 2, 3)) == 3

    def test_first_last_reverse(self):
        assert functions.f_first(("a", "b", "c")) == "a"
        assert functions.f_last(("a", "b", "c")) == "c"
        assert functions.f_reverse((1, 2, 3)) == (3, 2, 1)


class TestIsExtend:
    """The f_isExtend function from the paper's maybe rule br1."""

    def test_prepend_extension_detected(self):
        assert functions.f_is_extend(("as2", "as1"), ("as1",), "as2") == 1

    def test_append_extension_detected(self):
        assert functions.f_is_extend(("as1", "as2"), ("as1",), "as2") == 1

    def test_wrong_node_rejected(self):
        assert functions.f_is_extend(("as3", "as1"), ("as1",), "as2") == 0

    def test_wrong_length_rejected(self):
        assert functions.f_is_extend(("as2", "as9", "as1"), ("as1",), "as2") == 0
        assert functions.f_is_extend(("as1",), ("as1",), "as2") == 0


class TestHashing:
    def test_sha1_is_deterministic_and_distinct(self):
        assert functions.f_sha1("a", 1) == functions.f_sha1("a", 1)
        assert functions.f_sha1("a", 1) != functions.f_sha1("a", 2)


class TestRegistry:
    def test_default_registry_contains_paper_spellings(self, registry):
        for name in ("f_isExtend", "f_member", "f_concat", "f_makeList", "f_sha1"):
            assert registry.registered(name)

    def test_call_dispatch(self, registry):
        assert registry.call("f_member", [(1, 2), 1]) == 1

    def test_unknown_function_raises_with_helpful_message(self, registry):
        with pytest.raises(UnknownFunctionError) as excinfo:
            registry.call("f_nonexistent", [])
        assert "f_nonexistent" in str(excinfo.value)

    def test_copy_is_independent(self, registry):
        clone = registry.copy()
        clone.register("f_custom", lambda: 42)
        assert clone.registered("f_custom")
        assert not registry.registered("f_custom")

    def test_register_overrides(self):
        registry = FunctionRegistry()
        registry.register("f_x", lambda: 1)
        registry.register("f_x", lambda: 2)
        assert registry.call("f_x", []) == 2


#: Builtins that no protocol in the repository calls; programs reach them by
#: name through ``default_registry()``.  Each row: the assignment a rule
#: makes, the two arguments it reads, and the value the rule must derive.
UNCALLED_BUILTINS = [
    pytest.param("V := f_abs(X)", (-3, 0), 3, id="f_abs"),
    pytest.param("V := f_max(X, Y)", (2, 5), 5, id="f_max"),
    pytest.param("V := f_match(X, Y)", ("10.0.1.0/24", "10.0."), 1, id="f_match-prefix"),
    pytest.param("V := f_match(X, Y)", ("10.1.1.0/24", "10.0."), 0, id="f_match-other"),
    pytest.param("V := f_inPath(X, Y)", (("n1", "n2"), "n2"), 1, id="f_inPath"),
    pytest.param("V := f_in_path(X, Y)", (("n1", "n2"), "n3"), 0, id="f_in_path"),
]


@pytest.mark.parametrize("assignment, arguments, expected", UNCALLED_BUILTINS)
def test_builtin_evaluates_through_a_parsed_rule(assignment, arguments, expected):
    program = f"""
materialize(arg, infinity, infinity, keys(1, 2, 3)).
r1 result(@N, V) :- arg(@N, X, Y), {assignment}.
"""
    with NetTrailsRuntime(program, topology.line(2)) as runtime:
        runtime.insert("arg", ["n0", *arguments])
        runtime.run_to_quiescence()
        assert runtime.state("result") == [("n0", expected)]
