"""Tests for AST helpers: terms, rules, programs, stratification."""

import pytest

from repro.ndlog.ast import (
    Aggregate,
    Atom,
    Condition,
    Constant,
    Expression,
    Literal,
    Program,
    Rule,
    Variable,
    atom,
)
from repro.ndlog.parser import parse_program, parse_rule
from repro.protocols import distance_vector, mincost, path_vector


class TestTerms:
    def test_expression_variables(self):
        expression = Expression("+", Variable("A"), Expression("*", Variable("B"), Constant(2)))
        assert expression.variables() == {"A", "B"}

    def test_constant_rendering(self):
        assert str(Constant("x")) == '"x"'
        assert str(Constant((1, 2))) == "[1, 2]"
        assert str(Constant(3)) == "3"

    def test_aggregate_rendering(self):
        assert str(Aggregate("min", "C")) == "min<C>"
        assert str(Aggregate("count", None)) == "count<*>"


class TestAtomHelpers:
    def test_atom_builder_coercion(self):
        built = atom("link", "S", "D", 3)
        assert built.terms[0] == Variable("S")
        assert built.terms[2] == Constant(3)
        assert built.location_index == 0

    def test_atom_str_shows_location_marker(self):
        assert str(atom("link", "S", "D")) == "link(@S, D)"


class TestRuleAccessors:
    def test_rule_classification_of_body_elements(self):
        rule = parse_rule(
            "r p(@S, D, C) :- l(@S, Z, C1), !bad(@S, Z), C := C1 + 1, C < 10, q(@S, D)."
        )
        assert len(rule.positive_literals) == 2
        assert len(rule.negative_literals) == 1
        assert len(rule.assignments) == 1
        assert len(rule.conditions) == 1
        assert rule.body_relations() == {"l", "bad", "q"}

    def test_rule_locality(self):
        local = parse_rule("r p(@S, D) :- a(@S, D), b(@S, D).")
        assert local.is_local()
        non_local = parse_rule("r p(@S, D) :- a(@S, Z), b(@Z, D).")
        assert not non_local.is_local()
        assert non_local.location_variables() == {"S", "Z"}

    def test_rule_aggregate_detection(self):
        rule = parse_rule("r m(@S, min<C>) :- p(@S, C).")
        assert rule.has_aggregate
        assert parse_rule("r m(@S, C) :- p(@S, C).").has_aggregate is False


class TestProgramStructure:
    def test_dependency_graph(self):
        program = mincost.program()
        graph = program.dependency_graph()
        assert "minCost" in graph
        assert "path" in graph["minCost"]
        assert "link" in graph["path"]

    def test_strata_allow_min_aggregate_recursion(self):
        # MINCOST recurses through a min aggregate; that must be allowed.
        strata = mincost.program().strata()
        assert any("minCost" in stratum for stratum in strata)

    def test_strata_reject_count_aggregate_recursion(self):
        source = """
        r1 total(@S, count<X>) :- item(@S, X).
        r2 item(@S, X) :- total(@S, X).
        """
        with pytest.raises(ValueError):
            parse_program(source, name="bad").strata()

    def test_strata_put_negated_dependency_earlier(self):
        source = """
        r1 up(@S, D) :- link(@S, D).
        r2 down(@S, D) :- node(@S, D), !up(@S, D).
        """
        program = parse_program(source, name="neg")
        strata = program.strata()
        up_level = next(i for i, s in enumerate(strata) if "up" in s)
        down_level = next(i for i, s in enumerate(strata) if "down" in s)
        assert up_level < down_level

    def test_strata_reject_negative_cycle(self):
        source = """
        r1 a(@S, X) :- base(@S, X), !b(@S, X).
        r2 b(@S, X) :- base(@S, X), !a(@S, X).
        """
        with pytest.raises(ValueError):
            parse_program(source, name="negcycle").strata()

    def test_rules_for(self):
        program = path_vector.program()
        assert len(program.rules_for("path")) == 2
        assert len(program.rules_for("bestPathCost")) == 1

    def test_all_shipped_protocols_have_consistent_structure(self):
        for module in (mincost, path_vector, distance_vector):
            program = module.program()
            assert "link" in program.base_relations()
            assert program.head_relations()
