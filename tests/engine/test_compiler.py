"""Tests for program compilation."""

import pytest

from repro.errors import NDlogValidationError
from repro.engine.compiler import compile_program
from repro.ndlog.parser import parse_program
from repro.protocols import mincost, path_vector
from repro.legacy.proxy import LEGACY_PROGRAM_SOURCE


class TestCompileProgram:
    def test_rules_are_localized(self):
        compiled = compile_program(mincost.program())
        assert all(rule.is_local() for rule in compiled.rules)

    def test_maybe_rules_separated(self):
        compiled = compile_program(parse_program(LEGACY_PROGRAM_SOURCE, name="legacy"))
        assert len(compiled.maybe_rules) == 2
        assert all(rule.is_maybe for rule in compiled.maybe_rules)
        assert all(not rule.is_maybe for rule in compiled.rules)

    def test_delta_joins_cover_every_positive_literal(self):
        compiled = compile_program(mincost.program())
        total = sum(len(joins) for joins in compiled.joins.values())
        expected = sum(len(rule.positive_literals) for rule in compiled.rules)
        assert total == expected

    def test_negation_joins(self):
        program = parse_program(
            "r1 up(@S, D) :- link(@S, D). r2 alone(@S, D) :- node(@S, D), !up(@S, D).",
            name="neg",
        )
        compiled = compile_program(program)
        assert [
            (blocked.rule.name, unblocked.rule.name) for blocked, unblocked in compiled.negation_joins["up"]
        ] == [("r2", "r2")]

    def test_base_and_derived_relations(self):
        compiled = compile_program(path_vector.program())
        assert "link" in compiled.base_relations()
        assert "bestPath" in compiled.derived_relations()

    def test_invalid_program_rejected(self):
        program = parse_program("r1 p(@S, X) :- q(@S).", name="bad")
        with pytest.raises(NDlogValidationError):
            compile_program(program)

    def test_validation_can_be_skipped(self):
        program = parse_program("r1 p(@S, D) :- q(@S, D).", name="ok")
        compiled = compile_program(program, validate=False)
        assert compiled.warnings == []

    def test_aggregate_rule_with_remote_head_rejected(self):
        # Aggregation must happen where the group lives.
        program = parse_program("r1 best(@D, S, min<C>) :- path(@S, D, C).", name="aggbad")
        with pytest.raises(NDlogValidationError, match="aggregation is local"):
            compile_program(program)

    def test_compiled_program_exposes_catalog(self):
        compiled = compile_program(mincost.program())
        assert compiled.catalog.schema("link").key_positions == (0, 1)
