"""Abstract syntax tree for NDlog programs.

The AST mirrors the surface syntax used in the NetTrails / declarative
networking papers::

    materialize(link, infinity, infinity, keys(1,2)).

    r1 pathCost(@S,D,C)      :- link(@S,D,C).
    r2 pathCost(@S,D,C1+C2)  :- link(@S,Z,C1), pathCost(@Z,D,C2).
    r3 minCost(@S,D,min<C>)  :- pathCost(@S,D,C).

    br1 outputRoute(@AS,R2,Prefix,Route2) ?-
        inputRoute(@AS,R1,Prefix,Route1),
        f_isExtend(Route2,Route1,AS) == 1.

Terms are immutable; rules and programs are lightweight containers.  All
nodes render back to NDlog text via ``str()`` which keeps error messages,
tests and the provenance-rewrite output readable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    """Base class for NDlog terms (arguments of atoms and expressions)."""

    def variables(self) -> Set[str]:
        """Return the set of variable names mentioned by this term."""
        raise NotImplementedError


@dataclass(frozen=True)
class Variable(Term):
    """A logic variable, e.g. ``S`` or ``Cost``."""

    name: str

    def variables(self) -> Set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant(Term):
    """A literal constant: number, string, boolean or tuple (list value)."""

    value: object

    def variables(self) -> Set[str]:
        return set()

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        if isinstance(self.value, tuple):
            inner = ", ".join(str(Constant(v)) for v in self.value)
            return f"[{inner}]"
        return str(self.value)


@dataclass(frozen=True)
class Expression(Term):
    """A binary expression such as ``C1 + C2`` or ``Cost < 10``."""

    op: str
    left: Term
    right: Term

    ARITHMETIC_OPS = ("+", "-", "*", "/", "%")
    COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")

    def variables(self) -> Set[str]:
        return self.left.variables() | self.right.variables()

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class FunctionCall(Term):
    """A call to a builtin function, e.g. ``f_concat(P, D)``."""

    name: str
    args: Tuple[Term, ...]

    def variables(self) -> Set[str]:
        result: Set[str] = set()
        for arg in self.args:
            result |= arg.variables()
        return result

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Aggregate(Term):
    """An aggregate head term, e.g. ``min<C>`` or ``count<*>``.

    ``variable`` is ``None`` for ``count<*>``.
    """

    func: str
    variable: Optional[str]

    SUPPORTED = ("min", "max", "count", "sum", "avg")

    def variables(self) -> Set[str]:
        return {self.variable} if self.variable else set()

    def __str__(self) -> str:
        inner = self.variable if self.variable else "*"
        return f"{self.func}<{inner}>"



# ---------------------------------------------------------------------------
# Atoms and body elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """A predicate applied to terms, with an optional location specifier.

    ``location_index`` is the position of the argument carrying the ``@``
    location specifier (``None`` if the atom has no specifier, which is only
    permitted for purely local relations and builtin provenance relations).
    """

    relation: str
    terms: Tuple[Term, ...]
    location_index: Optional[int] = None

    @property
    def arity(self) -> int:
        return len(self.terms)

    @property
    def location_term(self) -> Optional[Term]:
        if self.location_index is None:
            return None
        return self.terms[self.location_index]

    def variables(self) -> Set[str]:
        result: Set[str] = set()
        for term in self.terms:
            result |= term.variables()
        return result

    def __str__(self) -> str:
        rendered = []
        for index, term in enumerate(self.terms):
            prefix = "@" if index == self.location_index else ""
            rendered.append(f"{prefix}{term}")
        return f"{self.relation}({', '.join(rendered)})"


@dataclass(frozen=True)
class Literal:
    """A body atom, possibly negated."""

    atom: Atom
    negated: bool = False

    def variables(self) -> Set[str]:
        return self.atom.variables()

    def __str__(self) -> str:
        if self.negated:
            return f"!{self.atom}"
        return str(self.atom)


@dataclass(frozen=True)
class Condition:
    """A boolean constraint in a rule body, e.g. ``C < 10`` or ``f_member(P, D) == 1``."""

    expression: Term

    def variables(self) -> Set[str]:
        return self.expression.variables()

    def __str__(self) -> str:
        return str(self.expression)


@dataclass(frozen=True)
class Assignment:
    """A binding of a fresh variable to an expression, e.g. ``C := C1 + C2``."""

    variable: str
    expression: Term

    def variables(self) -> Set[str]:
        return {self.variable} | self.expression.variables()

    def __str__(self) -> str:
        return f"{self.variable} := {self.expression}"


BodyElement = Union[Literal, Condition, Assignment]


# ---------------------------------------------------------------------------
# Rules, declarations and programs
# ---------------------------------------------------------------------------

_rule_counter = itertools.count(1)


@dataclass
class Rule:
    """A single NDlog rule.

    ``is_maybe`` marks "maybe" rules (written ``?-``), which describe possible
    causal relationships between messages entering and leaving a legacy
    application rather than hard derivations.
    """

    head: Atom
    body: Tuple[BodyElement, ...]
    name: str = ""
    is_maybe: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"rule{next(_rule_counter)}"
        self.body = tuple(self.body)

    # -- convenience accessors ------------------------------------------------

    @property
    def literals(self) -> Tuple[Literal, ...]:
        return tuple(e for e in self.body if isinstance(e, Literal))

    @property
    def positive_literals(self) -> Tuple[Literal, ...]:
        return tuple(e for e in self.body if isinstance(e, Literal) and not e.negated)

    @property
    def negative_literals(self) -> Tuple[Literal, ...]:
        return tuple(e for e in self.body if isinstance(e, Literal) and e.negated)

    @property
    def conditions(self) -> Tuple[Condition, ...]:
        return tuple(e for e in self.body if isinstance(e, Condition))

    @property
    def assignments(self) -> Tuple[Assignment, ...]:
        return tuple(e for e in self.body if isinstance(e, Assignment))

    @property
    def aggregate(self) -> Optional[Aggregate]:
        """Return the single aggregate term in the head, if any."""
        for term in self.head.terms:
            if isinstance(term, Aggregate):
                return term
        return None

    @property
    def has_aggregate(self) -> bool:
        return self.aggregate is not None

    def body_relations(self) -> Set[str]:
        return {lit.atom.relation for lit in self.literals}

    def location_variables(self) -> Set[str]:
        """Return the distinct location-specifier variable names used in the body."""
        names: Set[str] = set()
        for literal in self.literals:
            term = literal.atom.location_term
            if isinstance(term, Variable):
                names.add(term.name)
        return names

    def is_local(self) -> bool:
        """True when every body atom is located at the same node variable."""
        return len(self.location_variables()) <= 1

    def rename(self, name: str) -> "Rule":
        return Rule(head=self.head, body=self.body, name=name, is_maybe=self.is_maybe)

    def __str__(self) -> str:
        separator = "?-" if self.is_maybe else ":-"
        body_text = ",\n    ".join(str(e) for e in self.body)
        return f"{self.name} {self.head} {separator}\n    {body_text}."


@dataclass(frozen=True)
class Materialize:
    """A ``materialize`` declaration for a relation.

    ``lifetime`` and ``max_size`` use ``None`` to mean *infinity* (as in the
    surface syntax).  ``keys`` holds the 1-based positions of the primary-key
    attributes; inserting a tuple whose key already exists replaces the old
    tuple, matching P2/RapidNet semantics.
    """

    relation: str
    lifetime: Optional[float] = None
    max_size: Optional[int] = None
    keys: Tuple[int, ...] = ()

    def __str__(self) -> str:
        lifetime = "infinity" if self.lifetime is None else str(self.lifetime)
        size = "infinity" if self.max_size is None else str(self.max_size)
        keys = ", ".join(str(k) for k in self.keys)
        return f"materialize({self.relation}, {lifetime}, {size}, keys({keys}))."


@dataclass
class Program:
    """A full NDlog program: declarations plus rules."""

    name: str
    rules: List[Rule] = field(default_factory=list)
    materialized: Dict[str, Materialize] = field(default_factory=dict)

    def add_rule(self, rule: Rule) -> None:
        self.rules.append(rule)

    def add_materialize(self, declaration: Materialize) -> None:
        self.materialized[declaration.relation] = declaration

    # -- program structure ----------------------------------------------------

    def head_relations(self) -> Set[str]:
        """Relations that appear in some rule head (intensional relations)."""
        return {rule.head.relation for rule in self.rules}

    def body_relations(self) -> Set[str]:
        result: Set[str] = set()
        for rule in self.rules:
            result |= rule.body_relations()
        return result

    def relations(self) -> Set[str]:
        return self.head_relations() | self.body_relations() | set(self.materialized)

    def base_relations(self) -> Set[str]:
        """Relations never derived by any rule (extensional relations)."""
        return self.relations() - self.head_relations()

    def rules_for(self, relation: str) -> List[Rule]:
        return [rule for rule in self.rules if rule.head.relation == relation]

    def rule_named(self, name: str) -> Rule:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise KeyError(f"no rule named {name!r} in program {self.name!r}")

    def dependency_graph(self) -> Dict[str, Set[str]]:
        """Map each head relation to the set of relations its rules read."""
        graph: Dict[str, Set[str]] = {}
        for rule in self.rules:
            graph.setdefault(rule.head.relation, set()).update(rule.body_relations())
        return graph

    def strata(self) -> List[Set[str]]:
        """Partition relations into evaluation strata.

        Negation and *non-monotonic* aggregation (``count``/``sum``/``avg``)
        require their input relations to be fully computed in an earlier
        stratum.  Monotonic aggregates (``min``/``max``) are exempt: as in
        declarative networking practice, recursion through a ``min``
        aggregate (e.g. MINCOST's shortest-path recursion) is allowed and
        converges for monotone cost functions.  Returns a list of relation
        sets in evaluation order; raises :class:`ValueError` when the program
        is not stratifiable (a relation depends negatively / through a
        non-monotonic aggregate on itself, directly or transitively).
        """
        relations = sorted(self.relations())
        # Edge (a -> b) means "a depends on b"; weight 1 when the dependency
        # must cross a stratum boundary (negation or non-monotonic aggregation).
        edges: List[Tuple[str, str, int]] = []
        monotonic_aggregates = ("min", "max")
        for rule in self.rules:
            head = rule.head.relation
            aggregate = rule.aggregate
            non_monotonic = aggregate is not None and aggregate.func not in monotonic_aggregates
            for literal in rule.literals:
                strict = 1 if (literal.negated or non_monotonic) else 0
                edges.append((head, literal.atom.relation, strict))

        level = {relation: 0 for relation in relations}
        max_level = len(relations) + 1
        for _ in range(len(relations) * len(relations) + 1):
            changed = False
            for head, dep, strict in edges:
                required = level[dep] + strict
                if level[head] < required:
                    level[head] = required
                    if level[head] > max_level:
                        raise ValueError(
                            f"program {self.name!r} is not stratifiable "
                            f"(cycle through negation/aggregation at {head!r})"
                        )
                    changed = True
            if not changed:
                break

        grouped: Dict[int, Set[str]] = {}
        for relation, stratum in level.items():
            grouped.setdefault(stratum, set()).add(relation)
        return [grouped[key] for key in sorted(grouped)]

    def __str__(self) -> str:
        parts = [str(decl) for decl in self.materialized.values()]
        parts.extend(str(rule) for rule in self.rules)
        return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# Construction helpers (used by protocol modules and tests)
# ---------------------------------------------------------------------------




def atom(relation: str, *terms: Union[Term, str, int, float], loc: Optional[int] = 0) -> Atom:
    """Build an :class:`Atom`, coercing raw strings/numbers to constants.

    Strings that look like variables (leading uppercase letter or underscore)
    become :class:`Variable`; everything else becomes :class:`Constant`.  The
    location specifier defaults to the first argument, matching NDlog
    convention; pass ``loc=None`` for location-free relations.
    """
    coerced: List[Term] = []
    for term in terms:
        coerced.append(_coerce(term))
    return Atom(relation, tuple(coerced), loc)


def _coerce(term: Union[Term, str, int, float, bool, tuple]) -> Term:
    if isinstance(term, Term):
        return term
    if isinstance(term, str) and term and (term[0].isupper() or term[0] == "_"):
        return Variable(term)
    if isinstance(term, (str, int, float, bool, tuple)):
        return Constant(term)
    raise TypeError(f"cannot coerce {term!r} to an NDlog term")
