"""Brute-force model checking on finite structures.

Each formula node is compiled once into a closure ``(structure, asg,
budget) -> bool`` that is kept on the node (see ``formula._node``).  A
literal's closure binds its relation, arguments and sign; a connective's
loops over its children's closures in child order; a quantifier's loops
over ``structure.universe``.  Closures never capture their node and read
``structure.relations`` at call time, so nothing depends on one structure.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

from .errors import BudgetExceeded, ValidationError
from .formula import (And, Exists, Forall, Formula, Literal, Or, PVar,
                      free_variables)
from .structure import Structure

# Atom evaluations allowed per call before giving up.
DEFAULT_ATOM_BUDGET = 10_000_000

# (structure, assignment, budget) -> truth value; budget is
# [checks left, limit] and the assignment is updated in place by quantifiers.
Compiled = Callable[[Structure, dict, list], bool]


def assignment_from_json(data: dict) -> dict[str, str]:
    if not isinstance(data, dict):
        raise ValidationError("assignment JSON must be an object")
    return {str(k): str(v) for k, v in data.items()}


def assignment_to_json(asg: dict[str, str]) -> dict:
    return dict(asg)


def _check_assignment(structure: Structure, variables: tuple[str, ...],
                      asg: dict[str, str]) -> None:
    for var in variables:
        if var not in asg:
            raise ValidationError(f"assignment misses free variable {var!r}")
        if asg[var] not in structure.elements:
            raise ValidationError(
                f"assignment sends {var!r} to unknown element {asg[var]!r}")


def evaluate(structure: Structure, f: Formula, asg: dict[str, str],
             max_atom_checks: int = DEFAULT_ATOM_BUDGET) -> bool:
    """Does the structure satisfy f under the assignment?

    And/Or short-circuit in child order and quantifiers range over the
    universe in its listed order, so the number of atom checks is
    deterministic; past ``max_atom_checks`` the call raises BudgetExceeded
    rather than running unbounded.
    """
    _check_assignment(structure, free_variables(f), asg)
    budget = [max_atom_checks, max_atom_checks]
    return (f._ev or _compile(f))(structure, dict(asg), budget)


def _compile(f: Formula) -> Compiled:
    """The closure of ``f``, compiling every node below it that has none
    yet, children before parents, with an explicit stack so that depth
    costs no Python frames here.  A beta compiles the same way; its closure
    takes zeta, ``(index, side) -> bool``, in place of the structure."""
    stack = [f]
    while stack:
        g = stack[-1]
        if g._ev is not None:
            stack.pop()
            continue
        if isinstance(g, (And, Or)):
            kids = g.children
        elif isinstance(g, (Exists, Forall)):
            kids = (g.body,)
        else:
            kids = ()
        todo = [c for c in kids if c._ev is None]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        object.__setattr__(g, "_ev", _make(g))
    return f._ev


def _make(g: Formula) -> Compiled:
    """One node's closure, from its fields and its children's closures."""
    if isinstance(g, Literal):
        return _literal(g.positive, g.relation, g.args)
    if isinstance(g, And):
        return _and(tuple(c._ev for c in g.children))
    if isinstance(g, Or):
        return _or(tuple(c._ev for c in g.children))
    if isinstance(g, Exists):
        return _exists(g.var, g.body._ev)
    if isinstance(g, Forall):
        return _forall(g.var, g.body._ev)
    if isinstance(g, PVar):
        index, side = g.index, g.side
        return lambda zeta, asg, budget: zeta(index, side)
    raise TypeError(f"not a formula: {g!r}")


def _exhausted(budget: list) -> BudgetExceeded:
    return BudgetExceeded(
        f"atom-check budget exhausted: {budget[1] - budget[0]} atom "
        f"checks, limit {budget[1]}")


def _unknown(relation: str) -> ValidationError:
    return ValidationError(
        f"relation {relation!r} not in the structure's vocabulary")


def _literal(positive: bool, relation: str, args: tuple[str, ...]) -> Compiled:
    if relation == "=":
        a, b = args

        def ev(structure, asg, budget):
            budget[0] -= 1
            if budget[0] < 0:
                raise _exhausted(budget)
            return (asg[a] == asg[b]) == positive
        return ev
    if len(args) == 1:
        a, = args

        def ev(structure, asg, budget):
            budget[0] -= 1
            if budget[0] < 0:
                raise _exhausted(budget)
            try:
                rows = structure.relations[relation]
            except KeyError:
                raise _unknown(relation) from None
            return ((asg[a],) in rows) == positive
        return ev
    row = itemgetter(*args)

    def ev(structure, asg, budget):
        budget[0] -= 1
        if budget[0] < 0:
            raise _exhausted(budget)
        try:
            rows = structure.relations[relation]
        except KeyError:
            raise _unknown(relation) from None
        return (row(asg) in rows) == positive
    return ev


def _and(kids: tuple[Compiled, ...]) -> Compiled:
    def ev(structure, asg, budget):
        for kid in kids:
            if not kid(structure, asg, budget):
                return False
        return True
    return ev


def _or(kids: tuple[Compiled, ...]) -> Compiled:
    def ev(structure, asg, budget):
        for kid in kids:
            if kid(structure, asg, budget):
                return True
        return False
    return ev


def _exists(var: str, body: Compiled) -> Compiled:
    def ev(structure, asg, budget):
        saved = asg.get(var)
        found = False
        for e in structure.universe:
            asg[var] = e
            if body(structure, asg, budget):
                found = True
                break
        if saved is None:
            asg.pop(var, None)
        else:
            asg[var] = saved
        return found
    return ev


def _forall(var: str, body: Compiled) -> Compiled:
    def ev(structure, asg, budget):
        saved = asg.get(var)
        held = True
        for e in structure.universe:
            asg[var] = e
            if not body(structure, asg, budget):
                held = False
                break
        if saved is None:
            asg.pop(var, None)
        else:
            asg[var] = saved
        return held
    return ev
