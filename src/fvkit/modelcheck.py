"""Brute-force model checking on finite structures."""

from __future__ import annotations

from typing import Optional

from .errors import BudgetExceeded, ValidationError
from .formula import (And, Bot, Exists, Forall, Formula, Literal, Or, Top,
                      free_variables)
from .structure import Structure

# Atom evaluations allowed per call before giving up.
DEFAULT_ATOM_BUDGET = 10_000_000


def assignment_from_json(data: dict) -> dict[str, str]:
    if not isinstance(data, dict):
        raise ValidationError("assignment JSON must be an object")
    return {str(k): str(v) for k, v in data.items()}


def assignment_to_json(asg: dict[str, str]) -> dict:
    return dict(asg)


def _check_assignment(structure: Structure, f: Formula, asg: dict[str, str]) -> None:
    elems = set(structure.universe)
    for var in free_variables(f):
        if var not in asg:
            raise ValidationError(f"assignment misses free variable {var!r}")
        if asg[var] not in elems:
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
    _check_assignment(structure, f, asg)
    budget = [max_atom_checks, max_atom_checks]
    return _eval(structure, f, dict(asg), budget)


def _eval(structure: Structure, f: Formula, asg: dict[str, str],
          budget: list[int]) -> bool:
    # budget is [checks left, limit]
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Literal):
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded(
                f"atom-check budget exhausted: {budget[1] - budget[0]} atom "
                f"checks, limit {budget[1]}")
        if f.relation != "=" and f.relation not in structure.relations:
            raise ValidationError(
                f"relation {f.relation!r} not in the structure's vocabulary")
        row = tuple(asg[a] for a in f.args)
        held = row[0] == row[1] if f.relation == "=" else structure.has(f.relation, row)
        return held == f.positive
    if isinstance(f, And):
        return all(_eval(structure, c, asg, budget) for c in f.children)
    if isinstance(f, Or):
        return any(_eval(structure, c, asg, budget) for c in f.children)
    if isinstance(f, Exists):
        saved = asg.get(f.var)
        for e in structure.universe:
            asg[f.var] = e
            if _eval(structure, f.body, asg, budget):
                _restore(asg, f.var, saved)
                return True
        _restore(asg, f.var, saved)
        return False
    if isinstance(f, Forall):
        saved = asg.get(f.var)
        for e in structure.universe:
            asg[f.var] = e
            if not _eval(structure, f.body, asg, budget):
                _restore(asg, f.var, saved)
                return False
        _restore(asg, f.var, saved)
        return True
    raise TypeError(f"not a formula: {f!r}")


def _restore(asg: dict[str, str], var: str, saved: Optional[str]) -> None:
    if saved is None:
        asg.pop(var, None)
    else:
        asg[var] = saved


class EvalCache:
    """Memoizing evaluator for one structure.

    Decomposition output repeats subformulas heavily; keying results on
    (subformula, assignment restricted to its free variables) turns the
    repeated factor checks into dictionary hits.  Formulas compare
    structurally and hash once, so equal subformulas share entries however
    they were built.  Agrees with :func:`evaluate` on every input.
    """

    def __init__(self, structure: Structure,
                 max_atom_checks: int = DEFAULT_ATOM_BUDGET):
        self.structure = structure
        self._budget = [max_atom_checks, max_atom_checks]
        self._memo: dict[tuple, bool] = {}

    def evaluate(self, f: Formula, asg: dict[str, str]) -> bool:
        key = (f, tuple(asg[v] for v in free_variables(f)))
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._run(f, dict(asg))
        return hit

    def _run(self, f: Formula, asg: dict[str, str]) -> bool:
        if isinstance(f, (Top, Bot, Literal)):
            return _eval(self.structure, f, asg, self._budget)
        if isinstance(f, And):
            return all(self.evaluate(c, _project(asg, free_variables(c)))
                       for c in f.children)
        if isinstance(f, Or):
            return any(self.evaluate(c, _project(asg, free_variables(c)))
                       for c in f.children)
        if isinstance(f, Exists):
            return any(self._bind(f.body, asg, f.var, e)
                       for e in self.structure.universe)
        if isinstance(f, Forall):
            return all(self._bind(f.body, asg, f.var, e)
                       for e in self.structure.universe)
        raise TypeError(f"not a formula: {f!r}")

    def _bind(self, body: Formula, asg: dict[str, str], var: str, elem: str) -> bool:
        inner = _project(asg, free_variables(body))
        inner[var] = elem
        return self.evaluate(body, inner)


def _project(asg: dict[str, str], fv: tuple[str, ...]) -> dict[str, str]:
    return {v: asg[v] for v in fv if v in asg}

