import itertools
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from fvkit import (And, BOT, BudgetExceeded, Exists, Forall, Literal, Or,
                   Structure, TOP, ValidationError, Vocabulary,
                   apply_sum_like, assignment_from_json, assignment_to_json,
                   evaluate, free_variables, negate_dual, parse_formula,
                   print_formula, random_formula)
from fvkit.modelcheck import DEFAULT_ATOM_BUDGET, _compile
from conftest import all_structures
from test_acceptance import formula_suite, sum_like_ops

VE = Vocabulary({"E": 2})
VU = Vocabulary({"U": 1})
VQ = Vocabulary({"E": 2, "Q1": 1, "Q2": 1})

K3 = Structure(VE, ("1", "2", "3"),
               {"E": frozenset({("1", "2"), ("2", "1"), ("2", "3"),
                                ("3", "2"), ("1", "3"), ("3", "1")})})
LOOP = Structure(VE, ("a",), {"E": frozenset({("a", "a")})})


def test_eval_basics():
    f = parse_formula("(exists (x) (E x x))", VE)
    assert evaluate(K3, f, {}) is False
    assert evaluate(LOOP, f, {}) is True
    assert evaluate(K3, parse_formula("true", VE), {}) is True
    assert evaluate(K3, parse_formula("false", VE), {}) is False


def test_eval_equality_and_literals():
    f = parse_formula("(exists (x) (exists (y) (not (= x y))))", VE)
    assert evaluate(K3, f, {}) is True
    assert evaluate(LOOP, f, {}) is False
    assert evaluate(K3, parse_formula("(E x y)", VE), {"x": "1", "y": "2"})
    assert not evaluate(K3, parse_formula("(not (E x y))", VE),
                        {"x": "1", "y": "2"})


def test_eval_validates():
    f = parse_formula("(E x y)", VE)
    with pytest.raises(ValidationError):
        evaluate(K3, f, {"x": "1"})  # unbound y
    with pytest.raises(ValidationError):
        evaluate(K3, f, {"x": "1", "y": "9"})  # not in universe
    with pytest.raises(ValidationError):
        evaluate(Structure(VU, ("a",), {"U": frozenset()}), f,
                 {"x": "a", "y": "a"})  # vocab mismatch


def test_eval_work_cap():
    big = Structure(VE, tuple(str(i) for i in range(12)),
                    {"E": frozenset()})
    # body is true everywhere, so the universal scan cannot short-circuit
    deep = parse_formula("(forall (a b c d e f g) (not (E a b)))", VE)
    with pytest.raises(BudgetExceeded,
                       match="10001 atom checks, limit 10000$"):
        evaluate(big, deep, {}, max_atom_checks=10_000)


def test_eval_depth():
    # Each nesting level costs one frame, so 600 nested "and"s fit under
    # the recursion limit; a walk through all() and a generator takes three.
    lit = Literal(True, "E", ("x", "x"))
    f = lit
    for _ in range(600):
        f = And((lit, f))
    assert evaluate(LOOP, f, {"x": "a"}) is True
    g = Literal(True, "E", ("q900", "q1"))
    for i in range(900, 0, -1):
        g = Exists(f"q{i}", g)
    assert evaluate(LOOP, g, {}) is True
    # Compiling takes no frames per level at all.
    h = lit
    for _ in range(5000):
        h = Or((h, lit))
    assert callable(_compile(h))


@st.composite
def formula_and_structure(draw):
    n = draw(st.integers(0, 2))
    f = random_formula(draw(st.sampled_from(["sigma", "pi"])), n=n,
                       m=draw(st.integers(n, 2)), vocab=VE,
                       free_vars=("v1",), seed=draw(st.integers(0, 5000)))
    size = draw(st.integers(1, 3))
    universe = tuple(str(i) for i in range(size))
    rel = draw(st.frozensets(
        st.tuples(st.sampled_from(universe), st.sampled_from(universe))))
    return f, Structure(VE, universe, {"E": rel})


@given(formula_and_structure())
def test_duality(item):
    f, s = item
    for e in s.universe:
        asg = {v: e for v in free_variables(f)}
        assert evaluate(s, negate_dual(f), asg) == (not evaluate(s, f, asg))


@given(formula_and_structure())
def test_isomorphism_invariance(item):
    f, s = item
    renames = {e: f"r{e}" for e in s.universe}
    t = Structure(s.vocab, tuple(renames[e] for e in s.universe),
                  {"E": frozenset(tuple(renames[x] for x in row)
                                  for row in s.relations["E"])})
    for e in s.universe:
        asg = {v: e for v in free_variables(f)}
        asg2 = {v: renames[e] for v in free_variables(f)}
        assert evaluate(s, f, asg) == evaluate(t, f, asg2)


def test_assignment_json_round_trip():
    asg = {"x": "0", "y": "2"}
    assert assignment_from_json(assignment_to_json(asg)) == asg
    with pytest.raises(ValidationError):
        assignment_from_json(["x", "0"])


# ---------------------------------------------------------------------------
# The compiled evaluator against the tree walk it replaced


def _ref_eval(structure, f, asg, budget):
    """The isinstance-dispatch walk that ``evaluate`` ran before formulas
    were compiled to closures, kept verbatim as the reference."""
    # budget is [checks left, limit]
    if f == TOP:
        return True
    if f == BOT:
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
        return all(_ref_eval(structure, c, asg, budget) for c in f.children)
    if isinstance(f, Or):
        return any(_ref_eval(structure, c, asg, budget) for c in f.children)
    if isinstance(f, Exists):
        saved = asg.get(f.var)
        for e in structure.universe:
            asg[f.var] = e
            if _ref_eval(structure, f.body, asg, budget):
                _ref_restore(asg, f.var, saved)
                return True
        _ref_restore(asg, f.var, saved)
        return False
    if isinstance(f, Forall):
        saved = asg.get(f.var)
        for e in structure.universe:
            asg[f.var] = e
            if not _ref_eval(structure, f.body, asg, budget):
                _ref_restore(asg, f.var, saved)
                return False
        _ref_restore(asg, f.var, saved)
        return True
    raise TypeError(f"not a formula: {f!r}")


def _ref_restore(asg, var, saved):
    if saved is None:
        asg.pop(var, None)
    else:
        asg[var] = saved


def _run(evaluator, structure, f, asg, limit=DEFAULT_ATOM_BUDGET):
    """(outcome, atom checks used, assignment after) of one evaluation; the
    outcome is the truth value or the error's type and message."""
    budget = [limit, limit]
    asg = dict(asg)
    try:
        out = evaluator(structure, f, asg, budget)
    except (BudgetExceeded, ValidationError) as exc:
        out = (type(exc).__name__, str(exc))
    return out, limit - budget[0], asg


def _compiled(structure, f, asg, budget):
    return _compile(f)(structure, asg, budget)


def _differential(formulas, structures):
    """Compare the two evaluators on every formula, structure and assignment:
    equal outcomes, atom counts and restored assignments, and at one check
    below the count, the same BudgetExceeded message from ``evaluate``.
    Returns the outcomes seen, for coverage checks."""
    seen = Counter()
    for structure in structures:
        for f in formulas:
            names = free_variables(f)
            for row in itertools.product(structure.universe,
                                         repeat=len(names)):
                asg = dict(zip(names, row))
                ref = _run(_ref_eval, structure, f, asg)
                assert _run(_compiled, structure, f, asg) == ref, \
                    (print_formula(f), asg)
                outcome, used, _ = ref
                seen[outcome if isinstance(outcome, bool)
                     else outcome[0]] += 1
                if used == 0 or not isinstance(outcome, bool):
                    continue
                tight = _run(_ref_eval, structure, f, asg, used - 1)[0]
                assert tight == ("BudgetExceeded", f"atom-check budget "
                                 f"exhausted: {used} atom checks, limit "
                                 f"{used - 1}")
                with pytest.raises(BudgetExceeded) as info:
                    evaluate(structure, f, asg, max_atom_checks=used - 1)
                assert str(info.value) == tight[1]
    return seen


def test_compiled_evaluator_matches_reference():
    # The criteria 1-2 suite shapes over each operation's target vocabulary,
    # on its <= 2-element grid and on composites of evenly spaced grid pairs
    # (all 9 of the smallest grids, 25 to 30 of the larger ones).
    for _, op, grid in sum_like_ops():
        formulas = [f for _, _, f, _ in
                    formula_suite(op.interp.target_vocab, count=72)]
        pairs = list(itertools.product(grid, repeat=2))
        pairs = pairs[::1 + len(pairs) // 32]
        composites = [apply_sum_like(op, a, b) for a, b in pairs]
        seen = _differential(formulas, grid + composites)
        assert seen[True] and seen[False]


def test_unknown_relation_fails_only_when_reached():
    # Q1/Q2 literals on {E: 2} structures: the error comes when the atom is
    # reached, and a short circuit that skips it leaves no error.
    formulas = [f for _, _, f, _ in formula_suite(VQ, count=72)]
    seen = _differential(formulas, all_structures(VE, 2))
    assert seen["ValidationError"] and seen[True] and seen[False]
