import pytest
from hypothesis import given, settings, strategies as st

from fvkit import (BudgetExceeded, EvalCache, Structure, ValidationError,
                   Vocabulary, assignment_from_json, assignment_to_json,
                   evaluate, free_variables, negate_dual, parse_formula,
                   random_formula)

VE = Vocabulary({"E": 2})
VU = Vocabulary({"U": 1})

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
    # the cache checks each (a, b) once: 144 atoms
    cache = EvalCache(big, max_atom_checks=100)
    with pytest.raises(BudgetExceeded, match="101 atom checks, limit 100$"):
        cache.evaluate(deep, {})


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


@given(formula_and_structure())
@settings(max_examples=60)
def test_eval_cache_agrees_with_evaluate(item):
    f, s = item
    cache = EvalCache(s)
    for e in s.universe:
        asg = {v: e for v in free_variables(f)}
        assert cache.evaluate(f, asg) == evaluate(s, f, asg)


def test_assignment_json_round_trip():
    asg = {"x": "0", "y": "2"}
    assert assignment_from_json(assignment_to_json(asg)) == asg
    with pytest.raises(ValidationError):
        assignment_from_json(["x", "0"])
