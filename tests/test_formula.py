import pickle

import pytest
from hypothesis import given, strategies as st

from fvkit import (And, BOT, Bot, Exists, Forall, Literal, Or, ParseError,
                   TOP, Top, ValidationError, Vocabulary, classify,
                   formula_size, free_variables, is_quantifier_free,
                   negate_dual, parse_formula, print_formula, quantifier_rank,
                   random_formula)
from fvkit.formula import subformulas

VE = Vocabulary({"E": 2})
VU = Vocabulary({"U": 1})
VEU = Vocabulary({"E": 2, "U": 1})


def test_parse_atom():
    f = parse_formula("(E x y)", VE)
    assert f == Literal(True, "E", ("x", "y"))


def test_parse_arity_one_connective_flattens():
    assert parse_formula("(and (E x y))", VE) == Literal(True, "E", ("x", "y"))
    assert parse_formula("(or (E x y))", VE) == Literal(True, "E", ("x", "y"))


def test_parse_multivar_quantifier_desugars():
    f = parse_formula("(exists (x y) (E x y))", VE)
    assert f == Exists("x", Exists("y", Literal(True, "E", ("x", "y"))))


def test_parse_constants_and_equality():
    assert parse_formula("true", VE) is TOP or parse_formula("true", VE) == Top()
    assert parse_formula("false", VE) == Bot()
    assert parse_formula("(= x y)", VE) == Literal(True, "=", ("x", "y"))


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("(and (E x y) (E x))", VE)
    assert "argument" in str(exc.value) and "column" in str(exc.value)
    with pytest.raises(ParseError):
        parse_formula("(F x)", VE)  # unknown relation
    with pytest.raises(ParseError):
        parse_formula("(not (and (E x y) (E y x)))", VE)  # NNF violation
    with pytest.raises(ParseError):
        parse_formula("(exists (x) ", VE)


def test_print_examples():
    assert print_formula(Literal(True, "E", ("x", "y"))) == "(E x y)"
    assert print_formula(Bot()) == "false"
    assert print_formula(Exists("x", Top())) == "(exists (x) true)"


def test_negate_dual_examples():
    f = parse_formula("(E x y)", VE)
    assert negate_dual(f) == Literal(False, "E", ("x", "y"))
    g = parse_formula("(exists (x) (and (U x)))", VU)
    # arity-1 and is flattened at parse, so the dual is the bare literal
    assert print_formula(negate_dual(g)) == "(forall (x) (not (U x)))"


def test_classify_quantifier_free():
    c = classify(parse_formula("(or (U x) (not (U y)))", VU))
    assert (c.sigma_level, c.pi_level, c.rank) == (0, 0, 0)
    assert c.block_uniform_k is None


def test_classify_nested_alternation():
    c = classify(parse_formula(
        "(exists (x) (and (forall (y) (or (E x y)))))", VE))
    assert c.sigma_level == 2
    assert c.pi_level == 3
    assert c.rank == 2
    assert c.block_uniform_k == 1


def test_classify_universal_root():
    c = classify(parse_formula("(forall (x) (or (U x) (U x)))", VU))
    assert c.pi_level == 1
    assert c.sigma_level == 2


def test_free_variables_order():
    assert free_variables(parse_formula("(E x y)", VE)) == ("x", "y")
    assert free_variables(parse_formula("(exists (x) (E x y))", VE)) == ("y",)
    assert free_variables(parse_formula("true", VE)) == ()


def _free_variables_walk(f):
    """The recursive walk free_variables used before it cached its result."""
    seen = {}

    def walk(g, bound):
        if isinstance(g, Literal):
            for a in g.args:
                if a not in bound and a not in seen:
                    seen[a] = None
        elif isinstance(g, (And, Or)):
            for c in g.children:
                walk(c, bound)
        elif isinstance(g, (Exists, Forall)):
            walk(g.body, bound | {g.var})

    walk(f, frozenset())
    return tuple(seen)


def _quantifier_free_walk(f):
    """The recursive walk is_quantifier_free used before it cached its flag."""
    if isinstance(f, (Literal, Top, Bot)):
        return True
    if isinstance(f, (And, Or)):
        return all(_quantifier_free_walk(c) for c in f.children)
    return False


def test_node_caches_agree_with_structure():
    # Four separate builds of each formula: two generator runs, two parses.
    # The caches fill root-first on one build and leaves-first on the others.
    for seed in range(150):
        cls = ("sigma", "pi")[seed % 2]
        n = (seed // 2) % 3
        m = n + (seed // 6) % (4 - n)
        fv = ("v1", "v2")[:seed % 3]
        built = [random_formula(cls, n=n, m=m, vocab=VEU, free_vars=fv,
                                seed=seed) for _ in range(2)]
        text = print_formula(built[0])
        built += [parse_formula(text, VEU) for _ in range(2)]
        hash(built[0])
        free_variables(built[0])
        is_quantifier_free(built[0])
        subs = [list(subformulas(f)) for f in built]
        for group in zip(*(reversed(s) for s in subs)):
            reference = _free_variables_walk(group[0])
            qf = _quantifier_free_walk(group[0])
            for g in group:
                assert g == group[0]
                assert hash(g) == hash(group[0])
                assert free_variables(g) == reference
                assert is_quantifier_free(g) is qf
            assert repr(group[0]) == repr(group[1])
        if built[0] not in (TOP, BOT):  # the only shared nodes
            assert len({id(f) for f in built}) == 4


def test_node_caches_stay_out_of_fields_and_pickles():
    f = parse_formula("(forall (x) (or (E x y) (exists (z) (E z x))))", VE)
    hash(f)
    free_variables(f)
    is_quantifier_free(f)
    assert repr(f) == ("Forall(var='x', body=Or(children=(Literal(positive="
                       "True, relation='E', args=('x', 'y')), Exists(var='z', "
                       "body=Literal(positive=True, relation='E', "
                       "args=('z', 'x'))))))")
    back = pickle.loads(pickle.dumps(f))
    # String hashes differ between processes, so pickles carry no caches.
    assert vars(back) == {"var": "x", "body": f.body}
    assert back == f and hash(back) == hash(f)
    assert free_variables(back) == ("y",)
    assert is_quantifier_free(back) is False
    assert is_quantifier_free(back.body.children[0]) is True


def test_formula_size_counts_nodes():
    # quantifier node = 1, literal = 1 + arity
    assert formula_size(parse_formula("(E x y)", VE)) == 3
    assert formula_size(parse_formula("(exists (z) (E z z))", VE)) == 4
    assert formula_size(parse_formula("true", VE)) == 1


@st.composite
def formulas(draw):
    cls = draw(st.sampled_from(["sigma", "pi"]))
    n = draw(st.integers(0, 2))
    m = draw(st.integers(n, 3))
    seed = draw(st.integers(0, 10_000))
    nfree = draw(st.integers(0, 2))
    fv = ("v1", "v2")[:nfree]
    return random_formula(cls, n=n, m=m, vocab=VEU, free_vars=fv, seed=seed), \
        cls, n, m, fv


@given(formulas())
def test_random_formula_contract(item):
    f, cls, n, m, fv = item
    c = classify(f)
    level = c.sigma_level if cls == "sigma" else c.pi_level
    assert level <= n
    assert c.rank <= m
    assert set(free_variables(f)) <= set(fv)


def test_random_formula_deterministic():
    a = random_formula("sigma", n=2, m=3, vocab=VE, seed=42)
    b = random_formula("sigma", n=2, m=3, vocab=VE, seed=42)
    assert a == b


def test_random_formula_rejects_bad_args():
    with pytest.raises(ValidationError):
        random_formula("gamma", n=1, m=1, vocab=VE)
    with pytest.raises(ValidationError):
        random_formula("sigma", n=-1, m=1, vocab=VE)


@given(formulas())
def test_roundtrip(item):
    f = item[0]
    assert parse_formula(print_formula(f), VEU) == f


@given(formulas())
def test_negation_duality(item):
    f = item[0]
    c, d = classify(f), classify(negate_dual(f))
    assert (c.sigma_level, c.pi_level) == (d.pi_level, d.sigma_level)
    assert c.rank == d.rank
    assert negate_dual(negate_dual(f)) == f


@given(formulas())
def test_classification_minimal(item):
    from fvkit import in_pi, in_sigma
    f = item[0]
    c = classify(f)
    assert in_sigma(f, c.sigma_level)
    assert in_pi(f, c.pi_level)
    if c.sigma_level >= 1:
        assert not in_sigma(f, c.sigma_level - 1)
    if c.pi_level >= 1:
        assert not in_pi(f, c.pi_level - 1)


@given(formulas())
def test_rank_level_gap(item):
    f = item[0]
    c = classify(f)
    if c.rank > 0:
        assert abs(c.sigma_level - c.pi_level) == 1
    else:
        assert c.sigma_level == c.pi_level == 0
    assert quantifier_rank(f) == c.rank
