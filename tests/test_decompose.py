"""Decomposition engine: pinned construction cases, pair normal form,
evaluation, simplification, and the correctness property itself."""

import importlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fvkit import (MARK, PAnd, PBot, POr, PTop, PVar, P_BOT,
                   P_TOP, ReductionSequence, SIGMA, Structure,
                   ValidationError, VarPartition, Vocabulary,
                   annotated_disjoint_union, builtin, classify, decompose,
                   decompose_over_op, evaluate, eval_reduction,
                   free_variables, normalize_pairs, parse_formula,
                   print_formula, prop_to_json, quantifier_rank,
                   random_formula, reduction_from_json, reduction_stats,
                   reduction_to_json, simplify_reduction)
from conftest import (all_structures, linear_order, merged_assignment,
                      pair_blocks)

VE = Vocabulary({"E": 2})
VEP = Vocabulary({"E": 2, MARK: 1})

LOOP = Structure(VE, ("a",), {"E": frozenset({("a", "a")})})
EDGELESS = Structure(VE, ("b",), {"E": frozenset()})

EXISTS_LOOP = parse_formula("(exists (z) (E z z))", VE)


def test_atom_one_sided():
    d = decompose(parse_formula("(E x y)", VE), VarPartition(("x", "y"), ()))
    assert [print_formula(g) for g in d.delta1] == ["(E x y)"]
    assert [print_formula(g) for g in d.delta2] == ["true"]
    assert d.beta == PAnd((PVar(0, 1), PVar(0, 2)))
    st = reduction_stats(d)
    assert st == {"total_size": 7, "factor_count_1": 1,
                  "factor_count_2": 1, "beta_size": 3}


def test_atom_mixed_sides():
    d = decompose(parse_formula("(E x y)", VE), VarPartition(("x",), ("y",)))
    assert d.delta1 == () and d.delta2 == ()
    assert d.beta == PBot()
    assert reduction_stats(d)["total_size"] == 1
    neg = decompose(parse_formula("(not (E x y))", VE),
                    VarPartition(("x",), ("y",)))
    assert neg.beta == PTop()


def test_equality_decomposes_like_atoms():
    same = decompose(parse_formula("(= x y)", VE), VarPartition(("x", "y"), ()))
    assert [print_formula(g) for g in same.delta1] == ["(= x y)"]
    mixed = decompose(parse_formula("(= x y)", VE), VarPartition(("x",), ("y",)))
    assert mixed.beta == PBot()
    mixed_neg = decompose(parse_formula("(not (= x y))", VE),
                          VarPartition(("x",), ("y",)))
    assert mixed_neg.beta == PTop()


def test_marker_literals():
    f = parse_formula("(P x)", VEP)
    assert decompose(f, VarPartition(("x",), ())).beta == PTop()
    assert decompose(f, VarPartition((), ("x",))).beta == PBot()
    g = parse_formula("(not (P x))", VEP)
    assert decompose(g, VarPartition((), ("x",))).beta == PTop()
    # factors never mention the marker; the reduction vocab drops it
    d = decompose(parse_formula("(and (P x) (E x x))", VEP),
                  VarPartition(("x",), ()))
    assert MARK not in d.vocab
    assert all(MARK not in print_formula(g) for g in d.delta1 + d.delta2)


def test_exists_loop_sentence():
    d = decompose(EXISTS_LOOP, VarPartition((), ()))
    assert [print_formula(g) for g in d.delta1] == \
        ["(exists (z) (E z z))", "true"]
    assert [print_formula(g) for g in d.delta2] == \
        ["true", "(exists (z) (E z z))"]
    assert d.beta == POr((PAnd((PVar(0, 1), PVar(0, 2))),
                          PAnd((PVar(1, 1), PVar(1, 2)))))


def test_eval_reduction_zeta_examples():
    d = decompose(EXISTS_LOOP, VarPartition((), ()))
    assert eval_reduction(d, LOOP, EDGELESS) is True
    assert eval_reduction(d, EDGELESS, EDGELESS) is False
    trivial = ReductionSequence((), (), P_TOP, VarPartition((), ()), VE)
    assert eval_reduction(trivial, LOOP, EDGELESS) is True
    assert eval_reduction(trivial, EDGELESS, EDGELESS) is True


def test_eval_reduction_validates_tuples():
    d = decompose(parse_formula("(E x y)", VE), VarPartition(("x",), ("y",)))
    with pytest.raises(ValidationError):
        eval_reduction(d, LOOP, EDGELESS)  # missing tuple components


def test_normalize_pairs_four_pair_example():
    psi1 = parse_formula("(E x x)", VE)
    psi2 = parse_formula("(not (E x x))", VE)
    chi1 = parse_formula("(E y y)", VE)
    chi2 = parse_formula("(not (E y y))", VE)
    d = ReductionSequence(
        (psi1, psi2), (chi1, chi2),
        PAnd((POr((PVar(0, 1), PVar(0, 2))), POr((PVar(1, 1), PVar(1, 2))))),
        VarPartition(("x",), ("y",)), VE)
    out = normalize_pairs(d, SIGMA)
    got = [(print_formula(a), print_formula(b))
           for a, b in zip(out.delta1, out.delta2)]
    assert got == [
        ("(and (E x x) (not (E x x)))", "true"),
        ("(E x x)", "(not (E y y))"),
        ("(not (E x x))", "(E y y)"),
        ("true", "(and (E y y) (not (E y y)))"),
    ]
    assert pair_blocks(out.beta, "sigma") is not None
    # semantics preserved on every structure pair and assignment
    for a, b in itertools.product(all_structures(VE, 2), repeat=2):
        for ea in a.universe:
            for eb in b.universe:
                assert eval_reduction(d, a, b, (ea,), (eb,)) == \
                    eval_reduction(out, a, b, (ea,), (eb,))


def test_normalize_pairs_top_bottom():
    top = ReductionSequence((), (), P_TOP, VarPartition((), ()), VE)
    out = normalize_pairs(top, SIGMA)
    assert [print_formula(g) for g in out.delta1] == ["true"]
    assert [print_formula(g) for g in out.delta2] == ["true"]
    assert out.beta == PAnd((PVar(0, 1), PVar(0, 2)))
    bot = ReductionSequence((), (), P_BOT, VarPartition((), ()), VE)
    assert normalize_pairs(bot, SIGMA).beta == POr(())


def test_normalize_pairs_idempotent():
    d = decompose(EXISTS_LOOP, VarPartition((), ()))
    assert normalize_pairs(d, SIGMA) == d


def test_decompose_deterministic(monkeypatch):
    f = random_formula("pi", n=2, m=3, vocab=VE, free_vars=("v1",), seed=77)
    part = VarPartition(("v1",), ())
    a = decompose(f, part)
    b = decompose(f, part)
    assert a == b
    assert reduction_stats(a) == reduction_stats(b)
    # Reference without the memo; the package attribute is the function.
    engine = importlib.import_module("fvkit.decompose")._Engine
    monkeypatch.setattr(engine, "_rec", lambda self, g: self._build(g))
    c = decompose(f, part)
    assert c == a


def test_decompose_rejects_unpartitioned_variable():
    with pytest.raises(ValidationError):
        decompose(parse_formula("(E x y)", VE), VarPartition(("x",), ()))
    with pytest.raises(ValidationError):
        VarPartition(("x",), ("x",))


def test_simplify_reduction():
    psi = EXISTS_LOOP
    top = parse_formula("true", VE)
    dup = ReductionSequence(
        (psi, psi), (top, top),
        POr((PAnd((PVar(0, 1), PVar(0, 2))), PAnd((PVar(1, 1), PVar(1, 2))))),
        VarPartition((), ()), VE)
    slim = simplify_reduction(dup)
    assert len(slim.delta1) == 1  # identical pairs collapse
    dead = ReductionSequence(
        (psi, parse_formula("false", VE)), (top, top),
        POr((PAnd((PVar(0, 1), PVar(0, 2))), PAnd((PVar(1, 1), PVar(1, 2))))),
        VarPartition((), ()), VE)
    assert len(simplify_reduction(dead).delta1) == 1  # false factor drops
    bot = ReductionSequence((), (), POr(()), VarPartition((), ()), VE)
    assert simplify_reduction(bot).beta == PBot()
    for d in (dup, dead):
        slim = simplify_reduction(d)
        for a, b in itertools.product(all_structures(VE, 2), repeat=2):
            assert eval_reduction(d, a, b) == eval_reduction(slim, a, b)


def test_decompose_over_op_loop_left_or_right():
    op = builtin("disjoint-union", {"vocabulary": {"E": 2}})
    d = decompose_over_op(EXISTS_LOOP, op, VarPartition((), ()))
    for a, b in itertools.product(all_structures(VE, 2), repeat=2):
        direct = evaluate(apply := __import__("fvkit").apply_sum_like(op, a, b),
                          EXISTS_LOOP, {})
        assert eval_reduction(d, a, b) == direct


def test_decompose_over_op_true():
    for name in ("disjoint-union", "ordered-sum", "join"):
        op = builtin(name)
        f = parse_formula("true", op.interp.target_vocab)
        d = decompose_over_op(f, op, VarPartition((), ()))
        a = linear_order(1) if name == "ordered-sum" else LOOP
        assert eval_reduction(d, a, a) is True


def test_decompose_over_op_ordered_sum_totality():
    op = builtin("ordered-sum")
    f = parse_formula("(forall (x) (forall (y) (<= x y)))", VLE := Vocabulary({"<=": 2}))
    d = decompose_over_op(f, op, VarPartition((), ()))
    l1 = linear_order(1)
    from fvkit import apply_sum_like
    assert eval_reduction(d, l1, l1) == evaluate(apply_sum_like(op, l1, l1), f, {})


def test_reduction_json_round_trip():
    d = decompose(EXISTS_LOOP, VarPartition((), ()))
    data = reduction_to_json(d)
    assert data["delta1"] == ["(exists (z) (E z z))", "true"]
    assert data["beta"]["or"][0] == {"and": [{"var": [0, 1]}, {"var": [0, 2]}]}
    back = reduction_from_json(data)
    assert back.delta1 == d.delta1 and back.beta == d.beta


@st.composite
def decomposition_case(draw):
    vocab = draw(st.sampled_from([VE, Vocabulary({"U": 1, "E": 2})]))
    cls = draw(st.sampled_from(["sigma", "pi"]))
    n = draw(st.integers(0, 2))
    m = draw(st.integers(n, 3))
    t = draw(st.integers(0, 2))
    fv_left = ("v1",) if t >= 1 else ()
    fv_right = ("v2",) if t == 2 else ()
    f = random_formula(cls, n=n, m=m, vocab=vocab,
                       free_vars=fv_left + fv_right,
                       seed=draw(st.integers(0, 20_000)))
    return f, VarPartition(fv_left, fv_right), vocab


@given(decomposition_case(), st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_fv_correctness(case, pair_seed):
    import random
    f, part, vocab = case
    rng = random.Random(pair_seed)
    structs = all_structures(vocab, 2)
    a, b = rng.choice(structs), rng.choice(structs)
    d = decompose(f, part)
    for la in itertools.product(a.universe, repeat=len(part.left)):
        for rb in itertools.product(b.universe, repeat=len(part.right)):
            lhs = evaluate(annotated_disjoint_union(a, b), f,
                           merged_assignment(dict(zip(part.left, la)),
                                             dict(zip(part.right, rb))))
            assert lhs == eval_reduction(d, a, b, la, rb)


@given(decomposition_case())
@settings(max_examples=60, deadline=None)
def test_factor_discipline(case):
    f, part, _ = case
    d = decompose(f, part)
    c = classify(f)
    for g in d.delta1 + d.delta2:
        gc = classify(g)
        assert gc.sigma_level <= c.sigma_level
        assert gc.pi_level <= c.pi_level
        assert gc.rank <= c.rank
    # negation freedom is structural; pair form holds for quantified inputs
    if quantifier_rank(f) > 0:
        mode = "sigma" if c.sigma_level < c.pi_level else "pi"
        assert pair_blocks(d.beta, mode) is not None
    for g in d.delta1:
        assert set(free_variables(g)) <= set(part.left)
    for g in d.delta2:
        assert set(free_variables(g)) <= set(part.right)


@given(decomposition_case())
@settings(max_examples=30, deadline=None)
def test_simplify_preserves_semantics(case):
    f, part, vocab = case
    d = decompose(f, part)
    slim = simplify_reduction(d)
    structs = all_structures(vocab, 2)[:6]
    for a, b in itertools.product(structs, repeat=2):
        for la in itertools.product(a.universe, repeat=len(part.left)):
            for rb in itertools.product(b.universe, repeat=len(part.right)):
                assert eval_reduction(d, a, b, la, rb) == \
                    eval_reduction(slim, a, b, la, rb)


def test_factor_agreement_determines_verdict():
    # structure pairs that agree on every factor formula get the same verdict
    d = decompose(EXISTS_LOOP, VarPartition((), ()))
    buckets = {}
    for a, b in itertools.product(all_structures(VE, 2), repeat=2):
        key = (tuple(evaluate(a, g, {}) for g in d.delta1),
               tuple(evaluate(b, g, {}) for g in d.delta2))
        verdict = eval_reduction(d, a, b)
        assert buckets.setdefault(key, verdict) == verdict
