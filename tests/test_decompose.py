"""Decomposition engine: pinned construction cases, pair normal form,
evaluation, simplification, and the correctness property itself."""

import gc
import hashlib
import importlib
import itertools
import json
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fvkit import (BOT, MARK, And, BudgetExceeded, Literal, Or, PI, PVar,
                   ReductionSequence, SIGMA, Structure, TOP,
                   ValidationError, VarPartition, Vocabulary,
                   annotated_disjoint_union, apply_sum_like, builtin,
                   classify, decompose, decompose_over_op, evaluate,
                   eval_prop, eval_reduction,
                   formula_size, free_variables, normalize_pairs,
                   parse_formula, print_formula, prop_from_json, prop_to_json,
                   quantifier_rank,
                   random_formula, reduction_from_json, reduction_stats,
                   reduction_to_json, simplify_reduction)
from fvkit.formula import subformulas
from fvkit.modelcheck import DEFAULT_ATOM_BUDGET, _check_assignment, _compile
from conftest import (all_structures, linear_order, merged_assignment,
                      pair_blocks, rebound)

VE = Vocabulary({"E": 2})
VEP = Vocabulary({"E": 2, MARK: 1})

LOOP = Structure(VE, ("a",), {"E": frozenset({("a", "a")})})
EDGELESS = Structure(VE, ("b",), {"E": frozenset()})

EXISTS_LOOP = parse_formula("(exists (z) (E z z))", VE)


def test_atom_one_sided():
    d = decompose(parse_formula("(E x y)", VE), VarPartition(("x", "y"), ()))
    assert [print_formula(g) for g in d.delta1] == ["(E x y)"]
    assert [print_formula(g) for g in d.delta2] == ["true"]
    assert d.beta == And((PVar(0, 1), PVar(0, 2)))
    st = reduction_stats(d)
    assert st == {"total_size": 7, "factor_count_1": 1,
                  "factor_count_2": 1, "beta_size": 3}


def test_atom_mixed_sides():
    d = decompose(parse_formula("(E x y)", VE), VarPartition(("x",), ("y",)))
    assert d.delta1 == () and d.delta2 == ()
    assert d.beta == BOT
    assert reduction_stats(d)["total_size"] == 1
    neg = decompose(parse_formula("(not (E x y))", VE),
                    VarPartition(("x",), ("y",)))
    assert neg.beta == TOP


def test_equality_decomposes_like_atoms():
    same = decompose(parse_formula("(= x y)", VE), VarPartition(("x", "y"), ()))
    assert [print_formula(g) for g in same.delta1] == ["(= x y)"]
    mixed = decompose(parse_formula("(= x y)", VE), VarPartition(("x",), ("y",)))
    assert mixed.beta == BOT
    mixed_neg = decompose(parse_formula("(not (= x y))", VE),
                          VarPartition(("x",), ("y",)))
    assert mixed_neg.beta == TOP


def test_marker_literals():
    f = parse_formula("(P x)", VEP)
    assert decompose(f, VarPartition(("x",), ())).beta == TOP
    assert decompose(f, VarPartition((), ("x",))).beta == BOT
    g = parse_formula("(not (P x))", VEP)
    assert decompose(g, VarPartition((), ("x",))).beta == TOP
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
    assert d.beta == Or((And((PVar(0, 1), PVar(0, 2))),
                          And((PVar(1, 1), PVar(1, 2)))))


def test_eval_reduction_zeta_examples():
    d = decompose(EXISTS_LOOP, VarPartition((), ()))
    assert eval_reduction(d, LOOP, EDGELESS) is True
    assert eval_reduction(d, EDGELESS, EDGELESS) is False
    trivial = ReductionSequence((), (), TOP, VarPartition((), ()), VE)
    assert eval_reduction(trivial, LOOP, EDGELESS) is True
    assert eval_reduction(trivial, EDGELESS, EDGELESS) is True


def test_eval_reduction_validates_tuples():
    d = decompose(parse_formula("(E x y)", VE), VarPartition(("x",), ("y",)))
    with pytest.raises(ValidationError):
        eval_reduction(d, LOOP, EDGELESS)  # missing tuple components
    # an element outside its component's universe is refused whatever the
    # factors would answer: here beta is false and reads no factor
    with pytest.raises(ValidationError, match="unknown element 'a'"):
        eval_reduction(d, LOOP, EDGELESS, ("a",), ("a",))
    for text in ("(E x x)", "(not (E x x))"):
        f = parse_formula(text, VE)
        left = decompose(f, VarPartition(("x",), ()))
        with pytest.raises(ValidationError, match="unknown element 'nope'"):
            eval_reduction(left, LOOP, LOOP, ("nope",), ())
        right = decompose(f, VarPartition((), ("x",)))
        with pytest.raises(ValidationError, match="unknown element 'nope'"):
            eval_reduction(right, LOOP, LOOP, (), ("nope",))


def test_eval_reduction_checks_structure_vocabulary():
    # The vocabulary is checked when a structure first meets the reduction,
    # whether or not beta would reach a factor that names the relation, and
    # whatever the other side already keeps.
    unary = Structure(Vocabulary({"U": 1}), ("a",), {"U": frozenset()})
    two_pairs = decompose(EXISTS_LOOP, VarPartition((), ()))
    assert [print_formula(g) for g in two_pairs.delta1] == \
        ["(exists (z) (E z z))", "true"]
    second_pair = reduction_from_json({
        "delta1": ["true", "(exists (u) (E u u))"],
        "delta2": ["true", "(exists (u) (E u u))"],
        "beta": {"or": [{"and": [{"var": [0, 1]}, {"var": [0, 2]}]},
                        {"and": [{"var": [1, 1]}, {"var": [1, 2]}]}]},
        "partition": {"left": [], "right": []}, "vocabulary": {"E": 2}})
    wrong_arity = Structure(Vocabulary({"E": 1}), ("a",), {"E": frozenset()})
    wider = Structure(Vocabulary({"E": 2, "U": 1}), ("a",),
                      {"E": frozenset({("a", "a")})})
    for d in (two_pairs, second_pair):
        for warm in (False, True):
            if warm:
                assert eval_reduction(d, LOOP, LOOP) is True
            for bad in (unary, wrong_arity):
                with pytest.raises(ValidationError,
                                   match=r"^structure lacks relations "
                                   r"\{'E': 2\}$"):
                    eval_reduction(d, bad, LOOP)
                with pytest.raises(ValidationError, match="lacks relations"):
                    eval_reduction(d, LOOP, bad)
        assert eval_reduction(d, wider, wider) is True


def test_eval_reduction_on_loaded_betas():
    # decompose never repeats a factor in beta nor leaves constants in it;
    # a loaded reduction may do both and must still be evaluated exactly.
    # Factor (0, 1) rebinds the free x, which factor (1, 1) then reads.
    x0, x1 = {"var": [0, 1]}, {"var": [1, 1]}
    y0, y1 = {"var": [0, 2]}, {"var": [1, 2]}
    yes, no = {"const": True}, {"const": False}
    betas = [
        {"or": [{"and": [x0, y0]}, {"and": [x0, y1]}, no]},
        {"and": [{"or": [x0, no]}, {"or": [x1, x0, y0]}, yes, x1]},
        {"and": [{"or": [y0, y1]}, {"or": [y1, y0]}, {"or": [x1, y0, x1]}]},
        {"or": [no, {"and": [yes, x1, x1]}]},
    ]
    for beta in betas:
        d = reduction_from_json({
            "delta1": ["(exists (x) (forall (z) (E x z)))", "(E x x)"],
            "delta2": ["(E y y)", "(forall (z) (or (E z y) (= z y)))"],
            "beta": beta,
            "partition": {"left": ["x"], "right": ["y"]},
            "vocabulary": {"E": 2}})
        for a, b in itertools.product(all_structures(VE, 2), repeat=2):
            for ea, eb in itertools.product(a.universe, b.universe):
                def zeta(i, s):
                    if s == 1:
                        return evaluate(a, d.delta1[i], {"x": ea})
                    return evaluate(b, d.delta2[i], {"y": eb})
                assert eval_reduction(d, a, b, (ea,), (eb,)) == \
                    eval_prop(d.beta, zeta)


def test_compiled_beta_stays_out_of_fields_and_pickles():
    f = "(and (E x x) (exists (z) (or (E z y) (= z y))))"
    d = decompose(parse_formula(f, VE), VarPartition(("x",), ("y",)))
    grid = all_structures(VE, 2)
    cases = [(a, b, (ea,), (eb,)) for a, b in itertools.product(grid, repeat=2)
             for ea, eb in itertools.product(a.universe, b.universe)]
    values = [eval_reduction(d, *case) for case in cases]
    assert d.beta._ev is not None
    fresh = decompose(parse_formula(f, VE), VarPartition(("x",), ("y",)))
    assert fresh.beta._ev is None
    assert d == fresh and repr(d) == repr(fresh)
    # Closures do not pickle, so this fails if _ev gets into the state.
    back = pickle.loads(pickle.dumps(d))
    assert back == d and back.beta._ev is None
    # nor does the factor memo's weak reference
    assert d._memo is not None and back._memo is None
    assert [eval_reduction(back, *case) for case in cases] == values
    assert True in values and False in values


def test_cached_hashes_stay_out_of_pickles_across_processes():
    # Another process with another hash seed pickles a structure and a used
    # reduction, whose hashes (the structure's, the nodes') it has kept.  A
    # hash kept in the pickled state would disagree with this process's.
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    script = """if True:
        import pickle, sys
        from fvkit import (Structure, VarPartition, Vocabulary, decompose,
                           eval_reduction, parse_formula)
        VE = Vocabulary({"E": 2})
        s = Structure(VE, ("p", "q"), {"E": frozenset({("p", "q")})})
        f = parse_formula("(and (E x x) (exists (z) (E z y)))", VE)
        d = decompose(f, VarPartition(("x",), ("y",)))
        eval_reduction(d, s, s, ("p",), ("q",))
        sys.stdout.buffer.write(pickle.dumps((s, d, hash(s), hash(d))))
    """
    src = str(Path(importlib.import_module("fvkit").__file__).parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, check=True).stdout
    s, d, their_s, their_d = pickle.loads(out)
    # nothing kept came along, not even the seed-free hashes of beta's nodes
    assert s._hash is None
    assert all(g._hash is None for g in subformulas(d.beta))
    fresh_s = Structure(VE, ("p", "q"), {"E": frozenset({("p", "q")})})
    fresh_d = decompose(
        parse_formula("(and (E x x) (exists (z) (E z y)))", VE),
        VarPartition(("x",), ("y",)))
    assert (hash(fresh_s), hash(fresh_d)) != (their_s, their_d)
    assert s == fresh_s and hash(s) == hash(fresh_s)
    assert d == fresh_d and hash(d) == hash(fresh_d)
    assert hash(d.beta) == hash(fresh_d.beta)
    table = {fresh_s: "s", fresh_d: "d"}
    assert table[s] == "s" and table[d] == "d" and len(table | {s: 0}) == 2
    assert eval_reduction(d, s, s, ("p",), ("q",)) is False


def test_reduction_from_json_rejects_factor_outside_its_side():
    # eval_reduction used to meet this factor as a bare KeyError: 'y'
    with pytest.raises(ValidationError,
                       match=r"^delta1 factor 0 '\(E x y\)' has free variable "
                       r"'y' outside its side \['x'\]$"):
        reduction_from_json({
            "delta1": ["(E x y)"], "delta2": ["true"],
            "beta": {"var": [0, 1]},
            "partition": {"left": ["x"], "right": ["y"]},
            "vocabulary": {"E": 2}})


def test_reduction_json_round_trip_is_exact():
    # Factors load as written.  Decompose gives sibling binders one name;
    # renaming them apart (q3 and q3_2) would change 246 of these 2,500
    # reductions and 2,055 of the heavy reduction's 2,080 left factors.
    from test_acceptance import formula_suite, sum_like_ops

    ds = [decompose(f, part) for _, _, f, part in formula_suite(VE)]
    for _, op, _ in sum_like_ops():
        ds += [decompose_over_op(f, op, part) for _, _, f, part
               in formula_suite(op.interp.target_vocab)]
    op = builtin("join")
    f = random_formula("sigma", n=3, m=3, vocab=op.interp.target_vocab,
                       free_vars=("v1", "v2"), seed=913070797)
    ds.append(decompose_over_op(f, op, VarPartition(("v1",), ("v2",))))
    for d in ds:
        assert reduction_from_json(reduction_to_json(d)) == d


def test_loaded_factor_may_rebind_a_partition_variable():
    text = "(and (E x x) (exists (x) (not (E x x))))"
    d = reduction_from_json({
        "delta1": [text], "delta2": ["true"], "beta": {"var": [0, 1]},
        "partition": {"left": ["x"], "right": []}, "vocabulary": {"E": 2}})
    assert reduction_to_json(d)["delta1"] == [text]
    assert print_formula(parse_formula(text, VE)) == text
    renamed = parse_formula("(and (E x x) (exists (x_2) (not (E x_2 x_2))))",
                            VE)
    values = set()
    for a in all_structures(VE, 2):
        for e in a.universe:
            want = evaluate(a, renamed, {"x": e})
            assert evaluate(a, d.delta1[0], {"x": e}) is want
            assert eval_reduction(d, a, a, (e,), ()) is want
            values.add(want)
    assert values == {True, False}


def test_eval_reduction_budget_per_side(monkeypatch):
    # each factor makes 64 atom checks on an edgeless 8-element structure;
    # a side's budget covers all of its factors in one call
    monkeypatch.setattr(importlib.import_module("fvkit.decompose"),
                        "DEFAULT_ATOM_BUDGET", 100)
    empty = Structure(VE, tuple(str(i) for i in range(8)), {"E": frozenset()})
    factor = "(forall (u v) (not (E u v)))"

    def reduction(beta):
        return reduction_from_json({
            "delta1": [factor, factor], "delta2": [factor], "beta": beta,
            "partition": {"left": [], "right": []}, "vocabulary": {"E": 2}})

    one_each = reduction({"and": [{"var": [0, 1]}, {"var": [0, 2]}]})
    assert eval_reduction(one_each, empty, empty) is True
    two_left = reduction({"and": [{"var": [0, 1]}, {"var": [1, 1]}]})
    with pytest.raises(BudgetExceeded, match="101 atom checks, limit 100$"):
        eval_reduction(two_left, empty, empty)


def test_eval_reduction_budget_counts_this_calls_checks(monkeypatch):
    # The budget bounds the atom checks a call makes; kept values cost
    # nothing.  Each factor makes 64 atom checks, as above.
    module = importlib.import_module("fvkit.decompose")
    monkeypatch.setattr(module, "DEFAULT_ATOM_BUDGET", 100)
    empty = Structure(VE, tuple(str(i) for i in range(8)), {"E": frozenset()})
    factor = "(forall (u v) (not (E u v)))"

    def reduction(beta):
        return reduction_from_json({
            "delta1": [factor, factor], "delta2": [factor], "beta": beta,
            "partition": {"left": [], "right": []}, "vocabulary": {"E": 2}})

    one_each = reduction({"and": [{"var": [0, 1]}, {"var": [0, 2]}]})
    assert eval_reduction(one_each, empty, empty) is True
    monkeypatch.setattr(module, "DEFAULT_ATOM_BUDGET", 0)
    assert eval_reduction(one_each, empty, empty) is True

    monkeypatch.setattr(module, "DEFAULT_ATOM_BUDGET", 100)
    two_left = reduction({"and": [{"var": [0, 1]}, {"var": [1, 1]}]})
    with pytest.raises(BudgetExceeded, match="101 atom checks, limit 100$"):
        eval_reduction(two_left, empty, empty)
    # factor 0 was kept; factor 1, which raised, was not
    monkeypatch.setattr(module, "DEFAULT_ATOM_BUDGET", 63)
    with pytest.raises(BudgetExceeded, match="64 atom checks, limit 63$"):
        eval_reduction(two_left, empty, empty)
    monkeypatch.setattr(module, "DEFAULT_ATOM_BUDGET", 64)
    assert eval_reduction(two_left, empty, empty) is True
    monkeypatch.setattr(module, "DEFAULT_ATOM_BUDGET", 0)
    assert eval_reduction(two_left, empty, empty) is True


def test_pair_form_beta_is_decided_from_kept_values(monkeypatch):
    # In each case the last call's walk would first reach a factor that no
    # call has checked on its structure, which with no budget raises; the
    # kept values alone decide the pair-form beta instead.  Values are kept
    # per structure value, so every board differs in value from the others
    # on its side, and the never-seen boards (6 elements) from all of them.
    module = importlib.import_module("fvkit.decompose")
    none, some = "(forall (u v) (not (E u v)))", "(exists (u v) (E u v))"

    def board(edges=(), size=8):
        return Structure(VE, tuple(str(i) for i in range(size)),
                         {"E": frozenset(edges)})
    x0, x1 = {"var": [0, 1]}, {"var": [1, 1]}
    y0, y1 = {"var": [0, 2]}, {"var": [1, 2]}
    sigma = {"or": [{"and": [x0, y0]}, {"and": [x1, y1]}]}
    pi = {"and": [{"or": [x0, y0]}, {"or": [x1, y1]}]}
    a, a1, b, b1 = board([("0", "1")]), board(), board(), board(size=7)
    cases = [
        # sigma, false: both right factors are known false on b
        (sigma, [none, none], [some, some], [(a1, b)], (board(size=6), b),
         False),
        # sigma, true: pair 1 is known true on a1 and on b
        (sigma, [none, "true"], [some, none], [(a1, b1), (a, b)], (a1, b),
         True),
        # pi, true: both right factors are known true on b
        (pi, [some, some], [none, none], [(a1, b)], (board(size=6), b), True),
        # pi, false: pair 1 is known false on a and on b
        (pi, [none, "false"], [none, "false"], [(a, b1), (a1, b)], (a, b),
         False),
    ]
    for beta, delta1, delta2, warm, (left, right), want in cases:
        d = reduction_from_json({
            "delta1": delta1, "delta2": delta2, "beta": beta,
            "partition": {"left": [], "right": []}, "vocabulary": {"E": 2}})
        monkeypatch.setattr(module, "DEFAULT_ATOM_BUDGET", 10_000)
        for pair in warm:
            eval_reduction(d, *pair)
        assert _ref_eval_reduction(d, left, right) is want
        monkeypatch.setattr(module, "DEFAULT_ATOM_BUDGET", 0)
        assert eval_reduction(d, left, right) is want
        # equal but distinct copies share the kept values
        assert eval_reduction(d, *(Structure(s.vocab, s.universe, s.relations)
                                   for s in (left, right))) is want
        with pytest.raises(BudgetExceeded):
            eval_reduction(d, board(size=6), board(size=6))


def _ref_eval_reduction(d, a, b, a_tuple=(), b_tuple=()):
    """``eval_reduction`` as it was before factor values were kept on the
    reduction, kept verbatim as the reference: every call checks both
    assignments and runs every factor beta reaches."""
    if len(a_tuple) != len(d.partition.left) or len(b_tuple) != len(d.partition.right):
        raise ValidationError("tuple lengths do not match the partition")
    asg1 = dict(zip(d.partition.left, a_tuple))
    asg2 = dict(zip(d.partition.right, b_tuple))
    _check_assignment(a, d.partition.left, asg1)
    _check_assignment(b, d.partition.right, asg2)
    sides = {1: (a, d.delta1, asg1, [DEFAULT_ATOM_BUDGET] * 2),
             2: (b, d.delta2, asg2, [DEFAULT_ATOM_BUDGET] * 2)}

    def zeta(i: int, s: int) -> bool:
        structure, bank, asg, budget = sides[s]
        f = bank[i]
        return (f._ev or _compile(f))(structure, asg, budget)

    beta = d.beta
    return (beta._ev or _compile(beta))(zeta, None, None)


def test_eval_reduction_matches_reference_walk():
    # Kept factor values and the pair-form bitmask tests against the walk
    # that recomputes every factor: the four operations' grids, each
    # structure also as an equal but distinct copy, every cell twice in a
    # seeded random order, and tuples sometimes passed as lists.
    import random
    from test_acceptance import formula_suite, sum_like_ops
    rng = random.Random(21)
    # the reductions of test_eval_reduction_on_loaded_betas, which walk
    x0, x1 = {"var": [0, 1]}, {"var": [1, 1]}
    y0, y1 = {"var": [0, 2]}, {"var": [1, 2]}
    yes, no = {"const": True}, {"const": False}
    betas = [
        {"or": [{"and": [x0, y0]}, {"and": [x0, y1]}, no]},
        {"and": [{"or": [x0, no]}, {"or": [x1, x0, y0]}, yes, x1]},
        {"and": [{"or": [y0, y1]}, {"or": [y1, y0]}, {"or": [x1, y0, x1]}]},
        {"or": [no, {"and": [yes, x1, x1]}]},
    ]
    loaded = [reduction_from_json({
        "delta1": ["(exists (x) (forall (z) (E x z)))", "(E x x)"],
        "delta2": ["(E y y)", "(forall (z) (or (E z y) (= z y)))"],
        "beta": beta, "partition": {"left": ["x"], "right": ["y"]},
        "vocabulary": {"E": 2}}) for beta in betas]
    jobs = [(loaded, all_structures(VE, 2))]
    for name, op, grid in sum_like_ops():
        count = 8 if name == "disjoint-union" else 24
        jobs.append(([decompose_over_op(f, op, part) for _, _, f, part
                      in formula_suite(op.interp.target_vocab, count)], grid))
    modes = set()
    for ds, grid in jobs:
        grid = grid + [Structure(s.vocab, s.universe, s.relations)
                       for s in grid]
        cells = [(d, a, b, la, rb) for d in ds
                 for a, b in itertools.product(grid, repeat=2)
                 for la in itertools.product(a.universe,
                                             repeat=len(d.partition.left))
                 for rb in itertools.product(b.universe,
                                             repeat=len(d.partition.right))]
        cells *= 2
        rng.shuffle(cells)
        for d, a, b, la, rb in cells:
            want = _ref_eval_reduction(d, a, b, la, rb)
            if rng.random() < 0.2:
                la, rb = list(la), list(rb)
            assert eval_reduction(d, a, b, la, rb) is want
        modes |= {d._memo.pair for d in ds}
    assert modes == {SIGMA, PI, None}


def test_factor_memo_stays_out_of_value_and_keeps_no_structure():
    f = parse_formula("(exists (z) (and (E z v1) (E v1 z)))", VE)
    part = VarPartition(("v1",), ())
    d = decompose(f, part)
    a = Structure(VE, ("p", "q"), {"E": frozenset({("p", "q"), ("q", "p")})})
    r = weakref.ref(a)
    assert eval_reduction(d, a, LOOP, ("p",), ()) is True
    assert eval_reduction(d, a, LOOP, ["q"], []) is True
    fresh = decompose(f, part)
    assert d._memo is not None and fresh._memo is None
    assert d == fresh and repr(d) == repr(fresh) and hash(d) == hash(fresh)
    assert a in d._memo.tables[0]
    del a
    gc.collect()
    assert r() is None
    assert len(d._memo.tables[0]) == 0
    assert list(d._memo.tables[1]) == [LOOP]


def test_normalize_pairs_four_pair_example():
    psi1 = parse_formula("(E x x)", VE)
    psi2 = parse_formula("(not (E x x))", VE)
    chi1 = parse_formula("(E y y)", VE)
    chi2 = parse_formula("(not (E y y))", VE)
    d = ReductionSequence(
        (psi1, psi2), (chi1, chi2),
        And((Or((PVar(0, 1), PVar(0, 2))), Or((PVar(1, 1), PVar(1, 2))))),
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
    top = ReductionSequence((), (), TOP, VarPartition((), ()), VE)
    out = normalize_pairs(top, SIGMA)
    assert [print_formula(g) for g in out.delta1] == ["true"]
    assert [print_formula(g) for g in out.delta2] == ["true"]
    assert out.beta == And((PVar(0, 1), PVar(0, 2)))
    bot = ReductionSequence((), (), BOT, VarPartition((), ()), VE)
    assert normalize_pairs(bot, SIGMA).beta == Or(())


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
        Or((And((PVar(0, 1), PVar(0, 2))), And((PVar(1, 1), PVar(1, 2))))),
        VarPartition((), ()), VE)
    slim = simplify_reduction(dup)
    assert len(slim.delta1) == 1  # identical pairs collapse
    dead = ReductionSequence(
        (psi, parse_formula("false", VE)), (top, top),
        Or((And((PVar(0, 1), PVar(0, 2))), And((PVar(1, 1), PVar(1, 2))))),
        VarPartition((), ()), VE)
    assert len(simplify_reduction(dead).delta1) == 1  # false factor drops
    bot = ReductionSequence((), (), Or(()), VarPartition((), ()), VE)
    assert simplify_reduction(bot).beta == BOT
    # one pair in its outer junction is not pair form: beta folds to the
    # bare pair, but the false factor stays
    wrapped = ReductionSequence(
        (parse_formula("false", VE),), (top,),
        Or((And((PVar(0, 1), PVar(0, 2))),)), VarPartition((), ()), VE)
    slim = simplify_reduction(wrapped)
    assert slim.delta1 == (BOT,) and slim.beta == And((PVar(0, 1), PVar(0, 2)))
    # a pair absorbs every pair whose picks contain its picks:
    # (psi, true) or (psi, chi) is (psi, true)
    chi = parse_formula("(exists (z) (not (E z z)))", VE)
    absorbing = ReductionSequence(
        (psi, psi), (chi, top),
        Or((And((PVar(0, 1), PVar(0, 2))), And((PVar(1, 1), PVar(1, 2))))),
        VarPartition((), ()), VE)
    slim = simplify_reduction(absorbing)
    assert (slim.delta1, slim.delta2) == ((psi,), (top,))
    assert slim.beta == And((PVar(0, 1), PVar(0, 2)))
    for d in (dup, dead, absorbing):
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


# A well-formed reduction that the malformed cases below change in one place.
REDUCTION_JSON = {"delta1": ["(E x x)"], "delta2": [],
                  "beta": {"var": [0, 1]},
                  "partition": {"left": ["x"], "right": []},
                  "vocabulary": {"E": 2}}


def test_reduction_json_round_trip():
    d = decompose(EXISTS_LOOP, VarPartition((), ()))
    data = reduction_to_json(d)
    assert data["delta1"] == ["(exists (z) (E z z))", "true"]
    assert data["beta"]["or"][0] == {"and": [{"var": [0, 1]}, {"var": [0, 2]}]}
    back = reduction_from_json(data)
    assert back.delta1 == d.delta1 and back.beta == d.beta
    assert prop_to_json(BOT) == {"const": False}
    assert prop_to_json(Or((PVar(0, 1), TOP))) == \
        {"or": [{"var": [0, 1]}, {"const": True}]}
    # files that spell a constant as an empty junction still load
    assert prop_from_json({"or": []}) == BOT
    assert prop_from_json({"and": []}) == TOP
    assert reduction_from_json(REDUCTION_JSON).beta == PVar(0, 1)
    with pytest.raises(ValidationError):
        reduction_from_json([REDUCTION_JSON])


@pytest.mark.parametrize("beta", [
    {"var": 5}, {"var": [0, 1, 2]}, {"var": ["a", 1]}, {"var": [True, 1]},
    {"and": 5}, {"const": "no"}, {"const": 1}, {"xor": []}, [],
    {"or": [{"var": [0, 3]}]},
])
def test_malformed_beta_json_is_a_validation_error(beta):
    with pytest.raises(ValidationError):
        prop_from_json(beta)
    with pytest.raises(ValidationError):
        reduction_from_json(REDUCTION_JSON | {"beta": beta})


def test_deep_beta_json_is_a_validation_error():
    # 600 alternating and/or levels: past the recursive walks of beta
    beta = {"var": [0, 1]}
    for level in range(600):
        beta = {"or" if level % 2 else "and": [{"var": [0, 1]}, beta]}
    with pytest.raises(ValidationError, match="^reduction JSON nested too "
                       "deeply$"):
        reduction_from_json(REDUCTION_JSON | {"beta": beta})


@pytest.mark.parametrize("change", [
    {"vocabulary": None}, {"partition": {"left": ["x"]}},
    {"delta1": [5]}, {"delta2": "(E y y)"}, {"partition": ["x"]},
    {"partition": {"left": "x", "right": []}}, {"vocabulary": [["E", 2]]},
], ids=["no-vocabulary", "no-right", "factor-int", "delta-string",
        "partition-list", "left-string", "vocabulary-list"])
def test_malformed_reduction_json_is_a_validation_error(change):
    # a None value drops the key
    data = {k: v for k, v in (REDUCTION_JSON | change).items()
            if v is not None}
    with pytest.raises(ValidationError):
        reduction_from_json(data)


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


# ---------------------------------------------------------------------------
# The bitmask distribution kernel against the previous frozenset kernel

DECOMPOSE = importlib.import_module("fvkit.decompose")


def reference_prune(blocks):
    if len(blocks) < 2:
        return blocks
    sets = [(frozenset(l), frozenset(r)) for l, r in blocks]
    out = []
    for i, (li, ri) in enumerate(sets):
        dominated = False
        for j, (lj, rj) in enumerate(sets):
            if j == i:
                continue
            if lj <= li and rj <= ri and ((lj, rj) != (li, ri) or j < i):
                dominated = True
                break
        if not dominated:
            out.append(blocks[i])
    return out


def reference_distribute(p, delta1, delta2, mode):
    conj = mode == SIGMA
    neutral = TOP if conj else BOT
    absorb = BOT if conj else TOP

    def add(state, var):
        g = (delta1 if var.side == 1 else delta2)[var.index]
        if g == neutral:
            return state
        if g == absorb:
            return None
        left, right = state
        if var.side == 1:
            return state if g in left else (left + (g,), right)
        return state if g in right else (left, right + (g,))

    def combine(s, t):
        left = list(s[0])
        right = list(s[1])
        left.extend(g for g in t[0] if g not in left)
        right.extend(g for g in t[1] if g not in right)
        return tuple(left), tuple(right)

    unit = TOP if conj else BOT
    void = BOT if conj else TOP
    spread_t = Or if conj else And
    empty = ((), ())

    def rec(q):
        if isinstance(q, PVar):
            st = add(empty, q)
            return [st] if st is not None else []
        if q == unit:
            return [empty]
        if q == void:
            return []
        if isinstance(q, spread_t):
            seen = {}
            for c in q.children:
                for st in rec(c):
                    seen.setdefault(st)
            return reference_prune(list(seen))
        acc = [empty]
        for c in q.children:
            parts = rec(c)
            nxt = {}
            for s in acc:
                for t in parts:
                    nxt.setdefault(combine(s, t))
            acc = reference_prune(list(nxt))
            if not acc:
                break
        return acc

    seen = {}
    for st in rec(p):
        seen.setdefault(st)
    return reference_prune(list(seen))


def reference_normalize_pairs(d, mode):
    blocks = reference_distribute(d.beta, d.delta1, d.delta2, mode)
    delta1 = tuple(DECOMPOSE._build_factor(left, mode) for left, _ in blocks)
    delta2 = tuple(DECOMPOSE._build_factor(right, mode) for _, right in blocks)
    return ReductionSequence(delta1, delta2,
                             DECOMPOSE._pair_beta(len(blocks), mode),
                             d.partition, d.vocab)


# Factor pool: the constants, then formulas that turn up on both sides.
POOL = tuple(parse_formula(t, VE) for t in (
    "true", "false", "(E x x)", "(not (E x x))", "(E x y)", "(E y x)",
    "(not (E x y))", "(E y y)", "(exists (z) (E z z))",
    "(forall (z) (E z x))", "(exists (z) (E x z))", "(forall (z) (E z z))"))


def random_bank(rng):
    return tuple(rng.choice(POOL[:2] if rng.random() < 0.1 else POOL[2:])
                 for _ in range(rng.randint(1, 8)))


def random_prop(rng, delta1, delta2, depth, is_and):
    """A tree of alternating junctions over factor variables, with a few
    constants, empty junctions and children repeated in reverse order."""
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        if roll < 0.02:
            return rng.choice((TOP, BOT))
        side = rng.choice((1, 2))
        return PVar(rng.randrange(len(delta1 if side == 1 else delta2)), side)
    children = tuple(random_prop(rng, delta1, delta2, depth - 1, not is_and)
                     for _ in range(rng.choice((0, 1, 2, 3, 3, 4, 4, 5))))
    if children and rng.random() < 0.2:
        # the same picks again, in the reverse order
        children += (type(children[0])(children[0].children[::-1])
                     if isinstance(children[0], (And, Or)) else children[0],)
    return (And if is_and else Or)(children)


def reference_compile_prop(p):
    """The compiler betas had of their own before modelcheck's compiler
    took them over: p as a closure ``zeta -> bool`` that asks zeta for its
    variables in child order and stops at the first child that decides."""
    if isinstance(p, PVar):
        index, side = p.index, p.side
        return lambda zeta: bool(zeta(index, side))
    kids = tuple([reference_compile_prop(c) for c in p.children])
    if isinstance(p, And):
        def ev(zeta):
            for kid in kids:
                if not kid(zeta):
                    return False
            return True
    else:
        def ev(zeta):
            for kid in kids:
                if kid(zeta):
                    return True
            return False
    return ev


def _ref_prop_size(p):
    """``prop_size`` as it was before beta's leaf became a formula node."""
    if isinstance(p, PVar):
        return 1
    return 1 + sum(_ref_prop_size(c) for c in p.children)


def _ref_prop_vars(p):
    """``prop_vars`` as it was before beta's leaf became a formula node."""
    if isinstance(p, PVar):
        return {(p.index, p.side)}
    out = set()
    for c in p.children:
        out |= _ref_prop_vars(c)
    return out


def test_beta_size_and_variables_match_the_old_walks():
    # formula_size and free_variables serve beta in place of the deleted
    # prop_size and prop_vars: every beta of the criteria 1-3 suites, the
    # loaded betas, and 600 alternating levels built here.
    from test_acceptance import formula_suite, sum_like_ops
    betas = [decompose(f, part).beta for _, _, f, part in formula_suite(VE)]
    for _, op, _ in sum_like_ops():
        betas += [decompose_over_op(f, op, part).beta for _, _, f, part
                  in formula_suite(op.interp.target_vocab)]
    x0, x1 = {"var": [0, 1]}, {"var": [1, 1]}
    y0, y1 = {"var": [0, 2]}, {"var": [1, 2]}
    yes, no = {"const": True}, {"const": False}
    betas += [prop_from_json(beta) for beta in (
        {"or": [{"and": [x0, y0]}, {"and": [x0, y1]}, no]},
        {"and": [{"or": [x0, no]}, {"or": [x1, x0, y0]}, yes, x1]},
        {"and": [{"or": [y0, y1]}, {"or": [y1, y0]}, {"or": [x1, y0, x1]}]},
        {"or": [no, {"and": [yes, x1, x1]}]},
    )]
    deep = PVar(0, 1)
    for level in range(600):
        deep = (Or if level % 2 else And)((PVar(level, 1 + level % 2), deep))
    betas.append(deep)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))   # the old walks: 2 frames a level
    try:
        for beta in betas:
            assert formula_size(beta) == _ref_prop_size(beta)
            assert set(free_variables(beta)) == _ref_prop_vars(beta)
    finally:
        sys.setrecursionlimit(limit)
    assert formula_size(deep) == 1201 and len(free_variables(deep)) == 600
    assert importlib.import_module("fvkit.decompose").PVar is PVar
    for index, side in ((0, 3), (-1, 1)):
        with pytest.raises(ValidationError, match="bad factor variable"):
            PVar(index, side)


def test_eval_prop_matches_reference_compiler():
    # the same value from the same requests to zeta, in the same order
    import random
    rng = random.Random(3)
    for _ in range(400):
        delta1, delta2 = random_bank(rng), random_bank(rng)
        p = random_prop(rng, delta1, delta2, rng.randint(0, 4),
                        rng.random() < 0.5)
        truth = {(i, side): rng.random() < 0.5
                 for side, bank in ((1, delta1), (2, delta2))
                 for i in range(len(bank))}
        asked = ([], [])

        def zeta(i, side, log):
            log.append((i, side))
            return truth[i, side]
        want = reference_compile_prop(p)(lambda i, s: zeta(i, s, asked[0]))
        got = eval_prop(p, lambda i, s: zeta(i, s, asked[1]))
        assert got is want and asked[1] == asked[0]


def test_distribute_matches_reference():
    import random
    rng = random.Random(5)
    part = VarPartition(("x",), ("y",))
    for _ in range(400):
        delta1, delta2 = random_bank(rng), random_bank(rng)
        if rng.random() < 0.3:
            delta2 = delta1   # the same formulas on both sides
        p = random_prop(rng, delta1, delta2, rng.randint(2, 4),
                        rng.random() < 0.5)
        d = ReductionSequence(delta1, delta2, p, part, VE)
        for mode in ("sigma", "pi"):
            assert DECOMPOSE._distribute(p, delta1, delta2, mode) == \
                reference_distribute(p, delta1, delta2, mode)
            assert normalize_pairs(d, mode) == \
                reference_normalize_pairs(d, mode)


def test_distribute_over_pair_lists_matches_reference():
    # The engine hands _distribute pair lists in place of their pair-form
    # beta; laid out into factor lists they must give the same blocks.
    import random
    rng = random.Random(11)
    for _ in range(300):
        parts = tuple(
            DECOMPOSE._Pairs(rng.choice(("sigma", "pi")),
                             *zip(*[(rng.choice(POOL), rng.choice(POOL))
                                    for _ in range(rng.randint(1, 3))]))
            for _ in range(rng.randint(1, 3)))
        q = rng.choice((And, Or))(parts) if len(parts) > 1 else parts[0]
        delta1, delta2 = [], []
        beta = DECOMPOSE._place(q, delta1, delta2)
        for mode in ("sigma", "pi"):
            assert DECOMPOSE._distribute(q, (), (), mode) == \
                reference_distribute(beta, tuple(delta1), tuple(delta2), mode)


def reductions_digest(reductions):
    h = hashlib.sha256()
    for d in reductions:
        h.update(json.dumps(reduction_to_json(d), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


# sha256 of the reductions' JSON lines, plain and through simplify_reduction,
# as the frozenset kernel produced them; beta writes a constant as
# {"const": ...}.
SUITE_DIGESTS = {
    "marked-union": (
        "7557b3dc2c45f3e8b6bbe367974834fa4683fdcca7a121a4000557ed8562632c",
        "ef6ac0150090a968daaae646c0aedd845a33a12ba2537cc145ea86a31464686f"),
    "disjoint-union": (
        "5837c75de4e78616856436f3cc2d06a037af09fe5484866446f4e79f5b816a65",
        "e39843c73c55661d1d385305bcdcf35c6fb6a173afdb661088fe1002d972bca3"),
    "ordered-sum": (
        "1ecb1974d702c91f8fcae85419e4645179a3ec0a46d169ca965d1abdfa5330fa",
        "8648b644dd49277abb5a137199fc9884cf8b7502c758ec40b98f90c3c345917c"),
    "join": (
        "76d77069ee948b40d2120b9e30cff039d45371a137c8a4eb437dfdde49b42dbc",
        "4ca4f4f123b746e1b653b1b675a52b20ede8a0f88c3083303c0d8c3ef7bbf53a"),
    "nlc-sum": (
        "f401c54dafd76c3c94b705661dfb7646267ded1b1dde99c0d1440b7bb8a7ee19",
        "ae4f99aca862e0d8ec71b47a3ab6fdbdb7389c90d48544776eb019bc56a43b4b"),
}


@pytest.mark.parametrize("name", list(SUITE_DIGESTS))
def test_suite_reductions_pinned(name):
    from test_acceptance import formula_suite, sum_like_ops
    if name == "marked-union":
        ds = [decompose(f, part) for _, _, f, part in formula_suite(VE)]
    else:
        op = {op_name: op for op_name, op, _ in sum_like_ops()}[name]
        ds = [decompose_over_op(f, op, part) for _, _, f, part
              in formula_suite(op.interp.target_vocab)]
    assert (reductions_digest(ds),
            reductions_digest(simplify_reduction(d) for d in ds)) == \
        SUITE_DIGESTS[name]


def test_heavy_reduction_pinned():
    # A decompose-ladder-shaped draw (join, sigma, n = m = 3, size 36) with
    # 2,080 factor pairs; the frozenset kernel took over 3 s on it.
    op = builtin("join")
    f = random_formula("sigma", n=3, m=3, vocab=op.interp.target_vocab,
                       free_vars=("v1", "v2"), seed=913070797)
    d = decompose_over_op(f, op, VarPartition(("v1",), ("v2",)))
    assert len(d.delta1) == 2080
    assert reductions_digest([d]) == \
        "db12395956d4f45a14164e7353bb0fa84cb25d94d6f3576a50623054c33b8bb6"


# ---------------------------------------------------------------------------
# Binders that reuse names: decompose renames nothing, and scopes each
# binder exactly


@pytest.mark.parametrize("name", ["x", "v1", "v2"])
def test_reused_binder_names_match_composites(name):
    from test_acceptance import (check_against_composites, formula_suite,
                                 sum_like_ops)
    shadowed = 0
    for _, op, grid in sum_like_ops():
        rows = []
        for _, _, f, part in formula_suite(op.interp.target_vocab, 30):
            g = rebound(f, name)
            shadowed += g != f and name in free_variables(f)
            d = decompose_over_op(g, op, part)
            # factors that share binder names load as written
            assert reduction_from_json(reduction_to_json(d)) == d
            rows.append((g, part, d))
        composites = [(a, b, apply_sum_like(op, a, b))
                      for a in grid for b in grid]
        assert check_against_composites(rows, composites)
    # formulas whose binders now reuse a free variable's name
    assert shadowed > 0 if name != "x" else shadowed == 0
