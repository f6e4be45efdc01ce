"""Decomposition engine: pinned construction cases, pair normal form,
evaluation, simplification, and the correctness property itself."""

import hashlib
import importlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from fvkit import (MARK, Bot, BudgetExceeded, PAnd, PBot, POr, PTop, PVar,
                   P_BOT, P_TOP, ReductionSequence, SIGMA, Structure, Top,
                   ValidationError, VarPartition, Vocabulary,
                   annotated_disjoint_union, builtin, classify, decompose,
                   decompose_over_op, evaluate, eval_prop, eval_reduction,
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
    neutral_t = Top if conj else Bot
    absorb_t = Bot if conj else Top

    def add(state, var):
        g = (delta1 if var.side == 1 else delta2)[var.index]
        if isinstance(g, neutral_t):
            return state
        if isinstance(g, absorb_t):
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

    unit_t = PTop if conj else PBot
    void_t = PBot if conj else PTop
    spread_t = POr if conj else PAnd
    empty = ((), ())

    def rec(q):
        if isinstance(q, PVar):
            st = add(empty, q)
            return [st] if st is not None else []
        if isinstance(q, unit_t):
            return [empty]
        if isinstance(q, void_t):
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
            return rng.choice((P_TOP, P_BOT))
        side = rng.choice((1, 2))
        return PVar(rng.randrange(len(delta1 if side == 1 else delta2)), side)
    children = tuple(random_prop(rng, delta1, delta2, depth - 1, not is_and)
                     for _ in range(rng.choice((0, 1, 2, 3, 3, 4, 4, 5))))
    if children and rng.random() < 0.2:
        # the same picks again, in the reverse order
        children += (type(children[0])(children[0].children[::-1])
                     if isinstance(children[0], (PAnd, POr)) else children[0],)
    return (PAnd if is_and else POr)(children)


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
        q = rng.choice((PAnd, POr))(parts) if len(parts) > 1 else parts[0]
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
# as the frozenset kernel produced them.
SUITE_DIGESTS = {
    "marked-union": (
        "4bfb629ebc62fcbef1b93ee2d874ee8b0a9d364cd31f589debfdc123b1c21694",
        "ef6ac0150090a968daaae646c0aedd845a33a12ba2537cc145ea86a31464686f"),
    "disjoint-union": (
        "936ae86582e415e670a2eb9f1f3c6bad3a2cd3d2bb6cff0fbac4c3506514573d",
        "e39843c73c55661d1d385305bcdcf35c6fb6a173afdb661088fe1002d972bca3"),
    "ordered-sum": (
        "34434f9ae5bb82bd712fdffd22025b021ac47f1ac3c353e8d7bc0a29ece82160",
        "8648b644dd49277abb5a137199fc9884cf8b7502c758ec40b98f90c3c345917c"),
    "join": (
        "4b5cd203a5fddc6dd5bfa9e4253e7e9a1e6359728d98ac5d22bcfd9f8b7baefa",
        "4ca4f4f123b746e1b653b1b675a52b20ede8a0f88c3083303c0d8c3ef7bbf53a"),
    "nlc-sum": (
        "6eaddc928c7f481907fdd22f8ea64c517cb7deb1d79ff7d5eb4dc7c79032e0f6",
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
