"""Semantic class enumeration, the transfer oracle, the separator budget,
and the counting check."""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from fvkit import (BOT, TOP, And, BudgetExceeded, CapExceeded,
                   Exists, Forall, GameConfig, Literal, Or,
                   Player,
                   SemanticClass, Structure, TestBed, ValidationError,
                   Vocabulary, classify, count_bound_check,
                   enumerate_classes, evaluate, find_separator,
                   free_variables, parse_formula, prefix_game_winner,
                   print_formula, structure_from_json, structure_to_json,
                   tower, transfer_oracle)
from fvkit import enumeration
from conftest import all_structures, linear_order

VU = Vocabulary({"U": 1})
VE = Vocabulary({"E": 2})

WITH_U = Structure(VU, ("a",), {"U": frozenset({("a",)})})
WITHOUT_U = Structure(VU, ("b",), {"U": frozenset()})


def u_bed(var_context=("x",)):
    return TestBed(tuple(all_structures(VU, 2)), var_context)


def test_tower_values():
    assert tower(0, 5) == 5
    assert tower(2, 2) == 16
    # by the recurrence: 2^(2^(2^1))
    assert tower(3, 1) == 16
    assert tower(1, 10) == 1024
    with pytest.raises(CapExceeded):
        tower(4, 3)


def test_testbed_shape():
    bed = u_bed()
    # structure-major rows, assignments in universe order
    sizes = [len(s.universe) for s in bed.structures]
    assert len(bed.rows) == sum(sizes)
    assert bed.rows[0][0] == 0
    # row_index is the mixed-radix position, and refuses rows not in the bed
    pair_bed = u_bed(("x", "y"))
    for idx, (si, asg) in enumerate(pair_bed.rows):
        assert pair_bed.row_index(si, asg) == idx
    for si, asg in [(-1, ("e0", "e0")), (6, ("e0", "e0")), (0, ("e0",)),
                    (0, ("e1", "e0")), ("0", ("e0", "e0"))]:
        with pytest.raises(ValidationError, match="^no such row"):
            pair_bed.row_index(si, asg)
    with pytest.raises(ValidationError):
        TestBed((WITH_U,), ("x", "x"))
    with pytest.raises(ValidationError):
        TestBed((WITH_U, linear_order(2)), ("x",))


def test_level_zero_classes():
    classes = enumerate_classes("sigma", 0, 1, u_bed())
    reps = {print_formula(c.representative) for c in classes}
    assert reps == {"true", "false", "(U x)", "(not (U x))"}
    assert len(classes) == 4
    # closure: AND/OR of any two class vectors is again a class vector
    bits = {c.bits for c in classes}
    for x, y in itertools.product(bits, repeat=2):
        assert (x & y) in bits and (x | y) in bits


def test_representative_soundness():
    cells = [("sigma", 0, 1, u_bed()), ("sigma", 1, 1, u_bed()),
             ("pi", 1, 1, u_bed()),
             ("sigma", 2, 1, u_bed(())), ("pi", 1, 2, u_bed(()))]
    for mode, n, k, bed in cells:
        for cls in enumerate_classes(mode, n, k, bed):
            recomputed = 0
            for row_idx, (si, asg) in enumerate(bed.rows):
                env = dict(zip(bed.var_context, asg))
                if evaluate(bed.structures[si], cls.representative, env):
                    recomputed |= 1 << row_idx
            assert recomputed == cls.bits


def test_representative_classification():
    bed = u_bed(())
    for mode, n, k in [("sigma", 1, 1), ("pi", 1, 1), ("sigma", 2, 1)]:
        for cls in enumerate_classes(mode, n, k, bed):
            c = classify(cls.representative)
            level = c.sigma_level if mode == "sigma" else c.pi_level
            assert level <= n
            if c.rank:
                assert c.block_uniform_k == k


def test_sigma_one_includes_witnesses():
    bed = u_bed(())
    classes = enumerate_classes("sigma", 1, 1, bed)
    reps = {print_formula(c.representative): c.bits for c in classes}
    some_u = next(b for r, b in reps.items() if r == "(exists (z1) (U z1))")
    some_not_u = next(b for r, b in reps.items()
                      if r == "(exists (z1) (not (U z1)))")
    for row_idx, (si, _) in enumerate(bed.rows):
        s = bed.structures[si]
        assert bool(some_u >> row_idx & 1) == \
            evaluate(s, parse_formula("(exists (x) (U x))", VU), {})
        assert bool(some_not_u >> row_idx & 1) == \
            evaluate(s, parse_formula("(exists (x) (not (U x)))", VU), {})


def test_sigma_levels_monotone():
    bed = u_bed(())
    lower = {c.bits for c in enumerate_classes("sigma", 1, 1, bed)}
    higher = {c.bits for c in enumerate_classes("sigma", 2, 1, bed)}
    assert lower <= higher


def test_enumeration_caps():
    bed = TestBed(tuple(all_structures(VE, 2)), ("x", "y"))
    # the seeds alone pass the cap, then the closure's running count does
    with pytest.raises(CapExceeded, match=r"^class cap exceeded: 46 classes, "
                       r"limit 5 \(inconclusive\)$"):
        enumerate_classes("sigma", 1, 2, bed, max_classes=5)
    with pytest.raises(CapExceeded, match=r"^class cap exceeded: 101 classes, "
                       r"limit 100 \(inconclusive\)$"):
        enumerate_classes("sigma", 1, 2, bed, max_classes=100)


def test_transfer_oracle_examples():
    iso = Structure(VU, ("z",), {"U": frozenset({("z",)})})
    for n, k in [(0, 1), (1, 1), (2, 2)]:
        assert transfer_oracle(n, k, WITH_U, (), iso, ())
        assert transfer_oracle(n, k, iso, (), WITH_U, ())
    assert transfer_oracle(1, 1, WITH_U, (), WITHOUT_U, ()) is False


def test_transfer_oracle_reduced_equals_full():
    # the full side: every class of the level, with level 0 closed too
    structs = all_structures(VU, 2)
    for a, b in itertools.product(structs[:4], repeat=2):
        for n, k in [(1, 1), (2, 1)]:
            bed = TestBed((a, b), ())
            m1 = 1 << bed.row_index(0, ())
            m2 = 1 << bed.row_index(1, ())
            full = all(c.bits & m2
                       for c in enumerate_classes("sigma", n, k, bed)
                       if c.bits & m1)
            assert transfer_oracle(n, k, a, (), b, ()) == full


def test_transfer_matches_game_spot_checks():
    for a, b in [(WITH_U, WITHOUT_U), (WITH_U, WITH_U)]:
        game = prefix_game_winner(GameConfig(1, 1), a, (), b, ())
        assert (game == Player.Duplicator) == transfer_oracle(1, 1, a, (), b, ())


def test_find_separator_budget():
    with pytest.raises(ValidationError):
        find_separator(0, 1, WITH_U, WITHOUT_U)
    with pytest.raises(ValidationError):
        find_separator(1, 1, WITH_U, linear_order(2))
    # the budget raises; it never ends the search with None
    with pytest.raises(BudgetExceeded, match="^game position budget "
                       "exhausted: 4 positions explored, limit 3$"):
        find_separator(2, 2, linear_order(3), linear_order(2, prefix="b"),
                       max_positions=3)


def test_count_bound_check_cells():
    bed = u_bed(("x1",))
    out = count_bound_check(0, 0, 1, VU, bed)
    assert out == {"count": 4, "bound": 16, "bound_expr": "tower(2, 2)",
                   "ok": True}
    sentence_bed = u_bed(())
    out0 = count_bound_check(0, 0, 0, VU, sentence_bed)
    assert out0["count"] == 2 and out0["bound"] == 2 and out0["ok"]
    # criterion 8's heaviest cell; the pairwise closure also counts 25
    out2 = count_bound_check(1, 2, 1, VU, bed)
    assert out2["ok"] is True
    assert out2["count"] == 25


def test_count_bound_check_validates():
    with pytest.raises(ValidationError):
        count_bound_check(0, 0, 2, VU, u_bed(("x1",)))  # t != |context|
    with pytest.raises(ValidationError):
        count_bound_check(0, 0, 1, VE, u_bed(("x1",)))  # vocab mismatch


@given(st.integers(0, 3), st.integers(0, 6))
def test_tower_monotone(level, base):
    if base >= 1 and level <= 2:
        assert tower(level, base + 1) >= tower(level, base)
        if level >= 1:
            assert tower(level, base) >= base


def _pairwise_closure(classes, ops, max_classes):
    """The closure before the generator fold, kept as the reference: each
    round combines every known class with each of the last round's new
    classes, under every operation at once, until nothing new appears."""
    items = dict(classes)
    if len(items) > max_classes:
        raise CapExceeded("class cap exceeded (inconclusive)")
    frontier = list(items)
    while frontier:
        fresh = {}
        for a in list(items):
            for b in frontier:
                for op in ops:
                    bits = a & b if op == "and" else a | b
                    if bits in items or bits in fresh:
                        continue
                    fresh[bits] = (op, a, b)
                    if len(items) + len(fresh) > max_classes:
                        raise CapExceeded("class cap exceeded (inconclusive)")
        items.update(fresh)
        frontier = list(fresh)
    return items


def _enumerated_bits(*args):
    return [c.bits for c in enumerate_classes(*args)]


def _transfer_bits(*args):
    return enumeration._level_classes(*args)[-1][0]


def _closure_cells():
    """Named class-set computations that all go through ``_closure``."""
    max_classes = enumeration.DEFAULT_MAX_CLASSES
    structs = tuple(all_structures(VU, 2))
    cells = []
    for t in (0, 1):
        bed = u_bed(("x1",)[:t])
        for n in (0, 1):
            for m in (0, 1, 2):
                if (n, m, t) != (1, 2, 1):
                    cells.append((f"count n={n} m={m} t={t}",
                                  enumeration._rank_classes, "sigma", n, m,
                                  bed, max_classes))
        for mode in ("sigma", "pi"):
            for n, k in ((0, 1), (1, 1), (1, 2), (2, 1)):
                # with a point, the pairwise closure needs about two minutes
                # per cell at (1, 2) and (2, 1) on the whole bed, so those
                # two run on its 1-element boards plus one 2-element board
                cell_bed = bed
                if t and n + k == 3:
                    cell_bed = TestBed(structs[:2] + structs[3:4], ("x1",))
                cells.append((f"enumerate {mode} n={n} k={k} t={t}",
                              _enumerated_bits, mode, n, k, cell_bed))
    # the transfer oracle's class sets on criterion 5's boards: unordered
    # pairs, leaving out pointed pairs of two 2-element boards (the
    # pairwise closure spends seconds on each at n = k = 2)
    for i, j in itertools.combinations_with_replacement(range(len(structs)),
                                                         2):
        a, b = structs[i], structs[j]
        for t in (0, 1):
            if t and len(a.universe) == len(b.universe) == 2:
                continue
            bed = TestBed((a, b), ("x1",)[:t])
            for n in (0, 1, 2):
                for k in (1, 2):
                    cells.append((f"transfer {i}/{j} n={n} k={k} t={t}",
                                  _transfer_bits, "sigma", n, k, bed,
                                  max_classes, False))
    return cells


def test_fold_matches_pairwise_closure(monkeypatch):
    cells = _closure_cells()
    fold = {name: set(fn(*args)) for name, fn, *args in cells}
    monkeypatch.setattr(enumeration, "_closure", _pairwise_closure)
    for name, fn, *args in cells:
        assert set(fn(*args)) == fold[name], name


# ---------------------------------------------------------------------------
# The formula-carrying pipeline that built a representative for every class,
# kept as the reference for the bits-first one.


def _ref_literal_bits(bed, lit):
    pos = [bed.var_context.index(a) for a in lit.args]
    bits = 0
    for idx, (si, asg) in enumerate(bed.rows):
        row = tuple(asg[p] for p in pos)
        if lit.relation == "=":
            held = row[0] == row[1]
        else:
            held = bed.structures[si].has(lit.relation, row)
        if held == lit.positive:
            bits |= 1 << idx
    return bits


def _ref_literal_seeds(bed):
    full = (1 << len(bed.rows)) - 1
    out = [SemanticClass(full, TOP), SemanticClass(0, BOT)]
    ctx = bed.var_context
    for name, arity in bed.vocab.relations.items():
        for args in itertools.product(ctx, repeat=arity):
            for positive in (True, False):
                lit = Literal(positive, name, args)
                out.append(SemanticClass(_ref_literal_bits(bed, lit), lit))
    for args in itertools.product(ctx, repeat=2):
        for positive in (True, False):
            lit = Literal(positive, "=", args)
            out.append(SemanticClass(_ref_literal_bits(bed, lit), lit))
    return _ref_dedupe(out)


def _ref_dedupe(classes):
    seen = {}
    for c in classes:
        if c.bits not in seen:
            seen[c.bits] = c
    return list(seen.values())


def _ref_closure(classes, ops, max_classes):
    found = {c.bits: c for c in _ref_dedupe(classes)}
    enumeration._check_class_cap(len(found), max_classes)
    for op in ops:
        if op == "and":
            combine, junction, largest_first = int.__and__, And, True
        else:
            combine, junction, largest_first = int.__or__, Or, False
        generators = sorted(found.values(), key=lambda c: c.bits.bit_count(),
                            reverse=largest_first)
        closed = []
        inside = set()
        for g in generators:
            if g.bits in inside:
                continue
            before = closed[:]
            inside.add(g.bits)
            closed.append(g.bits)
            for c in before:
                bits = combine(c, g.bits)
                if bits in inside:
                    continue
                inside.add(bits)
                closed.append(bits)
                if bits not in found:
                    found[bits] = SemanticClass(bits, enumeration._join(
                        junction, found[c].representative, g.representative))
                    enumeration._check_class_cap(len(found), max_classes)
    return list(found.values())


def _ref_project(classes, bed, ext, fresh, mode):
    j = len(ext.var_context) - len(bed.var_context)
    masks = []
    for idx, (si, _) in enumerate(bed.rows):
        block = len(bed.structures[si].universe) ** j
        start = ext.offsets[si] + (idx - bed.offsets[si]) * block
        masks.append(((1 << block) - 1) << start)
    kind = Exists if mode == "sigma" else Forall
    out = []
    for c in classes:
        bits = 0
        for idx, mask in enumerate(masks):
            chunk = c.bits & mask
            hit = chunk != 0 if mode == "sigma" else chunk == mask
            if hit:
                bits |= 1 << idx
        rep = c.representative
        for name in reversed(fresh):
            rep = kind(name, rep)
        out.append(SemanticClass(bits, rep))
    return _ref_dedupe(out)


def _ref_level_classes(mode, n, k, bed, max_classes, full_level0):
    if n == 0:
        seeds = _ref_literal_seeds(bed)
        if full_level0:
            return _ref_closure(seeds, ("and", "or"), max_classes)
        return seeds
    fresh = enumeration._fresh_names(bed.var_context, k)
    ext = bed.extend(fresh)
    dual = "pi" if mode == "sigma" else "sigma"
    sub = _ref_level_classes(dual, n - 1, k, ext, max_classes, full_level0)
    op = "and" if mode == "sigma" else "or"
    closed = _ref_closure(sub, (op,), max_classes)
    return _ref_project(closed, bed, ext, fresh, mode)


def _ref_rank_classes(mode, n, m, bed, max_classes):
    if n == 0:
        return _ref_closure(_ref_literal_seeds(bed), ("and", "or"),
                            max_classes)
    dual = "pi" if mode == "sigma" else "sigma"
    op = "and" if mode == "sigma" else "or"
    merged = {}
    for j in range(m + 1):
        fresh = enumeration._fresh_names(bed.var_context, j)
        ext = bed.extend(fresh)
        sub = _ref_rank_classes(dual, n - 1, m - j, ext, max_classes)
        closed = _ref_closure(sub, (op,), max_classes)
        if j:
            projected = _ref_project(closed, bed, ext, fresh, mode)
        else:
            projected = closed
        for c in projected:
            if c.bits not in merged:
                merged[c.bits] = c
        enumeration._check_class_cap(len(merged), max_classes)
    return list(merged.values())


def _outcome(fn, *args):
    """The result, or the exact message of the CapExceeded raised."""
    try:
        return fn(*args)
    except CapExceeded as exc:
        return str(exc)


def _printed(classes):
    if isinstance(classes, str):
        return classes
    return [(c.bits, print_formula(c.representative)) for c in classes]


def _differential_beds():
    u2 = all_structures(VU, 2)
    u3 = [s for s in all_structures(VU, 3) if len(s.universe) == 3]
    # 1-, 2- and 3-element boards: extension blocks of length 3 and 9
    mixed = (u2[0], u2[3], u3[2], u3[5])
    beds = [TestBed(tuple(u2), ctx) for ctx in ((), ("x",), ("x", "y"))]
    beds += [TestBed(tuple(all_structures(VE, 1)), ctx)
             for ctx in ((), ("x",), ("x", "y"))]
    beds += [TestBed(mixed, ctx) for ctx in ((), ("x",))]
    return beds


def test_pipeline_matches_reference(monkeypatch):
    beds = _differential_beds()
    # the seeds include literals with repeated variables: (= x x) denotes
    # the same bits as true, while (E x x) is a class of its own
    for bed in beds:
        want = [(c.bits, c.representative) for c in _ref_literal_seeds(bed)]
        assert list(enumeration._literal_seeds(bed).items()) == want
    assert Literal(True, "E", ("x", "x")) in \
        enumeration._literal_seeds(beds[4]).values()
    for bed in beds:
        small = len(bed.rows) <= 6
        for mode, n, k in itertools.product(("sigma", "pi"), (0, 1, 2),
                                            (1, 2)):
            if n + k > (4 if small else 3) or (n == 0 and k == 2):
                continue
            for cap in (3000, 40):
                want = _outcome(_ref_level_classes, mode, n, k, bed, cap,
                                True)
                got = _outcome(enumerate_classes, mode, n, k, bed, cap)
                assert _printed(got) == _printed(want), (
                    bed.structures, bed.var_context, mode, n, k, cap)
    count_cells = [(bed, n, m) for bed in beds[:2] + beds[3:5]
                   for n in (0, 1) for m in (0, 1, 2)]
    for bed, n, m in count_cells:
        for cap in (enumeration.DEFAULT_MAX_CLASSES, 20):
            args = (n, m, len(bed.var_context), bed.vocab, bed, cap)
            got = _outcome(count_bound_check, *args)
            with monkeypatch.context() as patch:
                patch.setattr(enumeration, "_rank_classes", _ref_rank_classes)
                assert _outcome(count_bound_check, *args) == got
    enumeration._transfer_bed.cache_clear()
    boards = beds[0].structures + beds[-1].structures[2:]
    answers = 0
    for a, b in itertools.product(boards, repeat=2):
        for ta, tb in [((), ())] + [((e,), (f,)) for e in a.universe[:2]
                                    for f in b.universe[:1]]:
            for n, k in ((1, 1), (1, 2), (2, 1)):
                bed = TestBed((a, b), ("x1",)[:len(ta)])
                m1 = 1 << bed.rows.index((0, ta))
                m2 = 1 << bed.rows.index((1, tb))
                classes = _ref_level_classes("sigma", n, k, bed,
                                             enumeration.DEFAULT_MAX_CLASSES,
                                             False)
                want = all(c.bits & m2 for c in classes if c.bits & m1)
                assert transfer_oracle(n, k, a, ta, b, tb) == want
                answers += 1
    assert answers > 300


def test_oracle_and_count_build_no_formulas(monkeypatch):
    def refuse(*args):
        raise AssertionError("a representative was built")
    monkeypatch.setattr(enumeration, "_join", refuse)
    enumeration._transfer_bed.cache_clear()
    structs = all_structures(VU, 2)
    # criterion 5's heaviest kind of pair: two pointed 2-element boards
    a, b = structs[3], structs[4]
    assert transfer_oracle(2, 2, a, ("e0",), b, ("e1",)) == (
        prefix_game_winner(GameConfig(2, 2), a, ("e0",), b, ("e1",))
        == Player.Duplicator)
    assert count_bound_check(1, 2, 1, VU, u_bed(("x1",)))["count"] == 25


def test_transfer_oracle_cannot_reach_n4():
    chain = linear_order(3)
    # raise, never truncate: the level-3 closure passes the default cap
    with pytest.raises(CapExceeded, match=r"^class cap exceeded: 200001 "
                       r"classes, limit 200000 \(inconclusive\)$"):
        transfer_oracle(4, 1, chain, (), chain, ())


# ---------------------------------------------------------------------------
# The transfer oracle shares one bed between a query and its reverse


def test_transfer_oracle_reverse_hits_the_cache(monkeypatch):
    enumeration._transfer_bed.cache_clear()
    inner = enumeration._level_classes
    calls = []

    def counting(*args):
        calls.append(args)
        return inner(*args)
    monkeypatch.setattr(enumeration, "_level_classes", counting)
    structs = all_structures(VU, 2)
    for a, b in itertools.permutations(structs[2:], 2):
        ta, tb = (a.universe[0],), (b.universe[1],)
        forward = transfer_oracle(2, 2, a, ta, b, tb)
        assert calls, "the forward query computes its bed"
        size = enumeration._transfer_bed.cache_info().currsize
        calls.clear()
        backward = transfer_oracle(2, 2, b, tb, a, ta)
        assert calls == [] and \
            enumeration._transfer_bed.cache_info().currsize == size
        for answer, cfg_args in ((forward, (a, ta, b, tb)),
                                 (backward, (b, tb, a, ta))):
            assert answer == (prefix_game_winner(GameConfig(2, 2), *cfg_args)
                              == Player.Duplicator)
        enumeration._transfer_bed.cache_clear()


def test_transfer_oracle_either_order_matches_reference(monkeypatch):
    # the <=2-element {U: 1} boards, with no point and with every point
    structs = all_structures(VU, 2)
    tuples = [((), ())] + [((e,), (f,)) for e in ("e0", "e1")
                           for f in ("e0", "e1")]
    checked = 0
    for x, y in itertools.combinations_with_replacement(structs, 2):
        # the first query builds the bed, the second reads it swapped
        first, second = x, y
        for n, k in ((1, 1), (2, 1), (2, 2)):
            for t in (0, 1):
                enumeration._transfer_bed.cache_clear()
                for a, b in ((first, second), (second, first)):
                    bed = TestBed((a, b), ("x1",)[:t])
                    classes = _ref_level_classes(
                        "sigma", n, k, bed, enumeration.DEFAULT_MAX_CLASSES,
                        False)
                    for ta, tb in tuples:
                        if len(ta) != t or not (set(ta) <= a.elements
                                                and set(tb) <= b.elements):
                            continue
                        m1 = 1 << bed.row_index(0, ta)
                        m2 = 1 << bed.row_index(1, tb)
                        want = all(c.bits & m2 for c in classes
                                   if c.bits & m1)
                        assert transfer_oracle(n, k, a, ta, b, tb) == want
                        checked += 1
                # one entry served both orders
                assert enumeration._transfer_bed.cache_info().currsize == 1
    assert checked == 480


def test_transfer_oracle_cap_is_the_same_in_either_order(monkeypatch):
    structs = all_structures(VU, 2)
    a, b = structs[3], structs[4]
    assert a != b
    # the seeds pass the first cap, a level-1 fold the second
    for cap, count in ((6, 32), (1000, 1001)):
        message = (f"class cap exceeded: {count} classes, limit {cap} "
                   "(inconclusive)")
        for x, tx, y, ty in ((a, ("e0",), b, ("e1",)),
                             (b, ("e1",), a, ("e0",))):
            enumeration._transfer_bed.cache_clear()
            with pytest.raises(CapExceeded) as exc:
                transfer_oracle(2, 2, x, tx, y, ty, max_classes=cap)
            assert str(exc.value) == message
            assert _outcome(_ref_level_classes, "sigma", 2, 2,
                            TestBed((x, y), ("x1",)), cap, False) == message
            assert enumeration._transfer_bed.cache_info().currsize == 0


def test_transfer_oracle_keys_on_board_values(monkeypatch):
    enumeration._transfer_bed.cache_clear()
    inner = enumeration._level_classes
    calls = []

    def counting(*args):
        calls.append(args)
        return inner(*args)
    monkeypatch.setattr(enumeration, "_level_classes", counting)
    a, b = all_structures(VU, 2)[3:5]
    transfer_oracle(2, 2, a, ("e0",), b, ("e1",))
    assert calls and enumeration._transfer_bed.cache_info().currsize == 1
    # equal boards that are other objects find the entry in either order
    a2, b2 = (structure_from_json(structure_to_json(s)) for s in (a, b))
    assert (a2, b2) == (a, b) and a2 is not a and b2 is not b
    for query in ((a2, ("e0",), b2, ("e1",)), (b2, ("e1",), a2, ("e0",))):
        calls.clear()
        answer = transfer_oracle(2, 2, *query)
        assert calls == [] and \
            enumeration._transfer_bed.cache_info().currsize == 1
        assert answer == (prefix_game_winner(GameConfig(2, 2), *query)
                          == Player.Duplicator)


def test_transfer_oracle_hit_builds_no_bed(monkeypatch):
    enumeration._transfer_bed.cache_clear()
    built = []

    class CountingBed(TestBed):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)
    monkeypatch.setattr(enumeration, "TestBed", CountingBed)
    a, b = all_structures(VU, 2)[3:5]
    transfer_oracle(1, 1, a, ("e0",), b, ("e1",))
    assert built
    built.clear()
    for query in ((a, ("e0",), b, ("e1",)), (b, ("e1",), a, ("e0",)),
                  (a, ("e1",), b, ("e0",)), (b, ("e0",), a, ("e1",))):
        transfer_oracle(1, 1, *query)
    assert built == [] and enumeration._transfer_bed.cache_info().currsize == 1


# ---------------------------------------------------------------------------
# Lazy representatives against the forward builder that made every class's


def _forward_representatives(levels):
    """Build a representative for every class on every level, in
    construction order, and return the top level's as ``enumerate_classes``
    does."""
    reps = {}
    for classes, prefix in levels:
        below, reps = reps, {}
        for bits, how in classes.items():
            if isinstance(how, tuple):
                how = enumeration._join(And if how[0] == "and" else Or,
                                        reps[how[1]], reps[how[2]])
            elif isinstance(how, int):
                how = below[how]
                for kind, name in reversed(prefix):
                    how = kind(name, how)
            reps[bits] = how
    return [SemanticClass(bits, reps[bits]) for bits in levels[-1][0]]


# the class-enum benchmark's enumeration cells (mode, n, k, context length)
# on the <=2-element {U: 1} bed, plus the cell whose levels hold 16,384,
# 400 and 64 classes
ENUM_CELLS = tuple((mode, n, k, t) for mode in ("sigma", "pi")
                   for n, k, t in ((0, 1, 0), (0, 1, 1), (1, 1, 0),
                                   (1, 1, 1), (1, 2, 0), (2, 1, 0))
                   ) + (("sigma", 2, 1, 1),)


def test_lazy_representatives_match_forward_builder():
    for mode, n, k, t in ENUM_CELLS:
        bed = u_bed(("x1",)[:t])
        levels = enumeration._level_classes(mode, n, k, bed,
                                            enumeration.DEFAULT_MAX_CLASSES,
                                            True)
        want = _printed(_forward_representatives(levels))
        assert _printed(enumerate_classes(mode, n, k, bed)) == want, \
            (mode, n, k, t)


def test_lazy_representatives_build_only_what_is_needed(monkeypatch):
    joins = []
    inner = enumeration._join

    def counting(*args):
        joins.append(args[0])
        return inner(*args)
    monkeypatch.setattr(enumeration, "_join", counting)
    classes = enumerate_classes("sigma", 2, 1, u_bed(("x1",)))
    # the forward builder makes 16,370 joins on this cell
    assert len(classes) == 64 and len(joins) == 80


def test_transfer_oracle_keeps_at_most_256_beds():
    enumeration._transfer_bed.cache_clear()
    # each cap is a key of its own: 300 entries are offered
    for cap in range(1000, 1300):
        assert not transfer_oracle(1, 1, WITHOUT_U, (), WITH_U, (),
                                   max_classes=cap)
    assert enumeration._transfer_bed.cache_info().currsize == 256


# ---------------------------------------------------------------------------
# The rank loop ends once the bed's classes are all found


def test_count_stops_once_every_class_is_found():
    loop = Structure(VE, ("a",), {"E": frozenset({("a", "a")})})
    start = time.perf_counter()
    result = count_bound_check(1, 10 ** 9, 0, VE, TestBed((loop,)))
    assert time.perf_counter() - start < 1
    assert result["count"] == 2 and result["ok"] is True
    # two boards that one existential sentence tells apart: all four
    # classes by j = 1, and the count the full loop gives
    bed = TestBed((WITH_U, WITHOUT_U))
    for m in (1, 2, 3, 10 ** 9):
        assert count_bound_check(1, m, 0, VU, bed)["count"] == 4
    for m in range(4):
        assert len(enumeration._rank_classes("sigma", 1, m, bed, 100)) == \
            len(_ref_rank_classes("sigma", 1, m, bed, 100))
