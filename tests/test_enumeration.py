"""Semantic class enumeration, the transfer oracle, separator search, and
the counting check."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fvkit import (CapExceeded, EnumerationCaps, GameConfig, Player,
                   SemanticClass, SeparatorBudget, Structure, TestBed,
                   ValidationError, Vocabulary, classify, count_bound_check,
                   enumerate_classes, evaluate, find_separator,
                   free_variables, parse_formula, prefix_game_winner,
                   print_formula, tower, transfer_oracle)
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
        enumerate_classes("sigma", 1, 2, bed, EnumerationCaps(max_classes=5))
    with pytest.raises(CapExceeded, match=r"^class cap exceeded: 101 classes, "
                       r"limit 100 \(inconclusive\)$"):
        enumerate_classes("sigma", 1, 2, bed, EnumerationCaps(max_classes=100))


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


def test_find_separator_flag():
    f = find_separator(1, 1, WITH_U, WITHOUT_U)
    assert f is not None
    assert evaluate(WITH_U, f, {}) is True
    assert evaluate(WITHOUT_U, f, {}) is False
    c = classify(f)
    assert c.sigma_level <= 1 and c.block_uniform_k == 1


def test_find_separator_none_for_isomorphic():
    iso = Structure(VU, ("z",), {"U": frozenset({("z",)})})
    assert find_separator(2, 1, WITH_U, iso) is None


def test_find_separator_linear_orders():
    f = find_separator(3, 1, linear_order(5), linear_order(4, prefix="b"))
    assert f is not None
    assert evaluate(linear_order(5), f, {}) is True
    assert evaluate(linear_order(4, prefix="b"), f, {}) is False
    c = classify(f)
    assert c.sigma_level <= 3 and c.block_uniform_k == 1


def test_find_separator_budget():
    with pytest.raises(ValidationError):
        find_separator(0, 1, WITH_U, WITHOUT_U)
    tiny = SeparatorBudget(max_width=1, max_classes=3)
    assert find_separator(2, 2, linear_order(3),
                          linear_order(2, prefix="b"), tiny) is None
    # find_separator treats both caps as the end of its search; the width
    # stage itself says how far it got
    classes = enumerate_classes("sigma", 0, 1, u_bed())
    assert len(classes) == 4
    with pytest.raises(CapExceeded, match="^separator width stage exceeds "
                       "the work budget: 10 combinations, limit 3$"):
        enumeration._combos(classes, "and", 2, SeparatorBudget(max_work=3))
    with pytest.raises(CapExceeded, match=r"^class cap exceeded: 4 classes, "
                       r"limit 3 \(inconclusive\)$"):
        enumeration._combos(classes, "and", 2, SeparatorBudget(max_classes=3))


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


def _pairwise_closure(classes, ops, caps):
    """The closure before the generator fold, kept as the reference: each
    round combines every known class with each of the last round's new
    classes, under every operation at once, until nothing new appears."""
    items = enumeration._dedupe(classes)
    if len(items) > caps.max_classes:
        raise CapExceeded("class cap exceeded (inconclusive)")
    seen = {c.bits for c in items}
    frontier = list(items)
    while frontier:
        fresh = []
        for a in items:
            for b in frontier:
                for op in ops:
                    if op == "and":
                        bits = a.bits & b.bits
                        make = enumeration._conjoin
                    else:
                        bits = a.bits | b.bits
                        make = enumeration._disjoin
                    if bits in seen:
                        continue
                    seen.add(bits)
                    fresh.append(SemanticClass(bits, make(a.representative,
                                                          b.representative)))
                    if len(items) + len(fresh) > caps.max_classes:
                        raise CapExceeded("class cap exceeded (inconclusive)")
        items.extend(fresh)
        frontier = fresh
    return items


def _closure_cells():
    """Named class-set computations that all go through ``_closure``."""
    caps = EnumerationCaps()
    structs = tuple(all_structures(VU, 2))
    cells = []
    for t in (0, 1):
        bed = u_bed(("x1",)[:t])
        for n in (0, 1):
            for m in (0, 1, 2):
                if (n, m, t) != (1, 2, 1):
                    cells.append((f"count n={n} m={m} t={t}",
                                  enumeration._rank_classes, "sigma", n, m,
                                  bed, caps))
        for mode in ("sigma", "pi"):
            for n, k in ((0, 1), (1, 1), (1, 2), (2, 1)):
                # with a point, the pairwise closure needs about two minutes
                # per cell at (1, 2) and (2, 1) on the whole bed, so those
                # two run on its 1-element boards plus one 2-element board
                cell_bed = bed
                if t and n + k == 3:
                    cell_bed = TestBed(structs[:2] + structs[3:4], ("x1",))
                cells.append((f"enumerate {mode} n={n} k={k} t={t}",
                              enumerate_classes, mode, n, k, cell_bed))
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
                                  enumeration._level_classes, "sigma", n, k,
                                  bed, caps, False))
    return cells


def test_fold_matches_pairwise_closure(monkeypatch):
    cells = _closure_cells()
    fold = {name: {c.bits for c in fn(*args)} for name, fn, *args in cells}
    monkeypatch.setattr(enumeration, "_closure", _pairwise_closure)
    for name, fn, *args in cells:
        assert {c.bits for c in fn(*args)} == fold[name], name
