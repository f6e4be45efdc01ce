"""Acceptance suite: ten numbered end-to-end checks, one test per criterion.

Every check here is exact (100% agreement over its grid); the stated time
budgets are asserted too.  Run with -v for one pass/fail line per criterion,
add -s to see the printed summaries.  The random-formula suites are fully
seeded, so reruns exercise identical cases.
"""

import itertools
import random
import subprocess
import sys
import time

import pytest

from fvkit import (GameConfig, Interpretation, Player, Structure, TestBed,
                   ValidationError, VarPartition, Vocabulary,
                   annotated_disjoint_union, apply_interpretation,
                   apply_sum_like, block_uniform, builtin, classify,
                   count_bound_check, decompose, decompose_over_op,
                   eval_reduction, evaluate, find_separator, formula_size,
                   free_variables, in_sigma, prefix_game_winner,
                   print_formula, quantifier_rank, random_formula,
                   reduction_stats, save_structure, transfer_oracle,
                   transform_formula, tree_prefix_game_winner,
                   And, Or, PVar, BOT, TOP)
from fvkit.decompose import SIZE_BOUND_FACTOR
from fvkit.enumeration import tower_at_least
from conftest import (all_structures, linear_order, merged_assignment,
                      pair_blocks)

VE = Vocabulary({"E": 2})
VO = Vocabulary({"<=": 2})
VU = Vocabulary({"U": 1})
VQ = Vocabulary({"E": 2, "Q1": 1, "Q2": 1})


# ---------------------------------------------------------------------------
# Shared grids and formula suites


def formula_suite(vocab, count=500):
    """Seeded formulas cycling class, level n <= 2, rank m <= 3, and the
    free-variable split (none / one left / one per side)."""
    rows = []
    for s in range(count):
        cls = ("sigma", "pi")[s % 2]
        n = (s // 2) % 3
        m = n + (s // 6) % (4 - n)
        t = s % 3
        left = ("v1",) if t >= 1 else ()
        right = ("v2",) if t == 2 else ()
        f = random_formula(cls, n=n, m=m, vocab=vocab,
                           free_vars=left + right, seed=s)
        rows.append((s, n, f, VarPartition(left, right)))
    return rows


def linear_orders(max_size):
    """Every reflexive total order on 1..max_size elements (all labelings)."""
    out = []
    for size in range(1, max_size + 1):
        universe = tuple(f"e{i}" for i in range(size))
        for perm in itertools.permutations(universe):
            pairs = {(perm[i], perm[j])
                     for i in range(size) for j in range(i, size)}
            out.append(Structure(VO, universe, {"<=": frozenset(pairs)}))
    return out


def simple_graphs(max_size):
    """Every loop-free undirected graph on 1..max_size elements."""
    out = []
    for size in range(1, max_size + 1):
        universe = tuple(f"e{i}" for i in range(size))
        slots = list(itertools.combinations(universe, 2))
        for count in range(len(slots) + 1):
            for chosen in itertools.combinations(slots, count):
                edges = set()
                for u, v in chosen:
                    edges.add((u, v))
                    edges.add((v, u))
                out.append(Structure(VE, universe, {"E": frozenset(edges)}))
    return out


def labeled_graphs(max_size):
    """Simple graphs with a Q1/Q2 label partition of the universe."""
    out = []
    for g in simple_graphs(max_size):
        for labels in itertools.product((1, 2), repeat=len(g.universe)):
            rels = {"E": g.relations["E"]}
            for i in (1, 2):
                rels[f"Q{i}"] = frozenset(
                    (e,) for e, lab in zip(g.universe, labels) if lab == i)
            out.append(Structure(VQ, g.universe, rels))
    return out


def sum_like_ops():
    return (
        ("disjoint-union", builtin("disjoint-union"), all_structures(VE, 2)),
        ("ordered-sum", builtin("ordered-sum"), linear_orders(2)),
        ("join", builtin("join"), simple_graphs(2)),
        ("nlc-sum", builtin("nlc-sum", {"r": 2, "links": [[1, 2]]}),
         labeled_graphs(2)),
    )


@pytest.fixture(scope="module")
def adu_suite():
    return [(n, f, part, decompose(f, part))
            for _, n, f, part in formula_suite(VE)]


@pytest.fixture(scope="module")
def op_suites():
    suites = {}
    for name, op, grid in sum_like_ops():
        vocab = op.interp.target_vocab
        suites[name] = (op, grid,
                        [(f, part, decompose_over_op(f, op, part))
                         for _, _, f, part in formula_suite(vocab)])
    return suites


def check_against_composites(rows, composites):
    """Assert eval on the composite == eval of the reduction, for every
    (formula, pair, assignment) combination; returns the number checked."""
    checks = 0
    for f, part, d in rows:
        for a, b, comp in composites:
            for la in itertools.product(a.universe, repeat=len(part.left)):
                for rb in itertools.product(b.universe,
                                            repeat=len(part.right)):
                    merged = merged_assignment(dict(zip(part.left, la)),
                                               dict(zip(part.right, rb)))
                    assert eval_reduction(d, a, b, la, rb) == \
                        evaluate(comp, f, merged)
                    checks += 1
    return checks


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_reduction_matches_marked_union(adu_suite):
    structs = all_structures(VE, 2)
    composites = [(a, b, annotated_disjoint_union(a, b))
                  for a in structs for b in structs]
    start = time.perf_counter()
    rows = [(f, part, d) for _, f, part, d in adu_suite]
    checks = check_against_composites(rows, composites)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"criterion 1: PASS ({checks} checks, 500 formulas x "
          f"{len(composites)} structure pairs, {elapsed:.1f}s)")


def test_criterion_02_reduction_matches_each_operation(op_suites):
    start = time.perf_counter()
    counts = {}
    for name, (op, grid, rows) in op_suites.items():
        composites = [(a, b, apply_sum_like(op, a, b))
                      for a in grid for b in grid]
        counts[name] = check_against_composites(rows, composites)
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    detail = ", ".join(f"{name}={n}" for name, n in counts.items())
    print(f"criterion 2: PASS ({detail}, {elapsed:.1f}s)")


def _negation_free(p):
    stack = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, (And, Or)):
            stack.extend(q.children)
        elif not (isinstance(q, PVar) or q == TOP or q == BOT):
            return False
    return True


def test_criterion_03_factor_discipline(adu_suite, op_suites):
    cases = [(f, d) for _, f, _, d in adu_suite]
    for _, _, rows in op_suites.values():
        cases.extend((f, d) for f, _, d in rows)
    factors = 0
    for f, d in cases:
        c = classify(f)
        for g in d.delta1 + d.delta2:
            gc = classify(g)
            assert gc.sigma_level <= c.sigma_level
            assert gc.pi_level <= c.pi_level
            assert gc.rank <= c.rank
            factors += 1
        assert _negation_free(d.beta)
        if quantifier_rank(f) > 0:
            mode = "sigma" if c.sigma_level < c.pi_level else "pi"
            assert pair_blocks(d.beta, mode) is not None
    print(f"criterion 3: PASS ({len(cases)} reductions, {factors} factors)")


def test_criterion_04_linear_orders_distinguished():
    l5 = linear_order(5)
    l4 = linear_order(4, prefix="b")
    start = time.perf_counter()
    winner = prefix_game_winner(GameConfig(3, 1), l5, (), l4, ())
    game_secs = time.perf_counter() - start
    assert winner is Player.Spoiler
    assert game_secs < 60
    sep = find_separator(3, 1, l5, l4)
    assert sep is not None
    assert free_variables(sep) == ()
    assert in_sigma(sep, 3)
    assert block_uniform(sep, 1)
    assert evaluate(l5, sep, {}) is True
    assert evaluate(l4, sep, {}) is False
    print(f"criterion 4: PASS (Spoiler in {game_secs:.3f}s, "
          f"separator {print_formula(sep)})")


def test_criterion_05_games_agree_with_transfer():
    structs = all_structures(VU, 2)
    pointed = [(s, ()) for s in structs]
    pointed += [(s, (e,)) for s in structs for e in s.universe]
    pairs = [(a, ta, b, tb) for a, ta in pointed for b, tb in pointed
             if len(ta) == len(tb)]
    start = time.perf_counter()
    checks = 0
    for n in (0, 1, 2):
        for k in (1, 2):
            cfg = GameConfig(n, k)
            for a, ta, b, tb in pairs:
                prefix = prefix_game_winner(cfg, a, ta, b, tb)
                forward = transfer_oracle(n, k, a, ta, b, tb)
                assert (prefix is Player.Duplicator) == forward
                tree = tree_prefix_game_winner(cfg, a, ta, b, tb)
                both = forward and transfer_oracle(n, k, b, tb, a, ta)
                assert (tree is Player.Duplicator) == both
                checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"criterion 5: PASS ({checks} game/oracle cells over "
          f"{len(pairs)} pointed pairs, {elapsed:.1f}s)")


def _random_operand(op_name, rng):
    size = rng.randint(1, 3)
    universe = tuple(f"e{i}" for i in range(size))
    if op_name == "ordered-sum":
        order = list(universe)
        rng.shuffle(order)
        pairs = {(order[i], order[j])
                 for i in range(size) for j in range(i, size)}
        return Structure(VO, universe, {"<=": frozenset(pairs)})
    if op_name == "disjoint-union":
        edges = {(u, v) for u in universe for v in universe
                 if rng.random() < 0.5}
        return Structure(VE, universe, {"E": frozenset(edges)})
    edges = set()
    for u, v in itertools.combinations(universe, 2):
        if rng.random() < 0.5:
            edges.add((u, v))
            edges.add((v, u))
    if op_name == "join":
        return Structure(VE, universe, {"E": frozenset(edges)})
    labels = {e: rng.randint(1, 2) for e in universe}
    return Structure(VQ, universe, {
        "E": frozenset(edges),
        "Q1": frozenset((e,) for e in universe if labels[e] == 1),
        "Q2": frozenset((e,) for e in universe if labels[e] == 2)})


def _renamed_copy(s):
    mapping = {e: f"z{i}" for i, e in enumerate(s.universe)}
    rels = {name: frozenset(tuple(mapping[x] for x in row) for row in rows)
            for name, rows in s.relations.items()}
    return Structure(s.vocab, tuple(mapping[e] for e in s.universe), rels)


def _equivalent_partner(s, op_name, cfg, rng):
    for _ in range(60):
        cand = _random_operand(op_name, rng)
        if tree_prefix_game_winner(cfg, s, (), cand, ()) is Player.Duplicator:
            return cand
    return _renamed_copy(s)


def test_criterion_06_composition_preserves_equivalence():
    ops = sum_like_ops()
    checked = 0
    for i in range(50):
        name, op, _ = ops[i % len(ops)]
        cfg = GameConfig(*((1, 1), (2, 1))[i % 2])
        rng = random.Random(4000 + i)
        a1 = _random_operand(name, rng)
        a2 = _random_operand(name, rng)
        a1p = _equivalent_partner(a1, name, cfg, rng)
        a2p = _equivalent_partner(a2, name, cfg, rng)
        assert tree_prefix_game_winner(cfg, a1, (), a1p, ()) is Player.Duplicator
        assert tree_prefix_game_winner(cfg, a2, (), a2p, ()) is Player.Duplicator
        left = apply_sum_like(op, a1, a2)
        right = apply_sum_like(op, a1p, a2p)
        assert tree_prefix_game_winner(cfg, left, (), right, ()) \
            is Player.Duplicator
        checked += 1
    print(f"criterion 6: PASS ({checked}/50 quadruples transfer through "
          "all four operations)")


SOURCE7 = Vocabulary({"E": 2, "U": 1})
TARGET7 = Vocabulary({"R": 2, "W": 1})


def _random_interpretation(rng):
    universe = random_formula("sigma", n=0, m=0, vocab=SOURCE7,
                              free_vars=("x1",), seed=rng.randrange(10 ** 9))
    rels = {
        "R": random_formula("sigma", n=0, m=0, vocab=SOURCE7,
                            free_vars=("y1", "y2"),
                            seed=rng.randrange(10 ** 9)),
        "W": random_formula("sigma", n=0, m=0, vocab=SOURCE7,
                            free_vars=("y1",), seed=rng.randrange(10 ** 9)),
    }
    return Interpretation(SOURCE7, TARGET7, universe, rels)


def _random_source(rng):
    size = rng.randint(1, 4)
    universe = tuple(f"e{i}" for i in range(size))
    edges = {(u, v) for u in universe for v in universe
             if rng.random() < 0.5}
    marks = {(x,) for x in universe if rng.random() < 0.5}
    return Structure(SOURCE7, universe,
                     {"E": frozenset(edges), "U": frozenset(marks)})


def test_criterion_07_interpretation_translation_agrees():
    for i in range(300):
        rng = random.Random(7000 + i)
        for _ in range(50):
            xi = _random_interpretation(rng)
            a = _random_source(rng)
            try:
                image = apply_interpretation(xi, a)
                break
            except ValidationError:
                continue  # empty carve-out: draw a fresh pair
        else:
            pytest.fail(f"triple {i}: no non-empty carve in 50 draws")
        cls = ("sigma", "pi")[i % 2]
        n, m = ((0, 0), (1, 1), (1, 2), (2, 2))[i % 4]
        phi = random_formula(cls, n=n, m=m, vocab=TARGET7, seed=9000 + i)
        assert evaluate(image, phi, {}) == \
            evaluate(a, transform_formula(xi, phi), {})
    print("criterion 7: PASS (300/300 seeded triples agree)")


def test_criterion_08_class_count_bound():
    structs = tuple(all_structures(VU, 2))
    results = {}
    for t in (0, 1):
        bed = TestBed(structs, tuple(f"x{j + 1}" for j in range(t)))
        for n in (0, 1):
            for m in (0, 1, 2):
                r = count_bound_check(n, m, t, VU, bed)
                assert r["ok"] is True
                results[(n, m, t)] = r
    cell = results[(0, 0, 1)]
    assert cell["count"] == 4
    assert cell["bound"] == 16
    print("criterion 8: PASS (12 cells ok; n=0,m=0,t=1 counts "
          f"{cell['count']} <= {cell['bound']})")


def test_criterion_09_reduction_size_within_tower(adu_suite):
    assert SIZE_BOUND_FACTOR <= 64
    for n, f, _, d in adu_suite:
        size = formula_size(f)
        total = reduction_stats(d)["total_size"]
        assert tower_at_least(n, SIZE_BOUND_FACTOR * (n + 1) * size, total)
    print(f"criterion 9: PASS (500 reductions within "
          f"tower(n, {SIZE_BOUND_FACTOR}*(n+1)*size))")


def test_criterion_10_cli_outputs_deterministic(tmp_path):
    save_structure(linear_order(5), str(tmp_path / "L5.json"))
    save_structure(linear_order(4, prefix="b"), str(tmp_path / "L4.json"))
    structs = tmp_path / "structs"
    structs.mkdir()
    save_structure(Structure(VU, ("a",), {"U": frozenset()}),
                   str(structs / "s1.json"))
    save_structure(Structure(VU, ("a",), {"U": frozenset({("a",)})}),
                   str(structs / "s2.json"))
    commands = [
        ["decompose", "--formula", "(exists (z) (E z z))",
         "--vocab", '{"E": 2}'],
        ["enumerate", "--class", "sigma", "--n", "1", "--k", "1",
         "--structures", str(structs)],
        ["game", "--mode", "prefix", "--n", "3", "--k", "1",
         "--left", str(tmp_path / "L5.json"),
         "--right", str(tmp_path / "L4.json")],
    ]
    for cmd in commands:
        first, second = (
            subprocess.run([sys.executable, "-m", "fvkit", *cmd],
                           capture_output=True, check=True)
            for _ in range(2))
        assert first.stdout == second.stdout
        assert first.stdout  # the command actually printed something
    print("criterion 10: PASS (decompose/enumerate/game byte-identical "
          "across reruns)")
