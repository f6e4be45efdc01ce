"""The four benchmark workloads: seeded inputs, the requests, and their checks.

A workload is built once from the run's seed (set-up), then hands out its
items one *round* at a time.  Every workload is a fixed catalogue of items,
and every round runs the whole catalogue once: the catalogue's formulas
and games are drawn once, from a seed of their own, so that two runs differ
by the host and the naming, not by how heavy a draw the run's seed made.
The run's seed renames (bound variables, structure elements) and orders
each round.

Every call into fvkit made while an item runs goes through ``tracer.call``
with the name ``<module>.<function>``, so the traced run can charge each
call to its layer.  The references an item checks against never come from
the layer under test: composites are evaluated directly by ``modelcheck``,
oracle answers are checked against the game solver, game verdicts and class
counts against values stored in ``expected.json``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import string

from fvkit import (GameConfig, Player, Structure, TestBed, VarPartition,
                   Vocabulary, apply_sum_like,
                   builtin, count_bound_check, decompose, enumerate_classes,
                   eval_reduction, evaluate, formula_size, parse_formula,
                   prefix_game_winner, print_formula, random_formula,
                   reduction_stats, reduction_to_json, transfer_oracle,
                   transform_formula, tree_prefix_game_winner)

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

VE = Vocabulary({"E": 2})
VO = Vocabulary({"<=": 2})
VU = Vocabulary({"U": 1})
VQ = Vocabulary({"E": 2, "Q1": 1, "Q2": 1})

# Item deadline of game-ladder and class-enum: a guard that keeps a run
# inside its time limit, far above any of their items' cost at seed.
GUARD_DEADLINE_S = 20.0


# ---------------------------------------------------------------------------
# Structure families (the grids of the acceptance criteria)


def all_structures(vocab, max_size, tag="e"):
    """Every structure over ``vocab`` with 1..max_size elements, in a fixed
    order; element ids are ``<tag>0``, ``<tag>1``, ..."""
    out = []
    for size in range(1, max_size + 1):
        universe = tuple(f"{tag}{i}" for i in range(size))
        names = sorted(vocab.relations)
        spaces = []
        for name in names:
            rows = list(itertools.product(universe,
                                          repeat=vocab.relations[name]))
            spaces.append([frozenset(c) for n in range(len(rows) + 1)
                           for c in itertools.combinations(rows, n)])
        for choice in itertools.product(*spaces):
            out.append(Structure(vocab, universe, dict(zip(names, choice))))
    return out


def linear_order(size, tag):
    universe = tuple(f"{tag}{i + 1}" for i in range(size))
    pairs = {(universe[i], universe[j])
             for i in range(size) for j in range(i, size)}
    return Structure(VO, universe, {"<=": frozenset(pairs)})


def linear_orders(max_size):
    out = []
    for size in range(1, max_size + 1):
        universe = tuple(f"e{i}" for i in range(size))
        for perm in itertools.permutations(universe):
            pairs = {(perm[i], perm[j])
                     for i in range(size) for j in range(i, size)}
            out.append(Structure(VO, universe, {"<=": frozenset(pairs)}))
    return out


def simple_graphs(max_size):
    out = []
    for size in range(1, max_size + 1):
        universe = tuple(f"e{i}" for i in range(size))
        slots = list(itertools.combinations(universe, 2))
        for n in range(len(slots) + 1):
            for chosen in itertools.combinations(slots, n):
                edges = ({(u, v) for u, v in chosen}
                         | {(v, u) for u, v in chosen})
                out.append(Structure(VE, universe, {"E": frozenset(edges)}))
    return out


def labeled_graphs(max_size):
    out = []
    for g in simple_graphs(max_size):
        for labels in itertools.product((1, 2), repeat=len(g.universe)):
            rels = {"E": g.relations["E"]}
            for i in (1, 2):
                rels[f"Q{i}"] = frozenset(
                    (e,) for e, lab in zip(g.universe, labels) if lab == i)
            out.append(Structure(VQ, g.universe, rels))
    return out


def operations():
    """The four built-in sum-like operations with their <= 2-element grids."""
    return {
        "disjoint-union": (builtin("disjoint-union"), all_structures(VE, 2)),
        "ordered-sum": (builtin("ordered-sum"), linear_orders(2)),
        "join": (builtin("join"), simple_graphs(2)),
        "nlc-sum": (builtin("nlc-sum", {"r": 2, "links": [[1, 2]]}),
                    labeled_graphs(2)),
    }


def merged_assignment(part, la, rb):
    merged = {v: "L:" + e for v, e in zip(part.left, la)}
    merged.update({v: "R:" + e for v, e in zip(part.right, rb)})
    return merged


def check_cells(tracer, d, g, part, composites):
    """Compare ``eval_reduction`` with direct evaluation on each composite
    for every assignment; returns (verdicts, wrong)."""
    verdicts = wrong = 0
    for a, b, comp in composites:
        for la in itertools.product(a.universe, repeat=len(part.left)):
            for rb in itertools.product(b.universe, repeat=len(part.right)):
                got = tracer.call("decompose.eval_reduction", eval_reduction,
                                  d, a, b, la, rb)
                want = tracer.call("modelcheck.evaluate", evaluate, comp, g,
                                   merged_assignment(part, la, rb))
                verdicts += 1
                wrong += got != want
    return verdicts, wrong


def bound_prefix(seed):
    """A seeded prefix for bound variable names, such as ``kx_``."""
    rng = random.Random(f"names:{seed}")
    return "".join(rng.choice(string.ascii_lowercase)
                   for _ in range(2)) + "_"


def renamed(text, prefix):
    """``text`` with its bound variables q1, q2, ... renamed to prefix1,
    prefix2, ... (random_formula names every bound variable q<n>)."""
    return re.sub(r"\bq(\d+)\b", lambda m: prefix + m.group(1), text)


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


class Outcome:
    """What one item produced: checked verdicts, wrong ones, and a value the
    untimed check (if the workload has one) needs."""

    __slots__ = ("verdicts", "wrong", "value")

    def __init__(self, verdicts, wrong, value=None):
        self.verdicts = verdicts
        self.wrong = wrong
        self.value = value


class Workload:
    name = ""
    deadline_s = GUARD_DEADLINE_S

    def __init__(self, seed):
        self.seed = seed
        self.props = {}

    def rng(self, round_index):
        return random.Random(f"{self.name}:{self.seed}:{round_index}")

    def catalogue_rng(self):
        """The generator of the catalogue's draws; it ignores the seed."""
        return random.Random(f"{self.name}:catalogue")

    def shuffled(self, items, round_index):
        pairs = list(enumerate(items))
        self.rng(round_index).shuffle(pairs)
        return pairs

    def round(self, round_index):
        """The (slot, item) pairs of one round, in the order they run; the
        slot numbers the item's place in the catalogue, the same in every
        round."""
        raise NotImplementedError

    def request(self, item, tracer):
        """Run one item (timed) and return its Outcome."""
        raise NotImplementedError

    def check(self, item, outcome, tracer):
        """Untimed follow-up of a finished item; returns wrong verdicts."""
        return 0

    def add(self, key, value):
        self.props[key] = self.props.get(key, 0) + value

    def record_reduction(self, tracer, d):
        stats = tracer.call("decompose.reduction_stats", reduction_stats, d)
        self.add("decompose.reduction_size", stats["total_size"])
        self.add("decompose.factor_count",
                 stats["factor_count_1"] + stats["factor_count_2"])
        self.add("decompose.beta_size", stats["beta_size"])


# ---------------------------------------------------------------------------
# compose-grid


class ComposeGrid(Workload):
    """One catalogue formula per item, in the criterion 1-2 suite shape,
    checked on every composite of its operation's grid and every
    assignment."""

    name = "compose-grid"
    # A few draws in a thousand build a reduction that keeps eval_reduction
    # busy for seconds over its up to 1,156 cells, some for more than 20 s
    # while memory grows; the deadline records them as misses.
    deadline_s = 1.0
    # The catalogue holds COPIES formulas of each suite shape.  Operations
    # follow this cycle (disjoint union, the paper's use case, on half the
    # items), shifted by one shape per copy.
    OP_CYCLE = ("disjoint-union", "nlc-sum", "disjoint-union", "ordered-sum",
                "disjoint-union", "join")
    SHAPES = tuple((cls, n, m, t) for cls in ("sigma", "pi")
                   for n in range(3) for m in range(n, 4) for t in range(3))
    COPIES = 2

    def __init__(self, seed):
        super().__init__(seed)
        self.ops = operations()
        self.composites = {}
        rng = self.catalogue_rng()
        prefix = bound_prefix(seed)
        self.catalogue = []
        for copy in range(self.COPIES):
            for j, (cls, n, m, t) in enumerate(self.SHAPES):
                op_name = self.OP_CYCLE[(j + copy) % len(self.OP_CYCLE)]
                vocab = self.ops[op_name][0].interp.target_vocab
                left = ("v1",) if t >= 1 else ()
                right = ("v2",) if t == 2 else ()
                f = random_formula(cls, n=n, m=m, vocab=vocab,
                                   free_vars=left + right,
                                   seed=rng.randrange(1 << 31))
                self.catalogue.append(
                    (op_name, renamed(print_formula(f), prefix),
                     VarPartition(left, right), formula_size(f)))

    def round(self, round_index):
        return self.shuffled(self.catalogue, round_index)

    def grid(self, op_name, tracer):
        comps = self.composites.get(op_name)
        if comps is None:
            op, grid = self.ops[op_name]
            comps = [(a, b, tracer.call("interp.apply_sum_like",
                                        apply_sum_like, op, a, b))
                     for a in grid for b in grid]
            self.composites[op_name] = comps
        return comps

    def request(self, item, tracer):
        op_name, text, part, size = item
        op = self.ops[op_name][0]
        g = tracer.call("formula.parse_formula", parse_formula, text,
                        op.interp.target_vocab)
        h = tracer.call("interp.transform_formula", transform_formula,
                        op.interp, g)
        d = tracer.call("decompose.decompose", decompose, h, part)
        verdicts, wrong = check_cells(tracer, d, g, part,
                                      self.grid(op_name, tracer))
        self.add("formula.input_size", size)
        return Outcome(verdicts, wrong, d)

    def check(self, item, outcome, tracer):
        self.record_reduction(tracer, outcome.value)
        return 0


# ---------------------------------------------------------------------------
# decompose-ladder


def _to_json(d):
    return json.dumps(reduction_to_json(d))


class DecomposeLadder(Workload):
    """One catalogue formula of level 2-3 per item, split v1 | v2,
    decomposed over one of the four operations and serialised; a miss past
    the deadline is recorded, never retried or replaced."""

    name = "decompose-ladder"
    deadline_s = 0.1
    SHAPES = tuple((op_name, cls, n, m)
                   for op_name in ("disjoint-union", "ordered-sum", "join",
                                   "nlc-sum")
                   for cls in ("sigma", "pi")
                   for n, m in ((2, 2), (2, 3), (3, 3)))
    # Twelve catalogue draws per shape; five of the 288 miss the deadline.
    COPIES = 12
    PART = VarPartition(("v1",), ("v2",))
    # Composites the untimed check evaluates: the first and last structure
    # of each operation's grid, in all four combinations.
    SAMPLE = ((0, 0), (0, -1), (-1, 0), (-1, -1))

    def __init__(self, seed):
        super().__init__(seed)
        self.ops = operations()
        self.samples = {}
        for op_name, (op, grid) in self.ops.items():
            self.samples[op_name] = [
                (grid[i], grid[j], apply_sum_like(op, grid[i], grid[j]))
                for i, j in self.SAMPLE]
        rng = self.catalogue_rng()
        prefix = bound_prefix(seed)
        self.catalogue = []
        for op_name, cls, n, m in self.SHAPES * self.COPIES:
            vocab = self.ops[op_name][0].interp.target_vocab
            f = random_formula(cls, n=n, m=m, vocab=vocab,
                               free_vars=("v1", "v2"),
                               seed=rng.randrange(1 << 31))
            self.catalogue.append(
                (op_name, renamed(print_formula(f), prefix), formula_size(f)))

    def round(self, round_index):
        return self.shuffled(self.catalogue, round_index)

    def request(self, item, tracer):
        op_name, text, size = item
        op = self.ops[op_name][0]
        self.add("formula.input_size", size)
        g = tracer.call("formula.parse_formula", parse_formula, text,
                        op.interp.target_vocab)
        h = tracer.call("interp.transform_formula", transform_formula,
                        op.interp, g)
        d = tracer.call("decompose.decompose", decompose, h, self.PART)
        tracer.call("decompose.reduction_to_json", _to_json, d)
        return Outcome(1, 0, (g, d))

    def check(self, item, outcome, tracer):
        g, d = outcome.value
        self.record_reduction(tracer, d)
        _, wrong = check_cells(tracer, d, g, self.PART,
                               self.samples[item[0]])
        return 1 if wrong else 0


# ---------------------------------------------------------------------------
# game-ladder


def game_cells():
    """The game catalogue: (mode, n, k, p, q) on chains of p and q elements,
    for q = p - 1 and q = p.  Chain lengths stop where one cell costs about
    a second at seed; longer chains are listed as left out.  The small
    (2, 1) rung brings the catalogue to 100 games."""
    ladder = {(3, 1): 8, (4, 1): 6, (2, 2): 5, (3, 2): 4, (2, 1): 7}
    return [(mode, n, k, p, q)
            for (n, k), top in ladder.items()
            for p in range(2, top + 1)
            for q in (p - 1, p)
            for mode in ("prefix", "tree")]


def cell_key(cell):
    mode, n, k, p, q = cell
    return f"{mode} n={n} k={k} chains {p}/{q}"


class GameLadder(Workload):
    """Prefix and tree games on chain pairs (p, p-1) and (p, p); every round
    plays the whole catalogue in a seeded order on freshly named chains."""

    name = "game-ladder"

    def __init__(self, seed):
        super().__init__(seed)
        expected = load_expected()["games"]
        self.cells = [(cell, expected[cell_key(cell)]["winner"])
                      for cell in game_cells()]

    def round(self, round_index):
        rng = self.rng(round_index)
        tag = f"r{round_index}x{rng.randrange(1 << 20)}"
        items = []
        for (mode, n, k, p, q), winner in self.cells:
            a = linear_order(p, tag + "a")
            b = linear_order(q, tag + "b")
            items.append((mode, GameConfig(n, k), a, b, winner))
        pairs = list(enumerate(items))
        rng.shuffle(pairs)
        return pairs

    def request(self, item, tracer):
        mode, cfg, a, b, winner = item
        if mode == "prefix":
            got = tracer.call("efgame.prefix_game_winner", prefix_game_winner,
                              cfg, a, (), b, ())
        else:
            got = tracer.call("efgame.tree_prefix_game_winner",
                              tree_prefix_game_winner, cfg, a, (), b, ())
        self.add("efgame.games", 1)
        self.add("efgame.spoiler_wins", got is Player.Spoiler)
        return Outcome(1, int(got.value != winner))


# ---------------------------------------------------------------------------
# class-enum


class ClassEnum(Workload):
    """Transfer-oracle queries on criterion-5 pointed pairs at n=2, k=2,
    checked against both game solvers, plus criterion-8 count cells and
    enumeration cells checked against stored class counts.

    Each round renames the six one-relation structures afresh, so the
    module-level transfer cache starts cold per round while repeats inside
    a round (same boards, other points; the reverse direction) still hit.
    """

    name = "class-enum"
    N, K = 2, 2
    # Every count cell with n, m <= 2 and t <= 1, except the two left out
    # for run length.
    COUNT_CELLS = tuple((n, m, t) for t in (0, 1) for n in (0, 1, 2)
                        for m in (0, 1, 2)
                        if (n, m, t) not in ((1, 2, 1), (2, 2, 1)))
    ENUM_CELLS = tuple((mode, n, k, t) for mode in ("sigma", "pi")
                       for n, k, t in ((0, 1, 0), (0, 1, 1), (1, 1, 0),
                                       (1, 1, 1), (1, 2, 0), (2, 1, 0)))

    def __init__(self, seed):
        super().__init__(seed)
        self.counts = load_expected()["classes"]
        self.cfg = GameConfig(self.N, self.K)
        self.seen = set()

    def round(self, round_index):
        rng = self.rng(round_index)
        structs = tuple(all_structures(
            VU, 2, tag=f"r{round_index}x{rng.randrange(1 << 20)}e"))
        pointed = [(s, ()) for s in structs]
        pointed += [(s, (e,)) for s in structs for e in s.universe]
        # The queries on one unordered pair of boards (and tuple length) are
        # the only ones that share transfer-cache entries.  They stay
        # together in a fixed order and only the groups are shuffled, so
        # the same queries miss the cache in every round and every seed.
        groups = {}
        for a, ta in pointed:
            for b, tb in pointed:
                if len(ta) == len(tb) and not (
                        ta and len(a.universe) == len(b.universe) == 2):
                    key = (frozenset((id(a), id(b))), len(ta))
                    groups.setdefault(key, []).append(
                        ("oracle", a, ta, b, tb, round_index))
        groups = list(groups.values())
        beds = [TestBed(structs, ()), TestBed(structs, ("x1",))]
        groups += [[("count", cell, beds[cell[2]])]
                   for cell in self.COUNT_CELLS]
        groups += [[("enumerate", cell, beds[cell[3]])]
                   for cell in self.ENUM_CELLS]
        slots = itertools.count()
        groups = [[(next(slots), item) for item in group] for group in groups]
        rng.shuffle(groups)
        return [pair for group in groups for pair in group]

    def oracle(self, tracer, round_index, a, ta, b, tb):
        # the boards are alive for the whole round, so their ids name them
        bed = (round_index, id(a), id(b), len(ta))
        self.add("enumeration.oracle_calls", 1)
        self.add("enumeration.oracle_repeats", bed in self.seen)
        self.seen.add(bed)
        return tracer.call("enumeration.transfer_oracle", transfer_oracle,
                           self.N, self.K, a, ta, b, tb)

    def request(self, item, tracer):
        kind = item[0]
        if kind == "oracle":
            _, a, ta, b, tb, r = item
            forward = self.oracle(tracer, r, a, ta, b, tb)
            prefix = tracer.call("efgame.prefix_game_winner",
                                 prefix_game_winner, self.cfg, a, ta, b, tb)
            both = forward and self.oracle(tracer, r, b, tb, a, ta)
            tree = tracer.call("efgame.tree_prefix_game_winner",
                               tree_prefix_game_winner, self.cfg, a, ta, b, tb)
            wrong = ((prefix is Player.Duplicator) != forward
                     or (tree is Player.Duplicator) != both)
            return Outcome(1, int(wrong))
        if kind == "count":
            _, (n, m, t), bed = item
            r = tracer.call("enumeration.count_bound_check", count_bound_check,
                            n, m, t, VU, bed)
            want = self.counts[f"count n={n} m={m} t={t}"]
            got = r["count"]
            wrong = not r["ok"] or got != want["count"] \
                or r["bound_expr"] != want["bound_expr"]
        else:
            _, (mode, n, k, t), bed = item
            classes = tracer.call("enumeration.enumerate_classes",
                                  enumerate_classes, mode, n, k, bed)
            got = len(classes)
            want = self.counts[f"enumerate {mode} n={n} k={k} t={t}"]
            wrong = got != want["count"]
        self.add("enumeration.classes", got)
        return Outcome(1, int(wrong))


WORKLOADS = {w.name: w for w in (ComposeGrid, DecomposeLadder, GameLadder,
                                 ClassEnum)}
