"""The composition theorem for prefix classes, checked across kernels.

If Duplicator wins the (n, k) prefix game on (A, A') and on (B, B'), she
wins it on (A * B, A' * B') for every sum-like operation *.  Dually, a
sigma-n block-k sentence that separates two composites decomposes into
factors of its class under a monotone beta, so one factor separates a pair
of components, and Spoiler wins that pair's game.  The checks go through
the public API only: the game solver, ``find_separator``,
``apply_sum_like`` and ``decompose_over_op``, so a wrong table in the game,
a wrong transform or a wrong factor class each breaks one.  Every draw is
seeded.
"""

import itertools
import random

from fvkit import (MARK, GameConfig, Interpretation, Player, Structure,
                   SumLikeOp, ValidationError, VarPartition, Vocabulary,
                   apply_sum_like, decompose_over_op, eval_reduction,
                   evaluate, find_separator, in_sigma, prefix_game_winner,
                   random_formula)
from test_acceptance import check_against_composites, formula_suite, \
    sum_like_ops

CELLS = ((1, 1), (2, 1), (1, 2), (2, 2))


def _duplicator_wins(n, k, a, b):
    return prefix_game_winner(GameConfig(n, k), a, (), b, ()) \
        is Player.Duplicator


def _won_quadruples(grid, n, k, rng, count):
    """``count`` seeded draws of (A, A', B, B') with Duplicator winning the
    (n, k) prefix game on (A, A') and on (B, B'); (A, A) is always won."""
    won = [(a, b) for a, b in itertools.product(grid, repeat=2)
           if _duplicator_wins(n, k, a, b)]
    return [(*rng.choice(won), *rng.choice(won)) for _ in range(count)]


def test_prefix_games_transfer_to_composites():
    rng = random.Random(11)
    checked = 0
    for _, op, grid in sum_like_ops():
        for n, k in CELLS:
            for a, a2, b, b2 in _won_quadruples(grid, n, k, rng, 12):
                assert _duplicator_wins(n, k, apply_sum_like(op, a, b),
                                        apply_sum_like(op, a2, b2))
                checked += 1
    assert checked == 4 * len(CELLS) * 12


def test_separators_transport_through_reductions():
    rng = random.Random(12)
    spoiler_wins = 0
    for _, op, grid in sum_like_ops():
        for n, k in CELLS[:3]:
            for _ in range(16):
                a, a2, b, b2 = (rng.choice(grid) for _ in range(4))
                left = apply_sum_like(op, a, b)
                right = apply_sum_like(op, a2, b2)
                phi = find_separator(n, k, left, right)
                if phi is None:
                    assert _duplicator_wins(n, k, left, right)
                    continue
                spoiler_wins += 1
                assert evaluate(left, phi, {}) and not evaluate(right, phi, {})
                d = decompose_over_op(phi, op, VarPartition((), ()))
                assert eval_reduction(d, a, b)
                assert not eval_reduction(d, a2, b2)
                # beta is monotone, so a factor true on a component of the
                # first composite is false on the second's
                separating = [(g, x, y) for factors, x, y
                              in ((d.delta1, a, a2), (d.delta2, b, b2))
                              for g in factors
                              if evaluate(x, g, {}) and not evaluate(y, g, {})]
                assert separating
                for g, x, y in separating:
                    assert in_sigma(g, n)
                    assert not _duplicator_wins(n, k, x, y)
    assert spoiler_wins >= 40


# ---------------------------------------------------------------------------
# Random sum-like operations and seeded components of 1-4 elements


TARGET = Vocabulary({"E": 2, "Q": 1})  # the marker's name stays free
SOURCE = Vocabulary(dict(TARGET.relations) | {MARK: 1})


def _random_op(rng):
    """A sum-like operation with random quantifier-free definitions of its
    universe and relations over the marked union."""
    def qf(free_vars):
        return random_formula("sigma", 0, 0, SOURCE, free_vars=free_vars,
                              seed=rng.randrange(10 ** 9))
    universe = qf(("x1",))
    rels = {"E": qf(("y1", "y2")), "Q": qf(("y1",))}
    return SumLikeOp("random", Interpretation(SOURCE, TARGET, universe, rels))


def _random_structure(vocab, rng, sizes=(1, 2, 3, 4)):
    universe = tuple(f"e{i}" for i in range(rng.choice(sizes)))
    rels = {name: frozenset(row for row in itertools.product(universe,
                                                             repeat=arity)
                            if rng.random() < 0.5)
            for name, arity in vocab.relations.items()}
    return Structure(vocab, universe, rels)


def _composites(op, pairs):
    """(A, B, A * B) for the pairs whose composite is not empty."""
    out = []
    for a, b in pairs:
        try:
            out.append((a, b, apply_sum_like(op, a, b)))
        except ValidationError:
            continue  # the universe formula carved out nothing
    return out


def _inside(rows, composites):
    """Rows of assignments that land in each composite's universe: the
    carved universe may drop a component element."""
    checks = 0
    for f, part, d in rows:
        for a, b, comp in composites:
            for la in itertools.product(a.universe, repeat=len(part.left)):
                for rb in itertools.product(b.universe,
                                            repeat=len(part.right)):
                    asg = {v: f"L:{e}" for v, e in zip(part.left, la)}
                    asg.update({v: f"R:{e}" for v, e in zip(part.right, rb)})
                    if not set(asg.values()) <= comp.elements:
                        continue
                    assert eval_reduction(d, a, b, la, rb) == \
                        evaluate(comp, f, asg)
                    checks += 1
    return checks


def test_random_operations_match_composites_and_games():
    rng = random.Random(13)
    checks = games = 0
    for _ in range(12):
        op = _random_op(rng)
        structs = [_random_structure(TARGET, rng, (1, 2)) for _ in range(5)]
        composites = _composites(op, itertools.product(structs, repeat=2))
        rows = []
        for s in range(12):
            fv = ("v1", "v2")[:s % 3]
            part = VarPartition(fv[:1], fv[1:])
            f = random_formula(("sigma", "pi")[s % 2], s % 3, 2, TARGET,
                               free_vars=fv, seed=rng.randrange(10 ** 9))
            rows.append((f, part, decompose_over_op(f, op, part)))
        checks += _inside(rows, composites)
        for n, k in CELLS[:3]:
            for a, a2, b, b2 in _won_quadruples(structs, n, k, rng, 4):
                found = _composites(op, [(a, b), (a2, b2)])
                if len(found) == 2:
                    assert _duplicator_wins(n, k, found[0][2], found[1][2])
                    games += 1
    assert checks > 2000 and games > 80


def test_components_of_up_to_four_elements():
    rng = random.Random(14)
    checks = 0
    for _, op, _ in sum_like_ops():
        vocab = op.interp.target_vocab
        rows = [(f, part, decompose_over_op(f, op, part))
                for _, _, f, part in formula_suite(vocab, 24)]
        pairs = [(_random_structure(vocab, rng), _random_structure(vocab, rng))
                 for _ in range(10)]
        checks += check_against_composites(rows, _composites(op, pairs))
    assert checks > 2000
