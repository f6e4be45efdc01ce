"""Prefix and tree-prefix game solvers, and separators read off them."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fvkit import (BudgetExceeded, GameConfig, Player, Structure,
                   ValidationError, Vocabulary, block_uniform, classify,
                   evaluate, find_separator, free_variables, in_sigma,
                   is_partial_isomorphism, prefix_game_winner,
                   transfer_oracle, tree_prefix_game_winner)
from fvkit import efgame
from conftest import all_structures, linear_order

VU = Vocabulary({"U": 1})
VE = Vocabulary({"E": 2})

L5 = linear_order(5)
L4 = linear_order(4, prefix="b")

WITH_U = Structure(VU, ("a",), {"U": frozenset({("a",)})})
WITHOUT_U = Structure(VU, ("b",), {"U": frozenset()})


def reference_winner(config, a, a_tuple, b, b_tuple):
    """The solver prefix_game_winner used before it pruned each new pebble:
    every line is played to the last round, the memo is keyed on ordered
    tuples, and only full tuples are checked."""
    memo = {}

    def dup_wins(n, left_is_a, left_tup, right_tup):
        left, right = (a, b) if left_is_a else (b, a)
        if n == 0:
            return is_partial_isomorphism(left, left_tup, right, right_tup)
        key = (n, left_is_a, left_tup, right_tup)
        hit = memo.get(key)
        if hit is not None:
            return hit
        k = config.tuple_size
        result = True
        for move in itertools.product(left.universe, repeat=k):
            answered = False
            for reply in itertools.product(right.universe, repeat=k):
                if dup_wins(n - 1, not left_is_a,
                            right_tup + reply, left_tup + move):
                    answered = True
                    break
            if not answered:
                result = False
                break
        memo[key] = result
        return result

    won = dup_wins(config.rounds, True, tuple(a_tuple), tuple(b_tuple))
    return Player.Duplicator if won else Player.Spoiler


def test_game_config_validation():
    GameConfig(0, 0)
    GameConfig(2, 1)
    with pytest.raises(ValidationError):
        GameConfig(-1, 1)
    with pytest.raises(ValidationError):
        GameConfig(1, 0)


def test_linear_orders_five_four():
    assert prefix_game_winner(GameConfig(3, 1), L5, (), L4, ()) == Player.Spoiler
    assert prefix_game_winner(GameConfig(2, 1), L5, (), L4, ()) == Player.Duplicator
    assert tree_prefix_game_winner(GameConfig(3, 1), L5, (), L4, ()) == Player.Spoiler


def test_copy_strategy():
    for cfg in (GameConfig(0, 0), GameConfig(1, 1), GameConfig(2, 2)):
        assert prefix_game_winner(cfg, L4, (), L4, ()) == Player.Duplicator
        assert tree_prefix_game_winner(cfg, L4, (), L4, ()) == Player.Duplicator


def test_unary_flag_detected_in_one_round():
    assert prefix_game_winner(GameConfig(1, 1), WITH_U, (), WITHOUT_U, ()) == \
        Player.Spoiler


def test_zero_rounds_is_partial_isomorphism_check():
    a = Structure(VU, ("x", "y"), {"U": frozenset({("x",)})})
    for s, t, ta, tb in [(a, a, ("x",), ("x",)), (a, a, ("x",), ("y",))]:
        winner = prefix_game_winner(GameConfig(0, 1), s, ta, t, tb)
        expected = is_partial_isomorphism(s, ta, t, tb)
        assert (winner == Player.Duplicator) == expected


def test_game_validates():
    with pytest.raises(ValidationError):
        prefix_game_winner(GameConfig(1, 1), WITH_U, ("a",), WITHOUT_U, ())
    with pytest.raises(ValidationError):
        prefix_game_winner(GameConfig(1, 1), WITH_U, (), L4, ())


def test_position_budget():
    big = linear_order(7)
    other = linear_order(8, prefix="b")
    with pytest.raises(BudgetExceeded,
                       match="51 positions explored, limit 50$"):
        prefix_game_winner(GameConfig(3, 2), big, (), other, (),
                           max_positions=50)


def test_tree_game_shares_one_budget():
    # Chains 5/5 at n = 3, k = 1: each orientation explores 74 positions.
    config = GameConfig(3, 1)
    other = linear_order(5, prefix="b")
    for a, b in ((L5, other), (other, L5)):
        assert prefix_game_winner(config, a, (), b, (),
                                  max_positions=74) is Player.Duplicator
    assert tree_prefix_game_winner(config, L5, (), other, (),
                                   max_positions=148) is Player.Duplicator
    with pytest.raises(BudgetExceeded,
                       match="148 positions explored, limit 147$"):
        tree_prefix_game_winner(config, L5, (), other, (),
                                max_positions=147)


def test_matches_reference_on_pointed_unary_boards():
    boards = all_structures(VU, 2)
    pointed = [(s, ()) for s in boards] + \
        [(s, (e,)) for s in boards for e in s.universe]
    games = 0
    for n, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        cfg = GameConfig(n, k)
        for (a, ta), (b, tb) in itertools.product(pointed, repeat=2):
            if len(ta) == len(tb):
                assert prefix_game_winner(cfg, a, ta, b, tb) == \
                    reference_winner(cfg, a, ta, b, tb), (n, k, a, ta, b, tb)
                games += 1
    assert games == 4 * (6 * 6 + 10 * 10)


def test_matches_reference_on_chains():
    winners = set()
    for p, q in itertools.product(range(1, 6), repeat=2):
        a, b = linear_order(p), linear_order(q, prefix="b")
        for n in (1, 2, 3):
            cfg = GameConfig(n, 1)
            winner = prefix_game_winner(cfg, a, (), b, ())
            assert winner == reference_winner(cfg, a, (), b, ()), (p, q, n)
            winners.add(winner)
    assert winners == {Player.Duplicator, Player.Spoiler}


def test_matches_reference_on_binary_boards():
    # loops make the rows that repeat the new pebble, (x, x), matter
    boards = all_structures(Vocabulary({"E": 2}), 2)
    for n, k in ((1, 1), (2, 1), (1, 2)):
        cfg = GameConfig(n, k)
        for a, b in itertools.product(boards, repeat=2):
            assert prefix_game_winner(cfg, a, (), b, ()) == \
                reference_winner(cfg, a, (), b, ()), (n, k, a, b)


def test_lost_start_position():
    for cfg in (GameConfig(1, 1), GameConfig(2, 1), GameConfig(1, 2)):
        # the order flips between the pebbles
        assert prefix_game_winner(cfg, L5, ("a1", "a2"), L4,
                                  ("b2", "b1")) == Player.Spoiler
        # one side repeats a pebble, the other does not
        assert prefix_game_winner(cfg, L5, ("a3", "a3"), L4,
                                  ("b1", "b4")) == Player.Spoiler
        assert tree_prefix_game_winner(cfg, L4, ("b1", "b4"), L5,
                                       ("a3", "a3")) == Player.Spoiler


def test_repeated_pebbles_match_reference():
    left = Structure(VU, ("a", "x"), {"U": frozenset({("a",)})})
    right = Structure(VU, ("b", "c", "d"),
                      {"U": frozenset({("b",), ("c",)})})
    starts = [(("a", "a"), ("b", "b")), (("a", "a"), ("b", "c")),
              (("a", "x", "a"), ("b", "d", "b")),
              (("a", "a"), ("d", "d"))]
    for n, k in ((0, 1), (1, 1), (1, 2), (2, 1), (2, 2)):
        cfg = GameConfig(n, k)
        for ta, tb in starts:
            for args in ((left, ta, right, tb), (right, tb, left, ta)):
                assert prefix_game_winner(cfg, *args) == \
                    reference_winner(cfg, *args), (n, k, args)
    assert prefix_game_winner(GameConfig(1, 1), left, ("a", "a"), right,
                              ("b", "b")) == Player.Duplicator
    assert prefix_game_winner(GameConfig(1, 1), left, ("a", "a"), right,
                              ("b", "c")) == Player.Spoiler


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


def separator_cells():
    """Every <=2-element {U: 1} pair at (n, k) in {1, 2}^2, every <=2-element
    {E: 2} pair at (1, 1), (1, 2) and (2, 1), and chains 2..6 at (3, 1) and
    (4, 1)."""
    unary, binary = all_structures(VU, 2), all_structures(VE, 2)
    for n, k in itertools.product((1, 2), repeat=2):
        for a, b in itertools.product(unary, repeat=2):
            yield n, k, a, b
    for n, k in ((1, 1), (1, 2), (2, 1)):
        for a, b in itertools.product(binary, repeat=2):
            yield n, k, a, b
    for n in (3, 4):
        for p, q in itertools.product(range(2, 7), repeat=2):
            yield n, 1, linear_order(p), linear_order(q, prefix="b")


def test_find_separator_matches_game_and_transfer():
    cells = separators = 0
    for n, k, a, b in separator_cells():
        sep = find_separator(n, k, a, b)
        game = prefix_game_winner(GameConfig(n, k), a, (), b, ())
        assert (sep is None) == (game is Player.Duplicator), (n, k, a, b)
        if n < 4:
            # at n = 4 the transfer oracle passes its class cap on chains
            assert (sep is None) == transfer_oracle(n, k, a, (), b, ()), \
                (n, k, a, b)
        cells += 1
        if sep is not None:
            separators += 1
            assert free_variables(sep) == ()
            assert evaluate(a, sep, {}) is True
            assert evaluate(b, sep, {}) is False
            assert in_sigma(sep, n) and block_uniform(sep, k)
    assert cells == 144 + 972 + 50
    assert 0 < separators < cells


def test_find_separator_shares_one_budget(monkeypatch):
    # L5 against L4 at n = 3, k = 1 takes 19 sub-solves and 44 positions,
    # none of them over 8 on its own
    solves = []
    solve = efgame._prefix_game

    def counted(*args):
        winner, explored = solve(*args)
        solves.append(explored - args[-1])
        return winner, explored

    monkeypatch.setattr(efgame, "_prefix_game", counted)
    assert find_separator(3, 1, L5, L4) is not None
    assert (len(solves), sum(solves), max(solves)) == (19, 44, 8)
    monkeypatch.undo()
    assert find_separator(3, 1, L5, L4, max_positions=44) is not None
    with pytest.raises(BudgetExceeded,
                       match="^game position budget exhausted: 44 positions "
                       "explored, limit 43$"):
        find_separator(3, 1, L5, L4, max_positions=43)


# The heaviest tree games of the benchmark's game ladder, with the winners
# it stores, plus two cells that Spoiler wins.
@pytest.mark.parametrize("n,k,p,q,winner", [
    (3, 2, 4, 4, Player.Duplicator),
    (4, 1, 6, 6, Player.Duplicator),
    (4, 1, 6, 5, Player.Spoiler),
    (2, 2, 5, 4, Player.Spoiler),
])
def test_game_ladder_cells(n, k, p, q, winner):
    a, b = linear_order(p), linear_order(q, prefix="b")
    assert tree_prefix_game_winner(GameConfig(n, k), a, (), b, ()) == winner


@st.composite
def structure_pairs(draw):
    structs = all_structures(VU, 2)
    a = structs[draw(st.integers(0, len(structs) - 1))]
    b = structs[draw(st.integers(0, len(structs) - 1))]
    return a, b


@given(structure_pairs(), st.integers(1, 2), st.integers(1, 2))
@settings(max_examples=50, deadline=None)
def test_tree_game_swap_symmetric(pair, n, k):
    a, b = pair
    cfg = GameConfig(n, k)
    assert tree_prefix_game_winner(cfg, a, (), b, ()) == \
        tree_prefix_game_winner(cfg, b, (), a, ())


@given(structure_pairs(), st.integers(1, 2), st.integers(1, 2))
@settings(max_examples=50, deadline=None)
def test_spoiler_monotone_in_rounds(pair, n, k):
    a, b = pair
    if prefix_game_winner(GameConfig(n, k), a, (), b, ()) == Player.Spoiler:
        assert prefix_game_winner(GameConfig(n + 1, k), a, (), b, ()) == \
            Player.Spoiler
