"""Prefix and tree-prefix model-comparison games.

One round of the (rounds, tuple_size) prefix game: Spoiler extends the pebble
tuple on the current left structure by a tuple_size-tuple (repetitions
allowed), Duplicator answers with a tuple on the right structure, and the
sides swap for the next round -- that swap is what matches the quantifier
alternation of block-uniform prefix formulas.  After the last round Duplicator
wins iff the final tuples define a partial isomorphism.

Partial isomorphism is hereditary, so the solver tests it pebble by pebble:
a reply element whose pair breaks it loses at once, with every extension.
The final check reads only the set of pebble pairs, so positions are that
set (plus rounds left and side), and tuples that differ in order or repeats
share one memo entry.

Duplicator wins the *tree* variant iff she wins the prefix game from both
orders of the pair; that mirrors closure of tree-shaped classes under
conjunction, where branches may start with either quantifier.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .errors import BudgetExceeded, ValidationError
from .structure import Structure, is_partial_isomorphism

DEFAULT_POSITION_BUDGET = 10_000_000


class Player(enum.Enum):
    Duplicator = "duplicator"
    Spoiler = "spoiler"


@dataclass(frozen=True)
class GameConfig:
    rounds: int
    tuple_size: int

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValidationError("rounds must be >= 0")
        if self.rounds >= 1 and self.tuple_size < 1:
            raise ValidationError("tuple_size must be >= 1 when rounds >= 1")
        if self.tuple_size < 0:
            raise ValidationError("tuple_size must be >= 0")


def _check_position(a: Structure, a_tuple: tuple[str, ...],
                    b: Structure, b_tuple: tuple[str, ...]) -> None:
    if a.vocab.relations != b.vocab.relations:
        raise ValidationError("vocabulary mismatch between the boards")
    if len(a_tuple) != len(b_tuple):
        raise ValidationError("initial tuples must have equal length")
    if not set(a_tuple) <= set(a.universe):
        raise ValidationError("left tuple mentions unknown elements")
    if not set(b_tuple) <= set(b.universe):
        raise ValidationError("right tuple mentions unknown elements")


def prefix_game_winner(config: GameConfig, a: Structure,
                       a_tuple: tuple[str, ...], b: Structure,
                       b_tuple: tuple[str, ...],
                       max_positions: int = DEFAULT_POSITION_BUDGET) -> Player:
    """Solve the prefix game started with Spoiler to move on ``a``.

    Deterministic exhaustive minimax.  A position is the set of pebble pairs
    ``(a-element, b-element)`` placed so far, with the rounds left and the
    board Spoiler moves on; order and repeats in the tuples do not matter,
    since the final check reads only that set.  The start tuples are checked
    once with :func:`is_partial_isomorphism`.  Duplicator's reply is then
    searched one element at a time, and an element whose pair breaks the
    partial isomorphism is refused at once: the property is hereditary, so
    every extension of that reply loses too.  Every position reached is thus
    a partial isomorphism, and one with no rounds left is Duplicator's.

    Results are memoized on ``(rounds left, side, set of pairs)``.  The
    budget counts Spoiler-to-move positions that miss the memo; past
    ``max_positions`` of them the call raises BudgetExceeded instead of
    running unbounded.
    """
    return _prefix_game(config, a, a_tuple, b, b_tuple, max_positions)[0]


def _prefix_game(config: GameConfig, a: Structure, a_tuple: tuple[str, ...],
                 b: Structure, b_tuple: tuple[str, ...], max_positions: int,
                 explored: int = 0) -> tuple[Player, int]:
    """:func:`prefix_game_winner` with ``explored`` positions already
    charged to the budget; returns the winner and the new count."""
    a_tuple, b_tuple = tuple(a_tuple), tuple(b_tuple)
    _check_position(a, a_tuple, b, b_tuple)
    if not is_partial_isomorphism(a, a_tuple, b, b_tuple):
        # every final position extends the start
        return Player.Spoiler, explored
    tables = [(arity, a.relations[name], b.relations[name])
              for name, arity in a.vocab.relations.items()]
    k = config.tuple_size
    memo: dict = {}

    def extends(pairs: frozenset, pair: tuple[str, str]) -> bool:
        # pairs is a partial isomorphism; test only the rows with the new pair
        u, v = pair
        for p, q in pairs:
            if (p == u) != (q == v):
                return False
        old = tuple(pairs)
        full = old + (pair,)
        for arity, rows_a, rows_b in tables:
            for i in range(arity):  # i = position of the first new pebble
                for head in itertools.product(old, repeat=i):
                    for tail in itertools.product(full, repeat=arity - i - 1):
                        row_a, row_b = zip(*head, pair, *tail)
                        if (row_a in rows_a) != (row_b in rows_b):
                            return False
        return True

    def answered(n: int, left_is_a: bool, pairs: frozenset,
                 move: tuple[str, ...], right: tuple[str, ...]) -> bool:
        if not move:
            # sides swap: the next block of quantifiers is the other kind
            return dup_wins(n - 1, not left_is_a, pairs)
        x, rest = move[0], move[1:]
        for y in right:
            pair = (x, y) if left_is_a else (y, x)
            if pair in pairs:
                grown = pairs
            elif extends(pairs, pair):
                grown = pairs | {pair}
            else:
                continue
            if answered(n, left_is_a, grown, rest, right):
                return True
        return False

    def dup_wins(n: int, left_is_a: bool, pairs: frozenset) -> bool:
        nonlocal explored
        if n == 0:
            return True
        key = (n, left_is_a, pairs)
        hit = memo.get(key)
        if hit is not None:
            return hit
        explored += 1
        if explored > max_positions:
            raise BudgetExceeded(
                f"game position budget exhausted: {explored} positions "
                f"explored, limit {max_positions}")
        left, right = (a, b) if left_is_a else (b, a)
        result = all(answered(n, left_is_a, pairs, move, right.universe)
                     for move in itertools.product(left.universe, repeat=k))
        memo[key] = result
        return result

    won = dup_wins(config.rounds, True, frozenset(zip(a_tuple, b_tuple)))
    return (Player.Duplicator if won else Player.Spoiler), explored


def tree_prefix_game_winner(config: GameConfig, a: Structure,
                            a_tuple: tuple[str, ...], b: Structure,
                            b_tuple: tuple[str, ...],
                            max_positions: int = DEFAULT_POSITION_BUDGET) -> Player:
    """Solve the tree variant: Duplicator must win the prefix game from both
    orders of the boards.  Both games draw on one budget of
    ``max_positions``."""
    first, explored = _prefix_game(config, a, a_tuple, b, b_tuple,
                                   max_positions)
    if first is Player.Spoiler:
        return Player.Spoiler
    return _prefix_game(config, b, b_tuple, a, a_tuple, max_positions,
                        explored)[0]
