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

Spoiler wins the n-round prefix game on two structures exactly when some
existential level-n, block-k sentence is true on the left and false on the
right; :func:`find_separator` reads such a sentence off Spoiler's winning
moves (the Hintikka-formula construction).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .errors import BudgetExceeded, ValidationError
from .formula import And, Exists, Formula, Literal, negate_dual
from .structure import Structure, _first_difference, is_partial_isomorphism

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
    a_tuple, b_tuple = tuple(a_tuple), tuple(b_tuple)
    if not is_partial_isomorphism(a, a_tuple, b, b_tuple):
        # every final position extends the start
        return Player.Spoiler
    dup_wins = _solver(a, b, config.tuple_size, max_positions)
    won = dup_wins(config.rounds, True, frozenset(zip(a_tuple, b_tuple)))
    return Player.Duplicator if won else Player.Spoiler


def _solver(a: Structure, b: Structure, k: int, max_positions: int):
    """``dup_wins(rounds, left_is_a, pairs)``: does Duplicator win with
    ``rounds`` rounds left, Spoiler to move on ``a`` (else ``b``), from the
    partial isomorphism ``pairs`` of (a, b) elements?  All calls share one
    memo and one budget of ``max_positions`` positions."""
    tables = [(arity, a.relations[name], b.relations[name])
              for name, arity in a.vocab.relations.items()]
    memo: dict = {}
    explored = 0

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

    return dup_wins


def tree_prefix_game_winner(config: GameConfig, a: Structure,
                            a_tuple: tuple[str, ...], b: Structure,
                            b_tuple: tuple[str, ...],
                            max_positions: int = DEFAULT_POSITION_BUDGET) -> Player:
    """Solve the tree variant: Duplicator must win the prefix game from both
    orders of the boards.  Both run on one solver and draw on one budget of
    ``max_positions``; their positions never meet (opposite sides move)."""
    a_tuple, b_tuple = tuple(a_tuple), tuple(b_tuple)
    if not is_partial_isomorphism(a, a_tuple, b, b_tuple):
        return Player.Spoiler
    dup_wins = _solver(a, b, config.tuple_size, max_positions)
    pairs = frozenset(zip(a_tuple, b_tuple))
    won = (dup_wins(config.rounds, True, pairs)
           and dup_wins(config.rounds, False, pairs))
    return Player.Duplicator if won else Player.Spoiler


def find_separator(n: int, k: int, a1: Structure, a2: Structure,
                   max_positions: int = DEFAULT_POSITION_BUDGET
                   ) -> Formula | None:
    """An existential level-n block-k *sentence* true on a1 and false on a2,
    or None exactly when Duplicator wins the (n, k) prefix game on them.

    Spoiler's k-tuples on the left board are tried in universe order.  A
    move wins when every reply on the right board either breaks the partial
    isomorphism, which contributes the first row that differs as a literal,
    or loses the (n-1)-round game from the swapped position, which
    contributes the dual negation of that position's separator.  The
    sentence is the move's block of existentials, over variables ``z<i>``
    named by pebble position, on the conjunction of the distinct parts.

    Every sub-position goes to one game solver, so the sub-games share one
    memo and one budget of ``max_positions`` game positions; past it the
    call raises BudgetExceeded with the total count.  Raises
    ValidationError when n < 1, k < 1 or the vocabularies differ.
    """
    if n < 1 or k < 1:
        raise ValidationError("separator search needs n >= 1 and k >= 1")
    if a1.vocab.relations != a2.vocab.relations:
        raise ValidationError("vocabulary mismatch")
    dup_wins = _solver(a1, a2, k, max_positions)

    def separate(rounds: int, left_is_a: bool, left_tuple: tuple[str, ...],
                 right_tuple: tuple[str, ...]) -> Formula | None:
        left, right = (a1, a2) if left_is_a else (a2, a1)
        names = [f"z{i + 1}" for i in range(len(left_tuple) + k)]
        for move in itertools.product(left.universe, repeat=k):
            grown = left_tuple + move
            parts: list[Formula] = []
            for reply in itertools.product(right.universe, repeat=k):
                answer = right_tuple + reply
                diff = _first_difference(left, grown, right, answer)
                if diff is not None:
                    relation, idx, held = diff
                    part = Literal(held, relation,
                                   tuple(names[i] for i in idx))
                else:
                    if rounds == 1:
                        break
                    pairs = zip(grown, answer) if left_is_a \
                        else zip(answer, grown)
                    if dup_wins(rounds - 1, not left_is_a, frozenset(pairs)):
                        break
                    part = negate_dual(separate(rounds - 1, not left_is_a,
                                                answer, grown))
                if part not in parts:
                    parts.append(part)
            else:
                body = parts[0] if len(parts) == 1 else And(tuple(parts))
                for name in reversed(names[len(left_tuple):]):
                    body = Exists(name, body)
                return body
        return None

    return separate(n, True, (), ())
