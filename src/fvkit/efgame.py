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
share one memo entry.  The solver stores a set of pairs as an ``int``
bitmask over pair ids, and tests a new pair with a per-game compatibility
table: one bitmask row per pair, the pairs that agree with it on ``=`` and
on every relation of arity at most 2.  The position budget counts the same
Spoiler-to-move positions as a search over sets of pairs would.

Duplicator wins the *tree* variant iff she wins the prefix game from both
orders of the pair; that mirrors closure of tree-shaped classes under
conjunction, where branches may start with either quantifier.

Spoiler wins the n-round prefix game on two structures exactly when some
existential level-n, block-k sentence is true on the left and false on the
right.  :func:`find_separator` reads one off the solver (the Hintikka-formula
construction): Spoiler's first winning move as ``answered`` finds it, replies
refused by the compatibility table, and moves of min(k, |U|) elements.
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

    Deterministic exhaustive minimax over sets of pebble pairs, memoized on
    ``(rounds left, side, set of pairs)`` (see :func:`_solver`).  The start
    tuples are checked once with :func:`is_partial_isomorphism`; after that
    a reply element whose pair breaks the partial isomorphism is refused at
    once, so every position reached is one, and one with no rounds left is
    Duplicator's.  The budget counts Spoiler-to-move positions that miss
    the memo; past ``max_positions`` of them the call raises BudgetExceeded
    instead of running unbounded.
    """
    a_tuple, b_tuple = tuple(a_tuple), tuple(b_tuple)
    if not is_partial_isomorphism(a, a_tuple, b, b_tuple):
        # every final position extends the start
        return Player.Spoiler
    dup_wins = _solver(a, b, config.tuple_size, max_positions)[0]
    won = dup_wins(config.rounds, True, frozenset(zip(a_tuple, b_tuple)))
    return Player.Duplicator if won else Player.Spoiler


def _solver(a: Structure, b: Structure, k: int, max_positions: int):
    """``(dup_wins, separate)``.  ``dup_wins(rounds, left_is_a, pairs)``: does
    Duplicator win with ``rounds`` rounds left, Spoiler to move on ``a``
    (else ``b``), from the partial isomorphism ``pairs`` of (a, b) elements?
    ``separate(rounds)`` is :func:`find_separator`'s sentence.  All calls
    share one memo and one budget of ``max_positions`` positions.

    Inside, a position is an ``int`` bitmask over pair ids: the pair of the
    i-th element of ``a`` and the j-th of ``b`` has id ``i * |b| + j``.  Each
    position carries ``allowed``, the pairs that may join it: those whose
    one-pebble rows agree (``self_ok``) and that are compatible with every
    placed pair on ``=`` and on each relation of arity 2 in both argument
    orders (the AND of ``row(p)`` over its pairs; rows are built on first
    use).  Duplicator's replies to Spoiler's element ``x`` are then
    ``allowed`` masked to the pairs with ``x``, walked in ascending bit
    order, which is universe order.  Rows of relations of arity >= 3 are
    still checked pebble by pebble against the placed pairs."""
    n_b = len(b.universe)
    size = len(a.universe) * n_b
    full = (1 << size) - 1
    # the pairs with the i-th element of a, and with the j-th element of b
    with_a = [((1 << n_b) - 1) << (i * n_b) for i in range(len(a.universe))]
    column = sum(1 << (i * n_b) for i in range(len(a.universe)))
    with_b = [column << j for j in range(n_b)]

    def pairs_of(lines: list[int], flags) -> int:
        # the pairs whose element on this side is flagged
        mask = 0
        for line, flag in zip(lines, flags):
            if flag:
                mask |= line
        return mask

    # per element, masks that must agree between the two sides of a pair:
    # the pairs that hold it, then per binary relation the pairs whose
    # element it relates to and those whose element relates to it
    sig_a = [[line] for line in with_a]
    sig_b = [[line] for line in with_b]
    self_ok = full
    wide = []
    for name, arity in a.vocab.relations.items():
        rows_a, rows_b = a.relations[name], b.relations[name]
        self_ok &= ~(
            pairs_of(with_a, [(e,) * arity in rows_a for e in a.universe])
            ^ pairs_of(with_b, [(e,) * arity in rows_b for e in b.universe]))
        if arity == 2:
            for sig, lines, s, held in ((sig_a, with_a, a, rows_a),
                                        (sig_b, with_b, b, rows_b)):
                for masks, u in zip(sig, s.universe):
                    masks.append(pairs_of(
                        lines, [(u, e) in held for e in s.universe]))
                    masks.append(pairs_of(
                        lines, [(e, u) in held for e in s.universe]))
        elif arity > 2:
            wide.append((arity, rows_a, rows_b))
    table: list[int | None] = [None] * size

    def row(pid: int) -> int:
        # the pairs compatible with pair pid, built on first use
        r = table[pid]
        if r is None:
            i, j = divmod(pid, n_b)
            clash = 0
            for x, y in zip(sig_a[i], sig_b[j]):
                clash |= x ^ y
            r = table[pid] = full ^ clash
        return r

    def extends_wide(mask: int, pid: int) -> bool:
        # the rows of relations of arity >= 3 that hold the new pair
        old = tuple((a.universe[p // n_b], b.universe[p % n_b])
                    for p in range(size) if mask >> p & 1)
        pair = (a.universe[pid // n_b], b.universe[pid % n_b])
        full_pairs = old + (pair,)
        for arity, rows_a, rows_b in wide:
            for i in range(arity):  # i = position of the first new pebble
                for head in itertools.product(old, repeat=i):
                    for tail in itertools.product(full_pairs,
                                                  repeat=arity - i - 1):
                        row_a, row_b = zip(*head, pair, *tail)
                        if (row_a in rows_a) != (row_b in rows_b):
                            return False
        return True

    # past a board's size, a move only repeats elements: no new pairs
    reach = {True: [range(len(with_a))] * min(k, len(with_a)),
             False: [range(n_b)] * min(k, n_b)}
    memo: dict = {}
    explored = 0

    def answered(n: int, left_is_a: bool, mask: int, allowed: int,
                 move: tuple[int, ...], lines: list[int]) -> bool:
        # Duplicator answers move[0], then the rest of Spoiler's move
        rest = move[1:]
        replies = allowed & lines[move[0]]
        while replies:
            bit = replies & -replies
            replies ^= bit
            if mask & bit:
                grown, narrowed = mask, allowed
            else:
                pid = bit.bit_length() - 1
                if wide and not extends_wide(mask, pid):
                    continue
                grown, narrowed = mask | bit, allowed & row(pid)
            if rest:
                if answered(n, left_is_a, grown, narrowed, rest, lines):
                    return True
            # sides swap: the next block of quantifiers is the other kind
            elif play(n - 1, not left_is_a, grown, narrowed):
                return True
        return False

    def play(n: int, left_is_a: bool, mask: int, allowed: int) -> bool:
        nonlocal explored
        if n == 0:
            return True
        key = (n, left_is_a, mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        explored += 1
        if explored > max_positions:
            raise BudgetExceeded(
                f"game position budget exhausted: {explored} positions "
                f"explored, limit {max_positions}")
        lines = with_a if left_is_a else with_b
        result = True
        for move in itertools.product(*reach[left_is_a]):
            if not answered(n, left_is_a, mask, allowed, move, lines):
                result = False
                break
        memo[key] = result
        return result

    a_index = {e: i for i, e in enumerate(a.universe)}
    b_index = {e: j for j, e in enumerate(b.universe)}

    def dup_wins(n: int, left_is_a: bool, pairs: frozenset) -> bool:
        mask, allowed = 0, self_ok
        for u, v in pairs:
            pid = a_index[u] * n_b + b_index[v]
            mask |= 1 << pid
            allowed &= row(pid)
        return play(n, left_is_a, mask, allowed)

    def separate(n: int, left_is_a: bool = True, mask: int = 0,
                 allowed: int = self_ok, pebbles: tuple = (), first: int = 0
                 ) -> Formula | None:
        # pebbles are (variable, a-element, b-element), in pebble order
        lines = with_a if left_is_a else with_b
        for move in itertools.product(*reach[left_is_a]):
            if not answered(n, left_is_a, mask, allowed, move, lines):
                break
        else:
            return None
        names = [f"z{first + i + 1}" for i in range(k)]
        parts: dict[Formula, None] = {}  # distinct, in first-seen order

        def walk(mask: int, allowed: int, pebbles: tuple, i: int) -> None:
            # Duplicator's replies to move[i:], in answered's order
            replies = lines[move[i]]
            while replies:
                bit = replies & -replies
                replies ^= bit
                pid = bit.bit_length() - 1
                placed = pebbles + (
                    (names[i], a.universe[pid // n_b], b.universe[pid % n_b]),)
                if mask & bit or allowed & bit and (
                        not wide or extends_wide(mask, pid)):
                    grown, narrowed = mask | bit, allowed & row(pid)
                    if i + 1 < len(move):
                        walk(grown, narrowed, placed, i + 1)
                    else:
                        parts[negate_dual(separate(
                            n - 1, not left_is_a, grown, narrowed, placed,
                            first + k))] = None
                else:  # the first row it breaks refutes every extension
                    vs, on_a, on_b = zip(*placed)
                    relation, idx, in_a = _first_difference(a, on_a, b, on_b)
                    parts[Literal(in_a == left_is_a, relation,
                                  tuple(vs[j] for j in idx))] = None

        walk(mask, allowed, pebbles, 0)
        body = next(iter(parts)) if len(parts) == 1 else And(tuple(parts))
        for name in reversed(names):
            body = Exists(name, body)
        return body

    return dup_wins, separate


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
    dup_wins = _solver(a, b, config.tuple_size, max_positions)[0]
    pairs = frozenset(zip(a_tuple, b_tuple))
    won = (dup_wins(config.rounds, True, pairs)
           and dup_wins(config.rounds, False, pairs))
    return Player.Duplicator if won else Player.Spoiler


def find_separator(n: int, k: int, a1: Structure, a2: Structure,
                   max_positions: int = DEFAULT_POSITION_BUDGET
                   ) -> Formula | None:
    """An existential level-n block-k *sentence* true on a1 and false on a2,
    or None exactly when Duplicator wins the (n, k) prefix game on them.

    Read off the game solver.  Spoiler's move is the first that ``answered``
    refuses; its min(k, |U|) elements take the first of the block's k
    existentials ``z<i>``.  A reply element the compatibility table refuses
    gives the first row it breaks, a complete reply the dual negation of the
    swapped position's sentence, and a move Duplicator answers gives nothing.
    One memo and one budget of ``max_positions`` positions serve all; past
    it the call raises BudgetExceeded.  Raises ValidationError when n < 1,
    k < 1 or the vocabularies differ.
    """
    if n < 1 or k < 1:
        raise ValidationError("separator search needs n >= 1 and k >= 1")
    if a1.vocab != a2.vocab:
        raise ValidationError("vocabulary mismatch")
    return _solver(a1, a2, k, max_positions)[1](n)
