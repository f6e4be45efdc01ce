"""Semantic enumeration of prefix-class formulas over finite test beds.

A test bed is a list of structures plus a variable context; a *row* is one
structure together with one assignment of context variables to its elements.
Every formula over the context then denotes a bitvector over the rows, and a
semantic class is such a bitvector together with a formula denoting it.
Enumerating all classes of the existential tree-prefix level n with
quantifier blocks of length k is decidable bed-wise:

- level 0 starts from all literals (plus true/false) and closes under
  conjunction, then under disjunction, which by distributivity gives the
  lattice they generate;
- level n takes the dual classes at level n-1 over the context extended by k
  fresh variables, closes under conjunction (intersection of bitvectors),
  then projects the fresh block existentially -- an OR over each row's
  extension block.  The universal dual closes under disjunction and projects
  with "all bits set".

Classes stay bits while they close (by a generator fold, see ``_closure``)
and project; each level maps a class's bits to how it was first made, and
only ``enumerate_classes`` turns these recipes into formulas, for the classes
its output is built from.  The transfer oracle (does every existential-class
sentence true on the left position hold on the right one?) and the
class-counting bound check read the bits alone; separators are read off the
game solver in ``efgame``.  The oracle's level 0 is the literals alone, left
to the level-1 fold to combine.  Its cache keeps the last 256 beds, keyed
on the unordered pair of board values, so a query and its reverse share one
class computation.  Each entry point takes its class cap as the plain int
``max_classes``.  All orders of iteration are deterministic, so repeated
runs produce byte-identical output.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import CapExceeded, ValidationError
from .formula import (And, Exists, Forall, Formula, Literal, Or, PI, SIGMA,
                      TOP, BOT, NAME_RE, Vocabulary)
from .structure import Structure

# Magnitude guard for materialized tower values (in bits).
DEFAULT_TOWER_MAX_BITS = 1 << 20
# Default of every class cap: a closure that passes it raises CapExceeded.
DEFAULT_MAX_CLASSES = 200_000
# Bits of the largest bound count_bound_check returns: 2**14_000 has 4,215
# decimal digits, and Python refuses to print an int of more than 4,300.
PRINTABLE_BOUND_BITS = 14_000


def tower(level: int, base: int) -> int:
    """Iterated exponential: tower(0, b) = b, tower(l, b) = 2**tower(l-1, b).

    Raises CapExceeded once an intermediate exponent passes
    ``DEFAULT_TOWER_MAX_BITS`` -- the value would be astronomically large,
    not merely big.
    """
    if level < 0 or base < 0:
        raise ValidationError("tower arguments must be >= 0")
    value = base
    for _ in range(level):
        if value > DEFAULT_TOWER_MAX_BITS:
            raise CapExceeded(f"tower({level}, {base}) exceeds the "
                              f"{DEFAULT_TOWER_MAX_BITS}-bit guard")
        value = 1 << value
    return value


def tower_at_least(level: int, base: int, value: int) -> bool:
    """Exact test tower(level, base) >= value without materializing the
    tower: once an intermediate exponent reaches value.bit_length() the
    remaining exponentials dominate."""
    t = base
    for _ in range(level):
        if t >= value.bit_length():
            return True
        t = 2 ** t
    return t >= value


def _check_class_cap(count: int, limit: int) -> None:
    if count > limit:
        raise CapExceeded(f"class cap exceeded: {count} classes, "
                          f"limit {limit} (inconclusive)")


@dataclass(frozen=True)
class SemanticClass:
    """A bed-semantic class: bit i is the truth value at row i; the
    representative, built only on output, denotes exactly these bits."""

    bits: int
    representative: Formula


class TestBed:
    """Structures plus a variable context; rows are structure-major with
    assignments in lexicographic universe order (first variable most
    significant)."""

    __test__ = False  # keep pytest from collecting this as a test class

    def __init__(self, structures: tuple[Structure, ...],
                 var_context: tuple[str, ...] = ()):
        structures = tuple(structures)
        if not structures:
            raise ValidationError("empty test bed")
        vocab = structures[0].vocab
        if any(s.vocab != vocab for s in structures):
            raise ValidationError("test-bed structures must share a vocabulary")
        names = tuple(var_context)
        if len(set(names)) != len(names):
            raise ValidationError("duplicate context variables")
        for v in names:
            if not NAME_RE.match(v):
                raise ValidationError(f"bad context variable {v!r}")
        self.structures = structures
        self.vocab = vocab
        self.var_context = names
        self.rows: list[tuple[int, tuple[str, ...]]] = []
        self.offsets: list[int] = []
        for i, s in enumerate(structures):
            self.offsets.append(len(self.rows))
            for asg in itertools.product(s.universe, repeat=len(names)):
                self.rows.append((i, asg))

    def extend(self, names: tuple[str, ...]) -> "TestBed":
        return TestBed(self.structures, self.var_context + tuple(names))

    def row_index(self, structure_index: int, asg: tuple[str, ...]) -> int:
        key = (structure_index, tuple(asg))
        s = (self.structures[structure_index]
             if structure_index in range(len(self.structures)) else None)
        if (s is None or len(key[1]) != len(self.var_context)
                or not set(key[1]) <= s.elements):
            raise ValidationError(f"no such row: {key!r}")
        universe = s.universe
        return self.offsets[structure_index] + sum(
            universe.index(e) * len(universe) ** p
            for p, e in enumerate(reversed(key[1])))


def _fresh_names(ctx: tuple[str, ...], k: int) -> tuple[str, ...]:
    names = []
    i = 1
    taken = set(ctx)
    while len(names) < k:
        cand = f"z{i}"
        i += 1
        if cand not in taken:
            names.append(cand)
            taken.add(cand)
    return tuple(names)


# ---------------------------------------------------------------------------
# Seeds: literal bits from relation rows


def _repeat(pattern: int, period: int, count: int) -> int:
    """``pattern`` copied ``count`` times, ``period`` bits apart."""
    return pattern * (((1 << period * count) - 1) // ((1 << period) - 1))


def _literal_seeds(bed: TestBed) -> dict[int, Formula]:
    """true, false and the literals, first formula kept per bits.  Bits are
    the OR, over the relation's rows (for "=", the pairs (e, e)), of the AND
    of the coordinate masks that put each row element at its argument."""
    ctx, full = bed.var_context, (1 << len(bed.rows)) - 1
    coords = {}  # (structure, variable, element) -> rows giving v that e
    for si, (s, offset) in enumerate(zip(bed.structures, bed.offsets)):
        u = len(s.universe)
        for p, v in enumerate(ctx):
            st = u ** (len(ctx) - 1 - p)
            for i, e in enumerate(s.universe):
                coords[si, v, e] = _repeat(((1 << st) - 1) << i * st, u * st,
                                           u ** p) << offset
    seeds: dict[int, Formula] = {full: TOP, 0: BOT}  # rows exist: full > 0
    for name, arity in [*bed.vocab.relations.items(), ("=", 2)]:
        for args in itertools.product(ctx, repeat=arity):
            bits = 0
            for si, s in enumerate(bed.structures):
                for row in (zip(s.universe, s.universe) if name == "="
                            else s.relations[name]):
                    mask = -1  # arities are >= 1, so this ends inside si
                    for a, e in zip(args, row):
                        mask &= coords[si, a, e]
                    bits |= mask
            for positive, held in ((True, bits), (False, full ^ bits)):
                if held not in seeds:
                    seeds[held] = Literal(positive, name, args)
    return seeds


# ---------------------------------------------------------------------------
# Closure and projection; representatives combine flat, so classification
# levels do not inflate


def _join(junction, a: Formula, b: Formula) -> Formula:
    """``a`` and ``b`` under one flat ``junction`` node (And or Or)."""
    left = a.children if isinstance(a, junction) else (a,)
    right = b.children if isinstance(b, junction) else (b,)
    return junction(left + right)


def _closure(classes: dict[int, object], ops: tuple[str, ...],
             max_classes: int) -> dict[int, object]:
    """Close under each listed operation in turn by a generator fold.

    Each operation is associative, commutative and idempotent, so folding
    the generators one at a time into a running closure C (C := C + {g} +
    {c op g : c in C}) yields the closure in O(G * N) steps.  Generators go
    in popcount order -- largest first for "and", smallest first for "or"
    -- so on a closed input only its irreducible elements do any work, the
    rest being already in C.  Closing under "and" and then "or" gives the
    generated lattice by distributivity.

    Returns the input classes, then the new ones in fold order with recipe
    ``(op, c, g)``.  Passing ``max_classes`` raises CapExceeded.
    """
    found = dict(classes)
    _check_class_cap(len(found), max_classes)
    for op in ops:
        meet = op == "and"
        closed: list[int] = []
        inside: set[int] = set()
        for g in sorted(found, key=int.bit_count, reverse=meet):
            if g in inside:
                continue
            inside.add(g)
            closed.append(g)
            for c in closed[:-1]:  # a copy: the closure before g
                bits = c & g if meet else c | g
                if bits in inside:
                    continue
                inside.add(bits)
                closed.append(bits)
                if bits not in found:
                    found[bits] = (op, c, g)
                    _check_class_cap(len(found), max_classes)
    return found


def _project(classes: dict[int, object], bed: TestBed, ext: TestBed,
             mode: str) -> dict[int, int]:
    """Map each projected class to the first inner class that gave it.

    Fresh variables vary fastest, so a structure's extension blocks are
    contiguous and of one length L.  A log-step shift-OR fold leaves each
    block's OR at its first bit (on the complement for pi), and a log-step
    compress gathers every L-th bit."""
    t, j = len(bed.var_context), len(ext.var_context) - len(bed.var_context)
    plan = []
    for si, s in enumerate(bed.structures):
        width, blocks = len(s.universe) ** j, len(s.universe) ** t
        # windows of 1, 2, 4, ... bits, then the rest of the block
        shifts = [min(1 << r, width - (1 << r))
                  for r in range((width - 1).bit_length())]
        # step g puts the g bits gathered at block (2m+1)g after those at 2mg
        steps = [(g * (width - 1), _repeat((1 << 2 * g) - 1, 2 * g * width,
                                           -(-blocks // (2 * g))))
                 for g in (1 << r for r in range((blocks - 1).bit_length()))
                 if width > 1]
        plan.append((ext.offsets[si], bed.offsets[si], shifts,
                     _repeat(1, width, blocks), steps))
    pi = mode == PI
    full, short = (1 << len(ext.rows)) - 1, (1 << len(bed.rows)) - 1
    out: dict[int, int] = {}
    for bits in classes:
        x = full ^ bits if pi else bits
        projected = 0
        for start, dest, shifts, pick, steps in plan:
            y = x >> start
            for s in shifts:
                y |= y >> s
            y &= pick
            for s, mask in steps:
                y = (y | y >> s) & mask
            projected |= y << dest
        out.setdefault(projected ^ short if pi else projected, bits)
    return out


# ---------------------------------------------------------------------------
# Class enumeration


def enumerate_classes(mode: str, n: int, k: int, bed: TestBed,
                      max_classes: int = DEFAULT_MAX_CLASSES
                      ) -> list[SemanticClass]:
    """All semantic classes of the level-n prefix class with blocks of
    length k over the bed, in deterministic construction order.

    Representatives are built lazily: a backward walk over the recipes,
    from the top level down, marks the classes that the output's
    representatives are made of, and only those are built, level by level
    in construction order.  Each representative is the one its recipe
    gives, so the output is the same as building every class's.

    Raises CapExceeded (never returns a truncated set) once a closure holds
    more than ``max_classes`` classes.
    """
    if mode not in (SIGMA, PI):
        raise ValidationError(f"mode must be {SIGMA!r} or {PI!r}")
    if n < 0 or (n >= 1 and k < 1):
        raise ValidationError("need n >= 0 and k >= 1 for quantified levels")
    levels = _level_classes(mode, n, k, bed, max_classes, True)
    # a recipe names only classes made before it, on its level or below
    needed, wanted = [], set(levels[-1][0])
    for classes, _ in reversed(levels):
        below, stack = set(), list(wanted)
        while stack:
            how = classes[stack.pop()]
            if isinstance(how, tuple):
                for part in how[1:]:
                    if part not in wanted:
                        wanted.add(part)
                        stack.append(part)
            elif isinstance(how, int):
                below.add(how)
        needed.append(wanted)
        wanted = below
    reps: dict[int, Formula] = {}
    for (classes, prefix), wanted in zip(levels, reversed(needed)):
        below, reps = reps, {}
        for bits, how in classes.items():
            if bits not in wanted:
                continue
            if isinstance(how, tuple):
                how = _join(And if how[0] == "and" else Or,
                            reps[how[1]], reps[how[2]])
            elif isinstance(how, int):
                how = below[how]
                for kind, name in reversed(prefix):
                    how = kind(name, how)
            reps[bits] = how
    return [SemanticClass(bits, reps[bits]) for bits in levels[-1][0]]


def _level_classes(mode: str, n: int, k: int, bed: TestBed,
                   max_classes: int, full_level0: bool) -> list[tuple]:
    """The levels, innermost first, as (recipe dict, the quantifiers that its
    projection recipes put around their inner class one level down)."""
    if n == 0:
        seeds = _literal_seeds(bed)
        return [(_closure(seeds, ("and", "or"), max_classes) if full_level0
                 else seeds, ())]
    fresh = _fresh_names(bed.var_context, k)
    ext = bed.extend(fresh)
    levels = _level_classes(PI if mode == SIGMA else SIGMA, n - 1, k, ext,
                            max_classes, full_level0)
    closed = levels[-1][0]
    if not (full_level0 and n == 1):  # a full level 0 is closed already
        closed = _closure(closed, ("and" if mode == SIGMA else "or",),
                          max_classes)
        levels[-1] = (closed, levels[-1][1])
    kind = Exists if mode == SIGMA else Forall
    return levels + [(_project(closed, bed, ext, mode),
                      tuple((kind, name) for name in fresh))]


# ---------------------------------------------------------------------------
# Transfer oracle


@functools.lru_cache(maxsize=256)
def _transfer_bed(n: int, k: int, boards: frozenset, t: int,
                  max_classes: int) -> tuple[TestBed, tuple[int, ...]]:
    """The oracle's bed over the two boards, in the set's order (one board
    twice when they are equal), with t context variables, and its top-level
    class bits."""
    bed = TestBed((*boards, *boards)[:2], tuple(f"x{i + 1}" for i in range(t)))
    levels = _level_classes(SIGMA, n, k, bed, max_classes, False)
    return bed, tuple(levels[-1][0])


def transfer_oracle(n: int, k: int, a1: Structure, a1_tuple: tuple[str, ...],
                    a2: Structure, a2_tuple: tuple[str, ...],
                    max_classes: int = DEFAULT_MAX_CLASSES) -> bool:
    """Does every existential level-n block-k formula true at (a1, a1_tuple)
    hold at (a2, a2_tuple)?

    Level 0 contributes the literals only, without their and/or closure;
    the level-1 generator fold supplies their conjunctions.  This decides
    transfer exactly as the full enumeration would -- a monotone
    combination of literals transfers whenever the literals do, and the
    distinguishing witnesses are conjunctions of row types, which survive
    -- while the class sets stay small enough for n = 2, k = 2 on two
    pointed 2-element boards, where the full pipeline passes the class cap.

    The last 256 beds are cached, keyed on the unordered pair of board
    values, so a query and its reverse share one bed: a formula's truth on
    one board does not depend on the other, and the query reads each of
    its two rows on the side where the bed holds that board.  Equal boards
    read alike on either side.  A query that raises caches nothing.
    """
    if a1.vocab != a2.vocab:
        raise ValidationError("vocabulary mismatch")
    if len(a1_tuple) != len(a2_tuple):
        raise ValidationError("anchor tuples must have equal length")
    bed, bits_list = _transfer_bed(n, k, frozenset((a1, a2)), len(a1_tuple),
                                   max_classes)
    m1 = 1 << bed.row_index(bed.structures.index(a1), tuple(a1_tuple))
    m2 = 1 << bed.row_index(bed.structures.index(a2), tuple(a2_tuple))
    return all(bits & m2 for bits in bits_list if bits & m1)


# ---------------------------------------------------------------------------
# Rank-budgeted counting


def count_bound_check(n: int, m: int, t: int, vocab: Vocabulary, bed: TestBed,
                      max_classes: int = DEFAULT_MAX_CLASSES) -> dict:
    """Count level-n classes of quantifier rank <= m over the bed and compare
    with the tower-of-exponentials bound.

    Returns {"count", "bound", "bound_expr", "ok"}; ``bound`` is None when the
    tower has more than ``PRINTABLE_BOUND_BITS`` bits (the comparison is
    still exact), so the result always prints as JSON.  Since
    bed-equivalence coarsens logical equivalence the count never exceeds the
    bound on a correct implementation.
    """
    if t != len(bed.var_context):
        raise ValidationError("t must equal the bed's context length")
    if vocab != bed.vocab:
        raise ValidationError("vocabulary mismatch with the bed")
    if n < 0 or m < 0:
        raise ValidationError("n and m must be >= 0")
    count = len(_rank_classes(SIGMA, n, m, bed, max_classes))
    arity = max(vocab.relations.values(), default=1)
    base = (len(vocab.relations) + 1) * (n + 1) * (m + t) ** arity
    ok = tower_at_least(n + 2, base, count)
    printable = not tower_at_least(n + 2, base, 1 << PRINTABLE_BOUND_BITS)
    bound = tower(n + 2, base) if printable else None
    return {"count": count, "bound": bound,
            "bound_expr": f"tower({n + 2}, {base})", "ok": ok}


def _rank_classes(mode: str, n: int, m: int, bed: TestBed,
                  max_classes: int) -> dict[int, object]:
    """The classes as keys; their recipes mix levels and are never walked."""
    if n == 0:
        return _closure(_literal_seeds(bed), ("and", "or"), max_classes)
    dual = PI if mode == SIGMA else SIGMA
    op = "and" if mode == SIGMA else "or"
    merged: dict[int, object] = {}
    for j in range(m + 1):
        ext = bed.extend(_fresh_names(bed.var_context, j))
        closed = _closure(_rank_classes(dual, n - 1, m - j, ext, max_classes),
                          (op,), max_classes)
        merged.update(_project(closed, bed, ext, mode) if j else closed)
        _check_class_cap(len(merged), max_classes)
        if len(merged) == 1 << len(bed.rows):  # all classes: no j adds one
            break
    return merged
