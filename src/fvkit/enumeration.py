"""Semantic enumeration of prefix-class formulas over finite test beds.

A test bed is a list of structures plus a variable context; a *row* is one
structure together with one assignment of context variables to its elements.
Every formula over the context then denotes a bitvector over the rows, and a
semantic class is such a bitvector together with the first formula found
denoting it.  Enumerating all classes of the existential tree-prefix level n
with quantifier blocks of length k is decidable bed-wise:

- level 0 starts from all literals (plus true/false) and closes under
  conjunction, then under disjunction, which by distributivity gives the
  lattice they generate;
- level n takes the dual classes at level n-1 over the context extended by k
  fresh variables, closes under conjunction (intersection of bitvectors),
  then projects the fresh block existentially -- a bit gather over each row's
  extension block.  The universal dual closes under disjunction and projects
  with "all bits set".

Every closure is a generator fold (see ``_closure``): the classes are folded
one at a time into a running closure, in popcount order, so a closure costs
O(generators * classes) rather than a pass over all pairs per round, and an
input that is already closed costs work only for its irreducible elements.

Class sets drive the transfer oracle (does every existential-class sentence
true on the left position hold on the right one?) and the class-counting
bound check; separators are read off the game solver in ``efgame``.  The
transfer oracle has one pipeline: its level 0 is the literals alone, left to
the level-1 fold to combine.  All orders of iteration are deterministic, so
repeated runs produce byte-identical output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapExceeded, ValidationError
from .formula import (And, Exists, Forall, Formula, Literal, Or,
                      TOP, BOT, NAME_RE, Vocabulary)
from .structure import Structure

SIGMA = "sigma"
PI = "pi"

# Magnitude guard for materialized tower values (in bits).
DEFAULT_TOWER_MAX_BITS = 1 << 20


def tower(level: int, base: int, max_bits: int = DEFAULT_TOWER_MAX_BITS) -> int:
    """Iterated exponential: tower(0, b) = b, tower(l, b) = 2**tower(l-1, b).

    Raises CapExceeded once an intermediate exponent passes ``max_bits`` --
    the value would be astronomically large, not merely big.
    """
    if level < 0 or base < 0:
        raise ValidationError("tower arguments must be >= 0")
    value = base
    for _ in range(level):
        if value > max_bits:
            raise CapExceeded(
                f"tower({level}, {base}) exceeds the {max_bits}-bit guard")
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


@dataclass
class EnumerationCaps:
    max_classes: int = 200_000


def _check_class_cap(count: int, limit: int) -> None:
    if count > limit:
        raise CapExceeded(f"class cap exceeded: {count} classes, "
                          f"limit {limit} (inconclusive)")


@dataclass(frozen=True)
class SemanticClass:
    """A bed-semantic class: bit i is the truth value at row i; the
    representative is some formula denoting exactly these bits."""

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
        for s in structures:
            if s.vocab.relations != vocab.relations:
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
        self._row_map = {row: idx for idx, row in enumerate(self.rows)}

    def extend(self, names: tuple[str, ...]) -> "TestBed":
        return TestBed(self.structures, self.var_context + tuple(names))

    def row_index(self, structure_index: int, asg: tuple[str, ...]) -> int:
        key = (structure_index, tuple(asg))
        if key not in self._row_map:
            raise ValidationError(f"no such row: {key!r}")
        return self._row_map[key]

    def key(self) -> tuple:
        return (tuple(s.key() for s in self.structures), self.var_context)


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
# Bits for literal seeds


def _literal_bits(bed: TestBed, lit: Literal) -> int:
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


def _literal_seeds(bed: TestBed) -> list[SemanticClass]:
    full = (1 << len(bed.rows)) - 1
    out = [SemanticClass(full, TOP), SemanticClass(0, BOT)]
    ctx = bed.var_context
    for name, arity in bed.vocab.relations.items():
        for args in itertools.product(ctx, repeat=arity):
            for positive in (True, False):
                lit = Literal(positive, name, args)
                out.append(SemanticClass(_literal_bits(bed, lit), lit))
    for args in itertools.product(ctx, repeat=2):
        for positive in (True, False):
            lit = Literal(positive, "=", args)
            out.append(SemanticClass(_literal_bits(bed, lit), lit))
    return _dedupe(out)


def _dedupe(classes) -> list[SemanticClass]:
    seen: dict[int, SemanticClass] = {}
    for c in classes:
        if c.bits not in seen:
            seen[c.bits] = c
    return list(seen.values())


# ---------------------------------------------------------------------------
# Representative combination (flat, so classification levels do not inflate)


def _conjoin(a: Formula, b: Formula) -> Formula:
    left = a.children if isinstance(a, And) else (a,)
    right = b.children if isinstance(b, And) else (b,)
    return And(left + right)


def _disjoin(a: Formula, b: Formula) -> Formula:
    left = a.children if isinstance(a, Or) else (a,)
    right = b.children if isinstance(b, Or) else (b,)
    return Or(left + right)


def _closure(classes: list[SemanticClass], ops: tuple[str, ...],
             caps: EnumerationCaps) -> list[SemanticClass]:
    """Close under each listed operation in turn by a generator fold.

    Each operation is associative, commutative and idempotent, so folding
    the generators one at a time into a running closure C (C := C + {g} +
    {c op g : c in C}) yields the closure in O(G * N) steps; a generator
    already in C adds nothing and is skipped.  Generators are folded in
    popcount order -- largest first for "and", smallest first for "or" --
    so on an input that is already closed only its irreducible elements do
    any work: every other element is the combination of elements folded
    before it.  Closing under "and" and then "or" gives the generated
    lattice by distributivity.

    The output lists the input classes first, with their own
    representatives, then the new classes in fold order.  Passing
    ``caps.max_classes`` raises CapExceeded; nothing is truncated.
    """
    found = {c.bits: c for c in _dedupe(classes)}
    _check_class_cap(len(found), caps.max_classes)
    for op in ops:
        if op == "and":
            combine, make, largest_first = int.__and__, _conjoin, True
        else:
            combine, make, largest_first = int.__or__, _disjoin, False
        generators = sorted(found.values(), key=lambda c: c.bits.bit_count(),
                            reverse=largest_first)
        closed: list[int] = []
        inside: set[int] = set()
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
                    found[bits] = SemanticClass(bits, make(
                        found[c].representative, g.representative))
                    _check_class_cap(len(found), caps.max_classes)
    return list(found.values())


# ---------------------------------------------------------------------------
# Block projection


def _block_layout(bed: TestBed, ext: TestBed) -> tuple[list[int], list[int]]:
    """Per short row: start offset and length of its extension block in the
    extended bed (fresh variables vary fastest, so blocks are contiguous)."""
    j = len(ext.var_context) - len(bed.var_context)
    starts, lengths = [], []
    for idx, (si, _) in enumerate(bed.rows):
        block = len(bed.structures[si].universe) ** j
        local = idx - bed.offsets[si]
        starts.append(ext.offsets[si] + local * block)
        lengths.append(block)
    return starts, lengths


def _project(classes: list[SemanticClass], bed: TestBed, ext: TestBed,
             fresh: tuple[str, ...], mode: str) -> list[SemanticClass]:
    starts, lengths = _block_layout(bed, ext)
    masks = [((1 << ln) - 1) << st for st, ln in zip(starts, lengths)]
    kind = Exists if mode == SIGMA else Forall
    out = []
    for c in classes:
        bits = 0
        for idx, mask in enumerate(masks):
            chunk = c.bits & mask
            hit = chunk != 0 if mode == SIGMA else chunk == mask
            if hit:
                bits |= 1 << idx
        rep = c.representative
        for name in reversed(fresh):
            rep = kind(name, rep)
        out.append(SemanticClass(bits, rep))
    return _dedupe(out)


# ---------------------------------------------------------------------------
# Class enumeration


def enumerate_classes(mode: str, n: int, k: int, bed: TestBed,
                      caps: EnumerationCaps | None = None) -> list[SemanticClass]:
    """All semantic classes of the level-n prefix class with blocks of
    length k over the bed, in deterministic construction order.

    Raises CapExceeded (never returns a truncated set) when the caps hit.
    """
    if mode not in (SIGMA, PI):
        raise ValidationError(f"mode must be {SIGMA!r} or {PI!r}")
    if n < 0 or (n >= 1 and k < 1):
        raise ValidationError("need n >= 0 and k >= 1 for quantified levels")
    caps = caps or EnumerationCaps()
    return _level_classes(mode, n, k, bed, caps, full_level0=True)


def _level_classes(mode: str, n: int, k: int, bed: TestBed,
                   caps: EnumerationCaps, full_level0: bool) -> list[SemanticClass]:
    if n == 0:
        seeds = _literal_seeds(bed)
        if full_level0:
            return _closure(seeds, ("and", "or"), caps)
        return seeds
    fresh = _fresh_names(bed.var_context, k)
    ext = bed.extend(fresh)
    dual = PI if mode == SIGMA else SIGMA
    sub = _level_classes(dual, n - 1, k, ext, caps, full_level0)
    op = "and" if mode == SIGMA else "or"
    closed = _closure(sub, (op,), caps)
    return _project(closed, bed, ext, fresh, mode)


# ---------------------------------------------------------------------------
# Transfer oracle


# Class bitsets keyed by (n, k, bed, cap).  Past _TRANSFER_CACHE_SIZE
# entries the oldest goes first, so a long run's memory stays flat.
_TRANSFER_CACHE_SIZE = 256
_transfer_cache: dict[tuple, list[int]] = {}


def transfer_oracle(n: int, k: int, a1: Structure, a1_tuple: tuple[str, ...],
                    a2: Structure, a2_tuple: tuple[str, ...],
                    caps: EnumerationCaps | None = None) -> bool:
    """Does every existential level-n block-k formula true at (a1, a1_tuple)
    hold at (a2, a2_tuple)?

    Level 0 contributes the literals only, without their and/or closure;
    the level-1 generator fold supplies their conjunctions.  This decides
    transfer exactly as the full enumeration would -- a monotone
    combination of literals transfers whenever the literals do, and the
    distinguishing witnesses are conjunctions of row types, which survive
    -- while the class sets stay small enough for n = 2, k = 2 on two
    pointed 2-element boards, where the full pipeline passes the class cap.
    """
    caps = caps or EnumerationCaps()
    if a1.vocab.relations != a2.vocab.relations:
        raise ValidationError("vocabulary mismatch")
    if len(a1_tuple) != len(a2_tuple):
        raise ValidationError("anchor tuples must have equal length")
    ctx = tuple(f"x{i + 1}" for i in range(len(a1_tuple)))
    bed = TestBed((a1, a2), ctx)
    cache_key = (n, k, bed.key(), caps.max_classes)
    bits_list = _transfer_cache.get(cache_key)
    if bits_list is None:
        classes = _level_classes(SIGMA, n, k, bed, caps, full_level0=False)
        bits_list = [c.bits for c in classes]
        if len(_transfer_cache) >= _TRANSFER_CACHE_SIZE:
            del _transfer_cache[next(iter(_transfer_cache))]
        _transfer_cache[cache_key] = bits_list
    m1 = 1 << bed.row_index(0, tuple(a1_tuple))
    m2 = 1 << bed.row_index(1, tuple(a2_tuple))
    return all(bits & m2 for bits in bits_list if bits & m1)


# ---------------------------------------------------------------------------
# Rank-budgeted counting


def count_bound_check(n: int, m: int, t: int, vocab: Vocabulary, bed: TestBed,
                      caps: EnumerationCaps | None = None) -> dict:
    """Count level-n classes of quantifier rank <= m over the bed and compare
    with the tower-of-exponentials bound.

    Returns {"count", "bound", "bound_expr", "ok"}; ``bound`` is None when the
    tower passes the magnitude guard (the comparison is still exact).  Since
    bed-equivalence coarsens logical equivalence the count never exceeds the
    bound on a correct implementation.
    """
    caps = caps or EnumerationCaps()
    if t != len(bed.var_context):
        raise ValidationError("t must equal the bed's context length")
    if vocab.relations != bed.vocab.relations:
        raise ValidationError("vocabulary mismatch with the bed")
    if n < 0 or m < 0:
        raise ValidationError("n and m must be >= 0")
    classes = _rank_classes(SIGMA, n, m, bed, caps)
    count = len(classes)
    arity = max(vocab.relations.values(), default=1)
    base = (len(vocab.relations) + 1) * (n + 1) * (m + t) ** arity
    ok = tower_at_least(n + 2, base, count)
    try:
        bound = tower(n + 2, base)
    except CapExceeded:
        bound = None
    return {"count": count, "bound": bound,
            "bound_expr": f"tower({n + 2}, {base})", "ok": ok}


def _rank_classes(mode: str, n: int, m: int, bed: TestBed,
                  caps: EnumerationCaps) -> list[SemanticClass]:
    if n == 0:
        return _closure(_literal_seeds(bed), ("and", "or"), caps)
    dual = PI if mode == SIGMA else SIGMA
    op = "and" if mode == SIGMA else "or"
    merged: dict[int, SemanticClass] = {}
    for j in range(m + 1):
        fresh = _fresh_names(bed.var_context, j)
        ext = bed.extend(fresh)
        sub = _rank_classes(dual, n - 1, m - j, ext, caps)
        closed = _closure(sub, (op,), caps)
        if j:
            projected = _project(closed, bed, ext, fresh, mode)
        else:
            projected = closed
        for c in projected:
            if c.bits not in merged:
                merged[c.bits] = c
        _check_class_cap(len(merged), caps.max_classes)
    return list(merged.values())
