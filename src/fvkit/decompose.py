"""Reduction sequences: evaluating a formula on a sum by parts.

Given a formula over the union vocabulary (components' vocabulary plus the
left marker) and a split of its free variables into left and right, the
decomposition produces two lists of factor formulas -- each to be evaluated on
one component with the component's share of the variables -- and a monotone
propositional formula over the factor outcomes.  The marked disjoint union
satisfies the original formula iff the propositional formula evaluates to true
under the factor truth values.  Sum-like operations reduce to this case by
first rewriting the formula through the operation's interpretation.

Quantified formulas are kept in *pair normal form*: for an existential-side
formula, beta is a disjunction of conjunctions Var(i,1) & Var(i,2), one
conjunct pair per factor index; dually a universal-side formula gets a
conjunction of disjunction pairs.  The quantifier cases peel one binder,
decompose the body twice (bound variable sent left, sent right), and stitch
the two views together; connective cases renormalize with a DNF/CNF
distribution over the selector formula.

The distribution works on integer bitmasks: each distinct (side, factor
formula) gets an id, a block is the bitmask of its ids plus the ids in the
order they joined it, and absorption keeps the minimal masks (the first
occurrence of each), found through per-id occurrence lists of the masks kept
so far.  During the recursion a result keeps its own factor lists, and a
quantified result its pair list rather than a beta tree; the one reduction
sequence, with its beta, is laid out once at the top.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from dataclasses import dataclass, fields
from typing import NamedTuple, Union

from .errors import ValidationError
from .formula import (And, Exists, Forall, Formula, Literal, Or, PI, PVar,
                      PropFormula, SIGMA, TOP, BOT, Vocabulary,
                      alpha_normalize, formula_size, _parse, free_variables,
                      is_quantifier_free, print_formula, relations_used,
                      vocabulary_from_json)
from .interp import SumLikeOp, transform_formula
from .modelcheck import DEFAULT_ATOM_BUDGET, _check_assignment, _compile
from .structure import MARK, Structure

# Observed growth factor: for a formula of quantifier depth n and size s the
# produced reduction stays within tower(n, SIZE_BOUND_FACTOR * (n + 1) * s)
# total size (tower(0, b) = b).  The binding case is quantifier-free input,
# where the reduction is a constant-factor rewrite of the formula.
SIZE_BOUND_FACTOR = 4


# ---------------------------------------------------------------------------
# Beta: the formula AST's And and Or (TOP and BOT the constants) over PVar
# leaves, so formula_size and free_variables serve it


def eval_prop(p: PropFormula, zeta) -> bool:
    """Evaluate under zeta: (index, side) -> bool.  Zeta is asked for the
    variables in child order, and a junction stops at the first child that
    decides.  The compiled beta is kept on its nodes, as for a formula."""
    return bool((p._ev or _compile(p))(zeta, None, None))


def prop_to_json(p: PropFormula) -> dict:
    """JSON form; an empty junction is written as its constant."""
    if isinstance(p, PVar):
        return {"var": [p.index, p.side]}
    if not p.children:
        return {"const": p == TOP}
    key = "and" if isinstance(p, And) else "or"
    return {key: [prop_to_json(c) for c in p.children]}


def prop_from_json(data: dict) -> PropFormula:
    """Inverse of :func:`prop_to_json`; an empty junction also loads."""
    if not isinstance(data, dict) or len(data) != 1:
        raise ValidationError(f"bad propositional formula JSON: {data!r}")
    (key, value), = data.items()
    # a bool is an int, but True is no index and 1 is no constant
    if key == "const" and type(value) is bool:
        return TOP if value else BOT
    if key == "var" and isinstance(value, list) and len(value) == 2 \
            and all(type(v) is int for v in value):
        return PVar(*value)
    if key in ("and", "or") and isinstance(value, list):
        return (And if key == "and" else Or)(
            tuple(prop_from_json(c) for c in value))
    raise ValidationError(f"bad propositional formula JSON: {data!r}")


# ---------------------------------------------------------------------------
# Reduction sequences


@dataclass(frozen=True)
class VarPartition:
    """Disjoint left/right variable lists covering the formula's free
    variables; positions fix how evaluation tuples are read."""

    left: tuple[str, ...]
    right: tuple[str, ...]

    def __post_init__(self) -> None:
        names = self.left + self.right
        if len(set(names)) != len(names):
            raise ValidationError("left/right variable lists overlap")

    def side_of(self) -> dict[str, int]:
        sides = {v: 1 for v in self.left}
        sides.update({v: 2 for v in self.right})
        return sides


@dataclass(frozen=True)
class ReductionSequence:
    """Two factor lists, beta over their truth values, the variable split
    and the components' vocabulary.

    :func:`eval_reduction` keeps the factor values it computes on the
    reduction, in ``_memo`` (see :class:`_FactorMemo`), which is not a
    field: ``==``, ``repr`` and ``hash`` see only the fields, and pickling
    drops it."""

    delta1: tuple[Formula, ...]
    delta2: tuple[Formula, ...]
    beta: PropFormula
    partition: VarPartition
    vocab: Vocabulary

    _memo = None

    def __post_init__(self) -> None:
        for index, side in free_variables(self.beta):
            bank = self.delta1 if side == 1 else self.delta2
            if index >= len(bank):
                raise ValidationError(
                    f"beta references factor ({index}, {side}) beyond delta{side}")

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def reduction_stats(d: ReductionSequence) -> dict:
    beta_size = formula_size(d.beta)
    total = (sum(formula_size(f) for f in d.delta1)
             + sum(formula_size(f) for f in d.delta2)
             + beta_size)
    return {
        "total_size": total,
        "factor_count_1": len(d.delta1),
        "factor_count_2": len(d.delta2),
        "beta_size": beta_size,
    }


def reduction_to_json(d: ReductionSequence) -> dict:
    return {
        "delta1": [print_formula(f) for f in d.delta1],
        "delta2": [print_formula(f) for f in d.delta2],
        "beta": prop_to_json(d.beta),
        "partition": {"left": list(d.partition.left),
                      "right": list(d.partition.right)},
        "vocabulary": {name: ar for name, ar in d.vocab.relations.items()},
        "stats": reduction_stats(d),
    }


def _strings(data: dict, key: str) -> tuple[str, ...]:
    value = data[key]
    if not (isinstance(value, list) and all(isinstance(t, str) for t in value)):
        raise ValidationError(f"{key} must be a list of strings, got {value!r}")
    return tuple(value)


def reduction_from_json(data: dict) -> ReductionSequence:
    """Inverse of :func:`reduction_to_json`, bound names included; the
    ``stats`` key is not read.  Each factor's free variables must lie on its
    side of the partition.  Input too deeply nested for the recursive walks
    (beta, or a factor's text) is a ValidationError."""
    if not isinstance(data, dict):
        raise ValidationError("reduction JSON must be an object")
    for key in ("delta1", "delta2", "beta", "partition", "vocabulary"):
        if key not in data:
            raise ValidationError(f"reduction JSON lacks {key!r}")
    part = data["partition"]
    if not (isinstance(part, dict) and "left" in part and "right" in part):
        raise ValidationError(
            f"partition must be an object with 'left' and 'right', got {part!r}")
    vocab = vocabulary_from_json(data["vocabulary"])
    try:
        d = ReductionSequence(
            delta1=tuple(_parse(t, vocab) for t in _strings(data, "delta1")),
            delta2=tuple(_parse(t, vocab) for t in _strings(data, "delta2")),
            beta=prop_from_json(data["beta"]),
            partition=VarPartition(_strings(part, "left"),
                                   _strings(part, "right")),
            vocab=vocab,
        )
    except RecursionError:
        raise ValidationError("reduction JSON nested too deeply") from None
    for bank, factors, side in (("delta1", d.delta1, d.partition.left),
                                ("delta2", d.delta2, d.partition.right)):
        for i, f in enumerate(factors):
            for v in free_variables(f):
                if v not in side:
                    raise ValidationError(
                        f"{bank} factor {i} {print_formula(f)!r} has free "
                        f"variable {v!r} outside its side {list(side)}")
    return d


# ---------------------------------------------------------------------------
# Pair normal form


_Block = tuple[tuple[Formula, ...], tuple[Formula, ...]]


class _Pairs(NamedTuple):
    """A reduction in pair normal form, before it is placed into a whole
    reduction: factor pair i is ``(delta1[i], delta2[i])``, and beta is
    ``_pair_beta(len(delta1), mode)``."""

    mode: str
    delta1: tuple[Formula, ...]
    delta2: tuple[Formula, ...]


def _prune(blocks: dict[int, tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    """Absorption: drop any block whose picks contain some other block's
    picks -- a superset conjunction is redundant inside a disjunction, and
    dually for clauses.

    ``blocks`` maps a block's bitmask over factor ids to its picks (the ids
    in insertion order) and holds the first occurrence of each mask.  The
    masks are walked in popcount order and a mask is kept unless a mask
    kept before it is a subset of it.  Each kept mask is listed under the
    one of its ids whose occurrence list is shortest, so a candidate only
    checks the lists of its own ids.  Survivors keep their original order.
    """
    if len(blocks) < 2:
        return blocks
    if 0 in blocks:
        return {0: blocks[0]}    # the empty block absorbs every other one
    occurs: defaultdict[int, list[int]] = defaultdict(list)
    kept = set()
    for mask in sorted(blocks, key=int.bit_count):
        lists = [occurs[i] for i in blocks[mask]]
        if not _absorbed(mask, lists):
            min(lists, key=len).append(mask)
            kept.add(mask)
    return {mask: picks for mask, picks in blocks.items() if mask in kept}


def _absorbed(mask: int, lists: list[list[int]]) -> bool:
    # plain loops: this is the innermost loop of the distribution
    for listed in lists:
        for kept in listed:
            if kept & mask == kept:
                return True
    return False


def _distribute(p: PropFormula, delta1: tuple[Formula, ...],
                delta2: tuple[Formula, ...], mode: str) -> list[_Block]:
    """Blocks of the requested normal form, as the picked factor formulas
    per side.

    Sigma: the disjuncts of a DNF of beta; a block's picks form a
    conjunction, so ``true`` factors fold away, a ``false`` factor kills its
    disjunct, repeated picks collapse, and absorbed blocks are pruned.  Pi
    is the clause-wise dual.  Blocks come out leftmost-most-significant,
    and of blocks with equal pick sets the first is kept; folding and
    pruning keep the distribution's intermediate size proportional to the
    number of *surviving* blocks rather than to 2^(variables).

    Each distinct (side, factor formula) gets an id on first use, and a
    block is its bitmask over those ids plus its picks, the ids in the
    order they joined it.  Besides ``PVar`` leaves, ``p`` may hold
    :class:`_Pairs` in place of the pair-form beta over their own factors.
    """
    conj = mode == SIGMA
    neutral, absorb = (TOP, BOT) if conj else (BOT, TOP)
    ids: tuple[dict[Formula, int], ...] = ({}, {})
    factors: list[tuple[int, Formula]] = []
    empty = {0: ()}

    def leaf(side: int, g: Formula) -> dict[int, tuple[int, ...]]:
        if g == neutral:
            return empty
        if g == absorb:
            return {}
        i = ids[side - 1].get(g)
        if i is None:
            i = ids[side - 1][g] = len(factors)
            factors.append((side, g))
        return {1 << i: (i,)}

    def junction(is_and: bool, children) -> dict[int, tuple[int, ...]]:
        # each child is distributed when its turn comes, in this loop: a
        # generator expression would cost a second frame per level
        if is_and != conj:
            # blocks accumulate across children
            seen: dict[int, tuple[int, ...]] = {}
            for c in children:
                for mask, picks in rec(c).items():
                    seen.setdefault(mask, picks)
            return _prune(seen)
        acc = empty
        for c in children:
            blocks = rec(c)
            nxt: dict[int, tuple[int, ...]] = {}
            for ms, ps in acc.items():
                for mt, pt in blocks.items():
                    mask = ms | mt
                    if mask not in nxt:
                        new = mask ^ ms    # the ids of t that s lacks
                        nxt[mask] = ps + (pt if new == mt else tuple(
                            i for i in pt if new >> i & 1))
            acc = _prune(nxt)
            if not acc:
                break
        return acc

    def rec(q) -> dict[int, tuple[int, ...]]:
        if isinstance(q, dict):  # blocks already distributed
            return q
        if isinstance(q, PVar):
            return leaf(q.side, (delta1 if q.side == 1 else delta2)[q.index])
        if isinstance(q, _Pairs):
            pair_and = q.mode == SIGMA
            pairs = (junction(pair_and, (leaf(1, g1), leaf(2, g2)))
                     for g1, g2 in zip(q.delta1, q.delta2))
            if len(q.delta1) == 1:
                return next(pairs)
            return junction(not pair_and, pairs)
        return junction(isinstance(q, And), q.children)

    out = []
    for picks in rec(p).values():
        chosen = [factors[i] for i in picks]
        out.append((tuple(g for side, g in chosen if side == 1),
                    tuple(g for side, g in chosen if side == 2)))
    return out


def _build_factor(picked: tuple[Formula, ...], mode: str) -> Formula:
    if not picked:
        return TOP if mode == SIGMA else BOT
    if len(picked) == 1:
        return picked[0]
    return And(picked) if mode == SIGMA else Or(picked)


def _pair_beta(count: int, mode: str, base: int = 0) -> PropFormula:
    """The pair-form beta over ``count`` factor pairs, the first of them at
    index ``base`` of both deltas."""
    pair = And if mode == SIGMA else Or
    blocks = tuple(pair((PVar(base + i, 1), PVar(base + i, 2)))
                   for i in range(count))
    if count == 1:
        return blocks[0]
    return Or(blocks) if mode == SIGMA else And(blocks)


def _pair_mode(d: ReductionSequence) -> str | None:
    """SIGMA or PI when beta is that mode's pair-form beta, else None."""
    count = len(d.delta1)
    return next((mode for mode in (SIGMA, PI) if len(d.delta2) == count
                 and d.beta == _pair_beta(count, mode)), None)


def _normalize(p: PropFormula, delta1: tuple[Formula, ...],
               delta2: tuple[Formula, ...], mode: str) -> _Pairs:
    blocks = _distribute(p, delta1, delta2, mode)
    return _Pairs(mode, tuple(_build_factor(left, mode) for left, _ in blocks),
                  tuple(_build_factor(right, mode) for _, right in blocks))


def normalize_pairs(d: ReductionSequence, mode: str) -> ReductionSequence:
    """Renormalize into pair normal form.

    Sigma: beta becomes a disjunction of Var(i,1) & Var(i,2) conjunctions,
    with factor i the conjunction of the old factors selected on that side
    and an empty selection giving "true"; Pi is the dual (conjunction of
    disjunction pairs, empty selection "false").  Idempotent on pair-form
    input.  A single block stays a bare pair, matching the atomic base case.
    """
    if mode not in (SIGMA, PI):
        raise ValidationError(f"mode must be {SIGMA!r} or {PI!r}")
    pairs = _normalize(d.beta, d.delta1, d.delta2, mode)
    return ReductionSequence(pairs.delta1, pairs.delta2,
                             _pair_beta(len(pairs.delta1), mode),
                             d.partition, d.vocab)


# ---------------------------------------------------------------------------
# The decomposition itself


def decompose(f: Formula, partition: VarPartition) -> ReductionSequence:
    """Decompose f (over the union vocabulary, marker included) with respect
    to the marked disjoint union.

    Factors are over the vocabulary *without* the marker: marker literals are
    resolved into constants by the side split.  Quantified results are in
    pair normal form for the side matching the root (existential roots and
    conjunctions of quantified parts give the Sigma form, dually for Pi).
    """
    f = alpha_normalize(f)
    sides = partition.side_of()
    missing = [v for v in free_variables(f) if v not in sides]
    if missing:
        raise ValidationError(f"partition does not cover free variables {missing}")
    delta1, delta2, beta = _Engine(sides).run(f)
    component_vocab = Vocabulary(
        {name: ar for name, ar in relations_used(f).items() if name != MARK})
    return ReductionSequence(delta1, delta2, beta, partition, component_vocab)


def decompose_over_op(f: Formula, op: SumLikeOp,
                      partition: VarPartition) -> ReductionSequence:
    """Decompose with respect to a sum-like operation: rewrite through the
    operation's interpretation, then decompose over the marked union."""
    return decompose(transform_formula(op.interp, f), partition)


# An engine result: a _Pairs or -- for a constant or a quantifier-free
# connective -- an And/Or whose children are the children's results.
_Part = Union[And, Or, _Pairs]


class _Engine:
    """One decomposition run.  ``sides`` maps every variable in scope to its
    component; results are memoized on (subformula, sides of its free
    variables), so structurally equal subformulas are decomposed once.

    Results keep their own factor lists; :meth:`run` lays them out once,
    into the whole reduction's lists and beta."""

    def __init__(self, sides: dict[str, int]):
        self.sides = dict(sides)
        self._memo: dict[tuple, _Part] = {}

    def run(self, f: Formula) -> tuple[tuple[Formula, ...],
                                       tuple[Formula, ...], PropFormula]:
        delta1: list[Formula] = []
        delta2: list[Formula] = []
        beta = _place(self._rec(f), delta1, delta2)
        return tuple(delta1), tuple(delta2), beta

    def _rec(self, f: Formula) -> _Part:
        key = (f, tuple(self.sides[v] for v in free_variables(f)))
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._build(f)
        return hit

    def _build(self, f: Formula) -> _Part:
        if isinstance(f, Literal):
            return self._literal(f)
        if isinstance(f, (And, Or)):
            if is_quantifier_free(f):
                kids = []  # a plain loop: one frame fewer per level
                for c in f.children:
                    kids.append(self._rec(c))
                return type(f)(tuple(kids))
            return self._connective(f)
        if isinstance(f, Exists):
            return self._quantifier(f, SIGMA)
        return self._quantifier(f, PI)

    def _literal(self, f: Literal) -> _Part:
        if f.relation == MARK:
            on_left = self.sides[f.args[0]] == 1
            return TOP if on_left == f.positive else BOT
        arg_sides = {self.sides[a] for a in f.args}
        if len(arg_sides) == 2:
            # atoms never hold across the components; equality neither
            return BOT if f.positive else TOP
        if arg_sides == {1}:
            return _Pairs(SIGMA, (f,), (TOP,))
        return _Pairs(SIGMA, (TOP,), (f,))

    def _connective(self, f: Union[And, Or]) -> _Pairs:
        # Conjunction at a quantified level: children renormalized to the
        # universal pair form, combined, then the Sigma form is restored
        # (dually for disjunction).
        is_and = isinstance(f, And)
        inner_mode, out_mode = (PI, SIGMA) if is_and else (SIGMA, PI)
        parts = tuple(_normalize(self._rec(c), (), (), inner_mode)
                      for c in f.children)
        return _normalize(type(f)(parts), (), (), out_mode)

    def _quantifier(self, f: Union[Exists, Forall], mode: str) -> _Pairs:
        var, body = f.var, f.body
        views = []
        for side in (1, 2):
            self.sides[var] = side
            views.append(_normalize(self._rec(body), (), (), mode))
        del self.sides[var]
        kind = Exists if mode == SIGMA else Forall
        left, right = views
        return _Pairs(mode,
                      tuple(kind(var, g) for g in left.delta1) + right.delta1,
                      left.delta2 + tuple(kind(var, g) for g in right.delta2))


def _place(q: _Part, delta1: list[Formula],
           delta2: list[Formula]) -> PropFormula:
    """Append the factors of ``q`` to the lists and return its beta over
    their indices there.  Every part has as many factors on each side, so
    the two lists grow in step."""
    if isinstance(q, _Pairs):
        beta = _pair_beta(len(q.delta1), q.mode, len(delta1))
        delta1.extend(q.delta1)
        delta2.extend(q.delta2)
        return beta
    return type(q)(tuple(_place(c, delta1, delta2) for c in q.children))


# ---------------------------------------------------------------------------
# Evaluation and simplification


class _FactorMemo:
    """The factor values a reduction has computed, per side, structure value
    and tuple, kept for the life of the reduction.

    A side's table is keyed weakly on the structure, so the memo keeps no
    structure alive, and equal copies of a structure share its entry: a
    dict from the tuple to its ``[known, value]`` bitmasks (bit i: factor i
    was checked, factor i held).  ``pair`` is SIGMA or PI when beta is that
    mode's pair-normal-form beta, else None; ``full`` has one bit per pair.
    """

    __slots__ = ("tables", "pair", "full", "relations")

    def __init__(self, d: ReductionSequence):
        self.tables = weakref.WeakKeyDictionary(), weakref.WeakKeyDictionary()
        self.pair = _pair_mode(d)
        self.full = (1 << len(d.delta1)) - 1
        self.relations = d.vocab.relations.items()

    def new(self, side: int, structure: Structure,
            names: tuple[str, ...], elements: tuple[str, ...]) -> list[int]:
        """A new entry's bitmasks, made once the structure's vocabulary (on
        its first entry) and the assignment are checked: a kept one needs no
        check."""
        table = self.tables[side - 1]
        held = table.get(structure)
        if held is None:
            missing = self.relations - structure.vocab.relations.items()
            if missing:
                raise ValidationError(
                    f"structure lacks relations {dict(sorted(missing))}")
        _check_assignment(structure, names, dict(zip(names, elements)))
        if held is None:
            held = table[structure] = {}
        masks = held[elements] = [0, 0]
        return masks


def eval_reduction(d: ReductionSequence, a: Structure, b: Structure,
                   a_tuple: tuple[str, ...] = (),
                   b_tuple: tuple[str, ...] = ()) -> bool:
    """Evaluate the reduction on a pair of component structures.

    The factor truth values are computed by model checking each factor on its
    component under the partition's share of the tuples, then beta decides.
    Every tuple element must lie in its component's universe, and each
    structure's vocabulary must hold the reduction's.  Beta runs the
    closure that :func:`eval_prop` runs, compiled once and kept on its
    nodes; each factor runs ``evaluate``'s closure, compiled when beta
    first reaches it.  Factors are checked on demand, in beta's child order,
    so beta's short circuits carry over to the factor lists.

    Factor values are kept on the reduction per (side, structure value,
    tuple), with the structure held weakly, so a factor is checked at most
    once per component and assignment however many partners it meets, equal
    copies of a component share its values, and a beta that names a factor
    twice checks it once.  A pair-normal-form beta is first decided from the
    kept values alone, as a bitmask test; beta walks only when they leave it
    open.  Each side has one budget of ``DEFAULT_ATOM_BUDGET`` atom checks
    for the atom checks *this call* makes; values already kept cost nothing,
    and past the budget the call raises BudgetExceeded, keeping the values
    it completed.
    """
    part = d.partition
    if len(a_tuple) != len(part.left) or len(b_tuple) != len(part.right):
        raise ValidationError("tuple lengths do not match the partition")
    a_tuple, b_tuple = tuple(a_tuple), tuple(b_tuple)
    memo = d._memo
    if memo is None:
        memo = _FactorMemo(d)
        object.__setattr__(d, "_memo", memo)
    masks1 = (memo.tables[0].get(a) or {}).get(a_tuple) or \
        memo.new(1, a, part.left, a_tuple)
    masks2 = (memo.tables[1].get(b) or {}).get(b_tuple) or \
        memo.new(2, b, part.right, b_tuple)
    if memo.pair is not None:
        known1, value1 = masks1
        known2, value2 = masks2
        false1, false2 = known1 & ~value1, known2 & ~value2
        if memo.pair == SIGMA:
            if value1 & value2:
                return True
            if (false1 | false2) == memo.full:
                return False
        else:
            if false1 & false2:
                return False
            if (value1 | value2) == memo.full:
                return True
    sides = {1: (a, d.delta1, part.left, a_tuple, masks1),
             2: (b, d.delta2, part.right, b_tuple, masks2)}
    # (assignment, budget) of a side, made when the side first checks a
    # factor in this call
    state = {}

    def zeta(i: int, s: int) -> bool:
        structure, bank, names, elements, masks = sides[s]
        bit = 1 << i
        if masks[0] & bit:
            return (masks[1] & bit) != 0
        held = state.get(s)
        if held is None:
            held = state[s] = (dict(zip(names, elements)),
                               [DEFAULT_ATOM_BUDGET] * 2)
        f = bank[i]
        value = (f._ev or _compile(f))(structure, *held)
        # the value bit first: an interrupt between the two updates then
        # leaves a true factor unknown, never a true one known false
        if value:
            masks[1] |= bit
        masks[0] |= bit
        return value

    beta = d.beta
    return (beta._ev or _compile(beta))(zeta, None, None)


def simplify_reduction(d: ReductionSequence) -> ReductionSequence:
    """Semantics-preserving cleanup.

    A pair-form reduction goes through :func:`normalize_pairs`, which drops
    the pairs that can never matter (a ``false`` factor in a conjunctive
    pair, a ``true`` factor in a disjunctive pair), repeated pairs, and
    pairs absorbed by another.  Any other reduction gets a constant-folded
    beta, and factors no longer referenced drop.  Pair normal form and
    factor classification bounds are preserved.
    """
    mode = _pair_mode(d)
    if mode is not None:
        return normalize_pairs(d, mode)
    beta = _fold(d.beta)
    used = free_variables(beta)
    keep1 = sorted(i for i, side in used if side == 1)
    keep2 = sorted(i for i, side in used if side == 2)
    remap1 = {old: new for new, old in enumerate(keep1)}
    remap2 = {old: new for new, old in enumerate(keep2)}
    beta = _renumber(beta, remap1, remap2)
    return ReductionSequence(tuple(d.delta1[i] for i in keep1),
                             tuple(d.delta2[i] for i in keep2),
                             beta, d.partition, d.vocab)


def _fold(p: PropFormula) -> PropFormula:
    if isinstance(p, PVar):
        return p
    # the junction's absorbing constant and its unit
    zero, unit = (BOT, TOP) if isinstance(p, And) else (TOP, BOT)
    children = [c for c in map(_fold, p.children) if c != unit]
    if zero in children:
        return zero
    if not children:
        return unit
    if len(children) == 1:
        return children[0]
    return type(p)(tuple(children))


def _renumber(p: PropFormula, remap1: dict[int, int],
              remap2: dict[int, int]) -> PropFormula:
    if isinstance(p, PVar):
        remap = remap1 if p.side == 1 else remap2
        return PVar(remap[p.index], p.side)
    return type(p)(tuple(_renumber(c, remap1, remap2) for c in p.children))
