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

from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple, Union

from .errors import ValidationError
from .formula import (And, Bot, Exists, Forall, Formula, Literal, Or, Top,
                      TOP, BOT, Vocabulary, alpha_normalize, formula_size,
                      free_variables, is_quantifier_free, parse_formula,
                      print_formula)
from .interp import SumLikeOp, transform_formula
from .modelcheck import DEFAULT_ATOM_BUDGET, _check_assignment, _eval
from .structure import MARK, Structure

# Observed growth factor: for a formula of quantifier depth n and size s the
# produced reduction stays within tower(n, SIZE_BOUND_FACTOR * (n + 1) * s)
# total size (tower(0, b) = b).  The binding case is quantifier-free input,
# where the reduction is a constant-factor rewrite of the formula.
SIZE_BOUND_FACTOR = 4


# ---------------------------------------------------------------------------
# Propositional formulas over factor variables


@dataclass(frozen=True)
class PVar:
    """Truth of factor ``index`` of delta-``side`` (side 1 = left)."""

    index: int
    side: int

    def __post_init__(self) -> None:
        if self.side not in (1, 2) or self.index < 0:
            raise ValidationError(f"bad factor variable ({self.index}, {self.side})")


@dataclass(frozen=True)
class PTop:
    pass


@dataclass(frozen=True)
class PBot:
    pass


@dataclass(frozen=True)
class PAnd:
    children: tuple["PropFormula", ...]


@dataclass(frozen=True)
class POr:
    children: tuple["PropFormula", ...]


PropFormula = Union[PVar, PTop, PBot, PAnd, POr]

P_TOP = PTop()
P_BOT = PBot()


def prop_size(p: PropFormula) -> int:
    if isinstance(p, (PVar, PTop, PBot)):
        return 1
    return 1 + sum(prop_size(c) for c in p.children)


def prop_vars(p: PropFormula) -> set[tuple[int, int]]:
    if isinstance(p, PVar):
        return {(p.index, p.side)}
    if isinstance(p, (PTop, PBot)):
        return set()
    out: set[tuple[int, int]] = set()
    for c in p.children:
        out |= prop_vars(c)
    return out


def eval_prop(p: PropFormula, zeta) -> bool:
    """Evaluate under zeta: (index, side) -> bool."""
    if isinstance(p, PTop):
        return True
    if isinstance(p, PBot):
        return False
    if isinstance(p, PVar):
        return bool(zeta(p.index, p.side))
    if isinstance(p, PAnd):
        return all(eval_prop(c, zeta) for c in p.children)
    return any(eval_prop(c, zeta) for c in p.children)


def prop_to_json(p: PropFormula) -> dict:
    if isinstance(p, PTop):
        return {"const": True}
    if isinstance(p, PBot):
        return {"const": False}
    if isinstance(p, PVar):
        return {"var": [p.index, p.side]}
    key = "and" if isinstance(p, PAnd) else "or"
    return {key: [prop_to_json(c) for c in p.children]}


def prop_from_json(data: dict) -> PropFormula:
    if not isinstance(data, dict) or len(data) != 1:
        raise ValidationError(f"bad propositional formula JSON: {data!r}")
    (key, value), = data.items()
    if key == "const":
        return P_TOP if value else P_BOT
    if key == "var":
        index, side = value
        return PVar(int(index), int(side))
    if key in ("and", "or"):
        ctor = PAnd if key == "and" else POr
        return ctor(tuple(prop_from_json(c) for c in value))
    raise ValidationError(f"bad propositional formula JSON key: {key!r}")


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
    delta1: tuple[Formula, ...]
    delta2: tuple[Formula, ...]
    beta: PropFormula
    partition: VarPartition
    vocab: Vocabulary

    def __post_init__(self) -> None:
        for index, side in prop_vars(self.beta):
            bank = self.delta1 if side == 1 else self.delta2
            if index >= len(bank):
                raise ValidationError(
                    f"beta references factor ({index}, {side}) beyond delta{side}")


def reduction_stats(d: ReductionSequence) -> dict:
    beta_size = prop_size(d.beta)
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


def reduction_from_json(data: dict) -> ReductionSequence:
    """Inverse of :func:`reduction_to_json`.  Each factor's free variables
    must lie on its side of the partition."""
    vocab = Vocabulary(dict(data["vocabulary"]))
    d = ReductionSequence(
        delta1=tuple(parse_formula(t, vocab) for t in data["delta1"]),
        delta2=tuple(parse_formula(t, vocab) for t in data["delta2"]),
        beta=prop_from_json(data["beta"]),
        partition=VarPartition(tuple(data["partition"]["left"]),
                               tuple(data["partition"]["right"])),
        vocab=vocab,
    )
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

SIGMA = "sigma"
PI = "pi"


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
    neutral_t = Top if conj else Bot
    absorb_t = Bot if conj else Top
    unit_t = PTop if conj else PBot      # one empty block
    ids: tuple[dict[Formula, int], ...] = ({}, {})
    factors: list[tuple[int, Formula]] = []
    empty = {0: ()}

    def leaf(side: int, g: Formula) -> dict[int, tuple[int, ...]]:
        if isinstance(g, neutral_t):
            return empty
        if isinstance(g, absorb_t):
            return {}
        i = ids[side - 1].get(g)
        if i is None:
            i = ids[side - 1][g] = len(factors)
            factors.append((side, g))
        return {1 << i: (i,)}

    def junction(is_and: bool, children) -> dict[int, tuple[int, ...]]:
        if is_and != conj:
            # blocks accumulate across children
            seen: dict[int, tuple[int, ...]] = {}
            for blocks in children:
                for mask, picks in blocks.items():
                    seen.setdefault(mask, picks)
            return _prune(seen)
        acc = empty
        for blocks in children:
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
        if isinstance(q, PVar):
            return leaf(q.side, (delta1 if q.side == 1 else delta2)[q.index])
        if isinstance(q, _Pairs):
            pair_and = q.mode == SIGMA
            pairs = (junction(pair_and, (leaf(1, g1), leaf(2, g2)))
                     for g1, g2 in zip(q.delta1, q.delta2))
            if len(q.delta1) == 1:
                return next(pairs)
            return junction(not pair_and, pairs)
        if isinstance(q, (PTop, PBot)):
            return empty if isinstance(q, unit_t) else {}
        return junction(isinstance(q, PAnd), (rec(c) for c in q.children))

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
    pair = PAnd if mode == SIGMA else POr
    blocks = tuple(pair((PVar(base + i, 1), PVar(base + i, 2)))
                   for i in range(count))
    if count == 1:
        return blocks[0]
    return POr(blocks) if mode == SIGMA else PAnd(blocks)


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


def _in_pair_form(d: ReductionSequence, mode: str) -> bool:
    outer_t, pair_t = (POr, PAnd) if mode == SIGMA else (PAnd, POr)
    count = len(d.delta1)
    if len(d.delta2) != count:
        return False
    if count == 1 and isinstance(d.beta, pair_t):
        blocks: tuple = (d.beta,)
    elif isinstance(d.beta, outer_t):
        blocks = d.beta.children
        if len(blocks) != count:
            return False
    else:
        return False
    for i, c in enumerate(blocks):
        if not isinstance(c, pair_t) or len(c.children) != 2:
            return False
        a, b = c.children
        if not (isinstance(a, PVar) and a == PVar(i, 1)
                and isinstance(b, PVar) and b == PVar(i, 2)):
            return False
    return True


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
        {name: ar for name, ar in _collect_vocab(f).items() if name != MARK})
    return ReductionSequence(delta1, delta2, beta, partition, component_vocab)


def _collect_vocab(f: Formula) -> dict[str, int]:
    from .formula import subformulas
    out: dict[str, int] = {}
    for g in subformulas(f):
        if isinstance(g, Literal) and g.relation != "=":
            if out.get(g.relation, len(g.args)) != len(g.args):
                raise ValidationError(
                    f"relation {g.relation!r} used with inconsistent arities")
            out[g.relation] = len(g.args)
    return out


def decompose_over_op(f: Formula, op: SumLikeOp,
                      partition: VarPartition) -> ReductionSequence:
    """Decompose with respect to a sum-like operation: rewrite through the
    operation's interpretation, then decompose over the marked union."""
    return decompose(transform_formula(op.interp, f), partition)


# An engine result: P_TOP, P_BOT, a _Pairs, or -- for a quantifier-free
# connective -- a PAnd/POr whose children are the children's results.
_Part = Union[PTop, PBot, PAnd, POr, _Pairs]


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
        if isinstance(f, Top):
            return P_TOP
        if isinstance(f, Bot):
            return P_BOT
        if isinstance(f, Literal):
            return self._literal(f)
        if isinstance(f, (And, Or)):
            ctor = PAnd if isinstance(f, And) else POr
            if is_quantifier_free(f):
                return ctor(tuple(self._rec(c) for c in f.children))
            return self._connective(f, ctor)
        if isinstance(f, Exists):
            return self._quantifier(f, SIGMA)
        return self._quantifier(f, PI)

    def _literal(self, f: Literal) -> _Part:
        if f.relation == MARK:
            on_left = self.sides[f.args[0]] == 1
            return P_TOP if on_left == f.positive else P_BOT
        arg_sides = {self.sides[a] for a in f.args}
        if len(arg_sides) == 2:
            # atoms never hold across the components; equality neither
            return P_BOT if f.positive else P_TOP
        if arg_sides == {1}:
            return _Pairs(SIGMA, (f,), (TOP,))
        return _Pairs(SIGMA, (TOP,), (f,))

    def _connective(self, f: Union[And, Or], ctor) -> _Pairs:
        # Conjunction at a quantified level: children renormalized to the
        # universal pair form, combined, then the Sigma form is restored
        # (dually for disjunction).
        inner_mode, out_mode = (PI, SIGMA) if ctor is PAnd else (SIGMA, PI)
        parts = tuple(_normalize(self._rec(c), (), (), inner_mode)
                      for c in f.children)
        return _normalize(ctor(parts), (), (), out_mode)

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
    if isinstance(q, (PTop, PBot)):
        return q
    return type(q)(tuple(_place(c, delta1, delta2) for c in q.children))


# ---------------------------------------------------------------------------
# Evaluation and simplification


def eval_reduction(d: ReductionSequence, a: Structure, b: Structure,
                   a_tuple: tuple[str, ...] = (),
                   b_tuple: tuple[str, ...] = ()) -> bool:
    """Evaluate the reduction on a pair of component structures.

    The factor truth values are computed by model checking each factor on its
    component under the partition's share of the tuples, then beta decides.
    Every tuple element must lie in its component's universe.  Each side has
    one budget of ``DEFAULT_ATOM_BUDGET`` atom checks for the whole call;
    past it the call raises BudgetExceeded.  Factor values are not kept, so
    a beta that names a factor twice checks it twice.
    """
    if len(a_tuple) != len(d.partition.left) or len(b_tuple) != len(d.partition.right):
        raise ValidationError("tuple lengths do not match the partition")
    asg1 = dict(zip(d.partition.left, a_tuple))
    asg2 = dict(zip(d.partition.right, b_tuple))
    _check_assignment(a, d.partition.left, asg1)
    _check_assignment(b, d.partition.right, asg2)
    sides = {1: (a, d.delta1, asg1, [DEFAULT_ATOM_BUDGET] * 2),
             2: (b, d.delta2, asg2, [DEFAULT_ATOM_BUDGET] * 2)}

    # factors are checked on demand so that beta's short-circuiting carries
    # over to the (potentially much larger) factor lists
    def zeta(i: int, s: int) -> bool:
        structure, bank, asg, budget = sides[s]
        return _eval(structure, bank[i], asg, budget)

    return eval_prop(d.beta, zeta)


def simplify_reduction(d: ReductionSequence) -> ReductionSequence:
    """Semantics-preserving cleanup.

    On pair-form reductions: deduplicate factor pairs and drop pairs that can
    never matter (a ``false`` factor in a conjunctive pair, a ``true`` factor
    in a disjunctive pair).  Always: constant-fold beta and drop factors no
    longer referenced.  Pair normal form and factor classification bounds are
    preserved.
    """
    pairs_mode = None
    if _in_pair_form(d, SIGMA):
        pairs_mode = SIGMA
    elif _in_pair_form(d, PI):
        pairs_mode = PI
    if pairs_mode is not None:
        drop = BOT if pairs_mode == SIGMA else TOP
        kept: list[tuple[Formula, Formula]] = []
        seen = set()
        for f1, f2 in zip(d.delta1, d.delta2):
            if f1 == drop or f2 == drop:
                continue
            if (f1, f2) in seen:
                continue
            seen.add((f1, f2))
            kept.append((f1, f2))
        beta = _fold(_pair_beta(len(kept), pairs_mode))
        return ReductionSequence(tuple(p[0] for p in kept),
                                 tuple(p[1] for p in kept),
                                 beta, d.partition, d.vocab)
    beta = _fold(d.beta)
    used = prop_vars(beta)
    keep1 = [i for i in range(len(d.delta1)) if (i, 1) in used]
    keep2 = [i for i in range(len(d.delta2)) if (i, 2) in used]
    remap1 = {old: new for new, old in enumerate(keep1)}
    remap2 = {old: new for new, old in enumerate(keep2)}
    beta = _renumber(beta, remap1, remap2)
    return ReductionSequence(tuple(d.delta1[i] for i in keep1),
                             tuple(d.delta2[i] for i in keep2),
                             beta, d.partition, d.vocab)


def _fold(p: PropFormula) -> PropFormula:
    if isinstance(p, (PVar, PTop, PBot)):
        return p
    children = [_fold(c) for c in p.children]
    if isinstance(p, PAnd):
        if any(isinstance(c, PBot) for c in children):
            return P_BOT
        children = [c for c in children if not isinstance(c, PTop)]
        if not children:
            return P_TOP
        if len(children) == 1:
            return children[0]
        return PAnd(tuple(children))
    if any(isinstance(c, PTop) for c in children):
        return P_TOP
    children = [c for c in children if not isinstance(c, PBot)]
    if not children:
        return P_BOT
    if len(children) == 1:
        return children[0]
    return POr(tuple(children))


def _renumber(p: PropFormula, remap1: dict[int, int],
              remap2: dict[int, int]) -> PropFormula:
    if isinstance(p, PVar):
        remap = remap1 if p.side == 1 else remap2
        return PVar(remap[p.index], p.side)
    if isinstance(p, (PTop, PBot)):
        return p
    return type(p)(tuple(_renumber(c, remap1, remap2) for c in p.children))
