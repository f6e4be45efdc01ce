"""Quantifier-free interpretations and sum-like operations.

An interpretation carves a target-vocabulary structure out of a source
structure: a quantifier-free formula over the source vocabulary selects the
universe (free variable x1) and one defines each target relation (free
variables y1..y_arity).  Sum-like operations are interpretations applied to
the marked disjoint union, which is what makes reduction sequences for them
fall out of the plain disjoint-union case.

``transform_formula`` is the syntactic counterpart: it rewrites a formula over
the target vocabulary into one over the source vocabulary such that evaluating
the rewritten formula on the source structure agrees with evaluating the
original on the interpreted structure.  The rewrite never increases the
classification levels or the quantifier rank.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import ValidationError
from .formula import (And, Exists, Forall, Formula, Literal, Or, TOP,
                      Vocabulary, free_variables, is_quantifier_free,
                      negate_dual, parse_formula, print_formula,
                      relations_used, substitute, vocabulary_from_json,
                      vocabulary_to_json)
from .modelcheck import evaluate
from .structure import MARK, Structure, annotated_disjoint_union


def _check_defining(f: Formula, allowed: tuple[str, ...], vocab: Vocabulary,
                    what: str) -> None:
    if not is_quantifier_free(f):
        raise ValidationError(f"{what} must be quantifier-free")
    bad_vars = set(free_variables(f)) - set(allowed)
    if bad_vars:
        raise ValidationError(f"{what} uses unexpected variables {sorted(bad_vars)}")
    bad_rels = relations_used(f).keys() - vocab.relations
    if bad_rels:
        raise ValidationError(f"{what} uses unknown relations {sorted(bad_rels)}")


@dataclass
class Interpretation:
    """Quantifier-free interpretation from source to target vocabulary."""

    source_vocab: Vocabulary
    target_vocab: Vocabulary
    universe_formula: Formula
    relation_formulas: dict[str, Formula]

    def __post_init__(self) -> None:
        _check_defining(self.universe_formula, ("x1",), self.source_vocab,
                        "universe formula")
        missing = set(self.target_vocab.relations) - set(self.relation_formulas)
        if missing:
            raise ValidationError(f"no defining formula for {sorted(missing)}")
        extra = set(self.relation_formulas) - set(self.target_vocab.relations)
        if extra:
            raise ValidationError(f"defining formulas for unknown {sorted(extra)}")
        for name, arity in self.target_vocab.relations.items():
            allowed = tuple(f"y{i + 1}" for i in range(arity))
            _check_defining(self.relation_formulas[name], allowed,
                            self.source_vocab, f"formula for {name!r}")


def interpretation_to_json(xi: Interpretation) -> dict:
    return {
        "source_vocabulary": vocabulary_to_json(xi.source_vocab),
        "target_vocabulary": vocabulary_to_json(xi.target_vocab),
        "universe_formula": print_formula(xi.universe_formula),
        "relation_formulas": {name: print_formula(f)
                              for name, f in xi.relation_formulas.items()},
    }


def interpretation_from_json(data: dict) -> Interpretation:
    if not isinstance(data, dict):
        raise ValidationError("interpretation JSON must be an object")
    for key in ("source_vocabulary", "target_vocabulary", "universe_formula",
                "relation_formulas"):
        if key not in data:
            raise ValidationError(f"interpretation JSON lacks {key!r}")
    source = vocabulary_from_json(data["source_vocabulary"])
    target = vocabulary_from_json(data["target_vocabulary"])
    texts = data["relation_formulas"]
    if not isinstance(texts, dict):
        raise ValidationError("relation_formulas must be an object")
    for what, text in [("universe_formula", data["universe_formula"]),
                       *texts.items()]:
        if not isinstance(text, str):
            raise ValidationError(f"formula for {what!r} must be a string, "
                                  f"got {text!r}")
    universe = parse_formula(data["universe_formula"], source)
    rels = {name: parse_formula(text, source) for name, text in texts.items()}
    return Interpretation(source, target, universe, rels)


def load_interpretation(path: str) -> Interpretation:
    with open(path) as fh:
        return interpretation_from_json(json.load(fh))


def apply_interpretation(xi: Interpretation, source: Structure) -> Structure:
    """Build the interpreted structure; element ids and their order are
    inherited from the source.  An empty carved-out universe is an error."""
    if source.vocab != xi.source_vocab:
        raise ValidationError("structure vocabulary does not match the interpretation")
    universe = tuple(e for e in source.universe
                     if evaluate(source, xi.universe_formula, {"x1": e}))
    if not universe:
        raise ValidationError("interpretation yields an empty universe")
    relations = {}
    for name, arity in xi.target_vocab.relations.items():
        defn = xi.relation_formulas[name]
        names = [f"y{i + 1}" for i in range(arity)]
        rows = set()
        for row in itertools.product(universe, repeat=arity):
            if evaluate(source, defn, dict(zip(names, row))):
                rows.add(row)
        relations[name] = frozenset(rows)
    return Structure(xi.target_vocab, universe, relations)


def transform_formula(xi: Interpretation, f: Formula) -> Formula:
    """Rewrite f (over the target vocabulary) into a formula over the source
    vocabulary that relativizes all quantifiers to the carved-out universe.

    Satisfaction transfers: source ⊨ transform(f) iff interpreted ⊨ f, for
    assignments into the carved-out universe.  Quantifier blocks stay blocks,
    so classification levels and rank never increase.
    """
    bad = relations_used(f).keys() - xi.target_vocab.relations
    if bad:
        raise ValidationError(f"formula uses relations {sorted(bad)} "
                              "outside the target vocabulary")
    return _transform(xi, f)


def _guard(xi: Interpretation, var: str) -> Formula:
    return substitute(xi.universe_formula, {"x1": var})


def _transform(xi: Interpretation, f: Formula) -> Formula:
    if isinstance(f, Literal):
        if f.relation == "=":
            base: Formula = Literal(True, "=", ("y1", "y2"))
        else:
            base = xi.relation_formulas[f.relation]
        if not f.positive:
            base = negate_dual(base)
        names = {f"y{i + 1}": a for i, a in enumerate(f.args)}
        mapped = substitute(base, names)
        return And((mapped,) + tuple(_guard(xi, a) for a in f.args))
    if isinstance(f, (And, Or)):
        # plain loops here and below: a generator expression costs a
        # second frame per level
        kids = []
        for c in f.children:
            kids.append(_transform(xi, c))
        return type(f)(tuple(kids))
    # Maximal same-kind quantifier block, relativized to the universe:
    # "exists" conjoins the guards, "forall" disjoins their duals.
    kind = type(f)
    names = []
    body = f
    while isinstance(body, kind):
        names.append(body.var)
        body = body.body
    junction = And if kind is Exists else Or
    guards = tuple(_guard(xi, v) for v in names)
    if kind is Forall:
        guards = tuple(negate_dual(g) for g in guards)
    # a constant body (an empty junction) stays one child, printed as such
    inner = body.children if isinstance(body, junction) and body.children \
        else (body,)
    kids = list(guards)
    for c in inner:
        kids.append(_transform(xi, c))
    wrapped: Formula = junction(tuple(kids))
    for name in reversed(names):
        wrapped = kind(name, wrapped)
    return wrapped


# ---------------------------------------------------------------------------
# Sum-like operations


@dataclass
class SumLikeOp:
    """A binary operation on structures given by an interpretation applied to
    the marked disjoint union: source vocabulary is the target plus the
    marker."""

    name: str
    interp: Interpretation

    def __post_init__(self) -> None:
        want = dict(self.interp.target_vocab.relations) | {MARK: 1}
        if dict(self.interp.source_vocab.relations) != want:
            raise ValidationError(
                "sum-like operation needs source vocabulary = target + marker")


def apply_sum_like(op: SumLikeOp, a: Structure, b: Structure) -> Structure:
    """Evaluate the operation: marked disjoint union, then interpretation."""
    return apply_interpretation(op.interp, annotated_disjoint_union(a, b))


def _lit(rel: str, *args: str) -> Literal:
    return Literal(True, rel, args)


def _neg(rel: str, *args: str) -> Literal:
    return Literal(False, rel, args)


def builtin(name: str, params: dict | None = None) -> SumLikeOp:
    """The stock sum-like operations.

    - "disjoint-union": params {"vocabulary": {...}} (default {"E": 2});
      every relation passes through.
    - "ordered-sum": params {"extra": {...}} for pass-through relations
      besides "<="; left elements come before right elements.
    - "join": disjoint union of graphs plus all cross edges.
    - "nlc-sum": params {"r": int, "links": [[i, j], ...]}; graphs with
      label classes Q1..Qr, cross edges added left-to-right for each
      linked label pair.
    """
    if params is not None and not isinstance(params, dict):
        raise ValidationError(f"operation parameters must be an object, "
                              f"got {params!r}")
    params = dict(params or {})
    if name == "disjoint-union":
        target = Vocabulary(dict(params.pop("vocabulary", {"E": 2})))
        rels = {r: _lit(r, *[f"y{i + 1}" for i in range(ar)])
                for r, ar in target.relations.items()}
    elif name == "ordered-sum":
        target = Vocabulary({"<=": 2} | dict(params.pop("extra", {})))
        rels = {r: _lit(r, *[f"y{i + 1}" for i in range(ar)])
                for r, ar in target.relations.items()}
        rels["<="] = Or((_lit("<=", "y1", "y2"),
                         And((_lit(MARK, "y1"), _neg(MARK, "y2")))))
    elif name == "join":
        target = Vocabulary({"E": 2})
        rels = {"E": Or((_lit("E", "y1", "y2"),
                         And((_lit(MARK, "y1"), _neg(MARK, "y2"))),
                         And((_neg(MARK, "y1"), _lit(MARK, "y2")))))}
    elif name == "nlc-sum":
        if "r" not in params:
            raise ValidationError("nlc-sum needs params {'r': ..., 'links': ...}")
        r = params.pop("r")
        links = params.pop("links", [])
        # a bool is an int, but True is no label count or label
        if type(r) is not int or r < 1:
            raise ValidationError(f"nlc-sum needs an int r >= 1, got {r!r}")
        if not isinstance(links, (list, tuple)):
            raise ValidationError(f"nlc-sum links must be a list, got {links!r}")
        for link in links:
            if not (isinstance(link, (list, tuple)) and len(link) == 2
                    and all(type(i) is int for i in link)):
                raise ValidationError(
                    f"nlc-sum link {link!r} is not a pair of ints")
            i, j = link
            if not (1 <= i <= r and 1 <= j <= r):
                raise ValidationError(f"link ({i}, {j}) outside 1..{r}")
        target = Vocabulary({"E": 2} | {f"Q{i}": 1 for i in range(1, r + 1)})
        cross = [And((_lit(MARK, "y1"), _lit(f"Q{i}", "y1"),
                      _neg(MARK, "y2"), _lit(f"Q{j}", "y2")))
                 for i, j in sorted(set(map(tuple, links)))]
        rels = {f"Q{i}": _lit(f"Q{i}", "y1") for i in range(1, r + 1)}
        rels["E"] = Or(tuple([_lit("E", "y1", "y2")] + cross)) if cross \
            else _lit("E", "y1", "y2")
    else:
        raise ValidationError(f"unknown builtin operation {name!r}")
    if params:
        raise ValidationError(f"unexpected parameters {sorted(params)}")
    source = Vocabulary(target.relations | {MARK: 1})
    xi = Interpretation(source, target, TOP, rels)
    return SumLikeOp(name, xi)
