"""First-order formulas in negation normal form.

The AST is deliberately small: literals (optionally negated atoms), n-ary
conjunction and disjunction, whose empty forms are the constants true and
false, and single-variable quantifiers.  Multi-variable quantifier blocks in the concrete syntax are
desugared to nested single-variable nodes at parse time.

The junctions also serve as beta, the propositional formula of a reduction
sequence, over :class:`PVar` factor variables in place of literals.  A beta
keeps its hash, size and free variables (the ``(index, side)`` pairs) on its
nodes, and ``modelcheck`` compiles and evaluates it like any formula, but
:func:`print_formula`, :func:`classify` and ``evaluate`` are not defined on
one; its text form is ``decompose.prop_to_json``.

Formulas are classified into the tree-prefix hierarchy: ``sigma_level`` is the
least lambda such that the formula sits in the existential class at level
lambda, ``pi_level`` the universal dual.  Level 0 means quantifier-free for
both.  A conjunction sits at existential level lambda when every child sits at
universal level lambda - 1, so conjoining two existential level-1 formulas
lands at level 3 -- the hierarchy is over the *shape* of the tree, not the
prenex quantifier string.  The levels, the size, the quantifier rank and the
quantifier-block lengths are computed bottom-up, once per node, and kept on
the node (see :func:`_shape`).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Union

from .errors import ParseError, ValidationError

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Heads with grammar meaning; none of them can name a relation.
RESERVED_NAMES = frozenset(
    {"=", "true", "false", "and", "or", "not", "exists", "forall"}
)

# The two sides of the hierarchy, as named in modes and class arguments.
SIGMA = "sigma"
PI = "pi"


@dataclass(frozen=True)
class Vocabulary:
    """A finite relational vocabulary, relation name -> arity (>= 1): an
    immutable value over its own read-only dict, hash agreeing with ``==``."""

    relations: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", dict(self.relations))
        for name, arity in self.relations.items():
            if name in RESERVED_NAMES:
                raise ValidationError(f"reserved relation name: {name!r}")
            if not NAME_RE.match(name) and name != "<=":
                raise ValidationError(f"bad relation name: {name!r}")
            # a bool is an int, but True is no arity
            if type(arity) is not int or arity < 1:
                raise ValidationError(f"bad arity for {name!r}: {arity!r}")

    def arity(self, name: str) -> int:
        return self.relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __hash__(self) -> int:
        return hash(frozenset(self.relations.items()))


def vocabulary_from_json(data: dict) -> Vocabulary:
    """Build a vocabulary from its JSON form, e.g. ``{"E": 2, "U": 1}``."""
    if not isinstance(data, dict):
        raise ValidationError("vocabulary JSON must be an object")
    return Vocabulary(data)


def vocabulary_to_json(vocab: Vocabulary) -> dict:
    return dict(vocab.relations)


# ---------------------------------------------------------------------------
# AST


def _node(cls):
    """Freeze ``cls`` as a dataclass whose hash is computed once per node
    and whose ``str`` is :func:`print_formula`.

    The hash, the free variables (see :func:`free_variables`), the shape
    (size, rank, levels and block lengths; see :func:`_shape`) and ``_ev``,
    the evaluator closure that ``modelcheck`` compiles on first use, are kept
    on the node but are not fields, so ``==`` and ``repr`` see only the
    fields.  Pickling drops them: string hashes differ between processes, and
    closures do not pickle.
    """
    cls = dataclass(frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(tuple([getattr(self, n) for n in names]))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        return {n: getattr(self, n) for n in names}

    def __str__(self) -> str:
        return print_formula(self)

    cls._hash = cls._free = cls._shape = cls._ev = None
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    cls.__str__ = __str__
    return cls


@_node
class Literal:
    """An atom or negated atom; ``relation`` may be a vocabulary symbol or "="."""

    positive: bool
    relation: str
    args: tuple[str, ...]


@_node
class And:
    children: tuple["Formula", ...]


@_node
class Or:
    children: tuple["Formula", ...]


@_node
class Exists:
    var: str
    body: "Formula"


@_node
class Forall:
    var: str
    body: "Formula"


@_node
class PVar:
    """Beta's leaf: the truth of factor ``index`` of delta-``side``, where
    side 1 is the left component."""

    index: int
    side: int

    def __post_init__(self) -> None:
        if self.side not in (1, 2) or self.index < 0:
            raise ValidationError(f"bad factor variable ({self.index}, {self.side})")


Formula = Union[Literal, And, Or, Exists, Forall]
PropFormula = Union[PVar, And, Or]

# true and false are the empty conjunction and the empty disjunction
TOP = And(())
BOT = Or(())


# ---------------------------------------------------------------------------
# Basic walks


def free_variables(f: Formula) -> tuple[str, ...]:
    """Free variables in first-occurrence (left-to-right) order; those of a
    beta are its factor variables as ``(index, side)`` pairs.

    Computed once per node from the children's tuples and kept on the node.
    """
    fv = f._free
    if fv is None:
        if isinstance(f, Literal):
            fv = tuple(dict.fromkeys(f.args))
        elif isinstance(f, PVar):
            fv = ((f.index, f.side),)
        elif isinstance(f, (And, Or)):
            seen: dict[str, None] = {}
            for c in f.children:
                seen.update(dict.fromkeys(free_variables(c)))
            fv = tuple(seen)
        else:
            fv = tuple(v for v in free_variables(f.body) if v != f.var)
        object.__setattr__(f, "_free", fv)
    return fv


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, (And, Or)):
        for c in f.children:
            yield from subformulas(c)
    elif isinstance(f, (Exists, Forall)):
        yield from subformulas(f.body)


def relations_used(f: Formula) -> dict[str, int]:
    """The relations ``f`` uses besides equality, name -> arity, in order of
    first use; one name used with two arities is an error."""
    out: dict[str, int] = {}
    for g in subformulas(f):
        if isinstance(g, Literal) and g.relation != "=":
            if out.setdefault(g.relation, len(g.args)) != len(g.args):
                raise ValidationError(
                    f"relation {g.relation!r} used with inconsistent arities")
    return out


# ---------------------------------------------------------------------------
# Printing


def print_formula(f: Formula) -> str:
    """Canonical concrete syntax; one variable per quantifier group.

    ``parse_formula(print_formula(f), vocab) == f`` for every formula that
    satisfies the AST conventions (no unary and/or, normalized bound names).
    """
    if isinstance(f, Literal):
        atom = "(" + " ".join((f.relation,) + f.args) + ")"
        return atom if f.positive else f"(not {atom})"
    if isinstance(f, (And, Or)):
        if not f.children:
            return "true" if f == TOP else "false"
        # a plain loop: a generator expression costs a second frame
        parts = ["(and" if isinstance(f, And) else "(or"]
        for c in f.children:
            parts.append(print_formula(c))
        return " ".join(parts) + ")"
    if isinstance(f, Exists):
        return f"(exists ({f.var}) {print_formula(f.body)})"
    if isinstance(f, Forall):
        return f"(forall ({f.var}) {print_formula(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Parsing


# One token per match: ``<=``, a bracket, ``=``, a word, or any other single
# non-space character, which is an error.
_TOKEN_RE = re.compile(r"<=|[()=]|[A-Za-z_][A-Za-z0-9_]*|\S")


def parse_formula(text: str, vocab: Vocabulary) -> Formula:
    """Parse the s-expression syntax.

    Multi-variable quantifier groups are desugared to nested single binders,
    unary and/or collapse to their child, and bound variables are renamed
    apart from each other and from the free variables.
    """
    return alpha_normalize(_parse(text, vocab))


def _parse(text: str, vocab: Vocabulary) -> Formula:
    """:func:`parse_formula` without the renaming of bound variables."""
    toks = _TOKEN_RE.findall(text)

    def error(message: str, index: int) -> ParseError:
        # at token ``index`` or, past the last one, at the end of the input
        pos = len(text) if index == len(toks) else \
            [m.start() for m in _TOKEN_RE.finditer(text)][index]
        return ParseError(message, text.count("\n", 0, pos) + 1,
                          pos - text.rfind("\n", 0, pos))

    bad = [tok for tok in set(toks)
           if len(tok) == 1 and tok not in "()=" and not NAME_RE.match(tok)]
    if bad:
        index = min(map(toks.index, bad))
        raise error(f"unexpected character {toks[index]!r}", index)
    if not toks:
        raise ParseError("empty input", 1, 1)
    # Every token is now "<=", a bracket, "=" or a word, and only the words
    # start with none of "()=<".
    rest = toks[::-1]  # the next token is rest[-1]

    def at() -> int:
        # index of the token taken last
        return len(toks) - len(rest) - 1

    def take(what: str) -> str:
        if not rest:
            raise error(f"expected {what}, found end of input", len(toks))
        return rest.pop()

    def expect(tok: str) -> None:
        got = take(repr(tok))
        if got != tok:
            raise error(f"expected {tok!r}, found {got!r}", at())

    def variable() -> str:
        tok = take("a variable")
        if tok[0] in "()=<" or tok in RESERVED_NAMES:
            raise error(f"expected a variable, found {tok!r}", at())
        return tok

    def formula() -> Formula:
        tok = take("a formula")
        if tok == "true":
            return TOP
        if tok == "false":
            return BOT
        if tok != "(":
            raise error(f"expected a formula, found {tok!r}", at())
        head = take("a connective, quantifier or relation")
        if head == "exists" or head == "forall":
            expect("(")
            names = [variable()]
            while rest and rest[-1] != ")":
                names.append(variable())
            expect(")")
            body = formula()
            expect(")")
            ctor = Exists if head == "exists" else Forall
            for name in reversed(names):
                body = ctor(name, body)
            return body
        if head == "and" or head == "or":
            children = [formula()]
            while rest and rest[-1] != ")":
                children.append(formula())
            expect(")")
            if len(children) == 1:
                return children[0]
            return (And if head == "and" else Or)(tuple(children))
        positive = head != "not"
        if not positive:
            tok = take("an atom")
            if tok != "(":
                raise error(f"negation applies to atoms only, found {tok!r}",
                            at())
            head = take("a relation name")
        if head == "=":
            args = [variable(), variable()]
            expect(")")
        else:
            index = at()
            if head[0] in "()" or head in RESERVED_NAMES:
                raise error(f"expected a relation name, found {head!r}", index)
            want = vocab.relations.get(head)
            if want is None:
                raise error(f"unknown relation {head!r}", index)
            args = []
            while rest and rest[-1] != ")":
                args.append(variable())
            expect(")")
            if len(args) != want:
                raise error(f"relation {head!r} expects {want} argument(s), "
                            f"got {len(args)}", index)
        if not positive:
            expect(")")
        return Literal(positive, head, tuple(args))

    f = formula()
    if rest:
        raise error(f"trailing input {rest[-1]!r}", at() + 1)
    return f


# ---------------------------------------------------------------------------
# Renaming


def alpha_normalize(f: Formula) -> Formula:
    """Rename bound variables so they are pairwise distinct and disjoint from
    the free variables.  Formulas already in that shape come back unchanged
    (same names, same object graph where possible)."""
    used = set(free_variables(f))

    def fresh(base: str) -> str:
        i = 2
        while f"{base}_{i}" in used:
            i += 1
        return f"{base}_{i}"

    def walk(g: Formula, env: dict[str, str]) -> Formula:
        if isinstance(g, Literal):
            args = tuple(env.get(a, a) for a in g.args)
            return g if args == g.args else Literal(g.positive, g.relation, args)
        if isinstance(g, (And, Or)):
            # a plain loop: a generator expression costs a second frame
            kids = []
            for c in g.children:
                kids.append(walk(c, env))
            children = tuple(kids)
            if children == g.children:
                return g
            return type(g)(children)
        name = g.var if g.var not in used else fresh(g.var)
        used.add(name)
        inner = dict(env)
        inner[g.var] = name
        body = walk(g.body, inner)
        if name == g.var and body is g.body:
            return g
        return type(g)(name, body)

    return walk(f, {})


def substitute(f: Formula, mapping: dict[str, str]) -> Formula:
    """Rename free variables; bound variables shadow as usual."""
    if not mapping:
        return f
    if isinstance(f, Literal):
        args = tuple(mapping.get(a, a) for a in f.args)
        return f if args == f.args else Literal(f.positive, f.relation, args)
    if isinstance(f, (And, Or)):
        return type(f)(tuple(substitute(c, mapping) for c in f.children))
    inner = {k: v for k, v in mapping.items() if k != f.var}
    return type(f)(f.var, substitute(f.body, inner))


# ---------------------------------------------------------------------------
# Dual negation


def negate_dual(f: Formula) -> Formula:
    """Negation by duality: stays in negation normal form, is an involution,
    and swaps the existential and universal classification levels."""
    if isinstance(f, Literal):
        return Literal(not f.positive, f.relation, f.args)
    if isinstance(f, And):
        return Or(tuple(negate_dual(c) for c in f.children))
    if isinstance(f, Or):
        return And(tuple(negate_dual(c) for c in f.children))
    if isinstance(f, Exists):
        return Forall(f.var, negate_dual(f.body))
    if isinstance(f, Forall):
        return Exists(f.var, negate_dual(f.body))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class Classification:
    sigma_level: int
    pi_level: int
    rank: int
    block_uniform_k: Optional[int]


def _shape(f: Formula) -> tuple[int, int, int, int, int, int]:
    """``(size, rank, sigma level, pi level, root block, blocks below)``.

    The root block is the length of the quantifier block that starts at
    ``f`` (0 unless ``f`` is a quantifier); the blocks below are summed up
    as 0 when there are none, k when all have length k, and -1 when their
    lengths differ.  Computed once per node from the children's shapes and
    kept on the node.  A quantified conjunction sits one sigma level above
    its highest child pi level and an ``exists`` at its body's sigma level
    but at least 1; the pi level of either is one more than its sigma level.
    Disjunction and ``forall`` are the duals.
    """
    shape = f._shape
    if shape is None:
        if isinstance(f, (And, Or)):
            size, rank, level, blocks = 1, 0, 0, 0
            dual = 3 if isinstance(f, And) else 2
            for c in f.children:
                c = _shape(c)
                size += c[0]
                if c[1] > rank:
                    rank = c[1]
                if c[dual] > level:
                    level = c[dual]
                blocks = _merged(_merged(blocks, c[4]), c[5])
            if not rank:
                shape = (size, 0, 0, 0, 0, 0)
            elif dual == 3:
                shape = (size, rank, level + 1, level + 2, 0, blocks)
            else:
                shape = (size, rank, level + 2, level + 1, 0, blocks)
        elif isinstance(f, (Exists, Forall)):
            size, rank, sigma, pi, root, below = _shape(f.body)
            if type(f.body) is type(f):
                root += 1
            else:
                root, below = 1, _merged(below, root)
            if isinstance(f, Exists):
                level = sigma or 1
                shape = (size + 1, rank + 1, level, level + 1, root, below)
            else:
                level = pi or 1
                shape = (size + 1, rank + 1, level + 1, level, root, below)
        elif isinstance(f, Literal):
            shape = (1 + len(f.args), 0, 0, 0, 0, 0)
        else:
            shape = (1, 0, 0, 0, 0, 0)    # a factor variable
        object.__setattr__(f, "_shape", shape)
    return shape


def _merged(blocks: int, k: int) -> int:
    """A summary of block lengths (see :func:`_shape`) with k added."""
    if not k or k == blocks:
        return blocks
    return -1 if blocks else k


def formula_size(f: Formula) -> int:
    """Node count: a literal is one node per argument plus the relation
    (polarity is part of the literal), a quantifier adds one node, and a
    factor variable is one node."""
    return _shape(f)[0]


def quantifier_rank(f: Formula) -> int:
    return _shape(f)[1]


def is_quantifier_free(f: Formula) -> bool:
    return not _shape(f)[1]


def in_sigma(f: Formula, level: int) -> bool:
    """Membership in the existential tree-prefix class at the given level."""
    return _shape(f)[2] <= level


def in_pi(f: Formula, level: int) -> bool:
    """Membership in the universal tree-prefix class at the given level."""
    return _shape(f)[3] <= level


def classify(f: Formula) -> Classification:
    """Least existential/universal levels, quantifier rank, and the common
    quantifier-block length when one exists (None otherwise)."""
    _, rank, sigma, pi, root, below = _shape(f)
    blocks = _merged(below, root)
    return Classification(sigma, pi, rank, blocks if blocks > 0 else None)


def block_uniform(f: Formula, k: int) -> bool:
    """True when every maximal quantifier block has length exactly k
    (vacuously true for quantifier-free formulas)."""
    root, below = _shape(f)[4:]
    blocks = _merged(below, root)
    return blocks == 0 or (blocks == k and k > 0)


# ---------------------------------------------------------------------------
# Seeded generation


def random_formula(cls: str, n: int, m: int, vocab: Vocabulary,
                   free_vars: tuple[str, ...] = (), seed: int = 0) -> Formula:
    """Deterministically generate a formula in the requested class.

    ``cls`` is "sigma" or "pi"; the result classifies at existential
    (resp. universal) level <= n with quantifier rank <= m, uses connective
    fan-out <= 3, and draws free variables from ``free_vars``.
    """
    if cls not in (SIGMA, PI):
        raise ValidationError(f"cls must be 'sigma' or 'pi', got {cls!r}")
    if n < 0 or m < 0:
        raise ValidationError("n, m must be >= 0")
    rng = random.Random(seed)
    avoid = set(free_vars)
    counter = [0]

    def fresh_var() -> str:
        while True:
            counter[0] += 1
            name = f"q{counter[0]}"
            if name not in avoid:
                return name

    def gen_literal(ctx: tuple[str, ...]) -> Formula:
        if not ctx:
            return TOP if rng.random() < 0.5 else BOT
        positive = rng.random() < 0.7
        names = list(vocab.relations)
        use_eq = not names or (len(ctx) >= 2 and rng.random() < 0.15)
        if use_eq:
            a, b = rng.choice(ctx), rng.choice(ctx)
            return Literal(positive, "=", (a, b))
        name = rng.choice(names)
        args = tuple(rng.choice(ctx) for _ in range(vocab.arity(name)))
        return Literal(positive, name, args)

    def gen_qf(ctx: tuple[str, ...]) -> Formula:
        width = rng.choice([1, 1, 2, 2, 3])
        lits = [gen_literal(ctx) for _ in range(width)]
        if len(lits) == 1:
            return lits[0]
        return (And if rng.random() < 0.5 else Or)(tuple(lits))

    def gen(mode: str, depth: int, budget: int, ctx: tuple[str, ...]) -> Formula:
        if depth == 0 or budget == 0 or rng.random() < 0.3:
            return gen_qf(ctx)
        inner = PI if mode == SIGMA else SIGMA
        block = rng.choice([1] * 3 + [2])
        block = min(block, budget)
        names = tuple(fresh_var() for _ in range(block))
        fanout = rng.choice([1, 1, 2, 3])
        kids = tuple(gen(inner, depth - 1, budget - block, ctx + names)
                     for _ in range(fanout))
        if len(kids) == 1:
            body: Formula = kids[0]
        else:
            body = (And if mode == SIGMA else Or)(kids)
        ctor = Exists if mode == SIGMA else Forall
        for name in reversed(names):
            body = ctor(name, body)
        return body

    return gen(cls, n, m, tuple(free_vars))
