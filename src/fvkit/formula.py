"""First-order formulas in negation normal form.

The AST is deliberately small: literals (optionally negated atoms), the
constants true/false, n-ary conjunction and disjunction, and single-variable
quantifiers.  Multi-variable quantifier blocks in the concrete syntax are
desugared to nested single-variable nodes at parse time.

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


@dataclass
class Vocabulary:
    """A finite relational vocabulary: relation name -> arity (>= 1)."""

    relations: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, arity in self.relations.items():
            if name in RESERVED_NAMES:
                raise ValidationError(f"reserved relation name: {name!r}")
            if not NAME_RE.match(name) and name != "<=":
                raise ValidationError(f"bad relation name: {name!r}")
            if not isinstance(arity, int) or arity < 1:
                raise ValidationError(f"bad arity for {name!r}: {arity!r}")

    def arity(self, name: str) -> int:
        return self.relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def key(self) -> tuple[tuple[str, int], ...]:
        """Hashable identity, insertion order preserved."""
        return tuple(self.relations.items())


def vocabulary_from_json(data: dict) -> Vocabulary:
    """Build a vocabulary from its JSON form, e.g. ``{"E": 2, "U": 1}``."""
    if not isinstance(data, dict):
        raise ValidationError("vocabulary JSON must be an object")
    return Vocabulary(dict(data))


def vocabulary_to_json(vocab: Vocabulary) -> dict:
    return dict(vocab.relations)


# ---------------------------------------------------------------------------
# AST


def _node(cls):
    """Freeze ``cls`` as a dataclass whose hash is computed once per node.

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

    cls._hash = cls._free = cls._shape = cls._ev = None
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_node
class Literal:
    """An atom or negated atom; ``relation`` may be a vocabulary symbol or "="."""

    positive: bool
    relation: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return print_formula(self)


@_node
class Top:
    def __str__(self) -> str:
        return "true"


@_node
class Bot:
    def __str__(self) -> str:
        return "false"


@_node
class And:
    children: tuple["Formula", ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ValidationError("empty conjunction")

    def __str__(self) -> str:
        return print_formula(self)


@_node
class Or:
    children: tuple["Formula", ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ValidationError("empty disjunction")

    def __str__(self) -> str:
        return print_formula(self)


@_node
class Exists:
    var: str
    body: "Formula"

    def __str__(self) -> str:
        return print_formula(self)


@_node
class Forall:
    var: str
    body: "Formula"

    def __str__(self) -> str:
        return print_formula(self)


Formula = Union[Literal, Top, Bot, And, Or, Exists, Forall]

TOP = Top()
BOT = Bot()


# ---------------------------------------------------------------------------
# Basic walks


def free_variables(f: Formula) -> tuple[str, ...]:
    """Free variables in first-occurrence (left-to-right) order.

    Computed once per node from the children's tuples and kept on the node.
    """
    fv = f._free
    if fv is None:
        if isinstance(f, Literal):
            fv = tuple(dict.fromkeys(f.args))
        elif isinstance(f, (And, Or)):
            seen: dict[str, None] = {}
            for c in f.children:
                seen.update(dict.fromkeys(free_variables(c)))
            fv = tuple(seen)
        elif isinstance(f, (Exists, Forall)):
            fv = tuple(v for v in free_variables(f.body) if v != f.var)
        else:
            fv = ()
        object.__setattr__(f, "_free", fv)
    return fv


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, (And, Or)):
        for c in f.children:
            yield from subformulas(c)
    elif isinstance(f, (Exists, Forall)):
        yield from subformulas(f.body)


# ---------------------------------------------------------------------------
# Printing


def print_formula(f: Formula) -> str:
    """Canonical concrete syntax; one variable per quantifier group.

    ``parse_formula(print_formula(f), vocab) == f`` for every formula that
    satisfies the AST conventions (no unary and/or, normalized bound names).
    """
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Literal):
        atom = "(" + " ".join((f.relation,) + f.args) + ")"
        return atom if f.positive else f"(not {atom})"
    if isinstance(f, And):
        return "(and " + " ".join(print_formula(c) for c in f.children) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(print_formula(c) for c in f.children) + ")"
    if isinstance(f, Exists):
        return f"(exists ({f.var}) {print_formula(f.body)})"
    if isinstance(f, Forall):
        return f"(forall ({f.var}) {print_formula(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Parsing


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch in "()":
            tokens.append(_Token(ch, line, col))
            col += 1
            i += 1
        elif ch == "<":
            if text[i:i + 2] != "<=":
                raise ParseError("unexpected character '<'", line, col)
            tokens.append(_Token("<=", line, col))
            col += 2
            i += 2
        elif ch == "=":
            tokens.append(_Token("=", line, col))
            col += 1
            i += 1
        else:
            m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", text[i:])
            if not m:
                raise ParseError(f"unexpected character {ch!r}", line, col)
            word = m.group(0)
            tokens.append(_Token(word, line, col))
            col += len(word)
            i += len(word)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], vocab: Vocabulary, text: str):
        self.tokens = tokens
        self.vocab = vocab
        self.pos = 0
        # Position reported when input ends too early.
        lines = text.split("\n")
        self.end_line = len(lines)
        self.end_col = len(lines[-1]) + 1

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {what}, found end of input",
                             self.end_line, self.end_col)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next(f"{text!r}")
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}",
                             tok.line, tok.column)
        return tok

    def variable(self) -> str:
        tok = self.next("a variable")
        if not NAME_RE.match(tok.text) or tok.text in RESERVED_NAMES:
            raise ParseError(f"expected a variable, found {tok.text!r}",
                             tok.line, tok.column)
        return tok.text

    def formula(self) -> Formula:
        tok = self.next("a formula")
        if tok.text == "true":
            return TOP
        if tok.text == "false":
            return BOT
        if tok.text != "(":
            raise ParseError(f"expected a formula, found {tok.text!r}",
                             tok.line, tok.column)
        head = self.next("a connective, quantifier or relation")
        if head.text in ("exists", "forall"):
            self.expect("(")
            names = [self.variable()]
            while self.peek() is not None and self.peek().text != ")":
                names.append(self.variable())
            self.expect(")")
            body = self.formula()
            self.expect(")")
            ctor = Exists if head.text == "exists" else Forall
            for name in reversed(names):
                body = ctor(name, body)
            return body
        if head.text in ("and", "or"):
            children = [self.formula()]
            while self.peek() is not None and self.peek().text != ")":
                children.append(self.formula())
            self.expect(")")
            if len(children) == 1:
                return children[0]
            ctor = And if head.text == "and" else Or
            return ctor(tuple(children))
        if head.text == "not":
            inner = self.next("an atom")
            if inner.text != "(":
                raise ParseError(
                    f"negation applies to atoms only, found {inner.text!r}",
                    inner.line, inner.column)
            atom = self.atom(negated=True)
            self.expect(")")
            return atom
        # plain atom: we already consumed "(" and the head
        return self.finish_atom(head, negated=False)

    def atom(self, negated: bool) -> Formula:
        head = self.next("a relation name")
        return self.finish_atom(head, negated)

    def finish_atom(self, head: _Token, negated: bool) -> Formula:
        if head.text == "=":
            a = self.variable()
            b = self.variable()
            self.expect(")")
            return Literal(not negated, "=", (a, b))
        ok_name = NAME_RE.match(head.text) or head.text == "<="
        if not ok_name or head.text in RESERVED_NAMES:
            raise ParseError(f"expected a relation name, found {head.text!r}",
                             head.line, head.column)
        if head.text not in self.vocab:
            raise ParseError(f"unknown relation {head.text!r}",
                             head.line, head.column)
        args = []
        while self.peek() is not None and self.peek().text != ")":
            args.append(self.variable())
        close = self.expect(")")
        want = self.vocab.arity(head.text)
        if len(args) != want:
            raise ParseError(
                f"relation {head.text!r} expects {want} argument(s), got {len(args)}",
                head.line, head.column)
        return Literal(not negated, head.text, tuple(args))


def parse_formula(text: str, vocab: Vocabulary) -> Formula:
    """Parse the s-expression syntax.

    Multi-variable quantifier groups are desugared to nested single binders,
    unary and/or collapse to their child, and bound variables are renamed
    apart from each other and from the free variables.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    parser = _Parser(tokens, vocab, text)
    f = parser.formula()
    extra = parser.peek()
    if extra is not None:
        raise ParseError(f"trailing input {extra.text!r}", extra.line, extra.column)
    return alpha_normalize(f)


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
        if isinstance(g, (Top, Bot)):
            return g
        if isinstance(g, (And, Or)):
            children = tuple(walk(c, env) for c in g.children)
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
    if isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, (And, Or)):
        return type(f)(tuple(substitute(c, mapping) for c in f.children))
    inner = {k: v for k, v in mapping.items() if k != f.var}
    return type(f)(f.var, substitute(f.body, inner))


# ---------------------------------------------------------------------------
# Dual negation


def negate_dual(f: Formula) -> Formula:
    """Negation by duality: stays in negation normal form, is an involution,
    and swaps the existential and universal classification levels."""
    if isinstance(f, Top):
        return BOT
    if isinstance(f, Bot):
        return TOP
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
            shape = (1, 0, 0, 0, 0, 0)
        object.__setattr__(f, "_shape", shape)
    return shape


def _merged(blocks: int, k: int) -> int:
    """A summary of block lengths (see :func:`_shape`) with k added."""
    if not k or k == blocks:
        return blocks
    return -1 if blocks else k


def formula_size(f: Formula) -> int:
    """Node count: a literal is one node per argument plus the relation
    (polarity is part of the literal), a quantifier adds one node."""
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
    if cls not in ("sigma", "pi"):
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
        inner = "pi" if mode == "sigma" else "sigma"
        block = rng.choice([1] * 3 + [2])
        block = min(block, budget)
        names = tuple(fresh_var() for _ in range(block))
        fanout = rng.choice([1, 1, 2, 3])
        kids = tuple(gen(inner, depth - 1, budget - block, ctx + names)
                     for _ in range(fanout))
        if len(kids) == 1:
            body: Formula = kids[0]
        else:
            body = (And if mode == "sigma" else Or)(kids)
        ctor = Exists if mode == "sigma" else Forall
        for name in reversed(names):
            body = ctor(name, body)
        return body

    return gen(cls, n, m, tuple(free_vars))
