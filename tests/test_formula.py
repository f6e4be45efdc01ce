import pickle

import pytest
from hypothesis import given, strategies as st

from fvkit import (And, BOT, Exists, Forall, Literal, Or, ParseError,
                   Structure, TOP, ValidationError, Vocabulary, classify,
                   evaluate, formula_size, free_variables, is_quantifier_free,
                   negate_dual, parse_formula, print_formula, quantifier_rank,
                   random_formula)
from fvkit.formula import subformulas

VE = Vocabulary({"E": 2})
VU = Vocabulary({"U": 1})
VEU = Vocabulary({"E": 2, "U": 1})


def test_parse_atom():
    f = parse_formula("(E x y)", VE)
    assert f == Literal(True, "E", ("x", "y"))


def test_parse_arity_one_connective_flattens():
    assert parse_formula("(and (E x y))", VE) == Literal(True, "E", ("x", "y"))
    assert parse_formula("(or (E x y))", VE) == Literal(True, "E", ("x", "y"))


def test_parse_multivar_quantifier_desugars():
    f = parse_formula("(exists (x y) (E x y))", VE)
    assert f == Exists("x", Exists("y", Literal(True, "E", ("x", "y"))))


def test_parse_constants_and_equality():
    assert TOP == And(()) and BOT == Or(())
    assert parse_formula("true", VE) == TOP
    assert parse_formula("false", VE) == BOT
    assert parse_formula("(= x y)", VE) == Literal(True, "=", ("x", "y"))


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("(and (E x y) (E x))", VE)
    assert "argument" in str(exc.value) and "column" in str(exc.value)
    with pytest.raises(ParseError):
        parse_formula("(F x)", VE)  # unknown relation
    with pytest.raises(ParseError):
        parse_formula("(not (and (E x y) (E y x)))", VE)  # NNF violation
    with pytest.raises(ParseError):
        parse_formula("(exists (x) ", VE)


def test_print_examples():
    assert print_formula(Literal(True, "E", ("x", "y"))) == "(E x y)"
    assert print_formula(BOT) == "false"
    assert print_formula(And(())) == "true"
    assert print_formula(Exists("x", TOP)) == "(exists (x) true)"
    assert print_formula(Or((TOP, BOT))) == "(or true false)"


def test_negate_dual_examples():
    f = parse_formula("(E x y)", VE)
    assert negate_dual(f) == Literal(False, "E", ("x", "y"))
    g = parse_formula("(exists (x) (and (U x)))", VU)
    # arity-1 and is flattened at parse, so the dual is the bare literal
    assert print_formula(negate_dual(g)) == "(forall (x) (not (U x)))"
    assert negate_dual(TOP) == BOT and negate_dual(BOT) == TOP


def test_classify_quantifier_free():
    c = classify(parse_formula("(or (U x) (not (U y)))", VU))
    assert (c.sigma_level, c.pi_level, c.rank) == (0, 0, 0)
    assert c.block_uniform_k is None


def test_classify_nested_alternation():
    c = classify(parse_formula(
        "(exists (x) (and (forall (y) (or (E x y)))))", VE))
    assert c.sigma_level == 2
    assert c.pi_level == 3
    assert c.rank == 2
    assert c.block_uniform_k == 1


def test_classify_universal_root():
    c = classify(parse_formula("(forall (x) (or (U x) (U x)))", VU))
    assert c.pi_level == 1
    assert c.sigma_level == 2


def test_free_variables_order():
    assert free_variables(parse_formula("(E x y)", VE)) == ("x", "y")
    assert free_variables(parse_formula("(exists (x) (E x y))", VE)) == ("y",)
    assert free_variables(parse_formula("true", VE)) == ()


def _free_variables_walk(f):
    """The recursive walk free_variables used before it cached its result."""
    seen = {}

    def walk(g, bound):
        if isinstance(g, Literal):
            for a in g.args:
                if a not in bound and a not in seen:
                    seen[a] = None
        elif isinstance(g, (And, Or)):
            for c in g.children:
                walk(c, bound)
        elif isinstance(g, (Exists, Forall)):
            walk(g.body, bound | {g.var})

    walk(f, frozenset())
    return tuple(seen)


def _quantifier_free_walk(f):
    """The recursive walk is_quantifier_free used before it cached its flag."""
    if isinstance(f, Literal) or f == TOP or f == BOT:
        return True
    if isinstance(f, (And, Or)):
        return all(_quantifier_free_walk(c) for c in f.children)
    return False


def test_node_caches_agree_with_structure():
    # Four separate builds of each formula: two generator runs, two parses.
    # The caches fill root-first on one build and leaves-first on the others.
    kinds = set()
    for seed in range(150):
        cls = ("sigma", "pi")[seed % 2]
        n = (seed // 2) % 3
        m = n + (seed // 6) % (4 - n)
        fv = ("v1", "v2")[:seed % 3]
        built = [random_formula(cls, n=n, m=m, vocab=VEU, free_vars=fv,
                                seed=seed) for _ in range(2)]
        text = print_formula(built[0])
        built += [parse_formula(text, VEU) for _ in range(2)]
        hash(built[0])
        free_variables(built[0])
        is_quantifier_free(built[0])
        subs = [list(subformulas(f)) for f in built]
        for group in zip(*(reversed(s) for s in subs)):
            reference = _free_variables_walk(group[0])
            qf = _quantifier_free_walk(group[0])
            for g in group:
                assert g == group[0]
                assert hash(g) == hash(group[0])
                assert free_variables(g) == reference
                assert is_quantifier_free(g) is qf
                assert str(g) == print_formula(g)
            assert repr(group[0]) == repr(group[1])
            kinds.add(type(group[0]))
        if built[0] not in (TOP, BOT):  # the only shared nodes
            assert len({id(f) for f in built}) == 4
    assert kinds == {Literal, And, Or, Exists, Forall}


def test_node_caches_stay_out_of_fields_and_pickles():
    text = "(forall (x) (or (E x y) (exists (z) (E z x))))"
    f = parse_formula(text, VE)
    hash(f)
    free_variables(f)
    is_quantifier_free(f)
    board = Structure(VE, ("a",), {"E": frozenset({("a", "a")})})
    assert evaluate(board, f, {"y": "a"}) is True
    assert callable(f._ev) and callable(f.body.children[1].body._ev)
    fresh = parse_formula(text, VE)
    assert fresh._ev is None and fresh == f and f == fresh
    assert repr(f) == repr(fresh) == (
        "Forall(var='x', body=Or(children=(Literal(positive="
        "True, relation='E', args=('x', 'y')), Exists(var='z', "
        "body=Literal(positive=True, relation='E', "
        "args=('z', 'x'))))))")
    # Closures do not pickle, so this fails if _ev gets into the state.
    back = pickle.loads(pickle.dumps(f))
    # String hashes differ between processes, so pickles carry no caches.
    assert vars(back) == {"var": "x", "body": f.body}
    assert back._ev is None and back.body._ev is None
    assert back == f and hash(back) == hash(f)
    assert evaluate(board, back, {"y": "a"}) is True
    assert free_variables(back) == ("y",)
    assert is_quantifier_free(back) is False
    assert is_quantifier_free(back.body.children[0]) is True


def test_formula_size_counts_nodes():
    # quantifier node = 1, literal = 1 + arity
    assert formula_size(parse_formula("(E x y)", VE)) == 3
    assert formula_size(parse_formula("(exists (z) (E z z))", VE)) == 4
    assert formula_size(parse_formula("true", VE)) == 1


@st.composite
def formulas(draw):
    cls = draw(st.sampled_from(["sigma", "pi"]))
    n = draw(st.integers(0, 2))
    m = draw(st.integers(n, 3))
    seed = draw(st.integers(0, 10_000))
    nfree = draw(st.integers(0, 2))
    fv = ("v1", "v2")[:nfree]
    return random_formula(cls, n=n, m=m, vocab=VEU, free_vars=fv, seed=seed), \
        cls, n, m, fv


@given(formulas())
def test_random_formula_contract(item):
    f, cls, n, m, fv = item
    c = classify(f)
    level = c.sigma_level if cls == "sigma" else c.pi_level
    assert level <= n
    assert c.rank <= m
    assert set(free_variables(f)) <= set(fv)


def test_random_formula_deterministic():
    a = random_formula("sigma", n=2, m=3, vocab=VE, seed=42)
    b = random_formula("sigma", n=2, m=3, vocab=VE, seed=42)
    assert a == b


def test_random_formula_rejects_bad_args():
    with pytest.raises(ValidationError):
        random_formula("gamma", n=1, m=1, vocab=VE)
    with pytest.raises(ValidationError):
        random_formula("sigma", n=-1, m=1, vocab=VE)


@given(formulas())
def test_roundtrip(item):
    f = item[0]
    assert parse_formula(print_formula(f), VEU) == f


@given(formulas())
def test_negation_duality(item):
    f = item[0]
    c, d = classify(f), classify(negate_dual(f))
    assert (c.sigma_level, c.pi_level) == (d.pi_level, d.sigma_level)
    assert c.rank == d.rank
    assert negate_dual(negate_dual(f)) == f


@given(formulas())
def test_classification_minimal(item):
    from fvkit import in_pi, in_sigma
    f = item[0]
    c = classify(f)
    assert in_sigma(f, c.sigma_level)
    assert in_pi(f, c.pi_level)
    if c.sigma_level >= 1:
        assert not in_sigma(f, c.sigma_level - 1)
    if c.pi_level >= 1:
        assert not in_pi(f, c.pi_level - 1)


@given(formulas())
def test_rank_level_gap(item):
    f = item[0]
    c = classify(f)
    if c.rank > 0:
        assert abs(c.sigma_level - c.pi_level) == 1
    else:
        assert c.sigma_level == c.pi_level == 0
    assert quantifier_rank(f) == c.rank


# The recursive walks behind classify and its siblings before the shape
# cache, kept verbatim as the reference for the cached shape.

def _ref_formula_size(f):
    if f == TOP or f == BOT:
        return 1
    if isinstance(f, Literal):
        return 1 + len(f.args)
    if isinstance(f, (And, Or)):
        return 1 + sum(_ref_formula_size(c) for c in f.children)
    return 1 + _ref_formula_size(f.body)


def _ref_depth(f):
    if isinstance(f, Literal) or f == TOP or f == BOT:
        return 1
    if isinstance(f, (And, Or)):
        return 1 + max(_ref_depth(c) for c in f.children)
    return 1 + _ref_depth(f.body)


def _ref_in_sigma(f, level):
    if level == 0:
        return _quantifier_free_walk(f)
    if isinstance(f, Literal) or f == TOP or f == BOT:
        return True
    if isinstance(f, Exists):
        return _ref_in_sigma(f.body, level)
    if isinstance(f, And):
        return all(_ref_in_pi(c, level - 1) for c in f.children)
    # Or and Forall only get in by containment of the dual class.
    return _ref_in_pi(f, level - 1)


def _ref_in_pi(f, level):
    if level == 0:
        return _quantifier_free_walk(f)
    if isinstance(f, Literal) or f == TOP or f == BOT:
        return True
    if isinstance(f, Forall):
        return _ref_in_pi(f.body, level)
    if isinstance(f, Or):
        return all(_ref_in_sigma(c, level - 1) for c in f.children)
    return _ref_in_sigma(f, level - 1)


def _ref_quantifier_rank(f):
    if isinstance(f, Literal) or f == TOP or f == BOT:
        return 0
    if isinstance(f, (And, Or)):
        return max(_ref_quantifier_rank(c) for c in f.children)
    return 1 + _ref_quantifier_rank(f.body)


def _ref_block_lengths(f):
    lengths = set()

    def close(length):
        if length:
            lengths.add(length)

    def walk(g, kind, length):
        if isinstance(g, (Exists, Forall)):
            if kind is type(g):
                walk(g.body, kind, length + 1)
            else:
                close(length)
                walk(g.body, type(g), 1)
        elif isinstance(g, (And, Or)):
            close(length)
            for c in g.children:
                walk(c, None, 0)
        else:
            close(length)

    walk(f, None, 0)
    return lengths


def _ref_classify(f):
    bound = 2 * _ref_depth(f) + 2
    sigma = next(l for l in range(bound) if _ref_in_sigma(f, l))
    pi = next(l for l in range(bound) if _ref_in_pi(f, l))
    lengths = _ref_block_lengths(f)
    uniform = lengths.pop() if len(lengths) == 1 else None
    return (sigma, pi, _ref_quantifier_rank(f), uniform)


def _ref_block_uniform(f, k):
    lengths = _ref_block_lengths(f)
    return not lengths or lengths == {k}


def _random_nnf(rng, depth):
    """A tree with constants under quantifiers, variables rebound inside
    their own scope, same-kind quantifier chains of up to three binders and
    connectives that mix quantifier-free and quantified children."""
    draw = rng.random()
    if depth == 0 or draw < 0.2:
        if draw < 0.05:
            return rng.choice((TOP, BOT))
        return Literal(rng.random() < 0.5, "E",
                       (rng.choice("xy"), rng.choice("xy")))
    if draw < 0.6:
        kind = rng.choice((Exists, Forall))
        f = _random_nnf(rng, depth - 1)
        for _ in range(rng.randint(1, 3)):
            f = kind(rng.choice("xy"), f)
        return f
    return rng.choice((And, Or))(tuple(_random_nnf(rng, depth - 1)
                                       for _ in range(rng.randint(2, 3))))


def test_shape_matches_reference_walks():
    from random import Random

    from fvkit import block_uniform, in_pi, in_sigma, transform_formula
    from test_acceptance import formula_suite, sum_like_ops

    cases = [f for _, _, f, _ in formula_suite(VE)]
    for _, op, _ in sum_like_ops():
        suite = [f for _, _, f, _ in formula_suite(op.interp.target_vocab)]
        cases += suite + [transform_formula(op.interp, f) for f in suite]
    rng = Random(2024)
    cases += [_random_nnf(rng, rng.randint(1, 6)) for _ in range(2000)]
    nontrivial = set()
    for f in cases:
        c = classify(f)
        want = _ref_classify(f)
        assert (c.sigma_level, c.pi_level, c.rank, c.block_uniform_k) == want
        nontrivial.add((want[0] > 2, want[3]))
        for level in range(10):
            assert in_sigma(f, level) is _ref_in_sigma(f, level)
            assert in_pi(f, level) is _ref_in_pi(f, level)
        for k in range(1, 5):
            assert block_uniform(f, k) is _ref_block_uniform(f, k)
        assert formula_size(f) == _ref_formula_size(f)
        assert quantifier_rank(f) == _ref_quantifier_rank(f)
        assert is_quantifier_free(f) is _quantifier_free_walk(f)
    # levels above 2, several uniform block lengths and mixed ones all occur
    assert {(True, None), (True, 1), (True, 2), (False, 3)} <= nontrivial


@pytest.mark.parametrize("kind", ["and", "alternating", "parsed and-or"])
def test_shape_reads_deep_chains(kind):
    from fvkit import block_uniform, in_sigma

    lit = Literal(True, "E", ("x", "x"))
    f = lit
    text = "(E x x)"
    for i in range(900):
        if kind == "and":
            f = And((Exists("x", lit), f))
        elif kind == "parsed and-or":
            text = f"({('and', 'or')[i % 2]} (exists (x) (E x x)) {text})"
        else:
            f = (Exists if i % 2 == 0 else Forall)("x", f)
    c = classify(f)
    if kind == "and":
        # each conjunction lifts the sigma level by two
        assert (c.sigma_level, c.pi_level, c.rank) == (1801, 1802, 1)
        assert formula_size(f) == 3 + 5 * 900
    elif kind == "parsed and-or":
        # parse_formula renames the 900 bound x apart from the free one
        f = parse_formula(text, VE)
        c = classify(f)
        # each junction lifts its own level by one over its chain child
        assert (c.sigma_level, c.pi_level, c.rank) == (903, 902, 1)
        assert formula_size(f) == 3 + 5 * 900
    else:
        assert (c.sigma_level, c.pi_level, c.rank) == (901, 900, 900)
        assert formula_size(f) == 3 + 900
    assert c.block_uniform_k == 1 and block_uniform(f, 1)
    assert in_sigma(f, c.sigma_level) and not in_sigma(f, c.sigma_level - 1)


# The parser as it was before tokens came from one regex, kept verbatim as
# the reference for test_parser_matches_reference.
import re  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Optional  # noqa: E402

from fvkit.formula import NAME_RE, RESERVED_NAMES, alpha_normalize  # noqa: E402


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

    def formula(self):
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

    def atom(self, negated: bool):
        head = self.next("a relation name")
        return self.finish_atom(head, negated)

    def finish_atom(self, head: _Token, negated: bool):
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


def _ref_parse_formula(text: str, vocab: Vocabulary):
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    parser = _Parser(tokens, vocab, text)
    f = parser.formula()
    extra = parser.peek()
    if extra is not None:
        raise ParseError(f"trailing input {extra.text!r}", extra.line, extra.column)
    return alpha_normalize(f)


VT = Vocabulary({"E": 2, "U": 1, "<=": 2})
# Pieces of token soups: grammar words and fragments, relation names in and
# out of VT, and characters that are not tokens (a lone "<", digits,
# non-ASCII letters, NUL) or are whitespace other than " " and "\n".
_SOUP = ("(", ")", "(", ")", "and", "or", "not", "exists", "forall", "true",
         "false", "=", "<=", "<", "E", "U", "F", "x", "y", "x1", "_z", "1",
         "é", "\x00", "(exists (x y)", "(forall (x)", "(and", "(or",
         "(not", "(E x y)", "(U x)", "(= x y)", "(<= x y)", "(not (U y))")
_SPACES = (" ", " ", " ", "", "\n", "\r\n", "\t", "\x0b", "\x1c", " ",
           " ", "　", "  \n ")


def _parser_inputs(rng, formulas, count):
    """``count`` texts: token soups, and printed ``formulas`` re-wrapped in
    other whitespace, then either kept, truncated (sometimes with trailing
    whitespace) or mutated one token or character away."""
    texts = []
    for i in range(count):
        if i % 3 == 0:
            texts.append("".join(rng.choice(_SOUP) + rng.choice(_SPACES)
                                 for _ in range(rng.randint(0, 12))))
            continue
        text = print_formula(rng.choice(formulas))
        text = "".join(rng.choice(_SPACES) if ch == " " and
                       rng.random() < 0.3 else ch for ch in text)
        action = rng.randrange(4)
        if action == 1:
            text = text[:rng.randrange(len(text) + 1)] + \
                rng.choice(("", "", " ", "\n", " \n\t"))
        elif action == 2:
            words = re.findall(r"\(|\)|[^\s()]+|\s+", text)
            j = rng.randrange(len(words))
            pick = rng.randrange(4)
            if pick == 0:
                del words[j]
            elif pick == 1:
                words.insert(j, words[j])
            elif pick == 2:
                words[j] = rng.choice(_SOUP)
            else:
                words.append(" " + rng.choice(_SOUP))
            text = "".join(words)
        elif action == 3:
            j = rng.randrange(len(text) + 1)
            text = text[:j] + rng.choice(_SOUP + _SPACES) + text[j:]
        texts.append(text)
    return texts


def _outcome(parse, text, vocab):
    try:
        return parse(text, vocab)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


def test_parser_matches_reference():
    from random import Random

    from test_acceptance import formula_suite

    formulas = [f for _, _, f, _ in formula_suite(VE, count=200)]
    formulas += [random_formula(("sigma", "pi")[s % 2], 2, 3, VT,
                                free_vars=("v1", "v2")[:s % 3], seed=s)
                 for s in range(200)]
    texts = _parser_inputs(Random(12), formulas, 6000)
    texts += [print_formula(f) for f in formulas]
    seen = set()
    for text in texts:
        got = _outcome(parse_formula, text, VT)
        want = _outcome(_ref_parse_formula, text, VT)
        assert got == want, text
        seen.add(want[0] if type(want) is tuple else "ok")
    # successes and every kind of error occur
    for kind in ("ok", "unexpected character", "end of input", "trailing",
                 "empty input", "expected '('", "expected ')'", "unknown",
                 "expects", "negation", "relation name", "a variable",
                 "a formula"):
        assert any(kind in message for message in seen), kind
