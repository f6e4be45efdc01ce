"""Seeded fuzzing of the CLI's exit-code contract.

Every case drives ``fvkit.cli.run`` in-process on inputs made by mutating
valid structure, assignment, interpretation, nlc-sum and vocabulary JSON and
formula text, and by drawing ``--n``/``--k``/``--m``/``--t``/
``--max-classes`` out of range.  Each must end in exit 0, 1, 2 or 3 with no
exception escaping ``run``.  The seed and the case count are fixed, so the
cases are the same on every run.  Work is bounded by input size, not by
timers: boards have at most two elements and formulas a handful of nodes,
numeric options stay small where they set the size of a search (a game's
``--k`` may be huge: a move never has more elements than its board), and a
large class cap comes only with a shallow level.
"""

import json
import random

from fvkit import run

SEED = 20261020
CASES = 450

E2 = {"E": 2}
NLC = {"E": 2, "Q1": 1, "Q2": 1}
BOARDS = {
    "E": [{"vocabulary": E2, "universe": ["a"], "relations": {"E": [["a", "a"]]}},
          {"vocabulary": E2, "universe": ["a", "b"],
           "relations": {"E": [["a", "b"]]}}],
    "U": [{"vocabulary": {"U": 1}, "universe": ["c"], "relations": {"U": []}},
          {"vocabulary": {"U": 1}, "universe": ["c", "d"],
           "relations": {"U": [["d"]]}}],
    "NLC": [{"vocabulary": NLC, "universe": ["p", "q"],
             "relations": {"E": [["p", "q"]], "Q1": [["p"]], "Q2": [["q"]]}},
            {"vocabulary": NLC, "universe": ["r"],
             "relations": {"E": [], "Q1": [], "Q2": [["r"]]}}],
}
FORMULAS = {
    "E": ["(exists (z) (E z z))", "(E x y)", "(forall (z) (or (E x z) (= x z)))"],
    "U": ["(U x)", "(exists (z) (and (U z) (not (= z x))))", "true"],
    "NLC": ["(exists (z) (and (Q1 z) (E x z)))", "(Q2 x)", "(E x y)"],
}
INTERP = {"source_vocabulary": {"E": 2, "P": 1}, "target_vocabulary": E2,
          "universe_formula": "true",
          "relation_formulas": {"E": "(or (E y1 y2) (and (P y1) (not (P y2))))"}}
NLC_PARAMS = {"r": 2, "links": [[1, 2]]}
ASSIGNMENT = {"x": "a", "y": "b"}
SUM_ASSIGNMENT = {"x": "L:p", "y": "R:r"}

# replacement values; the integers stay small, since some of them size a
# vocabulary or a search
ODD = [None, True, False, -1, 0, 1, 2, 3, 1.5, "", "a", "E", "x", "(E x x)",
       "((", [], [[]], [["a"]], [["a", "a", "a"]], {}, {"E": 2}, {"E": -1},
       {"": 1}, {"U": "1"}]


def mutate(value, rng):
    """``value`` with one random edit somewhere inside it."""
    if isinstance(value, dict) and value and rng.random() < 0.8:
        out = dict(value)
        key = rng.choice(sorted(out))
        roll = rng.random()
        if roll < 0.2:
            del out[key]
        elif roll < 0.3:
            out[key + "2"] = rng.choice(ODD)
        else:
            out[key] = mutate(out[key], rng)
        return out
    if isinstance(value, list) and value and rng.random() < 0.8:
        out = list(value)
        i = rng.randrange(len(out))
        roll = rng.random()
        if roll < 0.2:
            del out[i]
        elif roll < 0.35:
            out.append(out[i])
        else:
            out[i] = mutate(out[i], rng)
        return out
    if isinstance(value, str) and value and rng.random() < 0.5:
        return mutate_text(value, rng)
    return rng.choice(ODD)


def mutate_text(text, rng):
    """Drop, repeat or replace one character or token of ``text``."""
    i = rng.randrange(len(text))
    roll = rng.random()
    if roll < 0.3:
        return text[:i] + text[i + 1:]
    if roll < 0.6:
        return text[:i] + text[i] * rng.randint(2, 4) + text[i + 1:]
    return text[:i] + rng.choice(["(", ")", " ", "x", "z", "not", "E", "@"]) \
        + text[i + 1:]


def json_text(value, rng, edits):
    """``value`` as JSON text with up to ``edits`` edits, made to one input in
    three; now and then the text itself is garbled."""
    for _ in range(rng.randint(1, edits) if rng.random() < 0.3 else 0):
        value = mutate(value, rng)
    text = json.dumps(value)
    if rng.random() < 0.05:
        text = mutate_text(text, rng)
    return text


def out_of_range(rng, high=2):
    return rng.choice([-1, 0, 1, high, high])


class Case:
    def __init__(self, rng, tmp_path, index):
        self.rng = rng
        self.dir = tmp_path / f"case{index}"
        self.dir.mkdir()
        self.files = 0

    def file(self, value, edits=2):
        self.files += 1
        path = self.dir / f"f{self.files}.json"
        path.write_text(json_text(value, self.rng, edits))
        return str(path)

    def board_dir(self, vocab):
        path = self.dir / "boards"
        path.mkdir()
        for i in range(self.rng.randint(1, 2)):
            board = self.rng.choice(BOARDS[vocab])
            (path / f"s{i}.json").write_text(json_text(board, self.rng, 1))
        return str(path)

    def formula(self, vocab):
        text = self.rng.choice(FORMULAS[vocab])
        return mutate_text(text, self.rng) if self.rng.random() < 0.2 else text


def classify_args(c):
    vocab = c.rng.choice(["E", "U"])
    return ["classify", "--formula", c.formula(vocab),
            "--vocab", json_text({"E": E2, "U": {"U": 1}}[vocab], c.rng, 1)]


def eval_args(c):
    vocab = c.rng.choice(["E", "U"])
    args = ["eval", "--structure", c.file(c.rng.choice(BOARDS[vocab])),
            "--formula", c.formula(vocab)]
    if c.rng.random() < 0.7:
        args += ["--assign", c.file(ASSIGNMENT)]
    return args


def eval_sum_args(c):
    left, right = c.rng.choice(BOARDS["NLC"]), c.rng.choice(BOARDS["NLC"])
    return ["eval", "--structure", c.file(left, 1), "--structure",
            c.file(right, 1), "--op", "nlc-sum:" + c.file(NLC_PARAMS),
            "--formula", c.formula("NLC"), "--assign", c.file(SUM_ASSIGNMENT, 1)]


def transform_args(c):
    return ["transform", "--interp", c.file(INTERP), "--formula",
            c.formula("E")]


def decompose_args(c):
    op = (["--interp", c.file(INTERP)] if c.rng.random() < 0.5
          else ["--op", "nlc-sum:" + c.file(NLC_PARAMS)])
    return ["decompose", "--formula", c.formula("E"), *op,
            "--left", c.rng.choice(["x", "", "x,y", "q"]),
            "--right", c.rng.choice(["y", "", "x"])]


def check_args(c):
    args = ["check-decomposition", "--formula", c.formula("NLC"),
            "--op", "nlc-sum:" + c.file(NLC_PARAMS),
            "--max-size", str(out_of_range(c.rng, high=1))]
    if c.rng.random() < 0.7:  # exhaustive beyond one element is slow
        args += ["--trials", str(out_of_range(c.rng, high=3))]
    return args


def game_args(c):
    vocab = c.rng.choice(["E", "U"])
    left, right = c.rng.choice(BOARDS[vocab]), c.rng.choice(BOARDS[vocab])
    return ["game", "--mode", c.rng.choice(["prefix", "tree"]),
            "--n", str(out_of_range(c.rng, high=3)),
            "--k", str(out_of_range(c.rng, high=10 ** 9)),
            "--left", c.file(left), "--right", c.file(right),
            "--left-tuple", c.rng.choice(["", "", "a", "c,d", "zz"]),
            "--right-tuple", c.rng.choice(["", "", "b", "c", "a,a"])]


def class_cap(c, shallow):
    # a large cap lets the closure run, so it comes only with a shallow level
    caps = [-1, 0, 1, 500] + ([10 ** 18] if shallow else [])
    return ["--max-classes", str(c.rng.choice(caps))]


def enumerate_args(c):
    n, k = out_of_range(c.rng), out_of_range(c.rng)
    return ["enumerate", "--class", c.rng.choice(["sigma", "pi"]),
            "--n", str(n), "--k", str(k),
            "--structures", c.board_dir(c.rng.choice(["E", "U"])),
            "--vars", c.rng.choice(["", "", "x", "x,y", "x,x", "1"]),
            *class_cap(c, n + k <= 2)]


def count_args(c):
    n, m = out_of_range(c.rng), out_of_range(c.rng)
    vocab = c.rng.choice(["E", "U"])
    return ["count-check", "--n", str(n), "--m", str(m),
            "--t", str(out_of_range(c.rng)),
            "--vocab", json_text({"E": E2, "U": {"U": 1}}[vocab], c.rng, 1),
            "--structures", c.board_dir(vocab), *class_cap(c, n + m <= 2)]


SHAPES = [classify_args, eval_args, eval_sum_args, transform_args,
          decompose_args, check_args, game_args, enumerate_args, count_args]


def test_cli_exit_codes_under_fuzzing(tmp_path, capsys):
    rng = random.Random(SEED)
    codes = {}
    for index in range(CASES):
        shape = SHAPES[index % len(SHAPES)]
        args = shape(Case(rng, tmp_path, index))
        code = run(args)  # an exception escaping run fails the test here
        assert code in (0, 1, 2, 3), args
        codes.setdefault(shape.__name__, set()).add(code)
        capsys.readouterr()
    # the mutations reach past the input checks: every shape succeeds at
    # least once and is refused at least once
    for name, seen in codes.items():
        assert 0 in seen and 2 in seen, (name, seen)
