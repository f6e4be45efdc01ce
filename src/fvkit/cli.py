"""Command-line front end.

Subcommands tie the library into reproducible shell commands: classify,
decompose, transform, eval, check-decomposition, game, enumerate,
count-check.  Exit codes: 0 success / property holds, 1 property
violation (counterexample printed as JSON), 2 usage or input error, 3 cap or
budget exceeded (inconclusive).  All randomized commands are seeded and every
iteration order is fixed, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

from .decompose import (VarPartition, decompose, decompose_over_op,
                        eval_reduction, reduction_to_json, simplify_reduction)
from .efgame import GameConfig, prefix_game_winner, tree_prefix_game_winner
from .enumeration import (DEFAULT_MAX_CLASSES, TestBed, count_bound_check,
                          enumerate_classes)
from .errors import BudgetExceeded, CapExceeded, FvError, ValidationError
from .formula import (Vocabulary, classify, free_variables, parse_formula,
                      print_formula, random_formula, vocabulary_from_json)
from .interp import (SumLikeOp, apply_sum_like, builtin, load_interpretation,
                     transform_formula)
from .modelcheck import assignment_from_json, evaluate
from .structure import Structure, load_structure, structure_to_json


def _load_vocab(spec: str) -> Vocabulary:
    """Vocabulary from inline JSON (tried first) or a file path."""
    try:
        data = json.loads(spec)
    except json.JSONDecodeError:
        with open(spec) as fh:
            data = json.load(fh)
    return vocabulary_from_json(data)


def _split_csv(spec: str | None) -> tuple[str, ...]:
    if not spec:
        return ()
    return tuple(part for part in spec.split(",") if part)


def _resolve_op(spec: str, vocab_hint: Vocabulary | None = None) -> SumLikeOp:
    """Builtin operation by name; nlc-sum takes its parameters from a file
    (``nlc-sum:params.json``).  When structures are at hand their vocabulary
    parameterizes the pass-through operations."""
    if spec.startswith("nlc-sum:"):
        with open(spec.split(":", 1)[1]) as fh:
            return builtin("nlc-sum", json.load(fh))
    if spec == "nlc-sum":
        raise ValidationError("nlc-sum needs a parameter file: nlc-sum:<file>")
    params = None
    if vocab_hint is not None:
        rels = dict(vocab_hint.relations)
        if spec == "disjoint-union":
            params = {"vocabulary": rels}
        elif spec == "ordered-sum":
            rels.pop("<=", None)
            params = {"extra": rels}
    return builtin(spec, params)


def _load_structure_dir(path: str) -> tuple[Structure, ...]:
    names = sorted(n for n in os.listdir(path) if n.endswith(".json"))
    if not names:
        raise ValidationError(f"no .json structures under {path!r}")
    return tuple(load_structure(os.path.join(path, n)) for n in names)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_classify(args) -> int:
    vocab = _load_vocab(args.vocab)
    c = classify(parse_formula(args.formula, vocab))
    print(json.dumps({"sigma_level": c.sigma_level, "pi_level": c.pi_level,
                      "rank": c.rank, "block_uniform_k": c.block_uniform_k}))
    return 0


def _cmd_decompose(args) -> int:
    partition = VarPartition(_split_csv(args.left), _split_csv(args.right))
    if args.op and args.interp:
        raise ValidationError("--op and --interp are mutually exclusive")
    if args.op or args.interp:
        op = _resolve_op(args.op) if args.op else \
            SumLikeOp("custom", load_interpretation(args.interp))
        f = parse_formula(args.formula, op.interp.target_vocab)
        d = decompose_over_op(f, op, partition)
    else:
        if not args.vocab:
            raise ValidationError("--vocab is required without --op/--interp")
        f = parse_formula(args.formula, _load_vocab(args.vocab))
        d = decompose(f, partition)
    if args.simplify:
        d = simplify_reduction(d)
    text = json.dumps(reduction_to_json(d), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_transform(args) -> int:
    xi = load_interpretation(args.interp)
    f = parse_formula(args.formula, xi.target_vocab)
    print(print_formula(transform_formula(xi, f)))
    return 0


def _cmd_eval(args) -> int:
    structures = [load_structure(p) for p in args.structure]
    if len(structures) == 2:
        if not args.op:
            raise ValidationError("an --op is required with two structures")
        op = _resolve_op(args.op, structures[0].vocab)
        model = apply_sum_like(op, structures[0], structures[1])
    elif len(structures) == 1:
        if args.op:
            raise ValidationError("--op needs two --structure files")
        model = structures[0]
    else:
        raise ValidationError("pass one or two --structure files")
    f = parse_formula(args.formula, model.vocab)
    asg = {}
    if args.assign:
        with open(args.assign) as fh:
            asg = assignment_from_json(json.load(fh))
    print("true" if evaluate(model, f, asg) else "false")
    return 0


def _cmd_game(args) -> int:
    config = GameConfig(args.n, args.k)
    a = load_structure(args.left)
    b = load_structure(args.right)
    at = _split_csv(args.left_tuple)
    bt = _split_csv(args.right_tuple)
    if args.mode == "prefix":
        winner = prefix_game_winner(config, a, at, b, bt)
    else:
        winner = tree_prefix_game_winner(config, a, at, b, bt)
    print(winner.value)
    return 0


def _cmd_enumerate(args) -> int:
    bed = TestBed(_load_structure_dir(args.structures), _split_csv(args.vars))
    for c in enumerate_classes(args.cls, args.n, args.k, bed,
                               args.max_classes):
        print(f"0x{c.bits:x} {print_formula(c.representative)}")
    return 0


def _cmd_count_check(args) -> int:
    vocab = _load_vocab(args.vocab)
    ctx = tuple(f"x{i + 1}" for i in range(args.t))
    bed = TestBed(_load_structure_dir(args.structures), ctx)
    result = count_bound_check(args.n, args.m, args.t, vocab, bed,
                               args.max_classes)
    print(json.dumps(result))
    return 0 if result["ok"] else 1


# ---------------------------------------------------------------------------
# Randomized decomposition cross-check


def _random_structure(vocab: Vocabulary, size: int, rng) -> Structure:
    universe = tuple(f"e{i + 1}" for i in range(size))
    rels = {}
    for name, arity in vocab.relations.items():
        space = itertools.product(universe, repeat=arity)
        rels[name] = frozenset(t for t in space if rng.random() < 0.5)
    return Structure(vocab, universe, rels)


def _all_structures(vocab: Vocabulary, max_size: int, cap: int):
    total = 0
    for size in range(1, max_size + 1):
        bits = sum(size ** ar for ar in vocab.relations.values())
        total += 2 ** bits
        if total > cap:
            raise CapExceeded(
                "exhaustive structure space too large; use --trials")
    for size in range(1, max_size + 1):
        universe = tuple(f"e{i + 1}" for i in range(size))
        spaces = [(name, list(itertools.product(universe, repeat=ar)))
                  for name, ar in vocab.relations.items()]
        choices = [[frozenset(c) for r in range(len(space) + 1)
                    for c in itertools.combinations(space, r)]
                   for _, space in spaces]
        for combo in itertools.product(*choices):
            rels = {name: chosen
                    for (name, _), chosen in zip(spaces, combo)}
            yield Structure(vocab, universe, rels)


def _merged_assignment(partition: VarPartition, a_tuple, b_tuple) -> dict:
    asg = {v: f"L:{e}" for v, e in zip(partition.left, a_tuple)}
    asg.update({v: f"R:{e}" for v, e in zip(partition.right, b_tuple)})
    return asg


def _check_one(op, f, d, partition, a, b, a_tuple, b_tuple) -> dict | None:
    direct = evaluate(apply_sum_like(op, a, b), f,
                      _merged_assignment(partition, a_tuple, b_tuple))
    reduced = eval_reduction(d, a, b, a_tuple, b_tuple)
    if direct == reduced:
        return None
    return {"formula": print_formula(f),
            "left": structure_to_json(a), "right": structure_to_json(b),
            "left_tuple": list(a_tuple), "right_tuple": list(b_tuple),
            "sum_value": direct, "reduction_value": reduced}


def _parse_random_spec(spec: str) -> tuple[str, int, int]:
    parts = [p.strip() for p in spec.split(",")]
    if not parts or parts[0] not in ("sigma", "pi"):
        raise ValidationError(f"bad --random spec {spec!r}; "
                              "expected e.g. \"sigma,n=2,m=3\"")
    values = {"n": 1, "m": 2}
    for part in parts[1:]:
        key, _, val = part.partition("=")
        if key not in values or not val.isdecimal():
            raise ValidationError(f"bad --random component {part!r}")
        values[key] = int(val)
    return parts[0], values["n"], values["m"]


def _random_pair(vocab: Vocabulary, partition: VarPartition, max_size: int,
                 rng) -> tuple:
    a = _random_structure(vocab, rng.randint(1, max_size), rng)
    b = _random_structure(vocab, rng.randint(1, max_size), rng)
    return (a, b, tuple(rng.choice(a.universe) for _ in partition.left),
            tuple(rng.choice(b.universe) for _ in partition.right))


def _decomposition_cases(args, op: SumLikeOp, rng):
    """``(f, d, partition, a, b, a_tuple, b_tuple)`` for every check: all
    structure pairs and tuples up to ``--max-size`` for ``--formula`` alone
    (at most 1,000,000 of them), else ``--trials`` random draws."""
    vocab = op.interp.target_vocab
    if not args.formula:
        cls, n, m = _parse_random_spec(args.random)
        for trial in range(100 if args.trials is None else args.trials):
            fv = ("v1", "v2")[:trial % 3]
            partition = VarPartition(fv[:1], fv[1:2])
            f = random_formula(cls, n, m, vocab, free_vars=fv,
                               seed=rng.randrange(2 ** 30))
            yield (f, decompose_over_op(f, op, partition), partition,
                   *_random_pair(vocab, partition, args.max_size, rng))
        return
    f = parse_formula(args.formula, vocab)
    fv = free_variables(f)
    partition = VarPartition(fv[0::2], fv[1::2])
    d = decompose_over_op(f, op, partition)
    if args.trials is not None:
        for _ in range(args.trials):
            yield (f, d, partition,
                   *_random_pair(vocab, partition, args.max_size, rng))
        return
    shapes = list(_all_structures(vocab, args.max_size, cap=2000))
    checks = 0
    for a, b in itertools.product(shapes, repeat=2):
        for a_tuple in itertools.product(a.universe,
                                         repeat=len(partition.left)):
            for b_tuple in itertools.product(b.universe,
                                             repeat=len(partition.right)):
                checks += 1
                if checks > 1_000_000:
                    raise CapExceeded(
                        "exhaustive check too large; use --trials")
                yield f, d, partition, a, b, a_tuple, b_tuple


def _cmd_check_decomposition(args) -> int:
    if bool(args.formula) == bool(args.random):
        raise ValidationError("pass exactly one of --formula / --random")
    if args.max_size < 1:
        raise ValidationError("--max-size must be at least 1")
    if args.trials is not None and args.trials < 1:
        raise ValidationError("--trials must be at least 1")
    op = _resolve_op(args.op)
    for case in _decomposition_cases(args, op, random.Random(args.seed)):
        bad = _check_one(op, *case)
        if bad is not None:
            print(json.dumps(bad))
            return 1
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvkit",
        description="Decompositions and prefix games on finite structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print a formula's prefix levels")
    p.add_argument("--formula", required=True)
    p.add_argument("--vocab", required=True,
                   help="relation arities as inline JSON or a file path")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("decompose",
                       help="reduction sequence for a formula over a sum")
    p.add_argument("--formula", required=True)
    p.add_argument("--vocab", help="vocabulary when decomposing directly "
                                   "over the marked union")
    p.add_argument("--left", help="comma-separated left-component variables")
    p.add_argument("--right", help="comma-separated right-component variables")
    p.add_argument("--op", help="builtin operation name")
    p.add_argument("--interp", help="interpretation JSON file")
    p.add_argument("--simplify", action="store_true")
    p.add_argument("--out", help="write the reduction JSON here")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("transform",
                       help="rewrite a formula through an interpretation")
    p.add_argument("--interp", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("eval", help="model-check a formula")
    p.add_argument("--structure", action="append", required=True,
                   help="structure JSON file (twice with --op)")
    p.add_argument("--op", help="combine two structures first")
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", help="assignment JSON file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check-decomposition",
                       help="cross-check reductions against direct evaluation")
    p.add_argument("--formula")
    p.add_argument("--random", help="generator spec, e.g. \"sigma,n=2,m=3\"")
    p.add_argument("--op", required=True)
    p.add_argument("--max-size", type=int, default=2)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_decomposition)

    p = sub.add_parser("game", help="solve a prefix or tree-prefix game")
    p.add_argument("--mode", choices=("prefix", "tree"), required=True)
    p.add_argument("--n", type=int, required=True, help="number of rounds")
    p.add_argument("--k", type=int, required=True, help="tuple size per round")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--left-tuple", help="comma-separated starting elements")
    p.add_argument("--right-tuple")
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("enumerate", help="semantic classes over a test bed")
    p.add_argument("--class", dest="cls", choices=("sigma", "pi"),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--structures", required=True,
                   help="directory of structure JSON files")
    p.add_argument("--vars", help="comma-separated context variables")
    p.add_argument("--max-classes", type=int, default=DEFAULT_MAX_CLASSES)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("count-check",
                       help="class count vs the tower bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--structures", required=True)
    p.add_argument("--max-classes", type=int, default=DEFAULT_MAX_CLASSES)
    p.set_defaults(func=_cmd_count_check)

    return parser


def run(argv) -> int:
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CapExceeded, BudgetExceeded) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except (FvError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
