"""CLI surface: subcommand output shapes and exit codes."""

import json

import pytest

from fvkit import Structure, Vocabulary, run, save_structure
from conftest import linear_order

VE = Vocabulary({"E": 2})


@pytest.fixture
def files(tmp_path):
    save_structure(linear_order(5), str(tmp_path / "L5.json"))
    save_structure(linear_order(4, prefix="b"), str(tmp_path / "L4.json"))
    loop = Structure(VE, ("a",), {"E": frozenset({("a", "a")})})
    save_structure(loop, str(tmp_path / "loop.json"))
    edgeless = Structure(VE, ("b",), {"E": frozenset()})
    save_structure(edgeless, str(tmp_path / "edgeless.json"))
    structs = tmp_path / "structs"
    structs.mkdir()
    vu = Vocabulary({"U": 1})
    save_structure(Structure(vu, ("a",), {"U": frozenset()}),
                   str(structs / "s1.json"))
    save_structure(Structure(vu, ("a",), {"U": frozenset({("a",)})}),
                   str(structs / "s2.json"))
    return tmp_path


def test_classify(capsys):
    assert run(["classify", "--formula", "(exists (z) (E z z))",
                "--vocab", '{"E": 2}']) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"sigma_level": 1, "pi_level": 2, "rank": 1,
                   "block_uniform_k": 1}


def test_game(files, capsys):
    code = run(["game", "--mode", "prefix", "--n", "3", "--k", "1",
                "--left", str(files / "L5.json"),
                "--right", str(files / "L4.json")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "spoiler"
    run(["game", "--mode", "tree", "--n", "2", "--k", "1",
         "--left", str(files / "L5.json"), "--right", str(files / "L4.json")])
    assert capsys.readouterr().out.strip() == "duplicator"


@pytest.mark.parametrize("k", [5000, 10 ** 9])
@pytest.mark.parametrize("mode", ["prefix", "tree"])
def test_game_tuple_larger_than_board(files, capsys, mode, k):
    # a move never needs more elements than its board has
    for right, winner in (("loop.json", "duplicator"),
                          ("edgeless.json", "spoiler")):
        assert run(["game", "--mode", mode, "--n", "2", "--k", str(k),
                    "--left", str(files / "loop.json"),
                    "--right", str(files / right)]) == 0
        assert capsys.readouterr().out.strip() == winner


def test_eval(files, capsys):
    assert run(["eval", "--structure", str(files / "loop.json"),
                "--formula", "(exists (z) (E z z))"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["eval", "--structure", str(files / "edgeless.json"),
                "--structure", str(files / "loop.json"),
                "--op", "disjoint-union",
                "--formula", "(exists (z) (E z z))"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_eval_with_assignment(files, tmp_path, capsys):
    asg = tmp_path / "asg.json"
    asg.write_text('{"x": "a"}')
    assert run(["eval", "--structure", str(files / "loop.json"),
                "--formula", "(E x x)", "--assign", str(asg)]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_decompose_stdout_and_file(files, capsys, tmp_path):
    args = ["decompose", "--formula", "(exists (z) (E z z))",
            "--vocab", '{"E": 2}']
    assert run(args) == 0
    first = capsys.readouterr().out
    data = json.loads(first)
    assert data["delta1"] == ["(exists (z) (E z z))", "true"]
    assert data["stats"]["factor_count_1"] == 2
    assert run(args) == 0
    assert capsys.readouterr().out == first  # byte-identical reruns
    out = tmp_path / "d.json"
    assert run(args + ["--out", str(out)]) == 0
    assert json.loads(out.read_text()) == data


def test_decompose_with_op_and_simplify(capsys):
    assert run(["decompose", "--formula", "(exists (z) (E z z))",
                "--op", "disjoint-union", "--simplify"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["partition"] == {"left": [], "right": []}


def test_transform(tmp_path, capsys):
    xi = tmp_path / "xi.json"
    xi.write_text(json.dumps({
        "source_vocabulary": {"E": 2}, "target_vocabulary": {"E": 2},
        "universe_formula": "true",
        "relation_formulas": {"E": "(not (E y1 y2))"}}))
    assert run(["transform", "--interp", str(xi),
                "--formula", "(exists (z) (and (E z z)))"]) == 0
    assert capsys.readouterr().out.strip() == \
        "(exists (z) (and true (and (not (E z z)) true true)))"


def test_transform_deep_alternating_junctions(tmp_path, capsys):
    # as deep as classify and decompose accept: one frame per and/or level
    xi = tmp_path / "xi.json"
    xi.write_text(json.dumps({
        "source_vocabulary": {"E": 2}, "target_vocabulary": {"E": 2},
        "universe_formula": "true", "relation_formulas": {"E": "(E y1 y2)"}}))
    heads = ["(and " if i % 2 == 0 else "(or " for i in range(700)]
    text = "".join(h + "(E x x) " for h in heads) + "(E x x)" + ")" * 700
    assert run(["transform", "--interp", str(xi), "--formula", text]) == 0
    lit = "(and (E x x) true true)"
    assert capsys.readouterr().out == \
        "".join(h + lit + " " for h in heads) + lit + ")" * 700 + "\n"


def test_enumerate(files, capsys):
    args = ["enumerate", "--class", "sigma", "--n", "1", "--k", "1",
            "--structures", str(files / "structs")]
    assert run(args) == 0
    first = capsys.readouterr().out
    lines = first.strip().splitlines()
    assert len(lines) == 4
    assert all(line.split(maxsplit=1)[0].startswith("0x") for line in lines)
    assert any("(exists (z1) (U z1))" in line for line in lines)
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_count_check(files, capsys):
    assert run(["count-check", "--n", "0", "--m", "0", "--t", "1",
                "--vocab", '{"U": 1}',
                "--structures", str(files / "structs")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 4 and out["bound"] == 16 and out["ok"] is True


@pytest.mark.parametrize("n,m,expr", [(0, 2, "tower(2, 18)"),
                                        (1, 0, "tower(3, 4)")])
def test_count_check_bound_past_printable_size(tmp_path, capsys, n, m, expr):
    # 2**(2**18) and 2**(2**16) pass the 4,300 digits Python prints
    structs = tmp_path / "structs"
    structs.mkdir()
    save_structure(Structure(VE, ("a", "b"), {"E": frozenset({("a", "b")})}),
                   str(structs / "s.json"))
    assert run(["count-check", "--n", str(n), "--m", str(m), "--t", "1",
                "--vocab", '{"E": 2}', "--structures", str(structs)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bound"] is None and out["bound_expr"] == expr
    assert out["ok"] is True


def test_check_decomposition(files, capsys):
    assert run(["check-decomposition", "--formula", "(exists (z) (E z z))",
                "--op", "disjoint-union", "--max-size", "2"]) == 0
    assert run(["check-decomposition", "--random", "sigma,n=1,m=2",
                "--op", "ordered-sum", "--max-size", "2", "--trials", "25",
                "--seed", "3"]) == 0


def test_check_decomposition_formula_trials(capsys):
    assert run(["check-decomposition", "--formula",
                "(forall (z) (or (E v z) (exists (w) (E w v))))",
                "--op", "join", "--max-size", "3", "--trials", "40",
                "--seed", "5"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("mode", [[], ["--trials", "5"], None],
                         ids=["exhaustive", "trials", "random"])
def test_check_decomposition_reports_a_disagreement(mode, monkeypatch,
                                                    capsys):
    from fvkit import cli

    real = cli.eval_reduction
    monkeypatch.setattr(cli, "eval_reduction",
                        lambda *args: not real(*args))
    argv = ["check-decomposition", "--op", "disjoint-union",
            "--max-size", "2"]
    if mode is None:
        argv += ["--random", "sigma,n=1,m=2", "--trials", "5"]
    else:
        argv += ["--formula", "(exists (z) (E z v))"] + mode
    assert run(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    bad = json.loads(lines[0])
    assert list(bad) == ["formula", "left", "right", "left_tuple",
                         "right_tuple", "sum_value", "reduction_value"]
    assert bad["sum_value"] is not bad["reduction_value"]


@pytest.mark.parametrize("argv, message", [
    (["--random", "sigma", "--trials", "1", "--max-size", "0"],
     "--max-size must be at least 1"),
    (["--random", "sigma,n=\u00b2"], "bad --random component 'n=\u00b2'"),
    (["--formula", "(E x x)", "--max-size", "0"],
     "--max-size must be at least 1"),
    (["--formula", "(E x x)", "--trials", "-3"],
     "--trials must be at least 1"),
    (["--random", "pi", "--trials", "0"], "--trials must be at least 1"),
], ids=["random-size-0", "superscript-digit", "formula-size-0",
        "negative-trials", "zero-trials"])
def test_check_decomposition_rejects_empty_checks(argv, message, capsys):
    # each would otherwise end in a traceback, whose exit 1 reads as a
    # violated property, or pass without a single check
    assert run(["check-decomposition", "--op", "disjoint-union"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_bool_arity_is_an_input_error(files, tmp_path, capsys):
    assert run(["classify", "--formula", "(E x y)",
                "--vocab", '{"E": true}']) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and \
        captured.err == "error: bad arity for 'E': True\n"
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"vocabulary": {"E": True}, "universe": ["a"],
                                "relations": {"E": [["a"]]}}))
    assert run(["eval", "--structure", str(path),
                "--formula", "(exists (z) (E z))"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and \
        captured.err == "error: bad arity for 'E': True\n"


def test_check_decomposition_exhaustive_cap(monkeypatch, capsys):
    from fvkit import cli

    # 530 structures of at most 3 elements, pointed on each side: the
    # exhaustive space passes the cap, which holds however fast checks are
    monkeypatch.setattr(cli, "_check_one", lambda *args: None)
    assert run(["check-decomposition", "--formula", "(E v w)",
                "--op", "disjoint-union", "--max-size", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "inconclusive: exhaustive check too large; use --trials\n")


def test_usage_errors(files, capsys):
    assert run(["eval", "--structure", "nosuch.json",
                "--formula", "true"]) == 2
    assert run(["eval", "--structure", str(files / "loop.json"),
                "--formula", "(E x"]) == 2
    assert run(["decompose", "--formula", "true", "--op", "frobnicate"]) == 2
    assert run(["decompose", "--formula", "true"]) == 2  # missing --vocab
    assert run(["game", "--mode", "prefix", "--n", "1", "--k", "1",
                "--left", str(files / "loop.json"),
                "--right", str(files / "structs" / "s1.json")]) == 2
    assert run(["nosuchcommand"]) == 2


@pytest.mark.parametrize("params, message", [
    ([1, 2], "operation parameters must be an object, got [1, 2]"),
    ({"r": "x"}, "nlc-sum needs an int r >= 1, got 'x'"),
    ({"r": 2, "links": [[1]]}, "nlc-sum link [1] is not a pair of ints"),
    ({"r": True}, "nlc-sum needs an int r >= 1, got True"),
    ({"r": 2, "links": 5}, "nlc-sum links must be a list, got 5"),
], ids=["list", "string-r", "one-element-link", "bool-r", "number-links"])
def test_bad_nlc_sum_parameters_are_input_errors(params, message, tmp_path,
                                                 capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    assert run(["decompose", "--formula", "(exists (z) (E z z))",
                "--op", f"nlc-sum:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("change", [
    {"relation_formulas": ["(E y1 y2)"]}, {"universe_formula": 5},
    {"relation_formulas": {"E": ["E", "y1", "y2"]}},
], ids=["list-relation-formulas", "number-universe", "list-formula"])
def test_bad_interpretation_json_is_an_input_error(change, tmp_path, capsys):
    xi = tmp_path / "xi.json"
    xi.write_text(json.dumps({
        "source_vocabulary": {"E": 2}, "target_vocabulary": {"E": 2},
        "universe_formula": "true",
        "relation_formulas": {"E": "(E y1 y2)"}} | change))
    assert run(["transform", "--interp", str(xi),
                "--formula", "(exists (z) (E z z))"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "must be" in captured.err


def test_eval_rejects_string_universe(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vocabulary": {"U": 1}, "universe": "ab",
                                "relations": {}}))
    assert run(["eval", "--structure", str(path),
                "--formula", "(exists (z) (U z))"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_eval_rejects_unknown_structure_key(tmp_path, capsys):
    # a misspelt "relations" would otherwise load as a board with no rows
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"vocabulary": {"U": 1}, "universe": ["a"],
                                "relation": {"U": [["a"]]}}))
    assert run(["eval", "--structure", str(path),
                "--formula", "(exists (z) (U z))"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["classify", "--formula",
     "(exists (x) " * 1500 + "(E x x)" + ")" * 1500, "--vocab", '{"E": 2}'],
    ["decompose", "--formula",
     "(and (E x x) " * 800 + "(E x x)" + ")" * 800, "--vocab", '{"E": 2}',
     "--left", "x"],
], ids=["classify-1500-exists", "decompose-800-and"])
def test_deep_input_is_an_input_error(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_decompose_deep_alternating_junctions(capsys):
    # the engine takes two frames per quantifier-free and/or level
    heads = ["(or " if i % 2 == 0 else "(and " for i in range(450)]
    body = "".join(h + "(E x x) " for h in heads) + "(E x x)" + ")" * 450
    assert run(["decompose", "--vocab", '{"E": 2}',
                "--formula", f"(exists (x) {body})"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["delta1"] and captured.err == ""


def test_cap_exit_code(files, capsys):
    code = run(["enumerate", "--class", "sigma", "--n", "2", "--k", "2",
                "--structures", str(files / "structs"),
                "--max-classes", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "inconclusive" in err
