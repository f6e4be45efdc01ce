"""Bad input to the library raises ValidationError with a message that
names the fault, never a bare exception from deep inside a kernel."""

import pytest

from fvkit import (MARK, TOP, And, Interpretation, Literal, PVar,
                   ReductionSequence, Structure, SumLikeOp, TestBed,
                   ValidationError, VarPartition, Vocabulary,
                   annotated_disjoint_union, apply_interpretation, builtin,
                   enumerate_classes, normalize_pairs, tower,
                   transfer_oracle, transform_formula)
from fvkit.formula import relations_used

VE = Vocabulary({"E": 2})
VU = Vocabulary({"U": 1})
LOOP = Structure(VE, ("a",), {"E": frozenset({("a", "a")})})
MARKED = Structure(VU, ("a",), {"U": frozenset({("a",)})})
EDGE = Literal(True, "E", ("y1", "y2"))
# the identity on {E: 2} structures
IDENTITY = Interpretation(VE, VE, TOP, {"E": EDGE})
NO_FACTORS = ReductionSequence((), (), TOP, VarPartition((), ()), VE)

CASES = {
    "beta-beyond-delta": (
        lambda: ReductionSequence((), (), PVar(0, 1), VarPartition((), ()),
                                  VE),
        "beta references factor (0, 1) beyond delta1"),
    "normalize-mode": (lambda: normalize_pairs(NO_FACTORS, "tau"),
                       "mode must be 'sigma' or 'pi'"),
    "negative-tower": (lambda: tower(-1, 2), "tower arguments must be >= 0"),
    "empty-bed": (lambda: TestBed(()), "empty test bed"),
    "enumerate-mode": (
        lambda: enumerate_classes("tau", 1, 1, TestBed((LOOP,))),
        "mode must be 'sigma' or 'pi'"),
    "oracle-vocabularies": (
        lambda: transfer_oracle(1, 1, LOOP, (), MARKED, ()),
        "vocabulary mismatch"),
    "oracle-anchors": (
        lambda: transfer_oracle(1, 1, LOOP, ("a",), LOOP, ()),
        "anchor tuples must have equal length"),
    "reserved-relation": (lambda: Vocabulary({"and": 2}),
                          "reserved relation name: 'and'"),
    "bad-relation-name": (lambda: Vocabulary({"1E": 2}),
                          "bad relation name: '1E'"),
    "two-arities": (
        lambda: relations_used(And((Literal(True, "E", ("x", "y")),
                                    Literal(True, "E", ("x",))))),
        "relation 'E' used with inconsistent arities"),
    "unknown-relation-in-definition": (
        lambda: Interpretation(VE, VE, Literal(True, "U", ("x1",)),
                               {"E": EDGE}),
        "universe formula uses unknown relations ['U']"),
    "interpreted-vocabulary": (
        lambda: apply_interpretation(IDENTITY, MARKED),
        "structure vocabulary does not match the interpretation"),
    "transformed-relation": (
        lambda: transform_formula(IDENTITY, Literal(True, "U", ("x",))),
        "formula uses relations ['U'] outside the target vocabulary"),
    "sum-like-source": (
        lambda: SumLikeOp("identity", IDENTITY),
        "sum-like operation needs source vocabulary = target + marker"),
    "marker-in-disjoint-union": (
        lambda: builtin("disjoint-union", {"vocabulary": {MARK: 1}}),
        "sum-like operation's target vocabulary contains the marker 'P'"),
    "marker-in-ordered-sum": (
        lambda: builtin("ordered-sum", {"extra": {"E": 2, MARK: 1}}),
        "sum-like operation's target vocabulary contains the marker 'P'"),
    "summand-vocabularies": (
        lambda: annotated_disjoint_union(LOOP, MARKED),
        "vocabulary mismatch between summands"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_validation_error_message(name):
    call, message = CASES[name]
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message

