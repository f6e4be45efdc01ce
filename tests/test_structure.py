import dataclasses
import json
import pickle

import pytest
from hypothesis import given, strategies as st

from fvkit import (MARK, Structure, ValidationError, Vocabulary,
                   annotated_disjoint_union, is_partial_isomorphism,
                   load_structure, save_structure, structure_from_json,
                   structure_to_json)

VE = Vocabulary({"E": 2})
VU = Vocabulary({"U": 1})

LOOP = Structure(VE, ("a",), {"E": frozenset({("a", "a")})})
EDGELESS = Structure(VE, ("b",), {"E": frozenset()})


def test_structure_validation():
    with pytest.raises(ValidationError):
        Structure(VE, (), {"E": frozenset()})  # empty universe
    with pytest.raises(ValidationError):
        Structure(VE, ("a", "a"), {"E": frozenset()})  # duplicate ids
    with pytest.raises(ValidationError):
        Structure(VE, ("a",), {"E": frozenset({("a",)})})  # arity
    with pytest.raises(ValidationError):
        Structure(VE, ("a",), {"E": frozenset({("a", "c")})})  # alien element
    with pytest.raises(ValidationError):
        Structure(VE, ("a",), {"F": frozenset()})  # not in vocabulary
    # missing tables are normalized to empty, not rejected
    assert Structure(VE, ("a",), {}).relations["E"] == frozenset()


def test_element_set_stays_out_of_fields():
    s = Structure(VE, ("b", "a"), {"E": frozenset({("a", "b")})})
    assert s.elements == frozenset({"a", "b"})
    assert repr(s) == ("Structure(vocab=Vocabulary(relations={'E': 2}), "
                       "universe=('b', 'a'), relations={'E': "
                       "frozenset({('a', 'b')})})")
    assert structure_to_json(s) == {"vocabulary": {"E": 2},
                                    "universe": ["b", "a"],
                                    "relations": {"E": [["a", "b"]]}}
    assert s == structure_from_json(structure_to_json(s))
    assert s != Structure(VE, ("a", "b"), s.relations)


# ---------------------------------------------------------------------------
# Structures and vocabularies are immutable, hashable values


def test_equal_structures_hash_alike():
    s = Structure(Vocabulary({"E": 2, "U": 1}), ("a", "b"),
                  {"E": frozenset({("a", "b"), ("b", "b")}),
                   "U": frozenset({("a",)})})
    copies = [
        # other insertion orders of the vocabulary, the tables and the rows
        Structure(Vocabulary({"U": 1, "E": 2}), ("a", "b"),
                  {"U": [("a",)], "E": [("b", "b"), ("a", "b")]}),
        structure_from_json(structure_to_json(s)),
        pickle.loads(pickle.dumps(s)),
    ]
    for t in copies:
        assert t is not s and t == s and hash(t) == hash(s)
        assert t.elements == s.elements
    assert len({s, *copies}) == 1
    assert Structure(s.vocab, ("b", "a"), s.relations) not in {s}


def test_structures_and_vocabularies_are_frozen():
    vocab = Vocabulary({"E": 2})
    s = Structure(vocab, ("a",), {"E": frozenset({("a", "a")})})
    for value, name, new in ((s, "relations", {}), (s, "universe", ("b",)),
                             (vocab, "relations", {"U": 1})):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, new)
    assert s == LOOP and vocab == VE


def test_vocabulary_keeps_its_own_dict():
    given = {"E": 2}
    vocab = Vocabulary(given)
    before = hash(vocab)
    given["U"] = 1
    assert vocab == VE and vocab != Vocabulary(given)
    assert hash(vocab) == before == hash(VE)


def test_annotated_disjoint_union_example():
    s = annotated_disjoint_union(LOOP, EDGELESS)
    assert s.universe == ("L:a", "R:b")
    assert s.relations["E"] == frozenset({("L:a", "L:a")})
    assert s.relations[MARK] == frozenset({("L:a",)})
    assert s.vocab.relations == {"E": 2, MARK: 1}


def test_annotated_disjoint_union_counts():
    one = Structure(VU, ("x",), {"U": frozenset()})
    s = annotated_disjoint_union(one, one)
    assert len(s.universe) == 2
    assert len(s.relations[MARK]) == 1


def test_annotated_disjoint_union_rejects_marker_collision():
    vocab = Vocabulary({MARK: 1})
    s = Structure(vocab, ("a",), {MARK: frozenset()})
    with pytest.raises(ValidationError):
        annotated_disjoint_union(s, s)


def test_annotated_disjoint_union_reduct_is_plain_union():
    s = annotated_disjoint_union(LOOP, LOOP)
    # dropping the marker leaves the tagged disjoint union of the inputs
    assert s.relations["E"] == frozenset({("L:a", "L:a"), ("R:a", "R:a")})


def test_partial_isomorphism_examples():
    assert is_partial_isomorphism(LOOP, (), EDGELESS, ())
    assert not is_partial_isomorphism(LOOP, ("a",), EDGELESS, ("b",))
    two = Structure(VE, ("b", "c"), {"E": frozenset()})
    assert not is_partial_isomorphism(
        Structure(VE, ("a",), {"E": frozenset()}), ("a", "a"),
        two, ("b", "c"))
    assert is_partial_isomorphism(two, ("b", "c"), two, ("b", "c"))


def test_partial_isomorphism_errors():
    with pytest.raises(ValidationError):
        is_partial_isomorphism(LOOP, ("a",), EDGELESS, ())
    with pytest.raises(ValidationError):
        is_partial_isomorphism(LOOP, ("a",),
                               Structure(VU, ("b",), {"U": frozenset()}),
                               ("b",))


@given(st.integers(0, 3), st.integers(0, 200))
def test_partial_isomorphism_symmetric(length, seed):
    import random
    rng = random.Random(seed)
    univ = ("a", "b", "c")
    rel = frozenset((x, y) for x in univ for y in univ if rng.random() < 0.4)
    a = Structure(VE, univ, {"E": rel})
    rel2 = frozenset((x, y) for x in univ for y in univ if rng.random() < 0.4)
    b = Structure(VE, univ, {"E": rel2})
    ta = tuple(rng.choice(univ) for _ in range(length))
    tb = tuple(rng.choice(univ) for _ in range(length))
    assert is_partial_isomorphism(a, ta, b, tb) == \
        is_partial_isomorphism(b, tb, a, ta)


def test_json_round_trip(tmp_path):
    data = structure_to_json(LOOP)
    assert data == {"vocabulary": {"E": 2}, "universe": ["a"],
                    "relations": {"E": [["a", "a"]]}}
    assert structure_from_json(data) == LOOP
    path = tmp_path / "loop.json"
    save_structure(LOOP, str(path))
    assert load_structure(str(path)) == LOOP


def test_json_unlisted_relation_is_empty():
    s = structure_from_json({"vocabulary": {"E": 2, "U": 1},
                             "universe": ["0", "1"],
                             "relations": {"E": [["0", "1"]]}})
    assert s.relations["U"] == frozenset()


def test_json_loader_validates():
    with pytest.raises(ValidationError):
        structure_from_json({"vocabulary": {"E": 2}, "universe": [],
                             "relations": {}})
    with pytest.raises(ValidationError):
        structure_from_json({"vocabulary": {"E": 2}, "universe": ["0"],
                             "relations": {"E": [["0"]]}})
    with pytest.raises(ValidationError):
        structure_from_json([1, 2, 3])


@pytest.mark.parametrize("arity", [True, False, 0, -1, 1.0, "2"])
def test_json_loader_rejects_bad_arities(arity):
    # a bool is an int in Python, but True is no arity
    with pytest.raises(ValidationError, match="^bad arity for 'E': "):
        structure_from_json({"vocabulary": {"E": arity}, "universe": ["a"],
                             "relations": {}})
    with pytest.raises(ValidationError, match="^bad arity for 'E': "):
        Vocabulary({"E": arity})


@pytest.mark.parametrize("universe, relations", [
    ("ab", {}),                      # universe as a string
    (["a", "b"], {"U": "ab"}),       # row list as a string
    (["a", "b"], {"U": ["a", "b"]}),  # rows as strings
    (["a", "b"], {"U": {"a": 1}}),   # row list as an object
])
def test_json_loader_rejects_strings_for_lists(universe, relations):
    with pytest.raises(ValidationError):
        structure_from_json({"vocabulary": {"U": 1}, "universe": universe,
                             "relations": relations})


def test_json_loader_rejects_unknown_keys():
    good = {"vocabulary": {"U": 1}, "universe": ["a"], "relations": {}}
    assert structure_from_json(good).universe == ("a",)
    for extra in ({"relation": {"U": [["a"]]}}, {"name": "board"}):
        with pytest.raises(ValidationError, match="unknown structure JSON"):
            structure_from_json({**good, **extra})
