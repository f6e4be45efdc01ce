"""Finite relational structures and the annotated disjoint union."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .errors import ValidationError
from .formula import Vocabulary, vocabulary_from_json, vocabulary_to_json

# Unary marker added by the annotated disjoint union; held out of user
# vocabularies that flow into the union.
MARK = "P"


@dataclass(frozen=True)
class Structure:
    """A finite structure: ordered universe of element ids plus one relation
    table per vocabulary symbol.

    The universe order is part of the object (enumeration and serialization
    never reorder elements).  Every relation of the vocabulary is present,
    possibly empty, and tables only mention universe elements.  The set of
    elements is kept as ``elements``, which is not a field, so ``==``,
    ``repr`` and JSON see only the fields.  A structure is an immutable
    value with read-only tables; its hash agrees with ``==``, so it can key
    a dict.  The hash is computed once and kept, but not pickled: string
    hashes differ between processes.
    """

    vocab: Vocabulary
    universe: tuple[str, ...]
    relations: dict[str, frozenset[tuple[str, ...]]] = field(default_factory=dict)

    _hash = None

    def __post_init__(self) -> None:
        if not self.universe:
            raise ValidationError("empty universe")
        object.__setattr__(self, "elements", frozenset(self.universe))
        if len(self.elements) != len(self.universe):
            raise ValidationError("duplicate element ids")
        tables = {}
        for name, arity in self.vocab.relations.items():
            rows = self.relations.get(name, frozenset())
            rows = frozenset(tuple(r) for r in rows)
            for row in rows:
                if len(row) != arity:
                    raise ValidationError(
                        f"relation {name!r}: row {row!r} has wrong arity")
                if not set(row) <= self.elements:
                    raise ValidationError(
                        f"relation {name!r}: row {row!r} mentions unknown elements")
            tables[name] = rows
        extra = set(self.relations) - set(self.vocab.relations)
        if extra:
            raise ValidationError(f"relations not in vocabulary: {sorted(extra)}")
        object.__setattr__(self, "relations", tables)

    def __eq__(self, other) -> bool:
        # identity first: a weak table compares a key with itself
        if type(other) is not Structure:
            return NotImplemented
        return self is other or (self.vocab, self.universe, self.relations) \
            == (other.vocab, other.universe, other.relations)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.vocab, self.universe,
                      frozenset(self.relations.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def has(self, relation: str, row: tuple[str, ...]) -> bool:
        return row in self.relations[relation]


def structure_to_json(s: Structure) -> dict:
    return {
        "vocabulary": vocabulary_to_json(s.vocab),
        "universe": list(s.universe),
        "relations": {name: sorted(list(row) for row in rows)
                      for name, rows in s.relations.items()},
    }


_STRUCTURE_KEYS = ("vocabulary", "universe", "relations")


def structure_from_json(data: dict) -> Structure:
    """Inverse of :func:`structure_to_json`; relations omitted from the JSON
    are taken to be empty, and a key other than the three it writes is an
    error."""
    if not isinstance(data, dict):
        raise ValidationError("structure JSON must be an object")
    unknown = [key for key in data if key not in _STRUCTURE_KEYS]
    if unknown:
        raise ValidationError(f"unknown structure JSON keys: {unknown}")
    for field_name in ("vocabulary", "universe"):
        if field_name not in data:
            raise ValidationError(f"structure JSON lacks {field_name!r}")
    vocab = vocabulary_from_json(data["vocabulary"])
    if not isinstance(data["universe"], list):
        raise ValidationError("universe must be a list")
    universe = tuple(str(e) for e in data["universe"])
    raw = data.get("relations", {})
    if not isinstance(raw, dict):
        raise ValidationError("relations must be an object")
    relations = {}
    for name, rows in raw.items():
        if name not in vocab:
            raise ValidationError(f"relation {name!r} not in vocabulary")
        if not (isinstance(rows, list)
                and all(isinstance(row, list) for row in rows)):
            raise ValidationError(f"relation {name!r} must be a list of lists")
        relations[name] = frozenset(tuple(str(e) for e in row) for row in rows)
    return Structure(vocab, universe, relations)


def load_structure(path: str) -> Structure:
    with open(path) as fh:
        return structure_from_json(json.load(fh))


def save_structure(s: Structure, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(structure_to_json(s), fh, indent=2)
        fh.write("\n")


def annotated_disjoint_union(a: Structure, b: Structure) -> Structure:
    """Disjoint union with left elements marked by a fresh unary relation.

    Element ids are tagged "L:"/"R:" so the two universes never clash; the
    result's universe lists all left elements (in order) then all right
    elements.  Both inputs must share a vocabulary that does not already
    contain the marker relation.
    """
    if a.vocab != b.vocab:
        raise ValidationError("vocabulary mismatch between summands")
    if MARK in a.vocab:
        raise ValidationError(f"vocabulary already contains {MARK!r}")
    vocab = Vocabulary(a.vocab.relations | {MARK: 1})
    left = tuple("L:" + e for e in a.universe)
    right = tuple("R:" + e for e in b.universe)
    relations: dict[str, frozenset[tuple[str, ...]]] = {}
    for name in a.vocab.relations:
        rows = {tuple("L:" + e for e in row) for row in a.relations[name]}
        rows |= {tuple("R:" + e for e in row) for row in b.relations[name]}
        relations[name] = frozenset(rows)
    relations[MARK] = frozenset((e,) for e in left)
    return Structure(vocab, left + right, relations)


def is_partial_isomorphism(a: Structure, a_tuple: tuple[str, ...],
                           b: Structure, b_tuple: tuple[str, ...]) -> bool:
    """Does a_tuple -> b_tuple define a partial isomorphism?

    The induced map must be a well-defined injection that preserves and
    reflects every relation of the (shared) vocabulary on the listed
    elements.  Symmetric in the two sides by construction.
    """
    return _first_difference(a, a_tuple, b, b_tuple) is None


def _first_difference(a: Structure, a_tuple: tuple[str, ...],
                      b: Structure, b_tuple: tuple[str, ...]
                      ) -> tuple[str, tuple[int, ...], bool] | None:
    """The first row, in the order ``=`` and then the vocabulary's, on which
    the tuples disagree: ``(relation, tuple positions, held on a)``, or None
    when a_tuple -> b_tuple is a partial isomorphism.

    Raises ValidationError on a vocabulary mismatch, tuples of different
    lengths, or a tuple element outside its universe.
    """
    if a.vocab != b.vocab:
        raise ValidationError("vocabulary mismatch")
    if len(a_tuple) != len(b_tuple):
        raise ValidationError("tuple length mismatch")
    for e in a_tuple:
        if e not in a.elements:
            raise ValidationError(f"unknown element {e!r} on the left")
    for e in b_tuple:
        if e not in b.elements:
            raise ValidationError(f"unknown element {e!r} on the right")
    n = len(a_tuple)
    for i in range(n):
        for j in range(n):
            held = a_tuple[i] == a_tuple[j]
            if held != (b_tuple[i] == b_tuple[j]):
                return "=", (i, j), held
    for name, arity in a.vocab.relations.items():
        for idx in itertools.product(range(n), repeat=arity):
            held = a.has(name, tuple(a_tuple[i] for i in idx))
            if held != b.has(name, tuple(b_tuple[i] for i in idx)):
                return name, idx, held
    return None
