"""Shared fixtures and small builders used across the test modules."""

import itertools

from fvkit import And, Or, PVar, Structure, Vocabulary


def all_structures(vocab, max_size):
    """Every structure over ``vocab`` with 1..max_size elements.

    Element ids are e0, e1, ...; relations are enumerated in sorted name
    order and subset order, so the list is deterministic.
    """
    out = []
    for size in range(1, max_size + 1):
        universe = tuple(f"e{i}" for i in range(size))
        names = sorted(vocab.relations)
        spaces = []
        for name in names:
            tuples = list(itertools.product(universe,
                                            repeat=vocab.relations[name]))
            subsets = [frozenset(combo)
                       for count in range(len(tuples) + 1)
                       for combo in itertools.combinations(tuples, count)]
            spaces.append(subsets)
        for choice in itertools.product(*spaces):
            out.append(Structure(vocab, universe, dict(zip(names, choice))))
    return out


def linear_order(size, prefix="a"):
    """Reflexive total order on `size` elements over {"<=": 2}."""
    universe = tuple(f"{prefix}{i + 1}" for i in range(size))
    pairs = {(universe[i], universe[j])
             for i in range(size) for j in range(i, size)}
    return Structure(Vocabulary({"<=": 2}), universe, {"<=": frozenset(pairs)})


def merged_assignment(left_asg, right_asg):
    merged = {v: "L:" + e for v, e in left_asg.items()}
    merged.update({v: "R:" + e for v, e in right_asg.items()})
    return merged


def pair_blocks(beta, mode):
    """The [(i,1),(i,2)] blocks of a pair-normal-form beta, or None."""
    outer, inner = (Or, And) if mode == "sigma" else (And, Or)
    if isinstance(beta, inner):
        blocks = (beta,)
    elif isinstance(beta, outer):
        blocks = beta.children
    else:
        return None
    out = []
    for i, blk in enumerate(blocks):
        if not (isinstance(blk, inner) and len(blk.children) == 2):
            return None
        first, second = blk.children
        if not (isinstance(first, PVar) and isinstance(second, PVar)):
            return None
        if (first.index, first.side) != (i, 1):
            return None
        if (second.index, second.side) != (i, 2):
            return None
        out.append(blk)
    return out
