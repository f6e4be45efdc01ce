"""Regenerate perfbench/expected.json, the stored answers the benchmark
checks game-ladder and class-enum against.

    PYTHONPATH=src python3 perfbench/make_expected.py

Game verdicts are established without the game solver wherever that
finishes: identical chains are isomorphic (Duplicator wins), a
``find_separator`` sentence that ``evaluate`` confirms true on the left
board and false on the right one makes Spoiler win, and otherwise the
exact transfer oracle decides.  Cells none of these settle keep the game
solver's own verdict and are marked ``seed-derived``.  Class counts are
the seed commit's counts; the criterion-8 cell (0, 0, 1) must count 4
against a bound of 16.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from fvkit import (GameConfig, TestBed, count_bound_check,  # noqa: E402
                   enumerate_classes, evaluate, find_separator,
                   prefix_game_winner, transfer_oracle,
                   tree_prefix_game_winner)
from workloads import (EXPECTED_PATH, VU, ClassEnum,  # noqa: E402
                       all_structures, cell_key, game_cells, linear_order)

REFERENCE_LIMIT_S = 30


class OutOfTime(Exception):
    pass


def _alarm(signum, frame):
    raise OutOfTime()


def limited(fn, *args):
    """fn(*args), or None when it runs past REFERENCE_LIMIT_S."""
    signal.setitimer(signal.ITIMER_REAL, REFERENCE_LIMIT_S)
    try:
        return fn(*args)
    except OutOfTime:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def separated(n, k, a, b):
    """True when a checked separator sentence shows Spoiler wins on (a, b)."""
    sep = limited(find_separator, n, k, a, b)
    return (sep is not None and evaluate(a, sep, {})
            and not evaluate(b, sep, {}))


def reference(mode, n, k, a, b, same):
    if same:
        return "duplicator", "isomorphic"
    orders = [(a, b)] if mode == "prefix" else [(a, b), (b, a)]
    if any(separated(n, k, x, y) for x, y in orders):
        return "spoiler", "find_separator+evaluate"
    answers = [limited(transfer_oracle, n, k, x, (), y, ()) for x, y in orders]
    if False in answers:
        return "spoiler", "transfer_oracle"
    if all(answers):
        return "duplicator", "transfer_oracle"
    return None, None


def games():
    out = {}
    for cell in game_cells():
        mode, n, k, p, q = cell
        a, b = linear_order(p, "a"), linear_order(q, "b")
        solver = prefix_game_winner if mode == "prefix" else \
            tree_prefix_game_winner
        start = time.perf_counter()
        played = solver(GameConfig(n, k), a, (), b, ()).value
        seed_ms = round((time.perf_counter() - start) * 1000, 1)
        winner, source = reference(mode, n, k, a, b, p == q)
        if winner is None:
            winner, source = played, "seed-derived"
        elif winner != played:
            raise SystemExit(f"{cell_key(cell)}: solver says {played}, "
                             f"{source} says {winner}")
        out[cell_key(cell)] = {"winner": winner, "source": source,
                               "seed_ms": seed_ms}
        print(cell_key(cell), winner, source, seed_ms, flush=True)
    return out


def classes():
    structs = tuple(all_structures(VU, 2))
    beds = [TestBed(structs, ()), TestBed(structs, ("x1",))]
    out = {}
    for n, m, t in ClassEnum.COUNT_CELLS:
        r = count_bound_check(n, m, t, VU, beds[t])
        source = "seed-derived"
        if (n, m, t) == (0, 0, 1):
            if (r["count"], r["bound"]) != (4, 16):
                raise SystemExit(f"criterion-8 cell counts {r['count']} "
                                 f"against {r['bound']}, not 4 against 16")
            source = "criterion 8: count 4 against bound 16"
        out[f"count n={n} m={m} t={t}"] = {
            "count": r["count"], "bound_expr": r["bound_expr"],
            "source": source}
    for mode, n, k, t in ClassEnum.ENUM_CELLS:
        count = len(enumerate_classes(mode, n, k, beds[t]))
        out[f"enumerate {mode} n={n} k={k} t={t}"] = {
            "count": count, "source": "seed-derived"}
    return out


def main():
    signal.signal(signal.SIGALRM, _alarm)
    data = {"games": games(), "classes": classes()}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
