"""One benchmark run of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload compose-grid \
        --seed 1 --seconds 10 [--trace] [--setup-only] [--spans PATH]

Imports fvkit, builds the workload from the seed and prints ``READY``;
that line ends the set-up time run.py measures.  Then it runs rounds of
items, one at a time (closed loop), until ``--seconds`` have passed and at
least ``MIN_ITEMS`` items have run, and prints one JSON line with per-item
times and counts.  With ``--trace`` every call into fvkit is recorded as a
span; the spans are written to ``--spans`` and summarised per layer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tracing import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ITEMS = 100
# A run that has not reached MIN_ITEMS stops anyway past this many
# multiples of --seconds (plus a constant), inside its time limit.
HARD_STOP_FACTOR = 2.0
HARD_STOP_EXTRA_S = 20.0


class DeadlineMiss(BaseException):
    """Raised by SIGALRM inside an item that ran past its deadline; a
    BaseException so no ``except Exception`` in the program swallows it."""


def _alarm(signum, frame):
    raise DeadlineMiss()


def run_item(workload, item, tracer):
    signal.setitimer(signal.ITIMER_REAL, workload.deadline_s)
    try:
        return workload.request(item, tracer)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    batch = workload.round(0)
    print("READY", flush=True)
    if args.setup_only:
        return

    signal.signal(signal.SIGALRM, _alarm)
    tracer = Tracer(args.trace)
    durations, slots, status, errors = [], [], [], []
    verdicts = wrong = 0
    # (verdicts, item seconds) of each round; the last one is partial (the
    # run stops at the first item boundary past --seconds)
    per_round = [[0, 0.0]]
    hard_stop = HARD_STOP_FACTOR * args.seconds + HARD_STOP_EXTRA_S
    start = time.perf_counter()
    rounds = 0
    while True:
        for slot, item in batch:
            elapsed = time.perf_counter() - start
            if elapsed > hard_stop or (elapsed >= args.seconds
                                       and len(durations) >= MIN_ITEMS):
                break
            index = len(durations)
            opened = tracer.open("item", index)
            t0 = time.perf_counter()
            outcome = None
            try:
                outcome = run_item(workload, item, tracer)
                state = "ok"
            except DeadlineMiss:
                state = "missed"
            except Exception as exc:  # an item that raised counts as failed
                state = "failed"
                errors.append(f"item {index}: {exc!r}")
            durations.append(time.perf_counter() - t0)
            slots.append(slot)
            tracer.close(opened)
            per_round[-1][1] += durations[-1]
            if outcome is not None:
                opened = tracer.open("check", index)
                bad = outcome.wrong + workload.check(item, outcome, tracer)
                tracer.close(opened)
                verdicts += outcome.verdicts
                per_round[-1][0] += outcome.verdicts
                wrong += bad
                if bad:
                    state = "wrong"
                    errors.append(f"item {index}: {bad} wrong verdicts")
            status.append(state)
        else:
            rounds += 1
            batch = workload.round(rounds)
            per_round.append([0, 0.0])
            continue
        break

    result = {
        "durations": durations,
        "slots": slots,
        "missed": status.count("missed"),
        "failed": status.count("failed") + status.count("wrong"),
        "wrong": wrong,
        "verdicts": verdicts,
        "rounds": rounds,
        "per_round": per_round,
        "wall_s": time.perf_counter() - start,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "props": workload.props,
        "errors": errors[:20],
    }
    if args.trace:
        result["layers"] = summarize(tracer)
        if args.spans:
            tracer.dump(args.spans, workload=args.workload, seed=args.seed)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
