"""fvkit benchmark: four workloads, run from outside the program.

    python3 perfbench/run.py --workload compose-grid --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--workload all`` runs the four workloads
in turn.  Each run starts fvkit from source (``src/``) in a fresh
interpreter with no warm-up, as a CLI user would.

With ``--trace 0`` the run prints every end-to-end metric by name and unit:
set-up time (median of several cold starts), verdicts per second of item
time (median over the run's rounds), median and 90th-percentile item time,
peak resident memory, the failure ratio and the reduction size.  With
``--trace 1`` it runs the workload twice for half the time each, untraced
and traced on the same inputs, and prints each layer's busy time as a
share of item time, counts and the tracing overhead; the spans go to
``perfbench/out/``.  The last line of the output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A wrong verdict makes
the exit status 1; a run that cannot complete exits with 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("compose-grid", "decompose-ladder", "game-ladder", "class-enum")

# Set-up-only cold starts per run; setup_s is the median of these and the
# measured run's own start.
SETUP_PROBES = 8
# A worker still running this long after its --seconds is killed.
WORKER_GRACE_S = 120


def contract_units(kind):
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` of
    BENCHMARK.json, which fixes the metrics a run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class RunError(Exception):
    pass


def spawn(args, limit_s):
    """Run one worker; returns (seconds to its READY line, stdout after it)."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(limit_s, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise RunError(f"worker {' '.join(args)} exited with {code}")
    return setup, rest


def worker_run(workload, seed, seconds, traced=False):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if traced:
        os.makedirs(OUT, exist_ok=True)
        args += ["--trace", "--spans",
                 os.path.join(OUT, f"trace-{workload}.json")]
    setup, out = spawn(args, seconds + WORKER_GRACE_S)
    lines = out.strip().splitlines()
    if not lines:
        raise RunError(f"worker for {workload} printed no result")
    return setup, json.loads(lines[-1])


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def item_medians(res):
    """Each catalogue item's median time over the rounds it ran in."""
    times = {}
    for slot, duration in zip(res["slots"], res["durations"]):
        times.setdefault(slot, []).append(duration)
    return [statistics.median(t) for t in times.values()]


def plain(workload, seed, seconds):
    setups = [spawn(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--setup-only"], WORKER_GRACE_S)[0]
              for _ in range(SETUP_PROBES)]
    setup, res = worker_run(workload, seed, seconds)
    setups.append(setup)
    d = res["durations"]
    # Item percentiles are over the catalogue, of each item's median time:
    # over all item runs pooled, a percentile falls between the repeats of
    # two catalogue items and jumps from one to the other as the host's
    # speed shifts their repeats past each other.
    medians = item_medians(res)
    metrics = {
        "setup_s": statistics.median(setups),
        # Median over the complete rounds: every round runs the same
        # catalogue, so rounds differ only by the host's speed while they
        # ran.  verdicts_per_timed_s takes the whole run instead.
        "verdicts_per_s": statistics.median(
            [v / t for v, t in res["per_round"][:res["rounds"]] if t]
            or [res["verdicts"] / sum(d)]),
        "item_p50_ms": statistics.median(medians) * 1000,
        "item_p90_ms": quantile(medians, 90) * 1000,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    units = contract_units("end_to_end")
    table = [(name, value, units[name]) for name, value in metrics.items()]
    table += [
        ("fail_ratio", res["failed"] / len(d), "ratio"),
        ("reduction_size", res["props"].get("decompose.reduction_size"),
         "nodes"),
        ("items", len(d), "count"),
        ("catalogue_items", len(medians), "count"),
        ("verdicts", res["verdicts"], "count"),
        ("deadline_miss_share", res["missed"] / len(d), "ratio"),
        ("rounds", res["rounds"], "count"),
        ("timed_s", sum(d), "s"),
        ("verdicts_per_timed_s", res["verdicts"] / sum(d), "1/s"),
        ("item_max_ms", max(d) * 1000, "ms"),
    ]
    return res, with_units(metrics, units), table


def with_units(metrics, units):
    if set(metrics) != set(units):
        raise RunError(f"metrics {sorted(set(metrics) ^ set(units))} differ "
                       "from BENCHMARK.json")
    return {k: (metrics[k], units[k]) for k in units}


def share(props, part, whole):
    return props.get(part, 0) / props[whole] if props.get(whole) else 0.0


def traced(workload, seed, seconds):
    half = seconds / 2
    _, base = worker_run(workload, seed, half)
    _, res = worker_run(workload, seed, half, traced=True)
    res["wrong"] += base["wrong"]
    res["errors"] += base["errors"]
    common = min(len(base["durations"]), len(res["durations"]))
    plain_s = sum(base["durations"][:common])
    props = res["props"]
    metrics = dict(res["layers"])
    metrics.update({
        "formula.input_size": props.get("formula.input_size", 0),
        "decompose.factor_count": props.get("decompose.factor_count", 0),
        "decompose.beta_size": props.get("decompose.beta_size", 0),
        "decompose.reduction_size": props.get("decompose.reduction_size", 0),
        "efgame.spoiler_share": share(props, "efgame.spoiler_wins",
                                      "efgame.games"),
        "enumeration.classes": props.get("enumeration.classes", 0),
        "enumeration.repeat_share": share(props, "enumeration.oracle_repeats",
                                          "enumeration.oracle_calls"),
        "bench.deadline_miss_share": res["missed"] / len(res["durations"]),
        "trace.overhead_share":
            sum(res["durations"][:common]) / plain_s - 1 if plain_s else 0.0,
    })
    metrics = with_units(metrics, contract_units("per_layer"))
    table = [(k, v, u) for k, (v, u) in metrics.items()]
    table.append(("items", len(res["durations"]), "count"))
    return res, metrics, table


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fvkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def commit():
    """The checked-out commit, read from ``.git`` without running git; None
    outside a git work tree (the checked-out sources are then identified
    by ``source_digest``)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "fvkit", "__init__.py")):
        print(f"run.py: no fvkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("run.py: --seconds must be at least 1", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    context = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "commit": commit(), "source_sha256": source_digest(),
               "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "cold_start": True}
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        run = traced if args.trace else plain
        try:
            res, values, table = run(name, args.seed, args.seconds)
        except RunError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        for line in res["errors"]:
            print(f"{name}: {line}", file=sys.stderr)
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for key, value, unit in table:
            print(f"  {key:28s} {fmt(value):>14s} {unit}")
        correct = correct and res["wrong"] == 0
        attempted += len(res["durations"])
        failed += res["failed"]
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in values.items()})
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
