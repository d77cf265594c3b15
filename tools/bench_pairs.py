"""Paired wall-clock runs: this checkout against a parent checkout.

    python tools/bench_pairs.py PARENT_CHECKOUT --workload tree_batch --seeds 500-509

runs ``bench/run.py --workload W --seed S --seconds <run_seconds> --trace 0``
once per seed on each side, alternating which side goes first, and appends one
record (commit, parent, workload, seeds; per end-to-end metric both medians,
their quartiles, the pairs the change won and a verdict) to the root
``BENCH_wallclock.json``.  With ``--trace`` the runs are ``--trace 1`` and the
record holds the same statistics for every per-layer metric of
``BENCHMARK.json`` instead.

The verdict (:func:`verdict`) is ``gain`` when at least ten pairs ran, the
change won at least 9 of every 10 and its median beats the parent's by more
than the parent's interquartile range; ``worse`` when its median is worse
than the parent's by more than the metric's ``bound`` (a share of the
parent's median; a metric without one is never ``worse``); and ``flat``
otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_wallclock.json")


def parse_result(stdout):
    """The metric values of one ``bench/run.py`` run, from its JSON line."""
    line = [ln for ln in stdout.splitlines() if ln.startswith("{")][-1]
    result = json.loads(line)
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"benchmark run failed its reference check: {line[:200]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_once(checkout, workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(checkout, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return parse_result(done.stdout)


def spread(values):
    cuts = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return dict(zip(("q1", "median", "q3"), cuts))


def verdict(metric, bound=None):
    """``gain``, ``worse`` or ``flat`` for one metric of a record (see the
    module docstring); ``bound`` is the metric's ``bound`` in
    ``BENCHMARK.json``, if it has one."""
    sign = 1 if metric["better"] == "higher" else -1
    parent, change = metric["parent"], metric["change"]
    gained = sign * (change["median"] - parent["median"])
    pairs = metric["pairs"]
    if pairs >= 10 and 10 * metric["wins"] >= 9 * pairs and gained > parent["q3"] - parent["q1"]:
        return "gain"
    if bound is not None and -gained > bound * abs(parent["median"]):
        return "worse"
    return "flat"


def make_record(
    commit, parent, workload, seeds, seconds, parent_runs, change_runs, declared, trace=0
):
    """One trajectory record; ``declared`` is BENCHMARK.json's ``end_to_end``
    list, or its ``per_layer`` list for ``--trace 1`` runs."""
    metrics = {}
    for decl in declared:
        name, sign = decl["name"], 1 if decl["better"] == "higher" else -1
        before = [run[name] for run in parent_runs]
        after = [run[name] for run in change_runs]
        metrics[name] = {
            "unit": decl["unit"], "better": decl["better"],
            "parent": spread(before),
            "change": spread(after),
            "wins": sum(sign * (a - b) > 0 for a, b in zip(after, before)),
            "pairs": len(seeds),
            "runs": {"parent": before, "change": after},
        }
        metrics[name]["verdict"] = verdict(metrics[name], decl.get("bound"))
    head = {"commit": commit, "parent": parent, "workload": workload, "seeds": list(seeds)}
    return {**head, "seconds": seconds, "trace": trace, "metrics": metrics}


def git_head(checkout):
    cmd = ["git", "rev-parse", "--short", "HEAD"]
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout.strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit (a git worktree or clone)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 500-509")
    ap.add_argument("--trace", action="store_true", help="traced runs: record the per-layer metrics")
    args = ap.parse_args()
    trace = int(args.trace)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declaration = json.load(fh)
    first, last = map(int, args.seeds.split("-"))
    seeds, seconds = range(first, last + 1), declaration["run_seconds"]
    parent_runs, change_runs = [], []
    for i, seed in enumerate(seeds):
        sides = [(args.parent, parent_runs), (ROOT, change_runs)]
        for checkout, runs in sides if i % 2 == 0 else reversed(sides):
            runs.append(run_once(checkout, args.workload, seed, seconds, trace))
    parent, commit = git_head(args.parent), git_head(ROOT)
    commit += "+worktree" if commit == parent else ""  # measured before it was committed
    declared = declaration["per_layer" if trace else "end_to_end"]
    record = make_record(
        commit, parent, args.workload, seeds, seconds, parent_runs, change_runs, declared, trace
    )
    records = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as fh:
            records = json.load(fh)
    with open(TRAJECTORY, "w") as fh:
        fh.write(json.dumps(records + [record], indent=1) + "\n")
    for name, m in record["metrics"].items():
        print(name, m["parent"]["median"], "->", m["change"]["median"], m["unit"],
              f"wins {m['wins']}/{m['pairs']}", m["verdict"])


if __name__ == "__main__":
    main()
