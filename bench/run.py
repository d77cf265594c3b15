"""Wall-clock benchmark of the ACROBAT reproduction: one command.

Driver contract (one workload, one process)::

    python3 bench/run.py --workload tree_batch --seed 0 --seconds 24 --trace 0

measures for ``--seconds``, checks outputs against the eager reference, prints
every metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exit code 1 on any reference mismatch or failed operation.

Without ``--workload`` it runs the whole suite, each run in a fresh
subprocess (``--quick`` for a smoke run, ``--repeat K`` to print the spread
of every end-to-end metric against its bound).
"""

import os
import sys
import time

_PROCESS_START = time.perf_counter()

# one BLAS/OpenMP thread, decided before numpy loads: the box has two cores
# and the serving workloads already run a producer and a loop thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
# the script's own directory leads sys.path; swap it for the repo root so
# bench/trace.py cannot shadow the standard library's `trace`
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

#: set-up is timed in this many fresh child processes per run (median)
SETUP_PROBES = 7
QUICK_SECONDS = 4


def load_declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- one workload, this process ---------------------------------------------------


def setup_probe(name: str, seed: int) -> None:
    """Child mode: time import + IR build + compile + construction + one
    warm-up round from process start, leaving out the harness's own input
    generation, and print it."""
    from bench.workloads import WORKLOADS

    w = WORKLOADS[name](seed)
    w.build()
    t0 = time.perf_counter()
    w.make_inputs(warm_only=True)
    inputs_s = time.perf_counter() - t0
    w.start()
    setup_s = time.perf_counter() - _PROCESS_START - inputs_s
    w.stop()
    print(json.dumps({"setup_s": setup_s}))


def measure_setup(name: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    declared = load_declaration()
    from bench.workloads import WORKLOADS, freeze_inputs

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    setup_s = None if trace else measure_setup(name, seed)

    w = WORKLOADS[name](seed)
    w.build()
    w.make_inputs()
    w.start()
    freeze_inputs()
    if trace:
        from bench.layers import measure_traced

        result = measure_traced(w, seconds, OUT_DIR)
    else:
        result = w.measure(seconds)
        w.stop()
        result["metrics"]["setup_s"] = setup_s
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )

    wanted = declared["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    undeclared = set(measured) - {m["name"] for m in wanted}
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    if trace:
        # a layer this workload never enters did no work
        measured = {**{m["name"]: 0.0 for m in wanted}, **measured}
    metrics = {
        m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]} for m in wanted
    }
    for key, value in result.get("counts", {}).items():
        print(f"{name} count {key} = {value}")
    for key, m in metrics.items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


# -- the suite: every workload, each run in a fresh subprocess ---------------------


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name} --trace {trace} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def run_suite(names, seed: int, seconds: float, repeat: int, check_bounds: bool) -> int:
    declared = load_declaration()
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    summary = {"seed": seed, "seconds": seconds, "repeat": repeat, "workloads": {}}
    status = 0
    for name in names:
        runs = [run_child(name, seed, seconds, 0) for _ in range(repeat)]
        traced = run_child(name, seed, seconds, 1)
        for r in runs + [traced]:
            if not r["correct"] or r["exit_code"]:
                status = 1
            print(f"{name}: attempted {r['attempted']} failed {r['failed']} correct {r['correct']}")
        entry = {"end_to_end": {}, "per_layer": traced["metrics"]}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            median = statistics.median(values)
            spread = (max(values) - min(values)) / median if median else 0.0
            entry["end_to_end"][metric] = {
                "median": median, "unit": unit, "values": values,
                "spread": spread, "bound": bound,
            }
            line = f"{name} {metric} = {median:.6g} {unit}"
            if repeat > 1:
                verdict = "" if not check_bounds else (" ok" if spread <= bound else " WIDER THAN BOUND")
                line += f"  spread {spread:.1%} of bound {bound:.0%}{verdict}"
            print(line)
        for metric, m in traced["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        summary["workloads"][name] = entry
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process (driver contract)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="suite: untraced runs per workload")
    parser.add_argument("--quick", action="store_true", help=f"suite: {QUICK_SECONDS} s runs, bounds not checked")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit(f"bench/run.py: nothing to measure, {ROOT}/src/repro is missing")

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else load_declaration()["run_seconds"]
    if args.workload and args.repeat == 1 and not args.quick:
        return run_workload(args.workload, args.seed, seconds, bool(args.trace))
    names = [args.workload] if args.workload else [w["name"] for w in load_declaration()["workloads"]]
    return run_suite(names, args.seed, seconds, args.repeat, check_bounds=not args.quick)


if __name__ == "__main__":
    sys.exit(main())
