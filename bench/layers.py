"""The traced run: per-layer metrics for one workload.

A traced run first does what must not be traced (the batch workloads'
deterministic counter pass, tree_serve's supporting 250 and 400 req/s
phases), then installs the tracer, repeats set-up under it (so the compile passes are
traced and the serving stack is fresh), and runs the traced phases; the
tracing overhead is measured by switching the installed tracer off and on
inside them.  End-to-end numbers never come from here.

Time metrics (``*_ms`` fed from spans) are span *self* time per unit, where
a unit is one ``CompiledModel.run`` call on the batch workloads and one
flushed round on the serving workloads.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List

from .trace import Tracer, install_layer_boundaries
from .workloads import (
    SLO_LIMIT_MS,
    BatchWorkload,
    DecodeStream,
    TreeServe,
    Workload,
    merge_bursts,
    pct,
)


def span_metrics(tracer: Tracer, units: int) -> Dict[str, float]:
    """Self/total times and call counts of the layer spans, per unit."""
    spans = tracer.span_totals()
    leaves = tracer.leaf_totals()
    units = max(1, units)
    per = 1e3 / units

    def calls(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def self_ms(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1] * per

    def total_ms(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2] * per

    def leaf_ms(name: str) -> float:
        return leaves.get(name, (0, 0.0))[1] * per

    launches = max(1.0, calls("kernels.execute"))
    pump = tracer.span_totals(thread="generation-pump")
    return {
        "engine.make_ms": self_ms("model.run"),
        "engine.run_ms": total_ms("engine.run"),
        "engine.program_ms": self_ms("engine.run"),
        "engine.materialize_ms": leaf_ms("engine.materialize"),
        "runtime.invoke_calls": leaves.get("runtime.invoke", (0, 0.0))[0] / units,
        "runtime.invoke_ms": leaf_ms("runtime.invoke"),
        "runtime.schedule_ms": self_ms("runtime.schedule"),
        "runtime.trigger_self_ms": self_ms("runtime.trigger"),
        "runtime.fiber_ms": self_ms("runtime.fibers"),
        "memory.plan_ms": self_ms("memory.plan"),
        "memory.resolve_ms": self_ms("memory.resolve"),
        "memory.commit_ms": self_ms("memory.commit"),
        "specialize.build_ms": self_ms("specialize.build"),
        "specialize.dispatch_ms": self_ms("specialize.dispatch"),
        "kernels.execute_ms": total_ms("kernels.execute"),
        "kernels.op_body_ms": leaf_ms("kernels.op_body"),
        "kernels.interp_ms": self_ms("kernels.execute"),
        "kernels.calls": calls("kernels.execute") / units,
        "kernels.mean_batch": tracer.counters.get("kernels.batch_rows", 0) / launches,
        "kernels.flops": tracer.counters.get("kernels.flops", 0.0) / units,
        "kernels.bytes_moved": tracer.counters.get("kernels.bytes_moved", 0.0) / units,
        "devices.launch_host_ms": leaf_ms("devices.launch"),
        "devices.place_ms": self_ms("devices.place"),
        "serve.submit_ms": self_ms("serve.submit"),
        "serve.session_submit_ms": self_ms("serve.session_submit"),
        "serve.flush_ms": self_ms("serve.flush"),
        "generate.pump_submit_ms": pump.get("serve.submit", (0, 0.0, 0.0))[1] * per,
    }


def compile_metrics(tracer: Tracer, workload: Workload) -> Dict[str, float]:
    """Compile-time spans of the traced set-up (absolute ms, not per unit)."""
    spans = tracer.span_totals()

    def total_ms(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2] * 1e3

    out = {
        "ir.build_ms": workload.ir_build_s * 1e3,
        "compiler.compile_ms": total_ms("compiler.compile_module"),
        "analysis.passes_ms": total_ms("analysis.pass"),
        "compiler.codegen_ms": total_ms("compiler.codegen"),
        "kernels.build_ms": total_ms("kernels.build"),
    }
    out.update(workload.compile_counts())
    return out


def loop_other_share(tracer: Tracer, phase_s: float) -> float:
    """Share of the phase the serve-loop thread spent outside any span:
    waiting for work or a policy deadline, plus the loop's own overhead."""
    for tid, name in tracer.thread_names().items():
        if name == "repro-serve-loop":
            return max(0.0, 1.0 - tracer.top_level_seconds(tid) / phase_s)
    return 0.0


def open_loop_metrics(run: "TracedRun", w: Any, phase: Dict[str, Any]) -> Dict[str, float]:
    """What both serving workloads report from their traced open-loop phase."""
    rounds = phase["rounds"]
    metrics = w.serve_counters(rounds)
    metrics.update(span_metrics(run.tracer, len(rounds)))
    metrics.update(run.request_stats())
    metrics["serve.loop_other_share"] = loop_other_share(run.tracer, phase["phase_s"])
    metrics["serve.gen_late_p50_ms"] = pct(phase["late_ms"], 50)
    metrics["serve.gen_late_p99_ms"] = pct(phase["late_ms"], 99)
    metrics["serve.backlog_end"] = phase["backlog_end"]
    return metrics


def result(metrics: Dict[str, float], attempted: int, failed: int) -> Dict[str, Any]:
    """Add the ratios derived from counters and shape the run's result."""
    lookups = metrics["memory.plan_cache_hits"] + metrics["memory.plan_cache_misses"]
    metrics["memory.plan_cache_hit_rate"] = metrics["memory.plan_cache_hits"] / lookups if lookups else 0.0
    launches = metrics["specialize.hits"] + metrics["specialize.misses"]
    metrics["specialize.hit_rate"] = metrics["specialize.hits"] / launches if launches else 0.0
    metrics["fail_share"] = failed / attempted
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


#: the tracer is switched on and off this often inside a saturated closed loop
TOGGLE_S = 0.5


class Toggler:
    """Switches the tracer on and off inside one closed loop and compares
    CPU time per completed unit between the two kinds of interval.

    Overhead has to be measured against work done seconds, not minutes,
    earlier: the shared host drifts by several percent from one 5 s window
    to the next, which is more than tracing costs.  CPU time, not wall,
    because the serving loops wait on a policy timer wherever they can."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: (time, tracing enabled from here on)
        self.switches: List[tuple] = []

    def tick(self, now: float) -> None:
        if not self.switches or now - self.switches[-1][0] >= TOGGLE_S:
            self.tracer.enabled = not self.tracer.enabled if self.switches else True
            self.switches.append((now, self.tracer.enabled))

    def overhead(self, marks: List[tuple]) -> float:
        """Median CPU per unit of traced intervals over untraced ones - 1.
        The first completions of an interval belong to a round that began
        under the other setting, so each interval starts at its second
        burst of completions."""
        self.tracer.enabled = True
        per_unit: Dict[bool, List[float]] = {True: [], False: []}
        bounds = self.switches + [(float("inf"), None)]
        for (t0, enabled), (t1, _) in zip(bounds, bounds[1:]):
            bursts = merge_bursts([m for m in marks if t0 <= m[0] < t1])
            if len(bursts) >= 3:
                units = sum(burst[2] for burst in bursts[1:])
                per_unit[enabled].append((bursts[-1][1] - bursts[0][1]) / units)
        if not per_unit[True] or not per_unit[False]:
            return 0.0
        return pct(per_unit[True], 50) / pct(per_unit[False], 50) - 1.0


def paired_batches(w: BatchWorkload, seconds: float, tracer: Tracer) -> Dict[str, Any]:
    """Run every pool batch twice back to back, once traced and once with
    the tracer switched off, alternating which goes first.  The ratio of
    the two walls is the tracing overhead on identical input milliseconds
    apart; the host's drift cancels."""
    run = w.compiled.run
    pool = w.pool
    ratios: List[float] = []
    short = 0
    first_outputs = None
    end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < end:
        batch = pool[i % len(pool)]
        wall = {}
        for enabled in ((True, False) if i % 2 == 0 else (False, True)):
            tracer.enabled = enabled
            tracer.set_id(i)
            t0 = time.perf_counter()
            outputs, _stats = run(batch)
            wall[enabled] = time.perf_counter() - t0
            if len(outputs) != len(batch):
                short += 1
            if first_outputs is None:
                first_outputs = outputs
        ratios.append(wall[True] / wall[False])
        i += 1
    tracer.enabled = True
    return {"batches": i, "ratios": ratios, "short": short, "first_outputs": first_outputs}


class TracedRun:
    """Tracer life cycle around one workload's traced phases."""

    def __init__(self, workload: Workload, out_dir: str) -> None:
        self.workload = workload
        self.out_dir = out_dir
        self.tracer = Tracer()
        #: id(instance) -> request number, filled by the load generators
        self.request_ids: Dict[int, Any] = {}
        #: (queue_ms, execute_ms) of every request resolved in this phase
        self.request_times: List[tuple] = []

    def restart_traced(self) -> Dict[str, float]:
        """Stop the workload, install the tracer, set up again under it."""
        self.workload.stop()
        install_layer_boundaries(self.tracer, self.request_ids, self.request_times)
        self.workload.start()
        compiled = compile_metrics(self.tracer, self.workload)
        self.next_phase()
        return compiled

    def next_phase(self) -> None:
        self.tracer.next_phase()
        del self.request_times[:]

    def request_stats(self) -> Dict[str, float]:
        """Queue and execute time of the phase's requests, from the public
        ``handle.stats`` the session fills in at the flush."""
        times = list(self.request_times)
        return {
            "serve.queue_wait_p50_ms": pct([t[0] for t in times], 50),
            "serve.execute_p50_ms": pct([t[1] for t in times], 50),
        }

    def finish(self, seed: int) -> None:
        self.workload.stop()
        self.tracer.uninstall()
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"trace_{self.workload.name}_seed{seed}.json")
        self.tracer.dump_chrome(path, {"workload": self.workload.name, "seed": seed})


def traced_batch(w: BatchWorkload, seconds: float, out_dir: str) -> Dict[str, Any]:
    metrics = w.counter_pass()

    run = TracedRun(w, out_dir)
    run.tracer.wrap(type(w.compiled), "run", "model.run")
    metrics.update(run.restart_traced())
    traced = paired_batches(w, seconds, run.tracer)
    metrics.update(span_metrics(run.tracer, traced["batches"]))
    metrics["trace.self_sum_error"] = run.tracer.self_sum_error("model.run")
    run.finish(w.seed)

    metrics["trace.overhead_share"] = pct(traced["ratios"], 50) - 1.0
    failed = w.check(traced["first_outputs"]) + traced["short"] * w.batch_size
    return result(metrics, 2 * traced["batches"] * w.batch_size, failed)


def traced_tree_serve(w: TreeServe, seconds: float, out_dir: str) -> Dict[str, Any]:
    high = w.open_loop(w.high_rate, seconds * 0.15, phase=2)
    mid = w.open_loop(w.mid_rate, seconds * 0.2, phase=3)

    run = TracedRun(w, out_dir)
    metrics = run.restart_traced()
    toggler = Toggler(run.tracer)
    sat = w.closed_loop(seconds * 0.25, request_ids=run.request_ids, tick=toggler.tick)
    metrics["trace.overhead_share"] = toggler.overhead(sat["marks"])
    run.next_phase()
    a = w.open_loop(w.rate, seconds * 0.4, phase=1, request_ids=run.request_ids)
    metrics.update(open_loop_metrics(run, w, a))
    run.finish(w.seed)
    mismatched = w.check(a["handles"])

    metrics["serve.req_p99_ms"] = pct(a["latency_ms"], 99)
    metrics["serve.slo_attain"] = a["slo_attain"]
    metrics["serve.rejected"] = a["rejected"] + mid["rejected"] + high["rejected"]
    metrics["serve.r250_p50_ms"] = pct(mid["latency_ms"], 50)
    metrics["serve.r250_p99_ms"] = pct(mid["latency_ms"], 99)
    metrics["serve.r400_p50_ms"] = pct(high["latency_ms"], 50)
    metrics["serve.r400_p99_ms"] = pct(high["latency_ms"], 99)

    def met(phase: Dict[str, Any]) -> bool:
        return (
            phase["failed"] == 0
            and phase["backlog_end"] == 0
            and pct(phase["latency_ms"], 99) <= SLO_LIMIT_MS
        )

    # the highest rate of the ladder that met the limit without a backlog
    ladder = ((w.high_rate, high), (w.mid_rate, mid), (w.rate, a))
    metrics["serve.slo_rung_rps"] = next((rate for rate, phase in ladder if met(phase)), 0.0)
    phases = (high, mid, sat, a)
    failed = sum(p["failed"] for p in phases) + mismatched
    return result(metrics, sum(p["sent"] for p in phases), failed)


def traced_decode(w: DecodeStream, seconds: float, out_dir: str) -> Dict[str, Any]:
    run = TracedRun(w, out_dir)
    metrics = run.restart_traced()
    toggler = Toggler(run.tracer)
    sat = w.closed_loop(seconds * 0.4, phase=51, tick=toggler.tick)
    metrics["trace.overhead_share"] = toggler.overhead(sat["marks"])
    run.next_phase()
    a = w.open_loop(seconds * 0.6, phase=1, tracer=run.tracer)
    metrics.update(open_loop_metrics(run, w, a))
    run.finish(w.seed)
    mismatched = w.check(a["handles"], a["prompts"])

    done = [h for h in a["handles"] if not h.failed]
    metrics["generate.steps"] = sum(h.stats.steps for h in done)
    metrics["generate.tokens"] = sum(h.stats.tokens for h in done)
    metrics["generate.cohort_mean"] = metrics["serve.mean_batch"]
    metrics["generate.ttft_steps_mean"] = sum(len(p) for p in a["prompts"]) / len(a["prompts"])
    metrics["generate.itl_p50_ms"] = pct(a["itl_ms"], 50)
    metrics["generate.itl_p99_ms"] = pct(a["itl_ms"], 99)
    metrics["serve.slo_attain"] = sum(1 for ms in a["ttft_ms"] if ms <= SLO_LIMIT_MS) / a["sent"]
    failed = sat["failed"] + a["failed"] + mismatched
    return result(metrics, sat["sent"] + a["sent"], failed)


def measure_traced(w: Workload, seconds: float, out_dir: str) -> Dict[str, Any]:
    if isinstance(w, BatchWorkload):
        return traced_batch(w, seconds, out_dir)
    if isinstance(w, TreeServe):
        return traced_tree_serve(w, seconds, out_dir)
    return traced_decode(w, seconds, out_dir)
