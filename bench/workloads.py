"""The four benchmark workloads and the load generators that drive them.

Every workload has the same life cycle — ``build`` (import ``repro`` and
build the IR), ``make_inputs`` (seeded, not part of set-up time), ``start``
(compile, construct the engine/server/session, one warm-up round), timed
phases, ``stop`` — so set-up can be timed the same way for all four and a
traced run can repeat ``start`` with the tracer installed.

What each workload is for is recorded in ``BENCHMARK.json`` (``why``) and
``bench/README.md``; sizes below are for a 2-core box and a run length the
driver's time cap allows (see README, "Sizing").
"""

from __future__ import annotations

import gc
import queue
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

_perf = time.perf_counter

#: requests that take longer than this from their due time miss the limit
SLO_LIMIT_MS = 300.0


def pct(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def bitwise_equal(a: Any, b: Any) -> bool:
    """Exact equality of two model outputs (nested ADT/tuple/array)."""
    from repro.utils import flatten_arrays

    xs, ys = flatten_arrays(a), flatten_arrays(b)
    return len(xs) == len(ys) and all(
        x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in zip(xs, ys)
    )


def freeze_inputs() -> None:
    """Hide the harness's own input pool from the cyclic collector.

    GC stays on — the program under test pays for the garbage it makes —
    but thousands of pooled trees are the harness's objects, and leaving
    them visible makes every gen-2 pass traverse them (measured at the seed
    commit: tree_batch p95 122 -> 169 ms, -11% instances/s), a cost no
    caller holding a handful of live requests pays.
    """
    gc.collect()
    gc.freeze()


def poisson_offsets(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Due times (s from phase start) of a Poisson process of ``rate``/s."""
    n = max(1, int(round(rate * seconds)))
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def run_open_loop(
    offsets: Sequence[float], send: Callable[[int, float], None]
) -> Tuple[List[float], List[float]]:
    """Send request ``i`` at ``start + offsets[i]`` whatever the system is
    doing (independent users).  Returns the absolute due times and how late
    each send ran; latencies are timed from the due time, so a generator
    stall counts against the requests it delayed."""
    start = _perf() + 0.02
    due_times: List[float] = []
    late: List[float] = []
    for i, off in enumerate(offsets):
        due = start + off
        delay = due - _perf()
        if delay > 0:
            time.sleep(delay)
        late.append(_perf() - due)
        due_times.append(due)
        send(i, due)
    return due_times, late


def run_closed_loop(
    clients: int,
    seconds: float,
    send: Callable[[int], None],
    done: "queue.SimpleQueue",
    tick: Optional[Callable[[float], None]] = None,
) -> Tuple[int, float]:
    """Keep ``clients`` operations outstanding for ``seconds`` (callers that
    each wait for their reply).  ``send(i)`` starts operation ``i``, whose
    completion puts one item on ``done``; ``tick(now)`` runs once per
    completion (the traced run switches the tracer on and off with it).
    Returns (started, window)."""
    start = _perf()
    end = start + seconds
    for i in range(clients):
        send(i)
    started = clients
    while True:
        now = _perf()
        remaining = end - now
        if remaining <= 0:
            break
        if tick is not None:
            tick(now)
        try:
            done.get(timeout=remaining)
        except queue.Empty:
            break
        send(started)
        started += 1
    return started, _perf() - start


#: consecutive slices a timed phase is cut into; metrics are the median over
#: slices, so a slow spell of the shared host moves one or two slices, not
#: the reported value, while anything the program does every round still shows
SLICES = 8


def sliced_pct(values: Sequence[float], q: float, slices: int = SLICES) -> float:
    """Median over consecutive slices of each slice's ``q``-th percentile
    (fewer slices when they would hold under 50 samples each)."""
    slices = max(1, min(slices, len(values) // 50))
    cuts = [round(k * len(values) / slices) for k in range(slices + 1)]
    return float(np.median([pct(values[a:b], q) for a, b in zip(cuts, cuts[1:])]))


def merge_bursts(marks: Sequence[Tuple[float, float, int]]) -> List[List[float]]:
    """Completion marks ``(time, process CPU seconds, units)`` less than 2 ms
    apart merged into one ``[last time, last CPU, units]`` burst: a round
    resolves all its requests at once (tree_serve runs in lock step, 64 at
    a time), and anything cut inside a burst would pair a whole number of
    rounds with a count that is not a whole number of them."""
    bursts: List[List[float]] = []
    for t, cpu, units in sorted(marks):
        if bursts and t - bursts[-1][0] <= 0.002:
            bursts[-1][0], bursts[-1][1] = t, cpu
            bursts[-1][2] += units
        else:
            bursts.append([t, cpu, units])
    return bursts


def steady_rate(
    marks: Sequence[Tuple[float, float, int]], start: Tuple[float, float], slices: int = SLICES
) -> Tuple[float, float]:
    """Units per second and CPU ms per unit of a closed loop, each the
    median over consecutive slices cut between completion bursts.

    ``marks`` are taken at every completion, ``start`` is the same two
    clocks when the loop began."""
    bursts = [[start[0], start[1], 0]] + merge_bursts(marks)
    n = len(bursts) - 1
    slices = max(1, min(slices, n // 4))
    cuts = [round(k * n / slices) for k in range(slices + 1)]
    rates, cpu_ms = [], []
    for a, b in zip(cuts, cuts[1:]):
        units = sum(burst[2] for burst in bursts[a + 1 : b + 1])
        rates.append(units / (bursts[b][0] - bursts[a][0]))
        cpu_ms.append((bursts[b][1] - bursts[a][1]) * 1e3 / units)
    return float(np.median(rates)), float(np.median(cpu_ms))


class Workload:
    """Shared life cycle; subclasses add inputs and phases."""

    name = ""
    model_name = ""
    #: how the open/closed phases split ``--seconds`` in an untraced run
    split = (0.6, 0.4)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    # -- set-up ------------------------------------------------------------------
    def build(self) -> None:
        """Import ``repro`` and build the model's IR module + parameters."""
        from repro.models import MODEL_MODULES

        self.module = MODEL_MODULES[self.model_name]
        t0 = _perf()
        self.mod, self.params, self.size = self.module.build_for("small")
        self.ir_build_s = _perf() - t0

    def start(self) -> None:
        """Compile, construct what serves the model, run one warm-up round."""
        from repro import compile_model

        self.compiled = compile_model(self.mod, self.params)
        self._start_serving()

    def _start_serving(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        pass

    def compile_counts(self) -> Dict[str, float]:
        compiled = self.compiled
        return {
            "compiler.static_blocks": len(compiled.program.blocks),
            "compiler.source_lines": compiled.source.count("\n") + 1,
            "kernels.fused_kernels": len(compiled.kernel_names()),
        }


# ---------------------------------------------------------------------------
# closed-loop mini-batches through CompiledModel.run
# ---------------------------------------------------------------------------


class BatchWorkload(Workload):
    """``compile_model(...).run(batch)`` in a closed loop, B=64."""

    batch_size = 64
    pool_batches = 40
    #: batches of the deterministic counter pass
    counter_batches = 4

    def make_inputs(self, warm_only: bool = False) -> None:
        n = 1 if warm_only else self.pool_batches
        self.pool = [
            self.module.make_batch(
                self.mod, self.size, self.batch_size, seed=self.seed * 1000 + i
            )
            for i in range(n)
        ]

    def _start_serving(self) -> None:
        self.compiled.run(self.pool[0])

    def closed_loop(self, seconds: float) -> Dict[str, Any]:
        """Run batches back to back for ``seconds``; every output is
        materialized inside the timed call."""
        run = self.compiled.run
        pool = self.pool
        wall: List[float] = []
        model_ms: List[float] = []
        marks: List[Tuple[float, float, int]] = []
        short = 0
        first_outputs = None
        start_cpu = time.process_time()
        start = _perf()
        end = start + seconds
        i = 0
        now = start
        while now < end:
            batch = pool[i % len(pool)]
            outputs, stats = run(batch)
            done = _perf()
            wall.append(done - now)
            marks.append((done, time.process_time(), len(batch)))
            now = done
            model_ms.append(stats.latency_ms)
            if len(outputs) != len(batch):
                short += 1
            if i == 0:
                first_outputs = outputs
            i += 1
        rate, cpu_ms = steady_rate(marks, (start, start_cpu))
        return {
            "batches": i,
            "rate": rate,
            "cpu_ms": cpu_ms,
            "wall_s": wall,
            "model_ms": model_ms,
            "short": short,
            "first_outputs": first_outputs,
        }

    def check(self, first_outputs: Sequence[Any]) -> int:
        """Mismatches between the first timed batch and the eager reference."""
        from repro import reference_run

        reference = reference_run(self.mod, self.params, self.pool[0])
        return sum(
            0 if bitwise_equal(out, ref) else 1
            for out, ref in zip(first_outputs, reference)
        ) + abs(len(reference) - len(first_outputs))

    def measure(self, seconds: float) -> Dict[str, Any]:
        r = self.closed_loop(seconds)
        instances = r["batches"] * self.batch_size
        failed = self.check(r["first_outputs"]) + r["short"] * self.batch_size
        wall_ms = [w * 1e3 for w in r["wall_s"]]
        return {
            "attempted": instances,
            "failed": failed,
            "metrics": {
                "throughput_per_s": r["rate"],
                "latency_p50_ms": sliced_pct(wall_ms, 50),
                "latency_p90_ms": sliced_pct(wall_ms, 90),
                "model_latency_ms": pct(r["model_ms"], 50),
                "cpu_ms_per_unit": r["cpu_ms"],
            },
            "counts": {"batches": r["batches"]},
        }

    def counter_pass(self) -> Dict[str, float]:
        """Counters of the first few pool batches, each on a fresh simulated
        device: a fixed set of inputs, so every value repeats exactly for
        one seed however many batches the timed loop got through."""
        from repro.runtime.device import DeviceSimulator

        n = self.counter_batches
        tot: Dict[str, float] = {}

        def add(key: str, value: float) -> None:
            tot[key] = tot.get(key, 0.0) + value

        for batch in self.pool[:n]:
            device = DeviceSimulator()
            _, stats = self.compiled.run(batch, device=device)
            add("devices.sim_device_ms", stats.device_total_ms)
            add("devices.api_ms", stats.api_time_ms)
            add("devices.kernel_launches", stats.device.get("num_kernel_launches", 0))
            add("devices.gather_launches", stats.device.get("num_gather_launches", 0))
            add("devices.h2d_bytes", device.counters.bytes_copied)
            add("runtime.sync_rounds", stats.sync_rounds)
            add("runtime.batches", stats.num_batches)
            add("runtime.dfg_nodes", stats.num_dfg_nodes)
            for kind in ("contiguous", "gather", "fused_gather"):
                add(f"memory.{kind}_operands", stats.memory.get(kind, 0))
            add("memory.plan_cache_hits", stats.memory.get("plan_cache_hits", 0))
            add("memory.plan_cache_misses", stats.memory.get("plan_cache_misses", 0))
            for key in ("hits", "misses", "promotions", "demotions", "frozen_bytes"):
                add(f"specialize.{key}", stats.specialize.get(key, 0))
        out = {k: v / n for k, v in tot.items()}
        out["runtime.nodes_per_batch"] = tot["runtime.dfg_nodes"] / max(1.0, tot["runtime.batches"])
        del out["runtime.dfg_nodes"]
        return out


class TreeBatch(BatchWorkload):
    name = "tree_batch"
    model_name = "treelstm"


class TdcBatch(BatchWorkload):
    name = "tdc_batch"
    model_name = "stackrnn"


# ---------------------------------------------------------------------------
# serving: independent requests through Server.run()
# ---------------------------------------------------------------------------


class ServeWorkload(Workload):
    """Shared server set-up for the two serving workloads."""

    endpoint = "model"

    def _make_server(self) -> None:
        from repro.serve import Server

        self.server = Server(max_pending=4096, backpressure="reject")
        self.server.add_endpoint(self.endpoint, self.compiled, policy="adaptive")
        self.server.run()
        self.session = self.server.endpoint(self.endpoint).session

    def stop(self) -> None:
        self.server.shutdown()

    @staticmethod
    def _settle(unanswered: Callable[[], int]) -> int:
        """Backlog at the end of an open-loop phase: operations still without
        a (first) response one latency limit after the last send.  Zero when
        the system keeps up; grows with the phase when it does not."""
        time.sleep(SLO_LIMIT_MS / 1e3)
        return unanswered()

    def round_stats(self, since: int) -> List[Any]:
        """``RunStats`` of the rounds flushed since ``session.num_flushes``
        read ``since`` (the session keeps its last 1024; a phase stays well
        under that at the sizes used here)."""
        n = self.session.num_flushes - since
        return list(self.session.history)[-n:] if n > 0 else []

    def serve_counters(self, rounds: Sequence[Any]) -> Dict[str, float]:
        """Counters of the serving stack over ``rounds`` (planner and
        specializer counts are cumulative in ``RunStats``, so take deltas)."""
        out: Dict[str, float] = {}
        n = max(1, len(rounds))
        reasons = [r.flush_reason for r in rounds]
        for reason in ("adaptive", "size", "deadline", "manual"):
            out[f"serve.flush_reason.{reason}"] = reasons.count(reason)
        out["serve.flushes"] = len(rounds)
        out["serve.mean_batch"] = sum(r.batch_size for r in rounds) / n
        out["devices.sim_device_ms"] = sum(r.device_total_ms for r in rounds) / n
        out["devices.api_ms"] = sum(r.api_time_ms for r in rounds) / n
        out["devices.kernel_launches"] = sum(r.device.get("num_kernel_launches", 0) for r in rounds) / n
        out["devices.gather_launches"] = sum(r.device.get("num_gather_launches", 0) for r in rounds) / n
        out["runtime.sync_rounds"] = sum(r.sync_rounds for r in rounds) / n
        out["runtime.batches"] = sum(r.num_batches for r in rounds) / n
        out["runtime.nodes_per_batch"] = sum(r.num_dfg_nodes for r in rounds) / max(
            1, sum(r.num_batches for r in rounds)
        )
        for kind in ("contiguous", "gather", "fused_gather"):
            out[f"memory.{kind}_operands"] = sum(r.memory.get(kind, 0) for r in rounds) / n
        if rounds:
            first, last = rounds[0], rounds[-1]
            for key in ("plan_cache_hits", "plan_cache_misses"):
                out[f"memory.{key}"] = last.memory.get(key, 0) - first.memory.get(key, 0)
            for key in ("hits", "misses", "promotions", "demotions"):
                out[f"specialize.{key}"] = last.specialize.get(key, 0) - first.specialize.get(key, 0)
            out["specialize.frozen_bytes"] = last.specialize.get("frozen_bytes", 0)
        return out


class TreeServe(ServeWorkload):
    """Distinct TreeLSTM requests behind a threaded server."""

    name = "tree_serve"
    model_name = "treelstm"
    endpoint = "trees"
    pool_size = 2000
    #: the gated open-loop rate.  Producer and loop share the GIL, so what
    #: matters is the share of *one* core the process uses: 0.5 here, against
    #: 0.85 at 250 req/s, where the queue turns a 10% slower host into a 30%
    #: longer tail (two 10-run sets of one commit spread 25-28% on p90)
    rate = 100.0
    #: supporting open-loop rates of the traced run (the ladder; not gated)
    mid_rate = 250.0
    high_rate = 400.0
    clients = 64

    def make_inputs(self, warm_only: bool = False) -> None:
        n = self.clients if warm_only else self.pool_size
        self.pool = self.module.make_batch(self.mod, self.size, n, seed=self.seed)

    def _start_serving(self) -> None:
        self._make_server()
        handles = [
            self.server.submit(self.endpoint, inst) for inst in self.pool[: self.clients]
        ]
        for h in handles:
            h.result(timeout=60.0)

    # -- phases ------------------------------------------------------------------
    def open_loop(
        self, rate: float, seconds: float, phase: int, request_ids: Optional[dict] = None
    ) -> Dict[str, Any]:
        """Poisson arrivals at ``rate``/s; latency runs from each request's
        due time to the moment its handle resolves."""
        from repro.serve import BackpressureFull

        rng = np.random.default_rng([self.seed, phase])
        offsets = poisson_offsets(rate, seconds, rng)
        n = len(offsets)
        pool = self.pool
        done_at: List[Optional[float]] = [None] * n
        failed_ids: set = set()
        # only the checked sample keeps its handle: thousands of resolved
        # handles held by the harness would be the collector's to traverse
        sample: List[Any] = [None] * min(n, self.clients)
        server, endpoint = self.server, self.endpoint
        history_mark = self.session.num_flushes
        rejected = 0

        def on_done(h: Any, i: int) -> None:
            done_at[i] = _perf()
            if h.failed:
                failed_ids.add(i)

        def send(i: int, due: float) -> None:
            nonlocal rejected
            inst = pool[i % len(pool)]
            if request_ids is not None:
                request_ids[id(inst)] = i
            try:
                h = server.submit(endpoint, inst)
            except BackpressureFull:
                rejected += 1
                failed_ids.add(i)
                return
            if i < len(sample):
                sample[i] = h
            h.add_done_callback(lambda h, i=i: on_done(h, i))

        phase_start = _perf()
        due_times, late = run_open_loop(offsets, send)
        backlog = self._settle(
            lambda: sum(1 for i, t in enumerate(done_at) if t is None and i not in failed_ids)
        )
        self.server.drain()
        phase_s = _perf() - phase_start

        latency_ms = [
            (done_at[i] - due_times[i]) * 1e3
            for i in range(n)
            if done_at[i] is not None and i not in failed_ids
        ]
        return {
            "sent": n,
            "failed": n - len(latency_ms),
            "rejected": rejected,
            "latency_ms": latency_ms,
            "slo_attain": sum(1 for ms in latency_ms if ms <= SLO_LIMIT_MS) / n,
            "late_ms": [x * 1e3 for x in late],
            "backlog_end": backlog,
            "handles": sample,
            "rounds": self.round_stats(history_mark),
            "phase_s": phase_s,
        }

    def closed_loop(
        self,
        seconds: float,
        request_ids: Optional[dict] = None,
        tick: Optional[Callable[[float], None]] = None,
    ) -> Dict[str, Any]:
        """``clients`` requests outstanding: the saturation throughput."""
        pool = self.pool
        server, endpoint = self.server, self.endpoint
        done: "queue.SimpleQueue" = queue.SimpleQueue()
        marks: List[Tuple[float, float, int]] = []
        errored: List[int] = []
        history_mark = self.session.num_flushes

        def on_done(h: Any) -> None:
            marks.append((_perf(), time.process_time(), 1))
            if h.failed:
                errored.append(1)
            done.put(None)

        def send(i: int) -> None:
            inst = pool[i % len(pool)]
            if request_ids is not None:
                request_ids[id(inst)] = i
            server.submit(endpoint, inst).add_done_callback(on_done)

        start = (_perf(), time.process_time())
        started, window = run_closed_loop(self.clients, seconds, send, done, tick)
        self.server.drain()
        resolved = len(marks)
        marks = [m for m in marks if m[0] <= start[0] + window]
        rate, cpu_ms = steady_rate(marks, start)
        return {
            "sent": started,
            "failed": len(errored) + started - resolved,
            "rate": rate,
            "cpu_ms": cpu_ms,
            "marks": marks,
            "rounds": self.round_stats(history_mark),
        }

    def check(self, handles: Sequence[Any]) -> int:
        """Compare the first ``clients`` open-loop results with the eager
        reference (request ``i`` carried pool entry ``i``)."""
        from repro import reference_run

        sample = [(i, h) for i, h in enumerate(handles) if h is not None and not h.failed]
        reference = reference_run(self.mod, self.params, [self.pool[i] for i, _ in sample])
        return sum(
            0 if bitwise_equal(h.result(timeout=0), ref) else 1
            for (_, h), ref in zip(sample, reference)
        )

    def measure(self, seconds: float) -> Dict[str, Any]:
        a = self.open_loop(self.rate, seconds * self.split[0], phase=0)
        b = self.closed_loop(seconds * self.split[1])
        mismatched = self.check(a["handles"])
        return {
            "attempted": a["sent"] + b["sent"],
            "failed": a["failed"] + b["failed"] + mismatched,
            "metrics": {
                "throughput_per_s": b["rate"],
                "latency_p50_ms": sliced_pct(a["latency_ms"], 50),
                "latency_p90_ms": sliced_pct(a["latency_ms"], 90),
                "model_latency_ms": pct([r.latency_ms for r in a["rounds"]], 50),
                "cpu_ms_per_unit": b["cpu_ms"],
            },
            "counts": {
                "open_sent": a["sent"], "open_failed": a["failed"],
                "closed_sent": b["sent"], "closed_failed": b["failed"],
                "mismatched": mismatched,
            },
        }


class DecodeStream(ServeWorkload):
    """Token streaming through GenerationSession behind a server."""

    name = "decode_stream"
    model_name = "declm_gru"
    endpoint = "decoder"
    rate = 10.0
    clients = 16
    max_new_tokens = 32
    max_prompt = 7
    #: sequences compared with reference_generate
    checked = 8

    def make_inputs(self, warm_only: bool = False) -> None:
        pass  # prompts are drawn per phase from the seed; nothing to pool

    def prompts(self, n: int, phase: int) -> List[List[int]]:
        """Seeded prompts of 1..max_prompt tokens.  Lengths are stratified
        (each length equally often, order shuffled): time to first token is
        a whole number of ~21 ms steps, so an i.i.d. draw of ~100 lengths
        moves its median by a full step between seeds."""
        rng = np.random.default_rng([self.seed, 100 + phase])
        lengths = rng.permutation(np.resize(np.arange(1, self.max_prompt + 1), n))
        return [[int(t) for t in rng.integers(0, self.size.classes, size=k)] for k in lengths]

    def _start_serving(self) -> None:
        from repro.generate import GenerationRequest, GenerationSession

        self._make_server()
        self.gen = GenerationSession(
            server=self.server, endpoint=self.endpoint, model=self.module,
            size=self.size, eos_id=None,
        )
        self.gen.submit(GenerationRequest([1], max_new_tokens=2)).result(timeout=60.0)

    def stop(self) -> None:
        self.gen.close(timeout=60.0)
        super().stop()

    def _request(self, prompt: List[int], on_token_at: Callable[[float], None], on_last: Optional[Callable] = None):
        from repro.generate import GenerationRequest

        last = self.max_new_tokens - 1

        def on_token(_handle, _token, index, _at):
            on_token_at(_perf())
            if index == last and on_last is not None:
                on_last()

        return GenerationRequest(prompt, max_new_tokens=self.max_new_tokens, on_token=on_token)

    def open_loop(self, seconds: float, phase: int, tracer: Any = None) -> Dict[str, Any]:
        """Poisson sequence arrivals; time to first token runs from the
        sequence's due time to its first ``on_token`` callback."""
        rng = np.random.default_rng([self.seed, phase])
        offsets = poisson_offsets(self.rate, seconds, rng)
        n = len(offsets)
        prompts = self.prompts(n, phase)
        times: List[List[float]] = [[] for _ in range(n)]
        handles: List[Any] = [None] * n
        history_mark = self.session.num_flushes

        def send(i: int, due: float) -> None:
            if tracer is not None:
                tracer.set_id(i)
            handles[i] = self.gen.submit(self._request(prompts[i], times[i].append))

        phase_start = _perf()
        due_times, late = run_open_loop(offsets, send)
        backlog = self._settle(lambda: sum(1 for t in times if not t))
        self.gen.drain(timeout=120.0)
        phase_s = _perf() - phase_start

        ttft_ms: List[float] = []
        itl_ms: List[float] = []
        failed = 0
        for i, h in enumerate(handles):
            if h.failed or len(h.tokens) != self.max_new_tokens or not times[i]:
                failed += 1
                continue
            ttft_ms.append((times[i][0] - due_times[i]) * 1e3)
            itl_ms.extend(np.diff(times[i]) * 1e3)
        return {
            "sent": n,
            "failed": failed,
            "ttft_ms": ttft_ms,
            "itl_ms": itl_ms,
            "late_ms": [x * 1e3 for x in late],
            "backlog_end": backlog,
            "handles": handles,
            "prompts": prompts,
            "rounds": self.round_stats(history_mark),
            "phase_s": phase_s,
        }

    def closed_loop(
        self, seconds: float, phase: int = 50, tick: Optional[Callable[[float], None]] = None
    ) -> Dict[str, Any]:
        """``clients`` sequences generating at once: tokens per second."""
        done: "queue.SimpleQueue" = queue.SimpleQueue()
        marks: List[Tuple[float, float, int]] = []
        handles: List[Any] = []
        # more prompts than can possibly start within the window
        prompts = self.prompts(self.clients + int(seconds * 200), phase)
        history_mark = self.session.num_flushes

        def send(i: int) -> None:
            req = self._request(
                prompts[i % len(prompts)],
                lambda t: marks.append((t, time.process_time(), 1)),
                on_last=lambda: done.put(None),
            )
            handles.append(self.gen.submit(req))

        start = (_perf(), time.process_time())
        started, window = run_closed_loop(self.clients, seconds, send, done, tick)
        self.gen.drain(timeout=120.0)
        marks = [m for m in marks if m[0] <= start[0] + window]
        rate, cpu_ms = steady_rate(marks, start)
        failed = sum(1 for h in handles if h.failed or len(h.tokens) != self.max_new_tokens)
        return {
            "sent": started,
            "failed": failed,
            "rate": rate,
            "cpu_ms": cpu_ms,
            "marks": marks,
            "rounds": self.round_stats(history_mark),
        }

    def check(self, handles: Sequence[Any], prompts: Sequence[List[int]]) -> int:
        from repro.generate import reference_generate

        bad = 0
        for h, prompt in list(zip(handles, prompts))[: self.checked]:
            reference = reference_generate(
                self.mod, self.params, self.module, self.size, prompt,
                self.max_new_tokens, eos_id=None,
            )
            if list(h.tokens) != reference:
                bad += 1
        return bad

    def measure(self, seconds: float) -> Dict[str, Any]:
        a = self.open_loop(seconds * self.split[0], phase=0)
        b = self.closed_loop(seconds * self.split[1])
        mismatched = self.check(a["handles"], a["prompts"])
        return {
            "attempted": a["sent"] + b["sent"],
            "failed": a["failed"] + b["failed"] + mismatched,
            "metrics": {
                "throughput_per_s": b["rate"],
                "latency_p50_ms": sliced_pct(a["ttft_ms"], 50),
                "latency_p90_ms": sliced_pct(a["ttft_ms"], 90),
                "model_latency_ms": pct([r.latency_ms for r in a["rounds"]], 50),
                "cpu_ms_per_unit": b["cpu_ms"],
            },
            "counts": {
                "open_sent": a["sent"], "open_failed": a["failed"],
                "closed_sent": b["sent"], "closed_failed": b["failed"],
                "mismatched": mismatched,
            },
        }


WORKLOADS = {w.name: w for w in (TreeBatch, TdcBatch, TreeServe, DecodeStream)}
