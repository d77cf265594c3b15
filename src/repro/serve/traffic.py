"""Open-loop traffic generation and replay on the simulated clock.

Serving benchmarks need *open-loop* load: arrivals follow a stochastic
process with fixed timestamps, independent of how fast the server drains
them (closed-loop drivers that wait for completions hide queueing collapse
— the classic coordinated-omission trap).  This module generates arrival
processes and replays them against a session or endpoint whose
:class:`~repro.serve.clock.SimulatedClock` makes the experiment
deterministic and fast: the driver advances the clock to each arrival (or
to the next flush deadline, whichever comes first), and every flush charges
its measured round latency to the clock, so queueing delay, deadline
semantics and end-to-end latency all compose correctly without real waiting.

Arrival processes:

* :func:`poisson_arrivals` — exponential inter-arrival gaps (memoryless
  traffic at a given request rate);
* :func:`bursty_arrivals` — bursts of near-simultaneous requests with
  exponential gaps between bursts (flash-crowd traffic at the same average
  rate).

Two replay styles, both thin adapters over the one simulated trace driver
(:class:`repro.serve.sim.TraceDriver`): :func:`replay`/:func:`replay_server`
drive the historical caller-driven choreography (each flush blocks intake
for the round's full latency — the driver run without a device timeline),
while :func:`replay_continuous`/:func:`replay_server_continuous` run the
trace through a :class:`~repro.serve.loop.ServeLoop` — continuous batching
with asynchronous device rounds.  Pass ``deterministic=True`` to exclude
measured host wall time so the same trace replays bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .loop import ServeLoop
from .request import RequestHandle
from .server import Endpoint
from .sim import TraceDriver
from .topology import trace_driver


# -- arrival processes ---------------------------------------------------------


def poisson_arrivals(
    rate_rps: float, n: int, *, seed: int = 0, start: float = 0.0
) -> List[float]:
    """``n`` Poisson arrival timestamps at ``rate_rps`` requests/second."""
    if rate_rps <= 0:
        raise ValueError("arrival rate must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, size=n)
    return list(start + np.cumsum(gaps))


def bursty_arrivals(
    rate_rps: float,
    n: int,
    *,
    burst: int = 8,
    seed: int = 0,
    start: float = 0.0,
) -> List[float]:
    """``n`` arrivals in bursts of ``burst`` simultaneous requests.

    Burst start times follow a Poisson process at ``rate_rps / burst``, so
    the *average* request rate matches :func:`poisson_arrivals` at the same
    ``rate_rps`` — only the variance differs.
    """
    if rate_rps <= 0:
        raise ValueError("arrival rate must be positive")
    if burst < 1:
        raise ValueError("burst size must be >= 1")
    rng = np.random.default_rng(seed)
    times: List[float] = []
    t = start
    while len(times) < n:
        t += rng.exponential(burst / rate_rps)
        times.extend([t] * min(burst, n - len(times)))
    return times


# -- replay --------------------------------------------------------------------


@dataclass
class TrafficReport:
    """Outcome of replaying one arrival trace against a session."""

    num_requests: int
    #: first arrival to last completion, seconds (simulated)
    duration_s: float
    throughput_rps: float
    mean_ms: float
    p50_ms: float
    p99_ms: float
    #: mean batch size across the replay's flush rounds
    mean_batch: float
    num_flushes: int
    #: total kernel launches (batched + gather) across the replay's rounds
    kernel_launches: int
    #: per-request end-to-end latencies (ms), in submission order
    latencies_ms: List[float] = field(default_factory=list)
    #: per-request outputs, in submission order
    outputs: List[Any] = field(default_factory=list)
    #: resolved request handles, in submission order
    handles: List[RequestHandle] = field(default_factory=list)

    def summary(self) -> Dict[str, float]:
        return {
            "requests": self.num_requests,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "mean_batch": self.mean_batch,
            "flushes": self.num_flushes,
            "kernel_launches": self.kernel_launches,
        }


def _snapshot(session) -> Tuple[int, int, int]:
    """Running totals at replay start; the report uses the deltas, so it
    stays correct however long the session has already been serving."""
    return (session.num_flushes, session.requests_flushed, session.total_kernel_calls)


def _report(
    session,
    handles: List[RequestHandle],
    first_arrival: float,
    start: Tuple[int, int, int],
) -> TrafficReport:
    if not handles:
        return TrafficReport(
            num_requests=0,
            duration_s=0.0,
            throughput_rps=0.0,
            mean_ms=0.0,
            p50_ms=0.0,
            p99_ms=0.0,
            mean_batch=0.0,
            num_flushes=0,
            kernel_launches=0,
        )
    flushes = session.num_flushes - start[0]
    batched = session.requests_flushed - start[1]
    launches = session.total_kernel_calls - start[2]
    latencies = [h.stats.latency_ms for h in handles]
    completed = max(h.stats.completed_at for h in handles)
    duration = max(completed - first_arrival, 1e-12)
    return TrafficReport(
        num_requests=len(handles),
        duration_s=duration,
        throughput_rps=len(handles) / duration,
        mean_ms=float(np.mean(latencies)),
        p50_ms=float(np.percentile(latencies, 50)),
        p99_ms=float(np.percentile(latencies, 99)),
        mean_batch=(batched / flushes) if flushes else 0.0,
        num_flushes=flushes,
        kernel_launches=launches,
        latencies_ms=latencies,
        outputs=[h.result() for h in handles],
        handles=handles,
    )


def _replay_session(
    session,
    requests: Sequence[Any],
    arrivals: Sequence[float],
    *,
    continuous: bool,
    deterministic: bool,
    host_model: Optional[Tuple[float, float]],
) -> TrafficReport:
    """Replay one session's trace through the simulated trace driver, as
    the only session of a one-loop driver."""
    if len(requests) != len(arrivals):
        raise ValueError("need exactly one arrival time per request")
    if any(b < a for a, b in zip(arrivals, arrivals[1:])):
        raise ValueError("arrival trace must be sorted by time")
    if isinstance(session, Endpoint):
        session = session.session
    clock = session.clock
    loop = ServeLoop(sessions={"_": session}, clock=clock)
    driver = TraceDriver([loop], clock, continuous=continuous)
    start = _snapshot(session)
    first_arrival = arrivals[0] if len(arrivals) else clock.now()
    handles = driver.run(
        [(t, "_", request) for t, request in zip(arrivals, requests)],
        deterministic=deterministic,
        host_model=host_model,
    ).get("_", [])
    return _report(session, handles, first_arrival, start)


def replay(
    session,
    requests: Sequence[Any],
    arrivals: Sequence[float],
    *,
    deterministic: bool = False,
    host_model: Optional[Tuple[float, float]] = None,
) -> TrafficReport:
    """Replay an open-loop arrival trace against one session (or endpoint),
    caller-driven: the historical single-threaded choreography where each
    flush blocks intake for the round's full latency (the trace driver run
    without a device timeline or host lane).

    ``session`` must run on a :class:`~repro.serve.clock.SimulatedClock`.
    Each request is submitted at its scheduled arrival time; flush deadlines
    falling between arrivals fire in order, and after the last arrival the
    backlog drains.  Arrivals that land while the session is executing are
    submitted as soon as it frees up but keep their true arrival timestamp,
    so queueing delay is measured without coordinated omission.

    ``deterministic=True`` excludes measured host wall time from the
    simulated timeline (rounds cost their simulated device + API time
    only), so the same trace replays bit-for-bit across runs — the mode the
    continuous-vs-caller-driven benchmark compares under.  ``host_model``
    optionally replaces the excluded host share with a deterministic
    ``(per_round_ms, per_request_ms)`` linear model, so intake still pays a
    host cost per flush (the phenomenon a caller-driven loop suffers from)
    without wall-clock noise.
    """
    return _replay_session(
        session,
        requests,
        arrivals,
        continuous=False,
        deterministic=deterministic,
        host_model=host_model,
    )


def replay_continuous(
    session,
    requests: Sequence[Any],
    arrivals: Sequence[float],
    *,
    deterministic: bool = True,
    host_model: Optional[Tuple[float, float]] = None,
) -> TrafficReport:
    """Replay an open-loop arrival trace with **continuous batching**: the
    trace runs through a one-session :class:`~repro.serve.loop.ServeLoop`
    on the simulated trace driver, so flushed rounds execute asynchronously
    on a device timeline while intake streams on, partial rounds launch
    exactly when the flush policy fires, and the device never idles while a
    backlog exists.

    With ``deterministic`` (default) the simulated timeline depends only on
    the trace and the device cost model: replaying the same trace is
    bit-for-bit identical across runs.
    """
    return _replay_session(
        session,
        requests,
        arrivals,
        continuous=True,
        deterministic=deterministic,
        host_model=host_model,
    )


def _replay_server(
    server, workload: Iterable[Tuple], run, **run_args: Any
) -> Dict[str, TrafficReport]:
    """Run a tagged server trace through ``run(items, **run_args) ->
    handles`` and report per endpoint that received traffic."""
    items = sorted(workload, key=lambda item: item[0])
    starts = {name: _snapshot(server.endpoint(name).session) for name in server.endpoints}
    first_arrival: Dict[str, float] = {}
    for t, name, *_ in items:
        first_arrival.setdefault(name, t)
    return {
        name: _report(
            server.endpoint(name).session,
            eps_handles,
            first_arrival[name],
            starts[name],
        )
        for name, eps_handles in run(items, **run_args).items()
    }


def replay_server(
    server,
    workload: Iterable[Tuple[float, str, Any]],
    *,
    deterministic: bool = False,
    host_model: Optional[Tuple[float, float]] = None,
) -> Dict[str, TrafficReport]:
    """Replay a tagged open-loop trace against a multi-endpoint server,
    caller-driven (each flush blocks intake for the round's full latency).

    ``workload`` yields ``(arrival_time, endpoint_name, request)`` sorted by
    arrival time.  Deadline flushes of *any* endpoint fire in timestamp
    order between arrivals; returns one :class:`TrafficReport` per endpoint
    that received traffic.  ``deterministic``/``host_model`` behave as in
    :func:`replay`, so caller-driven and continuous server replays compare
    at equal footing.
    """
    server._materialize_topology()
    return _replay_server(
        server,
        workload,
        trace_driver(server, continuous=False).run,
        deterministic=deterministic,
        host_model=host_model,
    )


def replay_server_continuous(
    server,
    workload: Iterable[Tuple[float, str, Any]],
    *,
    deterministic: bool = True,
    host_model: Optional[Tuple[float, float]] = None,
) -> Dict[str, TrafficReport]:
    """Replay a tagged open-loop trace against a multi-endpoint server with
    continuous batching: the trace runs through the server's
    :class:`~repro.serve.loop.ServeLoop` (``server.loop.run_trace``), all
    endpoints sharing one device timeline.  Returns one
    :class:`TrafficReport` per endpoint that received traffic.
    """
    return _replay_server(
        server,
        workload,
        server.loop.run_trace,
        deterministic=deterministic,
        host_model=host_model,
    )
