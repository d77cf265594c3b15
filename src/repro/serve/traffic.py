"""Open-loop traffic: arrival processes and the replay report.

Serving benchmarks need *open-loop* load: arrivals follow a stochastic
process with fixed timestamps, independent of how fast the server drains
them (closed-loop drivers that wait for completions hide queueing collapse
— the classic coordinated-omission trap).  This module generates arrival
processes and defines :class:`TrafficReport`, the per-endpoint outcome of
:meth:`repro.serve.server.Server.replay` — the one way to replay a trace
on a :class:`~repro.serve.clock.SimulatedClock`.

Arrival processes:

* :func:`poisson_arrivals` — exponential inter-arrival gaps (memoryless
  traffic at a given request rate);
* :func:`bursty_arrivals` — bursts of near-simultaneous requests with
  exponential gaps between bursts (flash-crowd traffic at the same average
  rate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence

import numpy as np

from .request import RequestHandle


# -- arrival processes ---------------------------------------------------------


def poisson_arrivals(rate_rps: float, n: int, *, seed: int = 0) -> List[float]:
    """``n`` Poisson arrival timestamps at ``rate_rps`` requests/second."""
    if rate_rps <= 0:
        raise ValueError("arrival rate must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, size=n)
    return list(np.cumsum(gaps))


def bursty_arrivals(
    rate_rps: float,
    n: int,
    *,
    burst: int = 8,
    seed: int = 0,
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
    t = 0.0
    while len(times) < n:
        t += rng.exponential(burst / rate_rps)
        times.extend([t] * min(burst, n - len(times)))
    return times




# -- the replay report ---------------------------------------------------------


@dataclass
class TrafficReport:
    """Outcome of replaying one endpoint's share of an arrival trace.

    Latency, throughput and outputs fold over the requests that completed;
    ``handles`` keeps every request's handle, failed admissions (rejected,
    shed, expired) included, and ``num_failed`` counts those."""

    #: every request of the trace, failed ones included
    num_requests: int
    #: first arrival to last completion, seconds (simulated)
    duration_s: float
    #: completed requests per second over ``duration_s``
    throughput_rps: float
    mean_ms: float
    p50_ms: float
    p99_ms: float
    #: mean batch size across the replay's flush rounds
    mean_batch: float
    num_flushes: int
    #: total kernel launches (batched + gather) across the replay's rounds
    kernel_launches: int
    #: requests that resolved exceptionally instead of completing
    num_failed: int = 0
    #: end-to-end latencies (ms) of the completed requests, in arrival order
    latencies_ms: List[float] = field(default_factory=list)
    #: outputs of the completed requests, in arrival order
    outputs: List[Any] = field(default_factory=list)
    #: every request's handle, in arrival order
    handles: List[RequestHandle] = field(default_factory=list)

    @classmethod
    def fold(
        cls,
        handles: Sequence[RequestHandle],
        first_arrival: float,
        *,
        flushes: int = 0,
        batched: int = 0,
        launches: int = 0,
    ) -> "TrafficReport":
        """Fold resolved handles into a report; ``flushes``/``batched``/
        ``launches`` are the serving sessions' counter deltas over the
        replay."""
        done = [h for h in handles if not h.failed]
        latencies = [h.stats.latency_ms for h in done]
        folded = latencies or [0.0]
        duration = 0.0
        if done:
            last = max(h.stats.completed_at for h in done)
            duration = max(last - first_arrival, 1e-12)
        return cls(
            num_requests=len(handles),
            duration_s=duration,
            throughput_rps=len(done) / duration if done else 0.0,
            mean_ms=float(np.mean(folded)),
            p50_ms=float(np.percentile(folded, 50)),
            p99_ms=float(np.percentile(folded, 99)),
            mean_batch=(batched / flushes) if flushes else 0.0,
            num_flushes=flushes,
            kernel_launches=launches,
            num_failed=len(handles) - len(done),
            latencies_ms=latencies,
            outputs=[h.result() for h in done],
            handles=list(handles),
        )
