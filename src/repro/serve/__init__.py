"""The serving subsystem: first-class cross-request batching for inference.

ACROBAT's hybrid static+dynamic auto-batching pays off most in a serving
setting, where independent requests arrive continuously and must be batched
*across* each other.  This package is that execution-facing API:

* :mod:`repro.serve.clock` — pluggable time (:class:`WallClock` /
  :class:`SimulatedClock`) so deadline semantics and latency metrics are
  testable and benchmarkable without real waiting;
* :mod:`repro.serve.policy` — :class:`FlushPolicy` and its string-keyed
  registry ``FLUSH_POLICIES`` (``manual``, ``size``, ``deadline``,
  ``adaptive``): *when* a session's backlog executes as one batched round;
* :mod:`repro.serve.request` — future-style :class:`RequestHandle` with
  per-request queueing/latency/launch-share statistics;
* :mod:`repro.serve.session` — :class:`InferenceSession`, the persistent
  policy-driven batching session (``submit``/``poll``/``flush``);
* :mod:`repro.serve.loop` — :class:`ServeLoop`, the single-owner serving
  event loop: one thread owns the sessions (schedule, plan and execute
  happen at the flush, on that thread), behind thread-safe bounded
  admission (backpressure), loop-driven deadline polling, and continuous
  batching over a :class:`~repro.serve.loop.DeviceTimeline`;
* :mod:`repro.serve.sim` — :class:`~repro.serve.sim.TraceDriver`, the one
  deterministic discrete-event driver under every simulated replay
  (``Server.replay``, which ``GenerationSession.generate`` runs; caller-driven
  replay is the same driver on lanes that block the clock instead of
  launching onto the device timeline);
* :mod:`repro.serve.server` — :class:`Server`/:class:`Endpoint`
  multiplexing multiple compiled models over one shared device simulator,
  with exactly two drivers, one per clock: ``run()`` starts the loop
  thread(s) on the wall clock (``drain()``/``shutdown()`` finish them)
  and ``replay()`` runs a trace on the simulated clock;
* :mod:`repro.serve.traffic` — open-loop arrival processes (Poisson,
  bursty) and :class:`~repro.serve.traffic.TrafficReport`, the
  per-endpoint outcome of a replay;
* :mod:`repro.serve.topology` — the sharded serving front door: the loop
  topology registry ``TOPOLOGIES`` (``single``/``per_device``/
  ``per_endpoint``) and
  cross-loop work-stealing.

Entry points: ``compile_model(...).serve(policy="adaptive")`` opens a
policy-driven session; ``Server().add_endpoint(name, model, policy=...)``
builds a multi-model deployment; ``with server.run(): ...`` serves it from
any number of producer threads with awaitable request handles, and
``server.replay(trace)`` replays a tagged open-loop trace deterministically
on a :class:`SimulatedClock`.  ``Server.submit`` without a running loop
raises :class:`LoopStopped`.
"""

from .clock import Clock, SimulatedClock, WallClock
from .loop import (
    BACKPRESSURE_POLICIES,
    BackpressureFull,
    DeviceTimeline,
    LoopStopped,
    RequestShed,
    ServeLoop,
)
from .policy import (
    FLUSH_POLICIES,
    AdaptivePolicy,
    DeadlinePolicy,
    FlushPolicy,
    ManualPolicy,
    SizePolicy,
)
from .request import (
    RequestCancelled,
    RequestExpired,
    RequestHandle,
    RequestStats,
)
from .server import Endpoint, Server
from .session import InferenceSession, RoundAborted
from .topology import (
    TOPOLOGIES,
    LoopTopology,
    PerDeviceTopology,
    PerEndpointTopology,
    SingleTopology,
)
from .traffic import TrafficReport, bursty_arrivals, poisson_arrivals

__all__ = [
    "Clock",
    "SimulatedClock",
    "WallClock",
    "ServeLoop",
    "DeviceTimeline",
    "BackpressureFull",
    "RequestShed",
    "LoopStopped",
    "BACKPRESSURE_POLICIES",
    "FlushPolicy",
    "ManualPolicy",
    "SizePolicy",
    "DeadlinePolicy",
    "AdaptivePolicy",
    "FLUSH_POLICIES",
    "RequestHandle",
    "RequestStats",
    "RequestCancelled",
    "RequestExpired",
    "InferenceSession",
    "RoundAborted",
    "Endpoint",
    "Server",
    "LoopTopology",
    "SingleTopology",
    "PerDeviceTopology",
    "PerEndpointTopology",
    "TOPOLOGIES",
    "TrafficReport",
    "poisson_arrivals",
    "bursty_arrivals",
]
