"""One runner for the deterministic serving experiments.

``continuous``, ``serving``, ``sharding`` and ``multiloop`` are each a list
of :class:`Row`\\ s plus a fold of the replayed row into table columns.  A
row is a fresh :class:`~repro.serve.server.Server` on a
:class:`~repro.serve.clock.SimulatedClock` — built from the model, the
server arguments (device count, spec, placement, topology, admission
bound), the flush policy and the mode — replayed through
:meth:`~repro.serve.server.Server.replay` twice.  The runner checks the
completed outputs against the eager reference (``matches_ref``) and the
second replay against the first (``deterministic``) in one place.
``generation`` drives decode steps rather than a static trace and uses
only :func:`replay_twice` and :func:`assert_checks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..compiler.options import CompilerOptions
from ..core.api import compile_model, reference_run
from ..serve.clock import SimulatedClock
from ..serve.server import Server
from ..serve.traffic import TrafficReport
from ..utils import bitwise_equal
from .harness import build_model, make_instances

T = TypeVar("T")


@dataclass(frozen=True)
class Row:
    """One serving configuration: every endpoint the trace names serves
    ``model`` under ``policy``."""

    model: Any
    #: ``(arrival_time, endpoint, request[, meta])`` items, sorted by time
    trace: Sequence[Tuple]
    #: eager output per trace item
    reference: Sequence[Any]
    policy: str
    policy_args: Dict[str, Any] = field(default_factory=dict)
    #: continuous batching (True) or the caller-driven choreography
    continuous: bool = True
    host_model: Optional[Tuple[float, float]] = None
    #: keyword arguments of ``Server`` (a device member count, never device
    #: instances: every replay builds its own devices)
    server_args: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Replayed:
    """A row's first replay plus the two checks."""

    server: Server
    reports: Dict[str, TrafficReport]
    matches_ref: bool
    deterministic: bool


def prepare(model_name: str, size_name: str, n: int, seed: int, request_seed: int) -> Tuple[Any, List, List]:
    """Compile ``model_name`` and draw ``n`` requests with their eager
    reference outputs."""
    mod, params, size = build_model(model_name, size_name, seed)
    requests = make_instances(model_name, mod, size, n, seed=request_seed)
    return compile_model(mod, params, CompilerOptions()), requests, reference_run(mod, params, requests)


def tag(arrivals: Sequence[float], requests: Sequence[Any]) -> List[Tuple]:
    """A single-endpoint trace: one ``(arrival, "m", request)`` item per
    request."""
    return [(t, "m", request) for t, request in zip(arrivals, requests)]


def replay_twice(replay_once: Callable[[], T], snapshot: Callable[[T], Any]) -> Tuple[T, bool]:
    """Run one configuration twice from scratch: the first run, and whether
    the second reproduced its ``snapshot`` bit-for-bit."""
    first = replay_once()
    return first, bitwise_equal(snapshot(first), snapshot(replay_once()))


def replay_row(row: Row) -> Replayed:
    """Replay ``row`` on two fresh servers and check both invariants."""

    def once() -> Tuple[Server, Dict[str, TrafficReport]]:
        server = Server(clock=SimulatedClock(), **row.server_args)
        for name in dict.fromkeys(item[1] for item in row.trace):
            server.add_endpoint(name, row.model, policy=row.policy, **row.policy_args)
        reports = server.replay(
            row.trace, continuous=row.continuous, host_model=row.host_model
        )
        return server, reports

    (server, reports), deterministic = replay_twice(once, lambda run: _timeline(run[1]))
    return Replayed(server, reports, _matches(row, reports), deterministic)


def _timeline(reports: Dict[str, TrafficReport]) -> List:
    """Everything a replay must reproduce: per request, its completion
    time, latency and output (None for a failed request)."""
    return [
        [
            None if h.failed else (h.stats.completed_at, h.stats.latency_ms, h.result())
            for h in report.handles
        ]
        for _, report in sorted(reports.items())
    ]


def _matches(row: Row, reports: Dict[str, TrafficReport]) -> bool:
    """Every completed request's output equals its eager reference."""
    expected: Dict[str, List[Any]] = {}
    for item, reference in zip(row.trace, row.reference):
        expected.setdefault(item[1], []).append(reference)
    return all(
        h.failed or bitwise_equal(h.result(), reference)
        for name, report in reports.items()
        for h, reference in zip(report.handles, expected[name])
    )


def yes(flag: bool) -> str:
    """A check column's cell."""
    return "yes" if flag else "NO"



def assert_checks(headers: Sequence[str], rows: List[List]) -> None:
    """The smoke gate: every row's ``matches_ref`` and ``deterministic``
    cells say yes."""
    for check in ("matches_ref", "deterministic"):
        col = headers.index(check)
        bad = [row[:2] for row in rows if row[col] != "yes"]
        assert not bad, f"{check} failed for {bad}"
