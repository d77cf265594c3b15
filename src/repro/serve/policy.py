"""Flush policies: *when* does a serving session execute its backlog?

Cross-request batching trades latency for throughput: every extra request
that joins a round amortizes the round's kernel launches further, but every
pending request ages while the session waits.  A :class:`FlushPolicy`
encodes one point on that tradeoff.  Policies are string-keyed through a
registry mirroring the scheduler-policy registry
(:mod:`repro.engine.registry`): sessions resolve them by name via
:func:`make_flush_policy`, and third parties add their own with
:func:`register_flush_policy`.

Built-in policies:

``manual``
    Never auto-flush; the caller drives ``flush()`` explicitly.
``size``
    Flush once ``n`` requests are pending (the classic fixed-size batcher).
``deadline``
    Flush when the oldest pending request has waited ``ms`` milliseconds,
    measured on the session's pluggable :class:`~repro.serve.clock.Clock`.
    Bounds worst-case queueing delay regardless of traffic.
``adaptive``
    Flush the moment ``max_batch`` requests are pending; otherwise flush
    when the *marginal benefit of waiting* — the kernel-launch overhead
    the next arrival would amortize, estimated from the device cost model
    and the observed launches-per-round — drops below the *waiting cost*
    — the expected inter-arrival gap times the number of pending requests
    whose latency that wait inflates.  While the session drains a backlog
    (arrivals time-stamped in the past piled up during execution) waiting
    is free, so the backlog batches up to a full round — continuous
    batching.  Approximates the right batch size for the offered load
    without tuning.

A policy instance is stateful and belongs to exactly one session; pass
policy *names* (plus arguments) around, not instances.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

from ..utils import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import InferenceSession

PolicyFactory = Callable[..., "FlushPolicy"]

_POLICIES = Registry("flush policy")


class FlushPolicy:
    """Decides when a session's pending requests execute as one round."""

    #: registry name (also reported as ``RunStats.flush_reason``)
    name = "manual"

    def on_submit(self, session: "InferenceSession", now: float) -> bool:
        """Called after each submit (``now`` is the request's arrival time);
        return True to flush the round immediately."""
        return False

    def next_deadline(self, session: "InferenceSession") -> Optional[float]:
        """Clock timestamp by which the pending round must flush, or None
        when the policy imposes no deadline.  Drivers poll the session when
        the clock passes this point (:meth:`InferenceSession.poll`)."""
        return None

    def on_idle(self, session: "InferenceSession", now: float) -> bool:
        """Called by a :class:`~repro.serve.loop.ServeLoop` when the device
        goes idle (the last in-flight round completed) while requests are
        pending; return True to launch the pending round immediately.

        The default keeps the policy's normal semantics (wait for the size
        threshold / deadline); continuous-batching policies return True so
        the device never idles while a backlog exists.
        """
        return False

    def note_flush(self, session: "InferenceSession", stats: Any) -> None:
        """Observation hook: called with the round's ``RunStats`` after
        every flush (adaptive policies update their estimates here)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# -- registry -----------------------------------------------------------------


def register_flush_policy(
    name: str,
    factory: Optional[PolicyFactory] = None,
    *,
    overwrite: bool = False,
) -> Any:
    """Register a flush policy under ``name`` (plain call or decorator).

    Registering an existing name raises unless ``overwrite=True``.
    """
    return _POLICIES.register(name, factory, overwrite=overwrite)


def unregister_flush_policy(name: str) -> None:
    """Remove a flush policy from the registry (no-op for unknown names)."""
    _POLICIES.unregister(name)


def available_flush_policies() -> Tuple[str, ...]:
    """Names of all registered flush policies, sorted."""
    return _POLICIES.available()


def make_flush_policy(name: str, **policy_args: Any) -> FlushPolicy:
    """Instantiate the flush policy registered under ``name``.

    Keyword arguments are forwarded to the policy factory (e.g.
    ``make_flush_policy("deadline", ms=5.0)``).
    """
    return _POLICIES.make(name, **policy_args)


# -- built-in policies --------------------------------------------------------


@register_flush_policy("manual")
class ManualPolicy(FlushPolicy):
    """Never auto-flush: the caller drives ``flush()`` explicitly."""

    name = "manual"


@register_flush_policy("size")
class SizePolicy(FlushPolicy):
    """Flush once ``n`` requests are pending."""

    name = "size"

    def __init__(self, n: int = 8) -> None:
        if n < 1:
            raise ValueError("size policy needs n >= 1")
        self.n = int(n)

    def on_submit(self, session: "InferenceSession", now: float) -> bool:
        return session.pending_requests >= self.n

    def __repr__(self) -> str:
        return f"SizePolicy(n={self.n})"


@register_flush_policy("deadline")
class DeadlinePolicy(FlushPolicy):
    """Flush when the oldest pending request has waited ``ms`` milliseconds.

    The deadline is measured on the session's clock, so simulated clocks
    give exactly reproducible batch boundaries.  Submits arriving after the
    deadline has already passed flush immediately; otherwise drivers call
    :meth:`InferenceSession.poll` once the clock reaches
    :meth:`next_deadline`.
    """

    name = "deadline"

    def __init__(self, ms: float = 10.0) -> None:
        if ms < 0:
            raise ValueError("deadline policy needs ms >= 0")
        self.ms = float(ms)

    def on_submit(self, session: "InferenceSession", now: float) -> bool:
        deadline = self.next_deadline(session)
        return deadline is not None and now >= deadline

    def next_deadline(self, session: "InferenceSession") -> Optional[float]:
        started = session.round_started_at
        if started is None:
            return None
        return started + self.ms / 1e3

    def __repr__(self) -> str:
        return f"DeadlinePolicy(ms={self.ms})"


@register_flush_policy("adaptive")
class AdaptivePolicy(FlushPolicy):
    """Flush when waiting stops paying for itself.

    Waiting for one more request is worth roughly one request's worth of
    kernel-launch overhead: batching same-structure requests keeps the
    round's launch count near a *single* request's count (that is the whole
    cross-request win), so the next arrival would amortize
    ``launches_per_round * (launch + API overhead)`` microseconds of device
    cost.  Waiting costs ``expected_gap * pending`` — every queued request's
    latency grows by the expected inter-arrival gap.  The policy flushes
    when the cost exceeds the benefit, with two safety valves: a full
    round (``max_batch`` pending) flushes on the submit that fills it, and
    a ``max_wait_ms`` deadline keeps p99 latency finite when traffic
    stalls.  The full-round check runs first, so no round ever holds more
    than ``max_batch`` requests.

    One asymmetry matters under load: a request submitted with an explicit
    arrival timestamp *behind* the clock
    (:attr:`~repro.serve.session.InferenceSession.last_submit_backdated`)
    was queued while the session executed an earlier round (open-loop
    traffic does not pause).  Waiting costs those requests nothing — they
    are already late and more backlog is draining — so short of a full
    round the policy keeps accumulating until arrivals catch up with the
    clock, which is exactly continuous batching: each round absorbs what
    arrived during the previous round's execution.  Only explicitly
    backdated submits count as backlog, but under a
    :class:`~repro.serve.loop.ServeLoop` every dispatch passes its
    admission time as ``at=`` and lands backdated, so on the wall clock
    only the full-round check and the ``max_wait_ms`` timer close a round;
    the cost/benefit rule decides only for submits that are not backdated
    (a caller-driven session's, say).

    The launches-per-round estimate is an EWMA over observed flushes
    (seeded with ``launch_prior``); the inter-arrival gap is an EWMA over
    arrival timestamps on the session's clock.
    """

    name = "adaptive"

    def __init__(
        self,
        max_batch: int = 64,
        max_wait_ms: float = 20.0,
        launch_prior: float = 64.0,
        smoothing: float = 0.5,
    ) -> None:
        if max_batch < 1:
            raise ValueError("adaptive policy needs max_batch >= 1")
        if max_wait_ms < 0:
            raise ValueError("adaptive policy needs max_wait_ms >= 0")
        if not 0 < smoothing <= 1:
            raise ValueError("adaptive policy needs 0 < smoothing <= 1")
        if launch_prior < 0:
            raise ValueError("adaptive policy needs launch_prior >= 0")
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.smoothing = float(smoothing)
        #: EWMA of kernel launches per flushed round
        self.round_launches = float(launch_prior)
        #: EWMA of the inter-arrival gap in seconds (None until two submits)
        self.gap_s: Optional[float] = None
        self._last_arrival: Optional[float] = None

    # -- estimates ------------------------------------------------------------
    def _observe_arrival(self, now: float) -> None:
        if self._last_arrival is not None:
            gap = max(0.0, now - self._last_arrival)
            if self.gap_s is None:
                self.gap_s = gap
            else:
                self.gap_s = self.smoothing * gap + (1 - self.smoothing) * self.gap_s
        self._last_arrival = now

    def marginal_benefit_us(self, session: "InferenceSession") -> float:
        """Device overhead the *next* arrival would amortize away (us)."""
        spec = session.engine.device.spec
        return self.round_launches * (spec.launch_overhead_us + spec.api_overhead_us)

    def waiting_cost_us(self, session: "InferenceSession") -> float:
        """Expected queueing added across pending requests by waiting for
        one more arrival (us)."""
        if self.gap_s is None:
            return 0.0
        return self.gap_s * 1e6 * session.pending_requests

    # -- policy hooks ---------------------------------------------------------
    def on_submit(self, session: "InferenceSession", now: float) -> bool:
        self._observe_arrival(now)
        if session.pending_requests >= self.max_batch:
            # a full round launches now, on every clock: waiting cannot
            # grow it
            return True
        if session.last_submit_backdated or session.in_flight_rounds:
            # draining a backlog, or earlier rounds still executing on the
            # device (continuous batching under a serve loop): waiting is
            # free — flushing now would only queue host work serially.
            # Keep accumulating; the loop's device-idle wakeup
            # (:meth:`on_idle`) launches the round the moment the device
            # frees.
            return False
        return self.waiting_cost_us(session) > self.marginal_benefit_us(session)

    def next_deadline(self, session: "InferenceSession") -> Optional[float]:
        started = session.round_started_at
        if started is None:
            return None
        return started + self.max_wait_ms / 1e3

    def on_idle(self, session: "InferenceSession", now: float) -> bool:
        # the device just went idle with requests pending: launch them —
        # idling the accelerator while a backlog exists never pays.  (If
        # another session's idle-launch already re-busied the shared
        # device, keep accumulating instead: waiting is free again.)
        return session.pending_requests > 0 and not session.in_flight_rounds

    def note_flush(self, session: "InferenceSession", stats: Any) -> None:
        launches = float(stats.kernel_calls)
        self.round_launches = (
            self.smoothing * launches + (1 - self.smoothing) * self.round_launches
        )

    def __repr__(self) -> str:
        return (
            f"AdaptivePolicy(max_batch={self.max_batch}, "
            f"max_wait_ms={self.max_wait_ms})"
        )
