"""Tests for request lifecycle at the serving layer: cancellation of
pending round members (round-mates flush bit-identical, device counters
stay consistent), cancellation of loop-queued admissions, deadline expiry on
the dispatch and simulated-trace arrival paths, and the Endpoint.summary()
queue-depth / oldest-pending-age gauges."""

import time

import pytest

from repro import CompilerOptions, compile_model, reference_run
from repro.models import MODEL_MODULES
from repro.serve import Server, SimulatedClock
from repro.serve.clock import Clock
from repro.serve.request import RequestCancelled, RequestExpired
from repro.utils import values_allclose

BATCH = 5


@pytest.fixture(scope="module")
def treelstm_setup():
    module = MODEL_MODULES["treelstm"]
    mod, params, size = module.build_for("test")
    instances = module.make_batch(mod, size, BATCH, seed=21)
    reference = reference_run(mod, params, instances)
    return mod, params, instances, reference


def _session(setup, policy="manual", **kw):
    mod, params, _, _ = setup
    return compile_model(mod, params, CompilerOptions()).serve(
        policy, clock=SimulatedClock(), **kw
    )


class TestSessionCancel:
    @pytest.mark.parametrize("victim", [0, 2, BATCH - 1])
    def test_roundmates_unaffected(self, treelstm_setup, victim):
        """Cancelling any member of a pending round leaves the others'
        results bit-identical to a round that never contained it."""
        _, _, instances, reference = treelstm_setup
        survivors = [i for i in range(BATCH) if i != victim]

        # baseline: the round without the victim ever submitted
        base = _session(treelstm_setup)
        base_handles = [base.submit(instances[i]) for i in survivors]
        base.flush()

        sess = _session(treelstm_setup)
        handles = [sess.submit(inst) for inst in instances]
        assert sess.cancel(handles[victim]) is True
        assert sess.pending_requests == BATCH - 1
        sess.flush()

        with pytest.raises(RequestCancelled):
            handles[victim].result()
        assert handles[victim].failed
        for i, bh in zip(survivors, base_handles):
            assert values_allclose(handles[i].result(), bh.result())
            assert values_allclose(handles[i].result(), reference[i])
        assert sess.num_cancelled == 1
        # the flushed round priced exactly the survivors' work
        assert sess.last_stats.kernel_calls == base.last_stats.kernel_calls
        assert sess.requests_flushed == BATCH - 1

    @pytest.mark.parametrize("devices", [1, 4])
    def test_cancelled_request_leaves_no_trace(self, treelstm_setup, devices):
        """The newest pending request, withdrawn before its round flushes,
        costs nothing observable: outputs, device counters and operand
        classification all match a session that never admitted it."""
        _, _, instances, _ = treelstm_setup
        kwargs = (
            {"devices": 4, "placement": "data_parallel"} if devices == 4 else {}
        )

        def drive(cancel):
            sess = _session(treelstm_setup, **kwargs)
            # a warm round first, so the cancel lands in a later round
            for inst in instances[:3]:
                sess.submit(inst)
            outs = [sess.flush()]
            sess.submit(instances[0])
            sess.submit(instances[1])
            sess.submit(instances[2])
            if cancel:
                assert sess.cancel(sess.submit(instances[3]))
            outs.append(sess.flush())
            return sess, outs

        control, control_outs = drive(cancel=False)
        tested, tested_outs = drive(cancel=True)

        assert tested.num_cancelled == 1
        assert all(
            values_allclose(a, b)
            for round_a, round_b in zip(control_outs, tested_outs)
            for a, b in zip(round_a, round_b)
        )
        assert control.last_stats.device == tested.last_stats.device
        cp = control.engine.runtime.planner
        tp = tested.engine.runtime.planner
        assert cp.operand_counts == tp.operand_counts

    def test_cancel_in_capped_overflow(self, treelstm_setup):
        """A request a capped flush left pending can still be withdrawn:
        the next capped round takes the requests behind it."""
        _, _, instances, reference = treelstm_setup
        sess = _session(
            treelstm_setup, policy="adaptive", max_batch=2, max_wait_ms=10_000.0
        )
        sess.clock.advance(1.0)
        handles = [sess.submit(inst, at=0.0) for inst in instances]
        assert len(sess.flush()) == 2
        assert sess.cancel(handles[2]) is True
        assert sess.pending_requests == BATCH - 3
        assert len(sess.flush()) == 2
        assert sess.pending_requests == 0
        with pytest.raises(RequestCancelled):
            handles[2].result()
        for i in (0, 1, 3, 4):
            assert values_allclose(handles[i].result(), reference[i])

    def test_cancel_resolved_handle_returns_false(self, treelstm_setup):
        _, _, instances, reference = treelstm_setup
        sess = _session(treelstm_setup)
        h = sess.submit(instances[0])
        sess.flush()
        assert sess.cancel(h) is False
        assert h.cancel() is False
        assert values_allclose(h.result(), reference[0])

    def test_cancel_twice_returns_false(self, treelstm_setup):
        _, _, instances, _ = treelstm_setup
        sess = _session(treelstm_setup)
        h = sess.submit(instances[0])
        assert sess.cancel(h) is True
        assert sess.cancel(h) is False
        assert sess.num_cancelled == 1

    def test_cancel_whole_round_then_reuse(self, treelstm_setup):
        """Emptying a round by cancellation leaves the session serviceable:
        the next round flushes normally (and may restart its trace
        timestamps)."""
        _, _, instances, reference = treelstm_setup
        sess = _session(treelstm_setup)
        handles = [sess.submit(inst) for inst in instances[:3]]
        for h in handles:
            assert h.cancel() is True
        assert sess.pending_requests == 0
        h = sess.submit(instances[3])
        sess.flush()
        assert values_allclose(h.result(), reference[3])
        assert sess.num_cancelled == 3

    def test_handle_cancel_delegates_to_session(self, treelstm_setup):
        """RequestHandle.cancel() on a session-origin handle withdraws it
        without the caller touching the session API."""
        _, _, instances, reference = treelstm_setup
        sess = _session(treelstm_setup)
        h0 = sess.submit(instances[0])
        h1 = sess.submit(instances[1])
        assert h0.cancel() is True
        sess.flush()
        assert values_allclose(h1.result(), reference[1])
        with pytest.raises(RequestCancelled):
            h0.result()


class TestLoopLifecycle:
    def test_cancel_queued_admission(self, treelstm_setup):
        """A request still queued at the loop is withdrawn before dispatch:
        it never joins a round, drain() does not wait on it, and the loop
        counts it."""
        mod, params, instances, reference = treelstm_setup
        server = Server()
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()), policy="size", n=1
        )
        server.run()
        loop = server.loop
        try:
            with loop._cond:  # loop thread cannot dispatch while we hold this
                h_cancel = server.submit("m", instances[0])
                h_keep = server.submit("m", instances[1])
                assert h_cancel.cancel() is True
                assert h_cancel.cancel() is False
            server.drain()
            with pytest.raises(RequestCancelled, match="queued for admission"):
                h_cancel.result(timeout=1.0)
            assert values_allclose(h_keep.result(timeout=5.0), reference[1])
            assert loop.num_cancelled == 1
        finally:
            server.shutdown()

    def test_deadline_expires_queued_admission(self, treelstm_setup):
        """A queued request whose deadline passed is dropped at dispatch,
        failing with RequestExpired; round-mates are unaffected."""
        mod, params, instances, reference = treelstm_setup
        server = Server()
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()), policy="size", n=1
        )
        server.run()
        loop = server.loop
        try:
            past = server.clock.now() - 1.0
            with loop._cond:
                h_dead = server.submit("m", instances[0], deadline=past)
                h_live = server.submit("m", instances[1])
            server.drain()
            with pytest.raises(RequestExpired, match="while the request was queued"):
                h_dead.result(timeout=1.0)
            assert values_allclose(h_live.result(timeout=5.0), reference[1])
            assert loop.num_expired == 1
        finally:
            server.shutdown()

    @pytest.mark.parametrize(
        "start, arrivals",
        [
            # staggered arrivals against one shared deadline: only the
            # first is in time
            (0.0, [(0.0, 0.005), (0.01, 0.005), (0.02, 0.005), (0.03, 0.005)]),
            # a clock that starts late: of two same-instant arrivals, one is
            # already past its deadline and one has time to spare
            (10.0, [(10.0, 9.0), (10.0, 11.0)]),
        ],
        ids=["staggered", "late_clock"],
    )
    def test_deadline_expires_on_trace_arrival(self, treelstm_setup, start, arrivals):
        """A simulated trace arrival already past its deadline is expired
        at admission — it never reaches a queue — and counted; the rest of
        the trace is unaffected."""
        mod, params, instances, reference = treelstm_setup
        server = Server(clock=SimulatedClock(start=start))
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()), policy="adaptive"
        )
        workload = [
            (t, "m", inst, {"deadline": d})
            for (t, d), inst in zip(arrivals, instances)
        ]
        handles = server.replay(workload)["m"].handles
        assert len(handles) == len(arrivals)
        expired = [t > d for t, d in arrivals]
        for h, dead, ref in zip(handles, expired, reference):
            if dead:
                with pytest.raises(RequestExpired, match="already passed at submit"):
                    h.result()
            else:
                assert values_allclose(h.result(), ref)
        assert server.loop.num_expired == sum(expired)
        assert server.loop.num_admitted == len(arrivals) - sum(expired)
        assert server.summary()["loops"]["loop0"]["expired"] == sum(expired)


class _SteppedClock(Clock):
    """A real-time clock stand-in that moves only when told: the wall-clock
    loop runs on it, and gauge ages come out exact."""

    def __init__(self) -> None:
        self.t = 100.0

    def now(self) -> float:
        return self.t


def _wait_dispatched(server, name, count):
    """Wait until the loop thread has dispatched ``count`` requests into
    the endpoint's session (a manual policy then leaves them pending)."""
    session = server.endpoint(name).session
    give_up = time.monotonic() + 10.0
    while session.pending_requests < count:
        assert time.monotonic() < give_up, "loop never dispatched"
        time.sleep(0.001)


class TestSummaryGauges:
    def test_queue_depth_and_oldest_pending_age(self, treelstm_setup):
        """The gauges cover both places a request waits: the loop's
        admission queue and the session's pending round."""
        mod, params, instances, _ = treelstm_setup
        clock = _SteppedClock()
        server = Server(clock=clock)
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()), policy="manual"
        )
        assert server.summary()["m"]["queue_depth"] == 0
        assert server.summary()["m"]["oldest_pending_age_ms"] == 0.0

        with server.run():
            with server.loop._cond:  # both stay queued while we hold this
                server.submit("m", instances[0])
                clock.t += 0.004
                server.submit("m", instances[1])
                summary = server.summary()["m"]
                assert summary["pending"] == 0
                assert summary["queue_depth"] == 2
                # the gauge tracks the *oldest* waiter
                assert summary["oldest_pending_age_ms"] == pytest.approx(4.0)
            _wait_dispatched(server, "m", 2)
            clock.t += 0.001
            summary = server.summary()["m"]
            assert summary["pending"] == summary["queue_depth"] == 2
            assert summary["oldest_pending_age_ms"] == pytest.approx(5.0)

            server.drain()
            summary = server.summary()["m"]
            assert summary["queue_depth"] == 0
            assert summary["oldest_pending_age_ms"] == 0.0

    def test_summary_counts_cancelled(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        server = Server()
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()), policy="manual"
        )
        with server.run():
            h = server.submit("m", instances[0])
            keep = server.submit("m", instances[1])
            # once both are dispatched the manual policy leaves the loop
            # thread idle, so withdrawing a pending round member cannot
            # race a flush
            _wait_dispatched(server, "m", 2)
            assert h.cancel() is True
            server.drain()
        summary = server.summary()["m"]
        assert summary["cancelled"] == 1
        assert summary["requests"] == 2
        assert keep.done and not keep.failed
