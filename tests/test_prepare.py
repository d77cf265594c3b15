"""Tests for the overlapped host pipeline: speculative round preparation.

Covers bit-for-bit deterministic replay with overlap+speculation on,
reference identity across every scheduler policy and device count with the
preparer active, mis-speculation being observably free (device counters and
plan/specialization caches untouched), preparer-crash surfacing in both
loop modes, the ``predict_next_flush`` policy hook, and the wall-clock
``RoundPreparer`` end to end."""

import threading
import time

import numpy as np
import pytest

from repro import CompilerOptions, compile_model, reference_run
from repro.models import MODEL_MODULES
from repro.serve import (
    LoopStopped,
    Server,
    SimulatedClock,
    bursty_arrivals,
    poisson_arrivals,
    replay_continuous,
)
from repro.serve.policy import (
    AdaptivePolicy,
    DeadlinePolicy,
    ManualPolicy,
    SizePolicy,
)
from repro.utils import flatten_arrays, values_allclose

ALL_POLICIES = ("inline_depth", "dynamic_depth", "agenda", "nobatch", "dynet")

#: deterministic host-cost model steep enough that hiding prepare work is
#: visible in the replayed timeline
HOST_MODEL = (6.0, 1.0)


def exact_equal(a, b):
    """Bitwise reference identity over nested output structures."""
    fa, fb = flatten_arrays(a), flatten_arrays(b)
    return len(fa) == len(fb) and all(
        np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(fa, fb)
    )


def build_setup(model_name, batch=6, seed=11):
    module = MODEL_MODULES[model_name]
    mod, params, size = module.build_for("test")
    instances = module.make_batch(mod, size, batch, seed=seed)
    reference = reference_run(mod, params, instances)
    return mod, params, instances, reference


@pytest.fixture(scope="module")
def treelstm_setup():
    return build_setup("treelstm")


class TestPredictNextFlush:
    """The speculation hook: policies that cannot see a flush coming must
    say so, and the ones that can must predict their flush horizon —
    mis-speculation is free, so likely arrivals before the horizon are no
    reason to hold back."""

    class _FakeSession:
        round_started_at = 0.0
        expected_gap_s = None
        timeline = None
        pending_requests = 2

    def test_manual_and_size_never_predict(self):
        session = self._FakeSession()
        session.expected_gap_s = 1.0
        assert ManualPolicy().predict_next_flush(session, 0.0) is None
        assert SizePolicy(n=4).predict_next_flush(session, 0.0) is None

    def test_deadline_predicts_its_deadline(self):
        policy = DeadlinePolicy(ms=5.0)
        session = self._FakeSession()
        # the deadline is a definite flush horizon — predicted even with no
        # arrival history (a composition change costs a free rebuild)
        assert policy.predict_next_flush(session, 0.004) == pytest.approx(0.005)
        session.expected_gap_s = 0.0005
        assert policy.predict_next_flush(session, 0.004) == pytest.approx(0.005)
        # empty session: no round, no horizon
        empty = self._FakeSession()
        empty.round_started_at = None
        assert policy.predict_next_flush(empty, 0.004) is None
        # deadline already passed: the flush is due, not predictable
        assert policy.predict_next_flush(session, 0.006) is None

    def test_adaptive_prediction_clamps_to_busy_horizon(self):
        policy = AdaptivePolicy(max_wait_ms=20.0)

        class _Timeline:
            busy_until = 0.004

            def in_flight(self, now):
                return 1

        session = self._FakeSession()
        assert policy.predict_next_flush(session, 0.001) == pytest.approx(0.020)
        session.timeline = _Timeline()
        # a round in flight: the on_idle launch at the busy horizon comes first
        assert policy.predict_next_flush(session, 0.001) == pytest.approx(0.004)
        # horizon already reached: the flush is due, not predictable
        assert policy.predict_next_flush(session, 0.004) is None


class TestDeterministicOverlap:
    """run_trace / replay_continuous with overlap+speculation on must be a
    pure function of the trace: the same trace replays bit-for-bit."""

    def test_replay_twice_bit_for_bit(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        arrivals = bursty_arrivals(2500.0, len(instances), burst=3, seed=21)
        latencies, counters = [], []
        for _ in range(2):
            session = model.serve("adaptive", clock=SimulatedClock())
            report = replay_continuous(
                session, instances, arrivals, host_model=HOST_MODEL, prepare=True
            )
            assert all(
                values_allclose(a, b) for a, b in zip(reference, report.outputs)
            )
            latencies.append(report.latencies_ms)
            counters.append(
                (
                    session.prepare_attempts,
                    session.speculation_hits,
                    session.speculation_aborts,
                    session.prepare_hidden_ms,
                )
            )
        assert latencies[0] == latencies[1]  # exact float equality
        assert counters[0] == counters[1]
        # the pipeline must actually have engaged for this to test anything
        assert counters[0][1] > 0, "no speculation hit in the replay"

    def test_overlap_beats_serial_replay(self, treelstm_setup):
        """Hiding prepare work must shorten the replayed timeline, and
        never at the cost of reference identity."""
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        arrivals = bursty_arrivals(2500.0, len(instances), burst=3, seed=21)
        durations = {}
        for prepare in (False, True):
            session = model.serve("adaptive", clock=SimulatedClock())
            report = replay_continuous(
                session, instances, arrivals, host_model=HOST_MODEL, prepare=prepare
            )
            assert all(
                values_allclose(a, b) for a, b in zip(reference, report.outputs)
            )
            durations[prepare] = report.duration_s
        assert durations[True] < durations[False]


class TestReferenceIdentityMatrix:
    """Overlapped serving must stay bitwise reference-identical across every
    scheduler policy and device count."""

    @pytest.mark.parametrize("scheduler", ALL_POLICIES)
    @pytest.mark.parametrize("devices", [1, 4])
    def test_prepared_matches_reference(self, treelstm_setup, scheduler, devices):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions(scheduler=scheduler))
        kwargs = {"devices": 4, "placement": "round_robin"} if devices == 4 else {}
        session = model.serve("adaptive", clock=SimulatedClock(), **kwargs)
        arrivals = bursty_arrivals(2500.0, len(instances), burst=3, seed=21)
        report = replay_continuous(
            session, instances, arrivals, host_model=HOST_MODEL, prepare=True
        )
        assert all(
            exact_equal(a, b) for a, b in zip(reference, report.outputs)
        ), f"{scheduler}/dev{devices}"


class TestMisSpeculationIsFree:
    """A wrong speculation must cost only wasted host work: after the abort,
    every observable — outputs, device counters, plan cache, specialization
    tier, placement state — matches a session that never speculated."""

    @pytest.mark.parametrize("devices", [1, 4])
    def test_abort_leaves_no_trace(self, devices):
        mod, params, instances, reference = build_setup("treelstm", batch=6)
        kwargs = (
            {"devices": 4, "placement": "data_parallel"} if devices == 4 else {}
        )

        def drive(speculate):
            model = compile_model(mod, params, CompilerOptions())
            clock = SimulatedClock()
            session = model.serve("deadline", ms=5.0, clock=clock, **kwargs)
            # warm round: populates the plan cache and the gap history
            for inst in instances[:3]:
                session.submit(inst)
            outs = [session.flush()]
            clock.advance(0.010)
            session.submit(instances[0])
            clock.advance(0.001)
            session.submit(instances[1])
            # just before the deadline, with the expected gap overshooting
            # it: the deadline policy predicts this composition will flush
            clock.advance(0.0035)
            if speculate:
                assert session.consider_prepare(clock.now()) is True
                assert session.has_prepared_round
            # admission diverges: the speculated composition is now stale
            session.submit(instances[2])
            outs.append(session.flush())
            return session, outs

        control, control_outs = drive(speculate=False)
        tested, tested_outs = drive(speculate=True)

        assert tested.speculation_aborts == 1
        assert tested.speculation_hits == 0
        assert tested.prepare_attempts == 1
        # outputs bitwise identical to the never-speculated control
        assert exact_equal(control_outs, tested_outs)
        # device counters untouched by the aborted preparation
        assert control.last_stats.device == tested.last_stats.device
        # plan cache evolution identical: the abandoned staging never
        # committed its hit/miss/template
        cp = control.engine.runtime.planner
        tp = tested.engine.runtime.planner
        assert (cp.cache_hits, cp.cache_misses, cp.cache_evictions) == (
            tp.cache_hits,
            tp.cache_misses,
            tp.cache_evictions,
        )
        assert len(cp._plan_cache) == len(tp._plan_cache)
        assert cp.operand_counts == tp.operand_counts
        # specialization tier untouched (no slot allocated by the abort)
        assert control.last_stats.specialize == tested.last_stats.specialize

    def test_abort_round_discards_prepared(self, treelstm_setup):
        """A round abort (poisoned request) drops the held speculation."""
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        clock = SimulatedClock()
        session = model.serve("deadline", ms=5.0, clock=clock)
        for inst in instances[:3]:
            session.submit(inst)
        session.flush()
        clock.advance(0.010)
        session.submit(instances[0])
        clock.advance(0.001)
        session.submit(instances[1])
        clock.advance(0.0035)
        assert session.consider_prepare(clock.now()) is True
        session._abort_round(RuntimeError("poisoned"))
        assert not session.has_prepared_round
        assert session.speculation_aborts == 1


class TestPreparerCrash:
    """A preparer failure is an infrastructure failure: both loop modes must
    surface it exactly like any other loop death — sessions aborted,
    ``LoopStopped`` with the original error as ``__cause__``."""

    def test_simulated_crash_takes_loop_death_path(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        server = Server(clock=SimulatedClock(), prepare=True)
        endpoint = server.add_endpoint("trees", model, policy="adaptive")
        boom = RuntimeError("prepare exploded")

        def bad_consider(now):
            raise boom

        endpoint.session.consider_prepare = bad_consider
        workload = [
            (t, "trees", inst)
            for t, inst in zip(
                poisson_arrivals(2000.0, len(instances), seed=1), instances
            )
        ]
        with pytest.raises(LoopStopped) as excinfo:
            server.loop.run_trace(workload)
        assert excinfo.value.__cause__ is boom
        # the session was aborted: no handle left pending forever
        assert endpoint.session.pending_requests == 0

    def test_wall_crash_fails_handles_and_stops_loop(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        server = Server(prepare=True)
        endpoint = server.add_endpoint("trees", model, policy="manual")
        boom = RuntimeError("prepare exploded")

        def bad_consider(now):
            raise boom

        endpoint.session.consider_prepare = bad_consider
        server.run()
        # the preparer's first pass runs as soon as the loop sleeps, which
        # can be before this thread submits: then submit itself is refused
        with pytest.raises(Exception) as excinfo:
            server.submit("trees", instances[0]).result(timeout=5.0)
        # the crash surfaced as a loop death: the handle failed with the
        # original error (round abort) or LoopStopped chaining it
        exc = excinfo.value
        assert exc is boom or isinstance(exc, LoopStopped) or exc.__cause__ is boom
        # the loop thread died with the error and stopped its preparer
        server.loop._thread.join(timeout=5.0)
        assert not server.loop.running
        assert server.loop._preparer is None
        assert server.loop._error is boom
        # new submissions are refused by the dead loop
        with pytest.raises(LoopStopped):
            server.submit("trees", instances[0])


class TestWallClockPreparer:
    """The RoundPreparer thread end to end: overlapped wall-clock serving
    stays correct and shuts down cleanly."""

    def test_server_smoke(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        server = Server(prepare=True)
        server.add_endpoint("trees", model, policy="size", n=2)
        with server.run():
            handles = [server.submit("trees", inst) for inst in instances]
            server.drain()
            outputs = [h.result(timeout=10.0) for h in handles]
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))
        assert server.loop._preparer is None  # stopped with the loop
        summary = server.summary()["trees"]
        assert "speculation_hits" in summary
        assert "speculation_aborts" in summary

    def test_preparer_handshake_single_pass_per_grant(self, treelstm_setup):
        """One allow() grants exactly one pass, and pause() waits it out."""
        from repro.serve.prepare import RoundPreparer

        calls = []
        ran = threading.Event()

        class _FakeSession:
            def consider_prepare(self, now):
                calls.append(now)
                ran.set()

        class _FakeLoop:
            clock = SimulatedClock()
            _cond = threading.Condition()

            def sessions(self):
                return {"s": _FakeSession()}

        preparer = RoundPreparer(_FakeLoop())
        try:
            preparer.allow()
            assert ran.wait(timeout=2.0)
            preparer.pause()
            assert len(calls) == 1
            # the grant was one-shot: no further passes without allow()
            time.sleep(0.05)
            assert len(calls) == 1
            preparer.reraise()  # no stored error
        finally:
            preparer.stop()
        assert not preparer._thread.is_alive()

class TestCappedFlush:
    """The ``round_cap`` policy hook: a capped flush takes the oldest-cap
    request prefix (which is a node prefix — requests are independent),
    leaves the overflow pending as the next round's prefix, and thereby
    lets a speculatively prepared round survive later arrivals."""

    def test_prefix_flush_leaves_overflow_pending(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        clock = SimulatedClock()
        session = model.serve("adaptive", clock=clock, max_batch=4)
        clock.advance(1.0)  # arrivals at t=0 are backdated: no submit flush
        handles = [session.submit(inst, at=0.0) for inst in instances]
        assert session.pending_requests == len(instances)
        first = session.flush()
        assert len(first) == 4
        assert session.pending_requests == len(instances) - 4
        second = session.flush()
        assert len(second) == len(instances) - 4
        assert session.pending_requests == 0
        assert session.num_flushes == 2
        # submission order preserved across the split, results identical
        outputs = [h.result() for h in handles]
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))

    def test_prepared_prefix_survives_later_arrivals(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        clock = SimulatedClock()
        # huge max_wait keeps the flush horizon in the future, so the
        # policy predicts and the session prepares
        session = model.serve(
            "adaptive", clock=clock, max_batch=3, max_wait_ms=10_000.0
        )
        clock.advance(1.0)
        for inst in instances[:4]:
            session.submit(inst, at=0.0)
        assert session.consider_prepare(clock.now()) is True
        assert session.has_prepared_round
        # a later arrival appends *behind* the capped prefix: the prepared
        # round stays valid (under flush-takes-all it would be stale now)
        session.submit(instances[4], at=0.0)
        assert session.consider_prepare(clock.now()) is True
        assert session.speculation_aborts == 0
        first = session.flush()
        assert len(first) == 3
        assert session.speculation_hits == 1
        second = session.flush()
        assert len(second) == 2
        outputs = first + second
        assert all(
            values_allclose(a, b) for a, b in zip(reference[:5], outputs)
        )

    def test_uncapped_policies_flush_everything(self, treelstm_setup):
        """round_cap is adaptive-only: deadline/size/manual keep the
        flush-takes-all semantics."""
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("manual", clock=SimulatedClock())
        for inst in instances:
            session.submit(inst)
        outs = session.flush()
        assert len(outs) == len(instances)
        assert session.pending_requests == 0

    def test_context_exit_drains_capped_backlog(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        clock = SimulatedClock()
        with model.serve("adaptive", clock=clock, max_batch=4) as session:
            clock.advance(1.0)
            handles = [session.submit(inst, at=0.0) for inst in instances]
        assert session.pending_requests == 0
        assert session.num_flushes == 2
        outputs = [h.result() for h in handles]
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))

    def test_reentrant_submission_appends_behind_prepared_prefix(
        self, treelstm_setup
    ):
        """Submissions landing mid-drain (between the capped flushes of one
        backlog) append *behind* the leftover prefix: the next speculation
        covers the merged composition and every hit still lands."""
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        clock = SimulatedClock()
        session = model.serve(
            "adaptive", clock=clock, max_batch=3, max_wait_ms=10_000.0
        )
        clock.advance(1.0)
        handles = [session.submit(inst, at=0.0) for inst in instances[:4]]
        assert session.consider_prepare(clock.now()) is True
        first = session.flush()
        assert len(first) == 3
        assert session.speculation_hits == 1
        # mid-drain: two new arrivals while one request is still pending —
        # they queue behind it, preserving submission order
        handles += [session.submit(inst, at=0.0) for inst in instances[4:6]]
        assert session.pending_requests == 3
        assert session.consider_prepare(clock.now()) is True
        second = session.flush()
        assert len(second) == 3
        assert session.speculation_hits == 2
        assert session.speculation_aborts == 0
        assert session.pending_requests == 0
        outputs = [h.result() for h in handles]
        assert all(
            exact_equal(a, b) for a, b in zip(reference[:6], outputs)
        )

    def test_reentrant_submission_from_done_callback(self, treelstm_setup):
        """The fully re-entrant case: a handle's done callback submits a
        new request *while the capped flush that resolves it is still
        running*.  The submission must append behind the overflow prefix
        without corrupting node offsets, arrival tracking, or the adopted
        speculation."""
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        clock = SimulatedClock()
        session = model.serve(
            "adaptive", clock=clock, max_batch=3, max_wait_ms=10_000.0
        )
        clock.advance(1.0)
        handles = [session.submit(inst, at=0.0) for inst in instances[:4]]
        late = []
        handles[0].add_done_callback(
            lambda h: late.append(session.submit(instances[4], at=0.0))
        )
        assert session.consider_prepare(clock.now()) is True
        first = session.flush()
        assert len(first) == 3
        assert session.speculation_hits == 1
        # the callback fired mid-flush: its submission queued behind the
        # leftover prefix
        assert session.pending_requests == 2
        second = session.flush()
        assert len(second) == 2
        assert session.speculation_aborts == 0
        outputs = [h.result() for h in handles] + [late[0].result()]
        assert all(
            exact_equal(a, b) for a, b in zip(reference[:5], outputs)
        )

    def test_capped_replay_is_deterministic_and_reference_identical(
        self, treelstm_setup
    ):
        """End to end through run_trace: capped rounds + speculation still
        replay bit-for-bit and match the eager reference."""
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        arrivals = poisson_arrivals(2000.0, len(instances), seed=33)

        def replay():
            session = model.serve(
                "adaptive",
                clock=SimulatedClock(),
                max_batch=2,
                max_wait_ms=300.0,
            )
            report = replay_continuous(
                session, instances, arrivals, host_model=HOST_MODEL, prepare=True
            )
            return session, report

        s1, r1 = replay()
        s2, r2 = replay()
        assert r1.latencies_ms == r2.latencies_ms
        assert exact_equal(r1.outputs, r2.outputs)
        assert all(exact_equal(a, b) for a, b in zip(reference, r1.outputs))
        assert s1.speculation_hits == s2.speculation_hits
        assert s1.speculation_hits > 0
