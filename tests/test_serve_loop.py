"""Tests for the event-loop serving core: the device timeline, monotonic
arrival validation, backpressure, Server.run()/drain()/shutdown(), awaitable
request handles, multi-producer thread safety, full rounds on both clocks,
continuous-batching reference identity across scheduler policies, and
bit-for-bit deterministic replay."""

import asyncio
import threading
import time

import pytest

from repro import CompilerOptions, compile_model, reference_run
from repro.serve import (
    BackpressureFull,
    DeviceTimeline,
    RequestShed,
    ServeLoop,
    Server,
    SimulatedClock,
    bursty_arrivals,
    poisson_arrivals,
)
from repro.models import MODEL_MODULES
from repro.serve.sim import TraceDriver
from repro.utils import bitwise_equal, values_allclose
from tests.conftest import one_endpoint, trace_of

BATCH = 6

#: what a burst of nine requests at once does under ``adaptive`` with
#: ``max_batch=4`` and a timer too long to fire: each submit that fills a
#: round flushes it, on the wall clock as on the simulated one, and the ninth
#: request waits
BURST = 9
BURST_ROUNDS = [(4, "adaptive"), (4, "adaptive")]

#: every scheduler policy the engine registry ships; continuous batching
#: must be reference-identical under all of them
SCHEDULERS = ("inline_depth", "dynamic_depth", "agenda", "nobatch", "dynet")


@pytest.fixture(scope="module")
def treelstm_setup():
    module = MODEL_MODULES["treelstm"]
    mod, params, size = module.build_for("test")
    instances = module.make_batch(mod, size, BATCH, seed=11)
    reference = reference_run(mod, params, instances)
    return mod, params, instances, reference


@pytest.fixture(scope="module")
def birnn_setup():
    module = MODEL_MODULES["birnn"]
    mod, params, size = module.build_for("test")
    instances = module.make_batch(mod, size, 4, seed=12)
    reference = reference_run(mod, params, instances)
    return mod, params, instances, reference


class TestDeviceTimeline:
    def test_idle_launch_runs_immediately(self):
        tl = DeviceTimeline()
        assert tl.launch_round(1.0, [(0, 0.5)]) == pytest.approx(1.5)
        assert tl.busy_until == pytest.approx(1.5)
        assert tl.in_flight(1.2) == 1
        # completing exactly now: in flight until the wakeup drains it
        assert tl.in_flight(1.5) == 1
        assert tl.pop_completions(1.5) == 1
        assert tl.in_flight(1.5) == 0

    def test_busy_launch_queues_behind(self):
        tl = DeviceTimeline()
        tl.launch_round(0.0, [(0, 1.0)])
        # launched while busy: begins at the horizon, not at `now`
        assert tl.launch_round(0.2, [(0, 0.5)]) == pytest.approx(1.5)
        assert tl.in_flight(0.3) == 2
        assert tl.rounds_launched == 2

    def test_pop_completions(self):
        tl = DeviceTimeline()
        tl.launch_round(0.0, [(0, 1.0)])
        tl.launch_round(0.0, [(0, 1.0)])  # completes at 2.0
        assert tl.next_completion() == pytest.approx(1.0)
        assert tl.pop_completions(1.0) == 1
        assert tl.next_completion() == pytest.approx(2.0)
        assert tl.pop_completions(5.0) == 1
        assert tl.next_completion() is None

    # per-device lanes, which round_robin / data_parallel replays occupy
    def test_concurrent_shares_occupy_lanes_independently(self):
        tl = DeviceTimeline(start=0.0, num_devices=2)
        done = tl.launch_round(0.0, [(0, 1.0), (1, 2.0)])
        assert done == pytest.approx(2.0)
        assert tl._lanes[0] == pytest.approx(1.0)
        assert tl._lanes[1] == pytest.approx(2.0)
        assert tl.busy_until == pytest.approx(2.0)

    def test_empty_shares_degenerate_to_aggregate_launch(self):
        tl = DeviceTimeline(start=0.0, num_devices=2)
        done = tl.launch_round(1.0, [])
        assert done == pytest.approx(1.0)
        assert tl.rounds_launched == 1

    def test_one_share_occupies_only_its_lane(self):
        """A one-member session on a wider loop's timeline (a multi-endpoint
        server mixing group sizes) holds only lane 0: the other members'
        rounds do not queue behind it."""
        tl = DeviceTimeline(start=0.0, num_devices=3)
        assert tl.launch_round(0.0, [(0, 2.0)]) == pytest.approx(2.0)
        assert tl._lanes == [pytest.approx(2.0), 0.0, 0.0]
        assert tl.launch_round(0.5, [(1, 1.0)]) == pytest.approx(1.5)


class TestMonotonicArrivals:
    """Satellite: submit(at=) must reject non-monotonic backdated
    timestamps — an `at` behind the previous arrival corrupts queue_ms and
    adaptive backlog detection."""

    def test_backdated_behind_previous_arrival_rejected(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        clock = SimulatedClock(start=10.0)
        session = compile_model(mod, params, CompilerOptions()).serve(
            "manual", clock=clock
        )
        session.submit(instances[0], at=9.0)
        with pytest.raises(ValueError, match="non-monotonic"):
            session.submit(instances[1], at=8.0)

    def test_equal_and_forward_timestamps_accepted(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        clock = SimulatedClock(start=10.0)
        session = compile_model(mod, params, CompilerOptions()).serve(
            "manual", clock=clock
        )
        session.submit(instances[0], at=9.0)
        session.submit(instances[1], at=9.0)  # bursts: equal is fine
        session.submit(instances[2], at=9.5)  # still behind the clock: fine
        assert session.pending_requests == 3

    def test_flush_resets_the_tracker(self, treelstm_setup):
        """Monotonicity is per round: a long-lived session may replay a
        fresh trace whose timestamps start over after a flush (the
        successive-replay contract of Server.replay's counter deltas)."""
        mod, params, instances, _ = treelstm_setup
        clock = SimulatedClock(start=10.0)
        session = compile_model(mod, params, CompilerOptions()).serve(
            "manual", clock=clock
        )
        session.submit(instances[0], at=9.0)
        session.flush()
        session.submit(instances[1], at=8.5)  # fresh round: legal again
        assert session.pending_requests == 1


class TestLoopValidation:
    def test_bad_backpressure_name(self):
        with pytest.raises(ValueError, match="backpressure"):
            Server(backpressure="drop-newest")

    def test_bad_max_pending(self):
        with pytest.raises(ValueError, match="max_pending"):
            Server(max_pending=0)

    def test_loop_needs_exactly_one_owner(self):
        with pytest.raises(ValueError, match="exactly one"):
            ServeLoop(Server(), sessions={})
        with pytest.raises(ValueError, match="exactly one"):
            ServeLoop()

    def test_start_rejects_simulated_clock(self):
        server = Server(clock=SimulatedClock())
        with pytest.raises(TypeError, match="Server.replay"):
            server.run()

    def test_replay_rejects_wall_clock(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        server = Server()  # wall clock
        server.add_endpoint("m", compile_model(mod, params, CompilerOptions()))
        with pytest.raises(TypeError, match="SimulatedClock"):
            server.replay([(0.0, "m", instances[0])])

    def test_add_endpoint_while_running_rejected(self, treelstm_setup):
        mod, params, _, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        server = Server()
        server.add_endpoint("a", model, policy="manual")
        with server.run():
            with pytest.raises(RuntimeError, match="while the serve loop"):
                server.add_endpoint("b", model, policy="manual")


class TestBackpressure:
    def test_threaded_shed_oldest(self, treelstm_setup):
        """Holding the loop's condition stalls the drain deterministically:
        overflowing the queue sheds the oldest request, whose handle fails
        with RequestShed."""
        mod, params, instances, _ = treelstm_setup
        server = Server(max_pending=2, backpressure="shed-oldest")
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()), policy="manual"
        )
        server.run()
        loop = server.loop
        try:
            with loop._cond:  # loop thread cannot drain while we hold this
                h1 = server.submit("m", instances[0])
                h2 = server.submit("m", instances[1])
                h3 = server.submit("m", instances[2])  # sheds h1
            server.drain()
            assert h1.failed
            with pytest.raises(RequestShed):
                h1.result(timeout=1.0)
            assert h2.done and not h2.failed
            assert h3.done and not h3.failed
            assert loop.num_shed == 1
        finally:
            server.shutdown()

    def test_threaded_block_waits_for_space(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        server = Server(max_pending=1, backpressure="block")
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()), policy="manual"
        )
        server.run()
        loop = server.loop
        try:
            submitted = threading.Event()
            handles = []

            def producer():
                handles.append(server.submit("m", instances[0]))
                handles.append(server.submit("m", instances[1]))  # may block
                submitted.set()

            with loop._cond:
                t = threading.Thread(target=producer)
                t.start()
                # the producer can at best enqueue one; give it a moment
                submitted.wait(timeout=0.2)
            t.join(timeout=5.0)
            assert not t.is_alive()
            assert submitted.is_set()
            server.drain()
            assert all(h.done and not h.failed for h in handles)
        finally:
            server.shutdown()


class TestServerLifecycle:
    def test_run_drain_shutdown(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        server = Server()
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()),
            policy="size", n=len(instances),
        )
        with server.run():
            handles = [server.submit("m", inst) for inst in instances]
            server.drain()
            assert all(h.done for h in handles)
        assert all(
            values_allclose(a, h.result()) for a, h in zip(reference, handles)
        )
        # shutdown is idempotent
        server.shutdown()

    def test_drain_flushes_the_last_partial_round(self, treelstm_setup):
        """A backlog in one dispatch pass flushes its full round at once;
        drain() flushes the partial round behind it."""
        mod, params, instances, reference = treelstm_setup
        server = Server()
        endpoint = server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()),
            policy="adaptive", max_batch=4, max_wait_ms=60_000.0,
        )
        server.run()
        loop = server.loop
        try:
            with loop._cond:  # the whole burst reaches one dispatch pass
                handles = [server.submit("m", inst) for inst in instances]
            server.drain()
            assert all(h.done for h in handles)
        finally:
            server.shutdown()
        assert all(
            values_allclose(a, h.result()) for a, h in zip(reference, handles)
        )
        rounds = [(st.batch_size, st.flush_reason) for st in endpoint.session.history]
        assert rounds == [(4, "adaptive"), (BATCH - 4, "manual")]

    def test_a_full_round_flushes_without_waiting_for_the_timer(
        self, treelstm_setup
    ):
        """The submit that fills a round flushes it on the wall clock too,
        although every dispatch there is backdated: four requests resolve
        long before the 60 s timer."""
        mod, params, instances, reference = treelstm_setup
        server = Server()
        endpoint = server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()),
            policy="adaptive", max_batch=4, max_wait_ms=60_000.0,
        )
        with server.run():
            handles = [server.submit("m", inst) for inst in instances[:4]]
            outputs = [h.result(timeout=5.0) for h in handles]
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))
        assert [(st.batch_size, st.flush_reason) for st in endpoint.session.history] == [
            (4, "adaptive")
        ]

    def test_one_dispatch_pass_flushes_every_full_round(self, treelstm_setup):
        """Nine submits in one dispatch pass flush two full rounds with no
        drain() and leave the ninth pending behind them."""
        mod, params, instances, reference = treelstm_setup
        server = Server()
        endpoint = server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()),
            policy="adaptive", max_batch=4, max_wait_ms=60_000.0,
        )
        server.run()
        loop = server.loop
        try:
            with loop._cond:
                handles = [
                    server.submit("m", instances[i % BATCH]) for i in range(BURST)
                ]
            for h in handles[:8]:
                h.result(timeout=5.0)
            with loop._cond:
                assert loop._cond.wait_for(
                    lambda: loop._dispatched_seq == BURST, timeout=5.0
                )
            session = endpoint.session
            assert [(st.batch_size, st.flush_reason) for st in session.history] == BURST_ROUNDS
            assert session.pending_requests == 1 and not handles[8].done
        finally:
            server.shutdown()
        assert all(
            values_allclose(reference[i % BATCH], h.result())
            for i, h in enumerate(handles)
        )

    def test_a_replayed_burst_forms_the_same_rounds(self, treelstm_setup):
        """The simulated twin of the burst above: the same nine arrivals at
        once form the same full rounds, and the ninth request runs alone
        after them."""
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        server = one_endpoint(model, "adaptive", max_batch=4, max_wait_ms=60_000.0)
        burst = [instances[i % BATCH] for i in range(BURST)]
        report = server.replay(trace_of([0.0] * BURST, burst))["m"]
        rounds = [
            (st.batch_size, st.flush_reason)
            for st in server.endpoint("m").session.history
        ]
        assert rounds[:-1] == BURST_ROUNDS and rounds[-1][0] == 1
        assert all(
            bitwise_equal(reference[i % BATCH], out)
            for i, out in enumerate(report.outputs)
        )

    def test_result_timeout_blocks_until_loop_flushes(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        server = Server()
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()),
            policy="size", n=2,
        )
        with server.run():
            h1 = server.submit("m", instances[0])
            h2 = server.submit("m", instances[1])
            # the size(2) policy flushes on the loop thread; result() blocks
            # until it does
            assert values_allclose(reference[0], h1.result(timeout=10.0))
            assert values_allclose(reference[1], h2.result(timeout=10.0))
        server.shutdown()

    def test_facade_with_running_loop(self, treelstm_setup):
        """run() returns the server as its own context manager, and drain()
        is what flushes a manual backlog on the loop thread."""
        mod, params, instances, reference = treelstm_setup
        server = Server()
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()), policy="manual"
        )
        with server.run() as running:
            assert running is server
            handle = server.submit("m", instances[0])
            assert not handle.done  # manual: nothing flushes by itself
            server.drain()
            assert values_allclose(reference[0], handle.result(timeout=10.0))
        assert not server.loop.running

    def test_drain_and_shutdown_on_the_loop_thread_raise(self, treelstm_setup):
        """A done callback runs on the loop thread, where drain() or
        shutdown() would wait for the loop they block.  Both raise there,
        on the server as on the loop, and the loop keeps serving."""
        mod, params, instances, reference = treelstm_setup
        server = Server()
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()), policy="manual"
        )
        errors = []
        finished = threading.Event()

        def on_done(_handle):
            assert threading.current_thread() is server.loop._thread
            for call in (server.drain, server.shutdown, server.loop.drain, server.loop.shutdown):
                try:
                    call()
                except RuntimeError as exc:
                    errors.append(exc)
            finished.set()

        with server.run():
            first = server.submit("m", instances[0])
            first.add_done_callback(on_done)  # manual: not flushed yet
            server.drain()
            assert finished.wait(10.0)
            assert [str(e).split("(")[0] for e in errors] == [
                "drain", "shutdown", "drain", "shutdown"
            ]
            assert server.loop.running
            second = server.submit("m", instances[1])
            server.drain()
            assert values_allclose(reference[1], second.result(timeout=10.0))
        assert values_allclose(reference[0], first.result())

    @pytest.mark.parametrize("history", ["never_started", "shut_down"])
    def test_submit_after_shutdown_raises_until_rerun(self, treelstm_setup, history):
        """Without a running loop thread — before the first run() as after
        a shutdown — submit refuses (nothing would ever flush the request)
        and names both drivers; Server.run() (again) serves."""
        from repro.serve import LoopStopped

        mod, params, instances, reference = treelstm_setup
        server = Server()
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()), policy="manual"
        )
        if history == "shut_down":
            with server.run():
                server.submit("m", instances[0])
        with pytest.raises(LoopStopped, match=r"Server\.run\(\).*Server\.replay\(\)"):
            server.submit("m", instances[1])
        assert server.endpoint("m").pending_requests == 0
        with server.run():  # revive
            handle = server.submit("m", instances[1])
            server.drain()
        assert values_allclose(reference[1], handle.result())

    def test_result_without_timeout_still_raises_unmanaged(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        session = compile_model(mod, params, CompilerOptions()).serve("manual")
        handle = session.submit(instances[0])
        with pytest.raises(RuntimeError, match="flush"):
            handle.result()
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.01)


class TestDeadlineRoundComposition:
    def test_deadline_round_takes_every_admitted_request(
        self, treelstm_setup, monkeypatch
    ):
        """A deadline that comes due while the loop thread is still
        dispatching closes a round of everything admitted so far — the
        round's size is not a race between the producer and the loop
        thread's progress through the admission queue."""
        mod, params, instances, reference = treelstm_setup
        server = Server()
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()),
            policy="adaptive", max_wait_ms=20.0,
        )
        loop = server.loop
        dispatching = threading.Event()
        all_admitted = threading.Event()
        dispatch_one = loop._dispatch_one

        def overrun_the_deadline(adm):
            if not dispatching.is_set():
                # the loop thread picked up the first request alone and
                # stays busy with it until the rest are admitted and the
                # round's deadline (anchored at this arrival) has passed
                dispatching.set()
                assert all_admitted.wait(30.0)
                while loop.clock.now() < adm.at + 0.03:
                    time.sleep(0.002)
            dispatch_one(adm)

        monkeypatch.setattr(loop, "_dispatch_one", overrun_the_deadline)
        with server.run():
            handles = [server.submit("m", instances[0])]
            assert dispatching.wait(30.0)
            handles += [server.submit("m", inst) for inst in instances[1:]]
            all_admitted.set()
            outputs = [h.result(timeout=30.0) for h in handles]
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))
        history = server.endpoint("m").session.history
        assert [r.batch_size for r in history] == [len(instances)]
        server.shutdown()


class TestAwaitableHandles:
    def test_await_handle(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        server = Server()
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()),
            policy="size", n=2,
        )

        async def client():
            h1 = server.submit("m", instances[0])
            h2 = server.submit("m", instances[1])
            return await h1, await h2

        with server.run():
            out1, out2 = asyncio.run(client())
        assert values_allclose(reference[0], out1)
        assert values_allclose(reference[1], out2)

    def test_await_failed_handle_raises(self):
        from repro.serve.request import RequestHandle

        handle = RequestHandle(0)
        handle._fail(RequestShed("shed"))

        async def client():
            return await handle

        with pytest.raises(RequestShed):
            asyncio.run(client())
        assert handle.failed
        assert isinstance(handle.exception(), RequestShed)

    def test_await_already_done_handle(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        session = compile_model(mod, params, CompilerOptions()).serve("manual")
        handle = session.submit(instances[0])
        session.flush()

        async def client():
            return await handle

        assert values_allclose(reference[0], asyncio.run(client()))


class TestMultiProducerStress:
    """Satellite: concurrent Server.submit must lose no handles, duplicate
    none, and keep every counter summing up."""

    THREADS = 4
    PER_THREAD = 8

    def test_stress(self, treelstm_setup, birnn_setup):
        t_mod, t_params, t_instances, t_reference = treelstm_setup
        b_mod, b_params, b_instances, b_reference = birnn_setup
        server = Server()
        server.add_endpoint(
            "trees", compile_model(t_mod, t_params, CompilerOptions()),
            policy="size", n=4,
        )
        server.add_endpoint(
            "seqs", compile_model(b_mod, b_params, CompilerOptions()),
            policy="size", n=4,
        )
        results: dict = {}

        def producer(tid):
            mine = []
            for i in range(self.PER_THREAD):
                name = "trees" if (tid + i) % 2 == 0 else "seqs"
                idx = (tid * self.PER_THREAD + i) % len(
                    t_instances if name == "trees" else b_instances
                )
                inst = (t_instances if name == "trees" else b_instances)[idx]
                mine.append((name, idx, server.submit(name, inst)))
            results[tid] = mine

        with server.run():
            threads = [
                threading.Thread(target=producer, args=(tid,))
                for tid in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            server.drain()
        server.shutdown()

        all_handles = [h for mine in results.values() for _, _, h in mine]
        total = self.THREADS * self.PER_THREAD
        # no lost handles: every producer got one per submit, all resolved
        assert len(all_handles) == total
        assert all(h.done and not h.failed for h in all_handles)
        # no duplicated handles
        assert len({id(h) for h in all_handles}) == total
        # every result is the right model's reference output
        for mine in results.values():
            for name, idx, handle in mine:
                reference = t_reference if name == "trees" else b_reference
                assert values_allclose(reference[idx], handle.result())
        # counters sum: sessions saw exactly the submitted requests, and
        # every request was flushed in exactly one round
        summary = server.summary()
        by_name = {"trees": 0, "seqs": 0}
        for mine in results.values():
            for name, _, _ in mine:
                by_name[name] += 1
        for name, count in by_name.items():
            session = server.endpoint(name).session
            assert summary[name]["requests"] == count
            assert session.requests_flushed == count
            assert sum(s.batch_size for s in session.history) == count
            assert session.pending_requests == 0
        assert server.loop.num_admitted == total


class TestContinuousReferenceIdentity:
    """Satellite: continuous batching returns the same outputs as one-shot
    reference_run for every scheduler policy."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_scheduler_matrix(self, treelstm_setup, scheduler):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        server = one_endpoint(model, "deadline", ms=2.0, scheduler=scheduler)
        arrivals = bursty_arrivals(3000.0, len(instances), burst=3, seed=9)
        report = server.replay(trace_of(arrivals, instances))["m"]
        assert all(
            values_allclose(a, b) for a, b in zip(reference, report.outputs)
        )
        assert report.num_requests == len(instances)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("placement", ["round_robin", "data_parallel"])
    def test_scheduler_matrix_on_device_group(
        self, treelstm_setup, scheduler, placement
    ):
        """Continuous batching on a 2-device group: every scheduler's
        rounds place without changing a result."""
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        server = one_endpoint(
            model,
            "deadline",
            ms=2.0,
            scheduler=scheduler,
            server_args={"device": 2, "placement": placement},
        )
        arrivals = bursty_arrivals(3000.0, len(instances), burst=3, seed=9)
        report = server.replay(trace_of(arrivals, instances))["m"]
        assert all(
            values_allclose(a, b) for a, b in zip(reference, report.outputs)
        )
        assert report.num_requests == len(instances)

    @pytest.mark.parametrize("policy,policy_args", [
        ("manual", {}),
        ("size", {"n": 2}),
        ("deadline", {"ms": 2.0}),
        ("adaptive", {}),
    ])
    def test_flush_policy_matrix(self, treelstm_setup, policy, policy_args):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        server = one_endpoint(model, policy, **policy_args)
        arrivals = poisson_arrivals(2000.0, len(instances), seed=10)
        report = server.replay(trace_of(arrivals, instances))["m"]
        assert all(
            values_allclose(a, b) for a, b in zip(reference, report.outputs)
        )

    def test_fiber_programs(self):
        """Tensor-dependent control flow (deferred sessions) under the
        loop: flushes run through engine.run and stay reference-identical."""
        module = MODEL_MODULES["drnn"]
        mod, params, size = module.build_for("test")
        instances = module.make_batch(mod, size, 4, seed=13)
        reference = reference_run(mod, params, instances)
        model = compile_model(mod, params, CompilerOptions())
        assert model.uses_tdc
        server = one_endpoint(model, "deadline", ms=2.0)
        arrivals = bursty_arrivals(2000.0, len(instances), burst=2, seed=14)
        report = server.replay(trace_of(arrivals, instances))["m"]
        assert all(
            values_allclose(a, b) for a, b in zip(reference, report.outputs)
        )

    @pytest.mark.parametrize("continuous", [True, False])
    def test_server_trace_matches_reference(
        self, treelstm_setup, birnn_setup, continuous
    ):
        t_mod, t_params, t_instances, t_reference = treelstm_setup
        b_mod, b_params, b_instances, b_reference = birnn_setup
        server = Server(clock=SimulatedClock())
        server.add_endpoint(
            "trees", compile_model(t_mod, t_params, CompilerOptions()),
            policy="deadline", ms=3.0,
        )
        server.add_endpoint(
            "seqs", compile_model(b_mod, b_params, CompilerOptions()),
            policy="adaptive",
        )
        workload = [
            (t, "trees", inst)
            for t, inst in zip(
                poisson_arrivals(2000.0, len(t_instances), seed=1), t_instances
            )
        ] + [
            (t, "seqs", inst)
            for t, inst in zip(
                poisson_arrivals(2000.0, len(b_instances), seed=2), b_instances
            )
        ]
        outputs = {
            name: report.outputs
            for name, report in server.replay(workload, continuous=continuous).items()
        }
        assert all(
            values_allclose(a, b) for a, b in zip(t_reference, outputs["trees"])
        )
        assert all(
            values_allclose(a, b) for a, b in zip(b_reference, outputs["seqs"])
        )


class TestDeterministicReplay:
    def test_continuous_bit_for_bit(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        arrivals = bursty_arrivals(2500.0, len(instances), burst=3, seed=21)
        latencies = []
        for _ in range(2):
            report = one_endpoint(model, "adaptive").replay(
                trace_of(arrivals, instances), host_model=(1.0, 0.25)
            )["m"]
            latencies.append(report.latencies_ms)
        assert latencies[0] == latencies[1]  # exact float equality

    def test_caller_driven_bit_for_bit(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        arrivals = poisson_arrivals(2500.0, len(instances), seed=22)
        latencies = []
        for _ in range(2):
            report = one_endpoint(model, "deadline", ms=2.0).replay(
                trace_of(arrivals, instances),
                continuous=False,
                host_model=(1.0, 0.25),
            )["m"]
            latencies.append(report.latencies_ms)
        assert latencies[0] == latencies[1]

    @pytest.mark.parametrize("continuous", [True, False])
    @pytest.mark.parametrize("devices", [1, 2])
    @pytest.mark.parametrize("policy,policy_args", [
        ("deadline", {"ms": 5.0}),
        ("adaptive", {}),
        ("size", {"n": 4}),
    ])
    def test_entry_points_share_one_timeline(
        self, treelstm_setup, birnn_setup, policy, policy_args, devices, continuous
    ):
        """One tagged two-endpoint trace yields the same per-request
        timeline through Server.replay as through its oracle: the bare
        trace driver over the server's loop (continuous), or the
        caller-driven choreography written out against the public Server
        API (caller-driven)."""
        t_mod, t_params, t_instances, _ = treelstm_setup
        b_mod, b_params, b_instances, _ = birnn_setup
        models = {
            "trees": compile_model(t_mod, t_params, CompilerOptions()),
            "seqs": compile_model(b_mod, b_params, CompilerOptions()),
        }
        instances = {"trees": t_instances, "seqs": b_instances}
        host_model = (2.0, 0.75)
        workload = [
            (t, name, instances[name][i % len(instances[name])])
            for i, t in enumerate(bursty_arrivals(1500.0, 48, burst=4, seed=31))
            for name in (("trees", "seqs")[i % 2],)
        ]

        def server():
            kwargs = {"device": 2, "placement": "data_parallel"} if devices == 2 else {}
            srv = Server(clock=SimulatedClock(), **kwargs)
            for name, model in models.items():
                srv.add_endpoint(name, model, policy=policy, **policy_args)
            return srv

        def timeline(handles_by_name):
            return {
                name: [
                    (
                        h.stats.flushed_at, h.stats.completed_at, h.stats.latency_ms,
                        h.stats.batch_size, h.stats.flush_reason,
                    )
                    for h in handles
                ]
                for name, handles in handles_by_name.items()
            }

        def report_handles(reports):
            return {name: report.handles for name, report in reports.items()}

        def choreography(srv):
            """The caller-driven choreography written out against each
            endpoint's InferenceSession (submit/poll/next_deadline/flush)
            — the reference the caller-driven Server.replay must match."""
            # registration order: the order a loop polls and drains them
            sessions = [srv.endpoint(n).session for n in models]
            # a caller-driven lane: each flush blocks the clock, priced by
            # the host model
            (lane,) = TraceDriver([srv.loop], srv.clock, continuous=False).states
            lane.host_model = host_model
            for session in sessions:
                session.lane = lane

            def next_deadline():
                due = [d for d in (s.next_deadline() for s in sessions) if d is not None]
                return min(due) if due else None

            def fire(deadline):
                srv.clock.advance_to(deadline)
                for session in sessions:
                    session.poll()

            handles = {}
            for t, name, instance in workload:
                while True:
                    deadline = next_deadline()
                    if deadline is None or deadline > t:
                        break
                    fire(deadline)
                srv.clock.advance_to(t)
                session = srv.endpoint(name).session
                handles.setdefault(name, []).append(session.submit(instance, at=t))
            while any(s.pending_requests for s in sessions):
                deadline = next_deadline()
                if deadline is not None:
                    fire(deadline)
                else:
                    for session in sessions:
                        session.flush()
            return handles

        def replayed(continuous):
            return timeline(report_handles(
                server().replay(workload, continuous=continuous, host_model=host_model)
            ))

        if continuous:
            srv = server()
            bare = TraceDriver([srv.loop], srv.clock)
            assert replayed(True) == timeline(bare.run(workload, host_model=host_model))
        else:
            caller = replayed(False)
            assert caller == timeline(choreography(server()))
            # the two modes are genuinely different timelines on this trace
            assert caller != replayed(True)

    @pytest.mark.parametrize("placement", ["single", "round_robin", "data_parallel"])
    def test_bitwise_on_device_group(self, treelstm_setup, placement):
        """A 2-device continuous replay replays bit-for-bit and matches the
        reference."""
        from repro.devices import DeviceGroup

        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        arrivals = bursty_arrivals(500.0, len(instances), burst=4, seed=7)

        def once():
            server = one_endpoint(
                model,
                "size",
                n=4,
                server_args={
                    "device": DeviceGroup(2, interconnect="nvlink"),
                    "placement": placement,
                },
            )
            return server.replay(
                trace_of(arrivals, instances), host_model=(0.5, 0.05)
            )["m"]

        first, second = once(), once()
        assert all(values_allclose(a, b) for a, b in zip(reference, first.outputs))
        assert first.latencies_ms == second.latencies_ms
        assert bitwise_equal(first.outputs, second.outputs)

    def test_wall_time_restored_after_replay(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        server = one_endpoint(model, "manual")
        server.replay(trace_of([0.0, 0.0], instances[:2]))
        session = server.endpoint("m").session
        # the trace driver's lane reference lasts exactly as long as the replay:
        # outside it, a flush charges measured host time again
        assert session.lane is None
        before = server.clock.now()
        session.submit(instances[0])
        session.flush()
        stats = session.last_stats
        assert stats.host_total_ms > 0
        assert server.clock.now() - before == pytest.approx(
            (stats.host_total_ms + stats.api_time_ms + stats.device_total_ms) / 1e3
        )


class TestReplayReportWithFailures:
    """A replay report folds latency, throughput and outputs over the
    completed requests, keeps every handle and counts the failed ones: a
    trace with rejected or expired admissions reports instead of raising."""

    @pytest.mark.parametrize("continuous", [True, False])
    def test_rejected_admissions(self, treelstm_setup, continuous):
        mod, params, instances, reference = treelstm_setup
        server = Server(clock=SimulatedClock(), max_pending=2, backpressure="reject")
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()), policy="manual"
        )
        trace = trace_of([0.0] * len(instances), instances)
        report = server.replay(trace, continuous=continuous)["m"]
        rejected = len(instances) - 2
        assert server.loop.num_rejected == rejected
        assert report.num_requests == len(report.handles) == len(instances)
        assert report.num_failed == rejected
        assert [h.failed for h in report.handles] == [False] * 2 + [True] * rejected
        with pytest.raises(BackpressureFull):
            report.handles[-1].result()
        assert len(report.latencies_ms) == 2
        assert bitwise_equal(report.outputs, reference[:2])
        assert report.throughput_rps > 0 and report.p99_ms > 0

    @pytest.mark.parametrize("continuous", [True, False])
    def test_expired_admission(self, treelstm_setup, continuous):
        mod, params, instances, reference = treelstm_setup
        server = one_endpoint(compile_model(mod, params, CompilerOptions()), "adaptive")
        trace = [
            (0.0, "m", instances[0]),
            (0.01, "m", instances[1], {"deadline": 0.0}),
            (0.02, "m", instances[2]),
        ]
        report = server.replay(trace, continuous=continuous)["m"]
        assert report.num_requests == 3 and report.num_failed == 1
        assert report.handles[1].failed
        assert bitwise_equal(report.outputs, [reference[0], reference[2]])
        assert len(report.latencies_ms) == 2


class TestFailureIsolation:
    """One malformed request must not take down the loop, and no handle may
    ever be lost (pending forever) when a round fails."""

    def test_bad_request_fails_only_itself(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        server = Server()
        server.add_endpoint(
            "m", compile_model(mod, params, CompilerOptions()), policy="manual"
        )
        with server.run():
            bad = server.submit("m", object())  # not a valid instance
            with pytest.raises(Exception):
                bad.result(timeout=10.0)
            assert bad.failed
            # the loop survived: subsequent requests serve normally
            good = server.submit("m", instances[0])
            server.drain()
            assert values_allclose(reference[0], good.result(timeout=10.0))
        server.shutdown()

    def test_poisoned_round_fails_roundmates_with_round_aborted(
        self, treelstm_setup
    ):
        from repro.serve.session import RoundAborted

        mod, params, instances, _ = treelstm_setup
        session = compile_model(mod, params, CompilerOptions()).serve("manual")
        innocent = session.submit(instances[0])
        with pytest.raises(Exception):
            session.submit(object())  # poisons the shared lazy graph
        # the round-mate fails with RoundAborted chaining the cause, and
        # the session is reset to a clean empty round
        assert innocent.failed
        assert isinstance(innocent.exception(), RoundAborted)
        assert session.pending_requests == 0
        # the session still serves after the abort
        replacement = session.submit(instances[1])
        session.flush()
        assert replacement.done and not replacement.failed

    def test_flush_failure_fails_popped_handles(self, treelstm_setup, monkeypatch):
        mod, params, instances, _ = treelstm_setup
        session = compile_model(mod, params, CompilerOptions()).serve("manual")
        handle = session.submit(instances[0])
        monkeypatch.setattr(
            session.engine.runtime,
            "trigger",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("kernel died")),
        )
        with pytest.raises(RuntimeError, match="kernel died"):
            session.flush()
        # the popped handle is not lost: it resolved exceptionally
        assert handle.failed
        assert session.pending_requests == 0

    def test_exception_accessor_matches_result_contract(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        session = compile_model(mod, params, CompilerOptions()).serve("manual")
        handle = session.submit(instances[0])
        # unmanaged + pending: both accessors raise instead of blocking
        with pytest.raises(RuntimeError, match="flush"):
            handle.exception()
        session.flush()
        assert handle.exception() is None


class TestLoopDeath:
    """An error outside any one round is an infrastructure failure: the
    wall-clock loop dies loudly — pending handles fail, the loop stops with
    the original error, and new submissions are refused until it is run
    again."""

    @staticmethod
    def _crashing_server(treelstm_setup, boom):
        mod, params, _, _ = treelstm_setup
        server = Server()
        endpoint = server.add_endpoint(
            "trees", compile_model(mod, params, CompilerOptions()), policy="manual"
        )
        session = endpoint.session
        healthy = session.next_deadline

        def next_deadline():
            # the loop asks every session for its deadline right after
            # dispatching an admission: crash once a request is pending
            if session.pending_requests:
                raise boom
            return healthy()

        session.next_deadline = next_deadline
        return server, session, healthy

    def test_wall_crash_fails_handles_and_stops_loop(self, treelstm_setup):
        from repro.serve import LoopStopped

        _, _, instances, _ = treelstm_setup
        boom = RuntimeError("loop infrastructure exploded")
        server, session, _ = self._crashing_server(treelstm_setup, boom)
        server.run()
        handle = server.submit("trees", instances[0])
        with pytest.raises(Exception) as excinfo:
            handle.result(timeout=5.0)
        # the session's round was aborted with the original error as cause
        assert excinfo.value is boom or excinfo.value.__cause__ is boom
        server.loop._thread.join(timeout=5.0)
        assert not server.loop.running
        assert server.loop._error is boom
        assert session.pending_requests == 0
        with pytest.raises(LoopStopped) as refused:
            server.submit("trees", instances[0])
        assert refused.value.__cause__ is boom
        # shutting down a dead loop reports its death too
        with pytest.raises(LoopStopped):
            server.shutdown()

    def test_dead_loop_serves_again_after_rerun(self, treelstm_setup):
        _, _, instances, reference = treelstm_setup
        boom = RuntimeError("loop infrastructure exploded")
        server, session, healthy = self._crashing_server(treelstm_setup, boom)
        server.run()
        with pytest.raises(Exception):
            server.submit("trees", instances[0]).result(timeout=5.0)
        server.loop._thread.join(timeout=5.0)
        assert not server.loop.running
        # the abort left a clean empty round: a rerun loop serves normally
        session.next_deadline = healthy
        with server.run():
            handles = [server.submit("trees", inst) for inst in instances[:3]]
            server.drain()
            outputs = [h.result(timeout=10.0) for h in handles]
        server.shutdown()
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))


class TestInFlightVisibility:
    def test_in_flight_rounds_counted(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        clock = SimulatedClock()
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("manual", clock=clock)
        # the lane a one-loop continuous trace driver assigns
        (lane,) = TraceDriver(
            [ServeLoop(sessions={"_": session}, clock=clock)], clock
        ).states
        session.lane = lane
        try:
            session.submit(instances[0])
            assert session.in_flight_rounds == 0
            session.flush()
            # the round launched onto the timeline instead of blocking the
            # clock: it is still executing now, and its host share holds
            # only the loop's lane
            assert session.in_flight_rounds == 1
            assert clock.now() == 0.0 < lane.busy_until
            clock.advance_to(lane.timeline.busy_until)
            # a round completing now counts until its completion wakeup
            # drains it
            assert session.in_flight_rounds == 1
            lane.timeline.pop_completions(clock.now())
            assert session.in_flight_rounds == 0
        finally:
            session.lane = None

    def test_adaptive_defers_to_in_flight_round(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        clock = SimulatedClock()
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("adaptive", clock=clock)
        (lane,) = TraceDriver(
            [ServeLoop(sessions={"_": session}, clock=clock)], clock
        ).states
        session.lane = lane
        try:
            # a long round is executing on the device
            lane.timeline.launch_round(clock.now(), [(0, 10.0)])
            assert session.in_flight_rounds == 1
            # while the device is busy, waiting is free: even arrival gaps
            # that would normally flush must keep accumulating
            clock.advance(0.001)
            session.submit(instances[0], at=clock.now())
            clock.advance(0.001)
            session.submit(instances[1], at=clock.now())
            clock.advance(0.001)
            session.submit(instances[2], at=clock.now())
            assert session.pending_requests == 3
            # device idle again once the completion wakeup drains the round:
            # the policy launches the backlog
            clock.advance_to(lane.timeline.busy_until)
            lane.timeline.pop_completions(clock.now())
            assert session.in_flight_rounds == 0
            assert session.policy.on_idle(session, clock.now())
        finally:
            session.lane = None
