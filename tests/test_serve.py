"""Tests for the serving subsystem: clocks, flush policies and their
registry, request futures, policy-driven sessions, repeated rounds, full
rounds, multi-model servers and open-loop traffic."""

import numpy as np
import pytest

from repro import CompilerOptions, compile_model, reference_run
from repro.serve import (
    FLUSH_POLICIES,
    AdaptivePolicy,
    DeadlinePolicy,
    FlushPolicy,
    InferenceSession,
    ManualPolicy,
    Server,
    SimulatedClock,
    SizePolicy,
    bursty_arrivals,
    poisson_arrivals,
)
from repro.models import MODEL_MODULES
from repro.utils import flatten_arrays, values_allclose
from tests.conftest import one_endpoint, trace_of

BATCH = 6

BUILTIN_POLICIES = ("manual", "size", "deadline", "adaptive")

SCHEDULERS = ("inline_depth", "dynamic_depth", "agenda", "nobatch", "dynet")

#: the zoo's one-shot (non-decoder) models
ZOO = ("treelstm", "mvrnn", "birnn", "nestedrnn", "drnn", "berxit", "stackrnn")


def exact_equal(a, b):
    """Bitwise reference identity over nested output structures."""
    fa, fb = flatten_arrays(a), flatten_arrays(b)
    return len(fa) == len(fb) and all(
        np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(fa, fb)
    )


@pytest.fixture(scope="module")
def treelstm_setup():
    module = MODEL_MODULES["treelstm"]
    mod, params, size = module.build_for("test")
    instances = module.make_batch(mod, size, BATCH, seed=5)
    reference = reference_run(mod, params, instances)
    return mod, params, instances, reference


@pytest.fixture(scope="module")
def birnn_setup():
    module = MODEL_MODULES["birnn"]
    mod, params, size = module.build_for("test")
    instances = module.make_batch(mod, size, 3, seed=6)
    reference = reference_run(mod, params, instances)
    return mod, params, instances, reference


class TestClock:
    def test_simulated_clock_advances(self):
        clock = SimulatedClock(start=1.0)
        assert clock.now() == 1.0
        clock.advance(0.5)
        assert clock.now() == 1.5
        clock.charge(0.25)
        assert clock.now() == 1.75

    def test_advance_to_clamps(self):
        clock = SimulatedClock()
        clock.advance_to(2.0)
        assert clock.now() == 2.0
        clock.advance_to(1.0)  # never backwards
        assert clock.now() == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)


class TestPolicyRegistry:
    def test_builtins_listed(self):
        names = FLUSH_POLICIES.available()
        for name in BUILTIN_POLICIES:
            assert name in names

    def test_lookup_builds_policies(self):
        assert isinstance(FLUSH_POLICIES.make("manual"), ManualPolicy)
        assert isinstance(FLUSH_POLICIES.make("size", n=4), SizePolicy)
        assert isinstance(FLUSH_POLICIES.make("deadline", ms=3.0), DeadlinePolicy)
        assert isinstance(FLUSH_POLICIES.make("adaptive"), AdaptivePolicy)

    def test_unknown_name_lists_policies(self):
        with pytest.raises(ValueError, match="deadline"):
            FLUSH_POLICIES.make("does_not_exist")

    def test_register_and_unregister(self):
        class CustomPolicy(SizePolicy):
            name = "custom_flush_test"

        FLUSH_POLICIES.register("custom_flush_test", lambda **kw: CustomPolicy(**kw))
        try:
            assert "custom_flush_test" in FLUSH_POLICIES.available()
            assert isinstance(FLUSH_POLICIES.make("custom_flush_test", n=2), CustomPolicy)
            with pytest.raises(ValueError, match="already registered"):
                FLUSH_POLICIES.register("custom_flush_test", lambda **kw: CustomPolicy(**kw))
        finally:
            FLUSH_POLICIES.unregister("custom_flush_test")
        assert "custom_flush_test" not in FLUSH_POLICIES.available()

    def test_invalid_policy_args(self):
        with pytest.raises(ValueError):
            FLUSH_POLICIES.make("size", n=0)
        with pytest.raises(ValueError):
            FLUSH_POLICIES.make("deadline", ms=-1.0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            FLUSH_POLICIES.make("adaptive", max_wait_ms=-1.0)

    @pytest.mark.parametrize(
        "name,value,attr",
        [
            ("max_wait_ms", 0.0, "max_wait_ms"),
        ],
    )
    def test_adaptive_boundary_args_accepted(self, name, value, attr):
        """The closed ends of the adaptive policy's argument ranges are
        legal values, not errors."""
        policy = FLUSH_POLICIES.make("adaptive", **{name: value})
        assert getattr(policy, attr) == value


class TestPolicyMatrix:
    """Every flush policy produces the reference outputs: policies decide
    *when* rounds execute, never *what* they compute."""

    @pytest.mark.parametrize(
        "policy,policy_args",
        [
            ("manual", {}),
            ("size", {"n": 2}),
            ("deadline", {"ms": 2.0}),
            ("adaptive", {}),
        ],
    )
    def test_policy_matches_reference(self, treelstm_setup, policy, policy_args):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        server = one_endpoint(model, policy, **policy_args)
        arrivals = poisson_arrivals(2000.0, len(instances), seed=3)
        report = server.replay(
            trace_of(arrivals, instances), continuous=False
        )["m"]
        assert all(
            values_allclose(a, b) for a, b in zip(reference, report.outputs)
        )
        assert report.num_requests == len(instances)

    def test_policy_instance_accepted(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve(SizePolicy(n=len(instances)))
        handles = [session.submit(i) for i in instances]
        assert all(h.done for h in handles)
        assert all(
            values_allclose(a, h.result()) for a, h in zip(reference, handles)
        )

    def test_policy_args_with_instance_rejected(self, treelstm_setup):
        mod, params, _, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        with pytest.raises(ValueError, match="policy_args"):
            InferenceSession(model.make_engine(), policy=SizePolicy(2), policy_args={"n": 3})

    def test_max_batch_is_size_sugar(self, treelstm_setup):
        """The removed ``max_batch=n`` sugar is spelled as the ``size``
        policy."""
        mod, params, _, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("size", n=3)
        assert isinstance(session.policy, SizePolicy)
        assert session.policy.n == 3


class TestDeadlineSemantics:
    def test_deadline_flushes_on_poll(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        clock = SimulatedClock()
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("deadline", ms=10.0, clock=clock)

        handle = session.submit(instances[0])
        assert session.next_deadline() == pytest.approx(0.010)
        clock.advance(0.005)
        assert session.poll() is None  # deadline not reached
        assert not handle.done
        clock.advance(0.005)
        outputs = session.poll()  # deadline reached: round flushes
        assert outputs is not None and handle.done
        assert values_allclose(reference[0], handle.result())
        assert session.last_stats.flush_reason == "deadline"

    def test_deadline_anchors_on_oldest_request(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        clock = SimulatedClock()
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("deadline", ms=10.0, clock=clock)
        session.submit(instances[0])
        clock.advance(0.004)
        session.submit(instances[1])
        # later submits do not push the deadline out
        assert session.next_deadline() == pytest.approx(0.010)

    def test_deadline_resets_per_round(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        clock = SimulatedClock()
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("deadline", ms=10.0, clock=clock)
        session.submit(instances[0])
        clock.advance(0.010)
        session.poll()
        assert session.next_deadline() is None  # empty session: no deadline
        start = clock.now()
        session.submit(instances[1])
        assert session.next_deadline() == pytest.approx(start + 0.010)

    def test_late_submit_flushes_immediately(self, treelstm_setup):
        """A submit arriving after the round's deadline has passed flushes
        the round at once (wall-clock serving without a poller)."""
        mod, params, instances, _ = treelstm_setup
        clock = SimulatedClock()
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("deadline", ms=10.0, clock=clock)
        first = session.submit(instances[0])
        clock.advance(0.020)
        session.submit(instances[1])
        assert first.done
        assert session.num_flushes == 1


class TestAdaptivePolicy:
    def test_sparse_traffic_flushes_small_batches(self, treelstm_setup):
        """When arrivals are far apart relative to the launch overhead the
        policy stops waiting almost immediately."""
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        server = one_endpoint(model, "adaptive")
        arrivals = [i * 10.0 for i in range(len(instances))]  # one per 10s
        report = server.replay(
            trace_of(arrivals, instances), continuous=False
        )["m"]
        assert report.mean_batch < 2.0

    def test_backlog_batches_together(self, treelstm_setup):
        """Requests stamped in the past (piled up during execution) batch
        without waiting cost — continuous batching."""
        mod, params, instances, _ = treelstm_setup
        clock = SimulatedClock(start=100.0)
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("adaptive", clock=clock)
        # all arrivals lie 1s in the past relative to the clock
        for i, inst in enumerate(instances):
            session.submit(inst, at=99.0 + i * 1e-4)
        assert session.pending_requests == len(instances)  # nothing flushed
        session.flush()
        assert session.last_stats.batch_size == len(instances)

    def test_wall_clock_submits_are_not_backlog(self, treelstm_setup):
        """Only explicitly backdated arrivals count as backlog: plain
        submits (no ``at=``) always run the cost/benefit rule, however long
        DFG construction takes inside submit()."""
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("adaptive")  # default WallClock
        session.submit(instances[0])
        assert not session.last_submit_backdated
        # backdated only when the caller passes a timestamp behind the clock
        clock = SimulatedClock(start=10.0)
        session2 = model.serve("adaptive", clock=clock)
        session2.submit(instances[0], at=9.0)
        assert session2.last_submit_backdated
        session2.submit(instances[1], at=clock.now())
        assert not session2.last_submit_backdated

    def test_estimates_update_on_flush(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("adaptive", clock=SimulatedClock())
        policy = session.policy
        prior = policy.round_launches
        for inst in instances:
            session.submit(inst)
        session.flush()
        assert policy.round_launches != prior
        assert policy.marginal_benefit_us(session) > 0


class TestRequestStats:
    def test_per_request_stats(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        clock = SimulatedClock()
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("manual", clock=clock)
        handles = []
        for inst in instances:
            handles.append(session.submit(inst))
            clock.advance(0.001)
        session.flush()
        stats = session.last_stats

        for handle in handles:
            rs = handle.stats
            assert rs.batch_size == len(instances)
            assert rs.flush_reason == "manual"
            assert rs.launch_share == pytest.approx(
                stats.kernel_calls / len(instances)
            )
            assert rs.latency_ms == pytest.approx(rs.queue_ms + rs.execute_ms)
            assert rs.completed_at > rs.submitted_at
        # the first request queued longer than the last; the loop advances
        # 1ms after every submit, so the first waited len(instances) ms
        assert handles[0].stats.queue_ms > handles[-1].stats.queue_ms
        assert handles[0].stats.queue_ms == pytest.approx(
            len(instances) * 1.0, rel=0.01
        )

    def test_run_stats_carry_flush_clock(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        clock = SimulatedClock(start=5.0)
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("size", n=len(instances), clock=clock)
        for inst in instances:
            session.submit(inst)
        assert session.last_stats.flushed_at == pytest.approx(5.0)
        assert session.last_stats.flush_reason == "size"

    def test_result_before_flush_raises(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        session = compile_model(mod, params, CompilerOptions()).serve("manual")
        handle = session.submit(instances[0])
        with pytest.raises(RuntimeError, match="flush"):
            handle.result()


class TestDoneCallbacks:
    """``RequestHandle.add_done_callback`` keeps ``Future``'s contract with
    the callbacks held on the handle itself."""

    def test_order_late_registration_and_a_raising_callback(self, caplog):
        from repro.serve.request import RequestHandle, RequestStats

        handle = RequestHandle(0)
        seen = []

        def boom(h):
            seen.append("boom")
            raise ValueError("callback failed")

        handle.add_done_callback(lambda h: seen.append(("first", h.done, h.stats is not None)))
        handle.add_done_callback(boom)
        handle.add_done_callback(lambda h: seen.append("third"))
        assert seen == []
        handle._complete(41, RequestStats())
        # registration order, the handle already resolved, and the raising
        # one neither stopped the rest nor escaped
        assert seen == [("first", True, True), "boom", "third"]
        assert "callback failed" in caplog.text
        assert handle._callbacks is None and handle.result() == 41

        handle.add_done_callback(lambda h: seen.append("late"))
        assert seen[-1] == "late"  # fired at once

    def test_failure_runs_callbacks_too(self):
        from repro.serve.request import RequestCancelled, RequestHandle

        handle = RequestHandle(0)
        seen = []
        handle.add_done_callback(lambda h: seen.append(h.failed))
        handle._fail(RequestCancelled())
        assert seen == [True]

    def test_registration_races_resolution(self):
        """Every callback fires exactly once whichever side of the
        resolution its registration lands on."""
        import sys
        import threading

        from repro.serve.request import RequestHandle, RequestStats

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                handle = RequestHandle(0)
                fired = []
                registering = [
                    threading.Thread(target=handle.add_done_callback, args=(fired.append,))
                    for _ in range(4)
                ]
                resolving = threading.Thread(target=handle._complete, args=(1, RequestStats()))
                for thread in registering[:2] + [resolving] + registering[2:]:
                    thread.start()
                for thread in registering + [resolving]:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert fired == [handle] * 4
        finally:
            sys.setswitchinterval(interval)


class TestServer:
    def test_multi_endpoint_isolation(self, treelstm_setup, birnn_setup):
        """Two models behind one server (shared device) return each their
        own reference outputs, with per-flush stats accounted separately."""
        t_mod, t_params, t_instances, t_reference = treelstm_setup
        b_mod, b_params, b_instances, b_reference = birnn_setup
        server = Server(clock=SimulatedClock())
        server.add_endpoint(
            "trees", compile_model(t_mod, t_params, CompilerOptions()), policy="manual"
        )
        server.add_endpoint(
            "seqs", compile_model(b_mod, b_params, CompilerOptions()), policy="manual"
        )

        # interleaved traffic; the manual policies flush one round each
        workload = [
            (0.0, name, instances[i])
            for i in range(max(len(t_instances), len(b_instances)))
            for name, instances in (("trees", t_instances), ("seqs", b_instances))
            if i < len(instances)
        ]
        reports = server.replay(workload)
        for name, reference in (("trees", t_reference), ("seqs", b_reference)):
            handles = reports[name].handles
            assert len(handles) == len(reference)
            assert all(values_allclose(a, h.result()) for a, h in zip(reference, handles))

        summary = server.summary()
        assert summary["trees"]["requests"] == len(t_instances)
        assert summary["seqs"]["requests"] == len(b_instances)
        # per-flush device counters are isolated despite the shared device
        solo = compile_model(t_mod, t_params, CompilerOptions()).serve("manual")
        for inst in t_instances:
            solo.submit(inst)
        solo.flush()
        assert summary["trees"]["kernel_launches"] == solo.last_stats.kernel_calls

    def test_endpoint_errors(self, treelstm_setup):
        mod, params, _, _ = treelstm_setup
        server = Server()
        model = compile_model(mod, params, CompilerOptions())
        server.add_endpoint("a", model)
        with pytest.raises(ValueError, match="already exists"):
            server.add_endpoint("a", model)
        with pytest.raises(KeyError, match="registered endpoints"):
            server.endpoint("missing")
        assert "a" in server and "missing" not in server

    def test_server_poll_fires_deadlines(self, treelstm_setup):
        """Each endpoint's flush deadline fires on its own: "a" (5 ms)
        flushes and completes before "b" (15 ms) is due."""
        mod, params, instances, _ = treelstm_setup
        server = Server(clock=SimulatedClock())
        model = compile_model(mod, params, CompilerOptions())
        server.add_endpoint("a", model, policy="deadline", ms=5.0)
        server.add_endpoint("b", model, policy="deadline", ms=15.0)
        reports = server.replay([(0.0, "a", instances[0]), (0.0, "b", instances[1])])
        (ha,), (hb,) = reports["a"].handles, reports["b"].handles
        assert ha.stats.flush_reason == hb.stats.flush_reason == "deadline"
        assert ha.stats.flushed_at == pytest.approx(0.005)
        assert hb.stats.flushed_at == pytest.approx(0.015)
        assert ha.stats.completed_at < hb.stats.flushed_at

    def test_replay_two_endpoints(self, treelstm_setup, birnn_setup):
        t_mod, t_params, t_instances, t_reference = treelstm_setup
        b_mod, b_params, b_instances, b_reference = birnn_setup
        server = Server(clock=SimulatedClock())
        server.add_endpoint(
            "trees", compile_model(t_mod, t_params, CompilerOptions()),
            policy="deadline", ms=5.0,
        )
        server.add_endpoint(
            "seqs", compile_model(b_mod, b_params, CompilerOptions()),
            policy="deadline", ms=5.0,
        )
        workload = [
            (t, "trees", inst)
            for t, inst in zip(poisson_arrivals(2000.0, len(t_instances), seed=1), t_instances)
        ] + [
            (t, "seqs", inst)
            for t, inst in zip(poisson_arrivals(2000.0, len(b_instances), seed=2), b_instances)
        ]
        reports = server.replay(workload, continuous=False)
        assert all(
            values_allclose(a, b)
            for a, b in zip(t_reference, reports["trees"].outputs)
        )
        assert all(
            values_allclose(a, b)
            for a, b in zip(b_reference, reports["seqs"].outputs)
        )


class TestTraffic:
    def test_poisson_arrivals_shape(self):
        arr = poisson_arrivals(100.0, 50, seed=1)
        assert len(arr) == 50
        assert all(b > a for a, b in zip(arr, arr[1:]))
        assert arr == poisson_arrivals(100.0, 50, seed=1)  # seeded
        assert arr != poisson_arrivals(100.0, 50, seed=2)

    def test_bursty_arrivals_group(self):
        arr = bursty_arrivals(100.0, 20, burst=5, seed=1)
        assert len(arr) == 20
        # bursts are simultaneous: only ceil(20/5) distinct timestamps
        assert len(set(arr)) == 4

    def test_replay_requires_simulated_clock(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        server = Server()  # wall clock
        server.add_endpoint("m", compile_model(mod, params, CompilerOptions()))
        with pytest.raises(TypeError, match="SimulatedClock"):
            server.replay(trace_of([0.0] * len(instances), instances))

    def test_replay_report_sanity(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        server = one_endpoint(model, "size", n=2)
        arrivals = poisson_arrivals(1000.0, len(instances), seed=4)
        report = server.replay(
            trace_of(arrivals, instances), continuous=False
        )["m"]
        assert report.num_requests == len(instances)
        assert report.throughput_rps > 0
        assert report.p99_ms >= report.p50_ms > 0
        assert report.mean_batch >= 1.0
        assert report.kernel_launches > 0
        assert len(report.latencies_ms) == len(instances)
        assert all(
            values_allclose(a, b) for a, b in zip(reference, report.outputs)
        )

    def test_bursty_traffic_batches_bursts(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        server = one_endpoint(model, "deadline", ms=2.0)
        arrivals = bursty_arrivals(5000.0, len(instances), burst=3, seed=7)
        report = server.replay(
            trace_of(arrivals, instances), continuous=False
        )["m"]
        assert report.mean_batch >= 2.0  # whole bursts flush together
        assert all(
            values_allclose(a, b) for a, b in zip(reference, report.outputs)
        )


class TestRepeatedRounds:
    """A session flushing the same requests round after round stays bitwise
    equal to the reference in every round, across scheduler policies,
    models and device counts."""

    @pytest.mark.parametrize("model_name", ("treelstm", "birnn", "stackrnn"))
    @pytest.mark.parametrize("policy", SCHEDULERS)
    @pytest.mark.parametrize("devices", [1, 4])
    def test_repeated_rounds_match_oracle(self, model_name, policy, devices):
        module = MODEL_MODULES[model_name]
        mod, params, size = module.build_for("test")
        instances = module.make_batch(mod, size, 4, seed=3)
        reference = reference_run(mod, params, instances)
        model = compile_model(mod, params, CompilerOptions(scheduler=policy))
        kwargs = (
            {"device": 4, "placement": "round_robin"} if devices == 4 else {}
        )
        session = model.serve("size", n=len(instances), **kwargs)
        for round_no in range(5):
            handles = [session.submit(i) for i in instances]
            session.flush()
            assert all(
                exact_equal(r, h.result()) for r, h in zip(reference, handles)
            ), f"{model_name}/{policy}/dev{devices} round {round_no}"

    def test_deferred_sessions_keep_residency(self):
        """Fiber-program session flushes preserve the device residency
        cache: round two reuses resident parameters instead of re-uploading
        them, and both rounds match the reference."""
        module = MODEL_MODULES["drnn"]
        mod, params, size = module.build_for("test")
        instances = module.make_batch(mod, size, 2, seed=3)
        reference = reference_run(mod, params, instances)
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("manual")
        assert model.uses_tdc
        per_round_bytes = []
        for _ in range(2):
            handles = [session.submit(i) for i in instances]
            session.flush()
            assert all(
                values_allclose(a, h.result()) for a, h in zip(reference, handles)
            )
            per_round_bytes.append(session.last_stats.device.get("num_memcpy", 0))
        assert per_round_bytes[1] < per_round_bytes[0]

    @pytest.mark.parametrize("model_name", ZOO)
    def test_structural_change_between_rounds(self, model_name):
        """Rounds of different structure, in the order A, B, A, each match
        the reference, and round three is planned exactly as round one was:
        nothing carried over from round two steers the planner."""
        module = MODEL_MODULES[model_name]
        mod, params, size = module.build_for("test")
        first = module.make_batch(mod, size, 4, seed=3)
        second = module.make_batch(mod, size, 3, seed=77)
        references = {
            id(first): reference_run(mod, params, first),
            id(second): reference_run(mod, params, second),
        }
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("manual")
        stats = []
        for round_no, batch in enumerate((first, second, first)):
            handles = [session.submit(i) for i in batch]
            session.flush()
            assert all(
                exact_equal(r, h.result())
                for r, h in zip(references[id(batch)], handles)
            ), f"{model_name} round {round_no}"
            stats.append(session.last_stats)
        assert stats[2].memory == stats[0].memory
        assert stats[2].num_batches == stats[0].num_batches

    @pytest.mark.parametrize("gather_fusion", [True, False])
    @pytest.mark.parametrize("policy", SCHEDULERS)
    def test_identical_rounds_plan_identically(
        self, treelstm_setup, policy, gather_fusion
    ):
        """Every round is planned from scratch, so identical rounds report
        identical operand classifications, gather segments, batch counts and
        launch counts under every scheduler, with gather fusion on and off."""
        mod, params, instances, reference = treelstm_setup
        model = compile_model(
            mod, params,
            CompilerOptions(scheduler=policy, gather_fusion=gather_fusion),
        )
        session = model.serve("manual")
        seen = []
        for round_no in range(3):
            handles = [session.submit(i) for i in instances]
            session.flush()
            assert all(
                exact_equal(r, h.result()) for r, h in zip(reference, handles)
            ), f"{policy}/fusion={gather_fusion} round {round_no}"
            stats = session.last_stats
            seen.append((
                stats.memory,
                stats.num_batches,
                stats.device["num_kernel_launches"],
                stats.device["num_gather_launches"],
            ))
        assert seen[1] == seen[0] and seen[2] == seen[0]


class TestSchedulerValidation:
    def test_unknown_scheduler_fails_at_compile(self, treelstm_setup):
        mod, params, _, _ = treelstm_setup
        with pytest.raises(ValueError, match="inline_depth"):
            compile_model(mod, params, CompilerOptions(scheduler="not_a_policy"))

    def test_unknown_scheduler_fails_for_vm_path(self, treelstm_setup):
        mod, params, _, _ = treelstm_setup
        with pytest.raises(ValueError, match="available policies"):
            compile_model(
                mod, params, CompilerOptions(aot=False, scheduler="not_a_policy")
            )

    def test_known_scheduler_still_compiles(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions(scheduler="agenda"))
        outs, _ = model.run(instances)
        assert all(values_allclose(a, b) for a, b in zip(reference, outs))


class TestServeFacade:
    def test_serve_builds_policy_session(self, treelstm_setup):
        mod, params, _, _ = treelstm_setup
        clock = SimulatedClock()
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("deadline", ms=7.0, clock=clock)
        assert isinstance(session.policy, DeadlinePolicy)
        assert session.policy.ms == 7.0
        assert session.clock is clock

    def test_serve_default_is_adaptive(self, treelstm_setup):
        mod, params, _, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        assert isinstance(model.serve().policy, AdaptivePolicy)

    def test_vm_model_serve(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        vm = compile_model(mod, params, CompilerOptions(aot=False))
        session = vm.serve("size", n=len(instances))
        handles = [session.submit(i) for i in instances]
        assert all(h.done for h in handles)
        assert all(
            values_allclose(a, h.result()) for a, h in zip(reference, handles)
        )

    def test_top_level_exports(self):
        import repro

        assert repro.Server is Server
        assert isinstance(repro.FLUSH_POLICIES.make("size", n=2), SizePolicy)
        assert "deadline" in repro.FLUSH_POLICIES.available()

    def test_custom_policy_subclass(self, treelstm_setup):
        """Third-party policies plug in through FlushPolicy."""
        mod, params, instances, reference = treelstm_setup

        class EveryOther(FlushPolicy):
            name = "every_other"

            def on_submit(self, session, now):
                return session.pending_requests % 2 == 0

        model = compile_model(mod, params, CompilerOptions())
        session = model.serve(EveryOther())
        handles = [session.submit(i) for i in instances]
        session.flush()
        assert all(
            values_allclose(a, h.result()) for a, h in zip(reference, handles)
        )
        assert session.num_flushes >= len(instances) // 2


class TestFullRounds:
    """The ``adaptive`` policy flushes the submit that fills a round of
    ``max_batch`` requests — also a backdated one, which otherwise keeps
    accumulating — so no round ever holds more than ``max_batch``."""

    def test_a_backdated_backlog_flushes_each_full_round(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        clock = SimulatedClock()
        session = model.serve("adaptive", clock=clock, max_batch=4)
        clock.advance(1.0)  # arrivals at t=0 are backdated
        handles = []
        for inst in instances:
            handles.append(session.submit(inst, at=0.0))
            assert session.pending_requests < 4
        assert [h.done for h in handles] == [True] * 4 + [False] * (BATCH - 4)
        assert len(session.flush()) == BATCH - 4
        assert [(st.batch_size, st.flush_reason) for st in session.history] == [
            (4, "adaptive"),
            (BATCH - 4, "manual"),
        ]
        outputs = [h.result() for h in handles]
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("max_batch", [1, 4])
    @pytest.mark.parametrize("devices", [1, 4])
    def test_full_rounds_match_reference(
        self, treelstm_setup, scheduler, max_batch, devices
    ):
        """Every scheduler runs a backlog in full rounds, on one device or
        sharded over four, bitwise equal to the eager reference."""
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions(scheduler=scheduler))
        kwargs = {"device": 4, "placement": "round_robin"} if devices == 4 else {}
        clock = SimulatedClock()
        session = model.serve("adaptive", clock=clock, max_batch=max_batch, **kwargs)
        clock.advance(1.0)
        handles = [session.submit(inst, at=0.0) for inst in instances]
        session.flush()
        full, rest = divmod(BATCH, max_batch)
        assert [st.batch_size for st in session.history] == [max_batch] * full + (
            [rest] if rest else []
        )
        assert all(
            exact_equal(a, h.result()) for a, h in zip(reference, handles)
        ), f"{scheduler}/max_batch{max_batch}/dev{devices}"

    @pytest.mark.parametrize("model_name", ZOO)
    def test_full_rounds_count_each_node_once(self, model_name):
        """A round counts only the DFG nodes it executed, so the rounds of
        two sum to the one round of all five."""
        module = MODEL_MODULES[model_name]
        mod, params, size = module.build_for("test")
        instances = module.make_batch(mod, size, 5, seed=7)
        model = compile_model(mod, params, CompilerOptions())

        def node_counts(**policy_args):
            clock = SimulatedClock()
            session = model.serve("adaptive", clock=clock, **policy_args)
            clock.advance(1.0)
            for inst in instances:
                session.submit(inst, at=0.0)
            session.flush()
            return [stats.num_dfg_nodes for stats in session.history]

        (whole,) = node_counts()
        rounds = node_counts(max_batch=2)
        assert len(rounds) == 3 and sum(rounds) == whole

    @pytest.mark.parametrize("model_name", ZOO)
    def test_full_rounds_match_reference_across_the_zoo(self, model_name):
        """Full rounds leave every zoo model's results unchanged, whether
        the model records rows at submit or defers its instances to one
        fiber-interleaved batch per flush."""
        module = MODEL_MODULES[model_name]
        mod, params, size = module.build_for("test")
        instances = module.make_batch(mod, size, 5, seed=7)
        reference = reference_run(mod, params, instances)
        model = compile_model(mod, params, CompilerOptions())
        clock = SimulatedClock()
        session = model.serve("adaptive", clock=clock, max_batch=2)
        clock.advance(1.0)
        handles = [session.submit(inst, at=0.0) for inst in instances]
        session.flush()
        assert [st.batch_size for st in session.history] == [2, 2, 1]
        assert all(exact_equal(a, h.result()) for a, h in zip(reference, handles))

    def test_context_exit_flushes_the_last_partial_round(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        clock = SimulatedClock()
        with model.serve("adaptive", clock=clock, max_batch=4) as session:
            clock.advance(1.0)
            handles = [session.submit(inst, at=0.0) for inst in instances]
        assert session.pending_requests == 0
        assert [st.batch_size for st in session.history] == [4, BATCH - 4]
        outputs = [h.result() for h in handles]
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))

    def test_done_callback_fills_a_round_mid_flush(self, treelstm_setup):
        """A handle's done callback submits while the round that resolves
        it is still completing its handles, and fills the next round: the
        nested flush runs there and then.  Both rounds land in ``history``,
        the session's counters are their sums, and every output stays
        bitwise equal to the reference."""
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        clock = SimulatedClock()
        session = model.serve(
            "adaptive", clock=clock, max_batch=3, max_wait_ms=10_000.0
        )
        clock.advance(1.0)
        late = []
        handles = [session.submit(inst, at=0.0) for inst in instances[:2]]
        handles[0].add_done_callback(
            lambda h: late.extend(session.submit(inst, at=0.0) for inst in instances[3:6])
        )
        handles.append(session.submit(instances[2], at=0.0))  # fills round 1
        assert len(late) == 3 and all(h.done for h in handles + late)
        assert session.pending_requests == 0
        history = list(session.history)
        assert sorted(st.batch_size for st in history) == [3, 3]
        assert session.num_flushes == 2 and session.requests_flushed == 6
        assert session.total_kernel_calls == sum(st.kernel_calls for st in history)
        assert session.total_device_ms == pytest.approx(
            sum(st.device_total_ms for st in history)
        )
        outputs = [h.result() for h in handles + late]
        assert all(exact_equal(a, b) for a, b in zip(reference, outputs))

    def test_full_round_replay_is_deterministic_and_reference_identical(
        self, treelstm_setup
    ):
        """End to end through the trace driver: rounds of at most
        ``max_batch`` replay bit-for-bit and match the eager reference."""
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        arrivals = poisson_arrivals(2000.0, len(instances), seed=33)

        def run():
            server = one_endpoint(model, "adaptive", max_batch=2, max_wait_ms=300.0)
            report = server.replay(
                trace_of(arrivals, instances), host_model=(6.0, 1.0)
            )["m"]
            return report, server.endpoint("m").session

        (r1, s1), (r2, _) = run(), run()
        assert r1.latencies_ms == r2.latencies_ms
        assert exact_equal(r1.outputs, r2.outputs)
        assert all(exact_equal(a, b) for a, b in zip(reference, r1.outputs))
        assert all(st.batch_size <= 2 for st in s1.history)
        assert r1.num_flushes >= len(instances) // 2
