"""Tests for the engine layer: the scheduler-policy registry, policy
equivalence across backends, and cross-request batching sessions."""

import pytest

from repro import CompilerOptions, compile_model, reference_run
from repro.engine import SCHEDULERS
from repro.serve import InferenceSession
from repro.models import MODEL_MODULES
from repro.runtime.scheduler import (
    AgendaScheduler,
    DynamicDepthScheduler,
    InlineDepthScheduler,
    NoBatchScheduler,
)
from repro.utils import ensure_recursion_limit, values_allclose

BATCH = 4

ALL_POLICIES = ("inline_depth", "dynamic_depth", "agenda", "nobatch")


@pytest.fixture(scope="module")
def treelstm_setup():
    module = MODEL_MODULES["treelstm"]
    mod, params, size = module.build_for("test")
    instances = module.make_batch(mod, size, BATCH, seed=7)
    reference = reference_run(mod, params, instances)
    return mod, params, instances, reference


class TestRegistry:
    def test_builtin_policy_lookup(self):
        assert isinstance(SCHEDULERS.make("inline_depth"), InlineDepthScheduler)
        assert isinstance(SCHEDULERS.make("dynamic_depth"), DynamicDepthScheduler)
        assert isinstance(SCHEDULERS.make("agenda"), AgendaScheduler)
        assert isinstance(SCHEDULERS.make("nobatch"), NoBatchScheduler)

    def test_builtins_are_listed(self):
        names = SCHEDULERS.available()
        for name in ALL_POLICIES + ("dynet",):
            assert name in names

    def test_unknown_name_error_lists_policies(self):
        with pytest.raises(ValueError, match="inline_depth"):
            SCHEDULERS.make("does_not_exist")

    def test_registration_and_unregistration(self):
        class CustomScheduler(InlineDepthScheduler):
            pass

        SCHEDULERS.register("custom_test_policy", lambda **_: CustomScheduler())
        try:
            assert "custom_test_policy" in SCHEDULERS.available()
            assert isinstance(SCHEDULERS.make("custom_test_policy"), CustomScheduler)
        finally:
            SCHEDULERS.unregister("custom_test_policy")
        assert "custom_test_policy" not in SCHEDULERS.available()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            SCHEDULERS.register("inline_depth", lambda **_: InlineDepthScheduler())

    def test_decorator_registration(self):
        @SCHEDULERS.register("custom_decorated_policy")
        def factory(**_):
            return NoBatchScheduler()

        try:
            assert isinstance(SCHEDULERS.make("custom_decorated_policy"), NoBatchScheduler)
        finally:
            SCHEDULERS.unregister("custom_decorated_policy")

    def test_dynet_policy_validates_kind(self):
        with pytest.raises(ValueError, match="agenda"):
            SCHEDULERS.make("dynet", kind="bogus")


class TestPolicyEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_policy_matches_reference(self, treelstm_setup, policy):
        """All registered policies produce the reference outputs: they differ
        only in how they group the same DFG into batches."""
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions(scheduler=policy))
        assert model.make_engine().policy == policy
        outs, stats = model.run(instances)
        assert all(values_allclose(r, o) for r, o in zip(reference, outs))
        assert stats.num_dfg_nodes > 0

    def test_custom_registered_policy_runs_through_engine(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        SCHEDULERS.register("custom_equiv_policy", lambda **_: DynamicDepthScheduler())
        try:
            model = compile_model(
                mod, params, CompilerOptions(scheduler="custom_equiv_policy")
            )
            outs, _ = model.run(instances)
            assert all(values_allclose(r, o) for r, o in zip(reference, outs))
        finally:
            SCHEDULERS.unregister("custom_equiv_policy")

    def test_nobatch_launches_one_batch_per_node(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions(scheduler="nobatch"))
        _, stats = model.run(instances)
        batched_model = compile_model(mod, params, CompilerOptions())
        _, batched_stats = batched_model.run(instances)
        assert stats.num_batches == stats.num_dfg_nodes
        assert batched_stats.num_batches < stats.num_batches

    def test_harness_selects_policy_by_name(self):
        from repro.experiments.harness import acrobat, measure_row

        (cell,) = measure_row("treelstm", "small", 2, [acrobat(CompilerOptions(scheduler="agenda"))])
        assert cell.stats.num_dfg_nodes > 0


class TestExecutionEngine:
    def test_run_collects_sync_rounds(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        _, stats = model.run(instances)
        # sync rounds are accounted inside AcrobatRuntime.trigger now
        assert stats.sync_rounds >= 1

    def test_engine_is_reusable_across_runs(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        engine = compile_model(mod, params, CompilerOptions()).make_engine()
        out1, stats1 = engine.run(instances)
        out2, stats2 = engine.run(instances)
        assert all(values_allclose(a, b) for a, b in zip(out1, out2))
        assert stats1.num_dfg_nodes == stats2.num_dfg_nodes

    def test_recursion_limit_never_lowered(self):
        import sys

        before = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(100000)
            assert ensure_recursion_limit() == 100000
            assert sys.getrecursionlimit() == 100000
        finally:
            sys.setrecursionlimit(before)


class TestInferenceSession:
    def test_session_matches_batch_run(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        batch_outs, _ = model.run(instances)

        session = model.serve("manual")
        handles = [session.submit(instance) for instance in instances]
        assert all(not h.done for h in handles)
        outs = session.flush()
        assert all(h.done for h in handles)
        assert all(values_allclose(a, b) for a, b in zip(batch_outs, outs))
        assert all(
            values_allclose(h.result(), o) for h, o in zip(handles, outs)
        )

    def test_session_batches_across_requests(self, treelstm_setup):
        """N submitted requests flush as one batched round with fewer kernel
        launches than N separate per-request runs."""
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())

        per_request_calls = 0
        for instance in instances:
            _, stats = model.run([instance])
            per_request_calls += stats.kernel_calls

        session = model.serve("manual")
        for instance in instances:
            session.submit(instance)
        session.flush()
        assert session.last_stats.kernel_calls < per_request_calls
        assert session.last_stats.batch_size == len(instances)

    def test_max_batch_autoflushes(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        session = model.serve("size", n=2)
        h1 = session.submit(instances[0])
        assert session.pending_requests == 1 and not h1.done
        h2 = session.submit(instances[1])
        # hitting max_batch flushed the round
        assert session.pending_requests == 0
        assert h1.done and h2.done
        assert session.num_flushes == 1

    def test_result_before_flush_raises(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        session = compile_model(mod, params, CompilerOptions()).serve("manual")
        handle = session.submit(instances[0])
        with pytest.raises(RuntimeError, match="flush"):
            handle.result()
        session.flush()

    def test_flush_empty_session_is_noop(self, treelstm_setup):
        """Flushing an empty session is a cheap no-op returning None (and
        does not count as a flush), so periodic policy-driven flushing is
        safe."""
        mod, params, _, _ = treelstm_setup
        session = compile_model(mod, params, CompilerOptions()).serve("manual")
        assert session.flush() is None
        assert session.num_flushes == 0
        assert session.poll() is None
        assert session.last_stats is None

    def test_multiple_rounds(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        session = compile_model(mod, params, CompilerOptions()).serve("manual")
        for round_instances in (instances[:2], instances[2:]):
            outs = [session.submit(i) for i in round_instances] and session.flush()
            assert len(outs) == len(round_instances)
        assert session.num_requests == len(instances)
        assert session.num_flushes == 2

    def test_serve_api(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        session = compile_model(mod, params).serve("size", n=len(instances))
        assert isinstance(session, InferenceSession)
        handles = [session.submit(i) for i in instances]
        # max_batch reached: auto-flushed
        assert all(h.done for h in handles)
        assert all(
            values_allclose(r, h.result()) for r, h in zip(reference, handles)
        )

    def test_context_manager_flushes(self, treelstm_setup):
        mod, params, instances, _ = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())
        with model.serve("manual") as session:
            handle = session.submit(instances[0])
        assert handle.done

    def test_deferred_session_for_tdc_model(self):
        """Programs with tensor-dependent control flow cannot build the DFG
        ahead of synchronization points, so the session defers them and still
        executes all requests as one fiber-interleaved batch."""
        module = MODEL_MODULES["drnn"]
        mod, params, size = module.build_for("test")
        instances = module.make_batch(mod, size, 2, seed=3)
        model = compile_model(mod, params, CompilerOptions())
        assert model.uses_tdc

        batch_outs, _ = model.run(instances)
        session = model.serve("manual")
        handles = [session.submit(i) for i in instances]
        outs = session.flush()
        assert all(h.done for h in handles)
        assert all(values_allclose(a, b) for a, b in zip(batch_outs, outs))

    def test_session_survives_interleaved_runs(self, treelstm_setup):
        """A persistent session stays correct when other engines of the same
        model execute between submits: every engine's runtime gets its own
        instance of the generated program, so interleaved model.run() calls
        (or a second session) cannot steal the session's DFG nodes."""
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions())

        session = model.serve("manual")
        h1 = session.submit(instances[0])
        model.run(instances)  # unrelated batch on the same model
        h2 = session.submit(instances[1])

        other = model.serve("manual")  # second concurrent session
        h3 = other.submit(instances[2])

        outs = session.flush()
        assert len(outs) == 2
        assert values_allclose(reference[0], h1.result())
        assert values_allclose(reference[1], h2.result())
        other.flush()
        assert values_allclose(reference[2], h3.result())

    def test_vm_model_session(self, treelstm_setup):
        mod, params, instances, reference = treelstm_setup
        vm = compile_model(mod, params, CompilerOptions(aot=False))
        session = vm.serve("manual")
        for instance in instances:
            session.submit(instance)
        outs = session.flush()
        assert all(values_allclose(r, o) for r, o in zip(reference, outs))
