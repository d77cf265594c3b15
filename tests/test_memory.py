"""Tests for the memory layer: storage arenas, the ahead-of-execution memory
planner, and the arena-backed execution path (contiguity, gathers, residency,
and numerical equivalence across scheduler policies)."""

import numpy as np
import pytest

from repro import CompilerOptions, compile_model, reference_run
from repro.devices import DeviceGroup
from repro.kernels import BlockKernel, single_op_block
from repro.memory import MemoryPlanner, OperandKind, StorageArena
from repro.models import MODEL_MODULES
from repro.runtime import AcrobatRuntime, DeviceSimulator, ExecutionOptions
from repro.runtime.scheduler import ScheduledBatch
from repro.runtime.tensor import LazyTensor
from repro.utils import values_allclose

ALL_POLICIES = ("inline_depth", "dynamic_depth", "agenda", "nobatch")


def make_runtime(**opts):
    kernels = {
        0: BlockKernel(single_op_block(0, "relu", 1)),
        1: BlockKernel(single_op_block(1, "dense", 2, shared=[False, True])),
        2: BlockKernel(single_op_block(2, "add", 2)),
    }
    return AcrobatRuntime(kernels, ExecutionOptions(**opts))


def last_batch_forms(rt):
    """Input index -> operand form of the last batch ``rt`` executed, as
    its trace recorded them."""
    operands = [r for r in rt.trace.records if r[0] == "operand"]
    last = operands[-1][1]
    return {j: form for _, k, j, form, _segments in operands if k == last}


class TestStorageArena:
    def test_batched_views_are_zero_copy(self):
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        arena = StorageArena.from_batched(data)
        for b in range(3):
            view = arena.view(b)
            assert np.shares_memory(view, arena.data)
            np.testing.assert_array_equal(view, data[b])

    def test_slice_is_zero_copy_and_ordered(self):
        arena = StorageArena.from_batched(np.arange(20.0).reshape(5, 4))
        part = arena.slice(1, 3)
        assert np.shares_memory(part, arena.data)
        np.testing.assert_array_equal(part, arena.data[1:4])

    def test_broadcast_arena_replicates_one_array(self):
        shared = np.ones((2, 3), np.float32)
        arena = StorageArena.from_broadcast(shared, batch_size=4)
        assert arena.view(0) is shared and arena.view(3) is shared
        sl = arena.slice(0, 4)
        assert sl.shape == (4, 2, 3)
        assert np.shares_memory(sl, shared)  # broadcast view, no copy
        assert arena.nbytes == float(shared.nbytes)

    def test_instance_introspection(self):
        """What the planner reads off an arena instead of realizing a view:
        the per-instance shape and byte count, for both layouts."""
        batched = StorageArena.from_batched(np.zeros((2, 3), np.float32))
        assert batched.instance_shape == (3,) and batched.instance_nbytes == 12.0
        assert np.shares_memory(batched.view(1), batched.data)
        shared = StorageArena.from_broadcast(np.zeros((2, 3), np.float32), batch_size=4)
        assert shared.instance_shape == (2, 3) and shared.instance_nbytes == 24.0

    def test_arena_ids_are_unique(self):
        a = StorageArena.from_batched(np.zeros((1, 1)))
        b = StorageArena.from_batched(np.zeros((1, 1)))
        assert a.arena_id != b.arena_id


class TestLazyTensorViews:
    def test_outputs_are_views_into_one_arena(self):
        rt = make_runtime()
        outs = [rt.invoke(0, 0, 0, [np.full((1, 4), i, np.float32)]) for i in range(3)]
        rt.trigger()
        arenas = {o.arena.arena_id for o in outs}
        assert len(arenas) == 1  # one launch output arena for the whole batch
        for b, o in enumerate(outs):
            assert o.offset == b
            assert np.shares_memory(o.value, o.arena.data)


class TestMemoryPlanner:
    def test_contiguous_operands_zero_copies_zero_gathers(self):
        """Operands already contiguous in an arena dispatch with no gather
        launches, no gathered bytes, and a zero-copy arena view."""
        rt = make_runtime(gather_fusion=False)  # any scatter would gather
        xs = [np.full((1, 4), i, np.float32) for i in range(4)]
        producers = [rt.invoke(0, 0, 0, [x]) for x in xs]
        rt.trigger()  # host inputs are scattered: this round may gather
        gathers_before = rt.device[0].counters.num_gather_launches
        bytes_before = rt.device[0].counters.bytes_gathered

        consumers = [rt.invoke(0, 1, 0, [p]) for p in producers]
        rt.trigger()

        assert rt.device[0].counters.num_gather_launches == gathers_before
        assert rt.device[0].counters.bytes_gathered == bytes_before
        assert last_batch_forms(rt)[0] == OperandKind.CONTIGUOUS.value
        for c, x in zip(consumers, xs):
            np.testing.assert_allclose(c.value, np.maximum(x, 0))

    def test_resolve_contiguous_returns_arena_view(self):
        """The resolved batched operand is the producer arena's own buffer."""
        rt = make_runtime()
        producers = [rt.invoke(0, 0, 0, [np.full((1, 4), i, np.float32)]) for i in range(3)]
        rt.trigger()
        arena = producers[0].arena

        for p in producers:
            rt.invoke(0, 1, 0, [p])
        (col, stop), = rt._spans()
        batch = ScheduledBatch(0, ((col, range(stop)),))
        plans = rt.planner.plan_round([batch], rt.kernels)
        operands = rt.planner.resolve(
            plans[0], rt.kernels[0], DeviceGroup.coerce(DeviceSimulator()), rt.options
        )
        assert operands[0].array is not None and not operands[0].scattered
        assert np.shares_memory(operands[0].array, arena.data)

    def test_scattered_operand_plans_exactly_one_gather(self):
        """Tensors from two different launches are scattered: without gather
        fusion the plan calls for exactly one explicit gather launch."""
        rt = make_runtime(gather_fusion=False)
        x = np.ones((1, 4), np.float32)
        a = rt.invoke(0, 0, 0, [x])
        rt.trigger()
        b = rt.invoke(0, 0, 0, [x * 2])
        rt.trigger()
        rt.invoke(0, 1, 0, [a])
        rt.invoke(0, 1, 0, [b])
        rt.trigger()

        assert rt.device[0].counters.num_gather_launches == 1
        assert rt.device[0].counters.bytes_gathered == float(2 * x.nbytes)
        assert last_batch_forms(rt)[0] == OperandKind.GATHER.value

    def test_fused_gather_avoids_gather_launches(self):
        rt = make_runtime(gather_fusion=True)
        x = np.ones((1, 4), np.float32)
        a = rt.invoke(0, 0, 0, [x])
        rt.trigger()
        b = rt.invoke(0, 0, 0, [x * 2])
        rt.trigger()
        rt.invoke(0, 1, 0, [a])
        rt.invoke(0, 1, 0, [b])
        rt.trigger()

        assert rt.device[0].counters.num_gather_launches == 0
        assert last_batch_forms(rt)[0] == OperandKind.FUSED_GATHER.value

    def test_gather_charged_once_per_scattered_operand(self):
        """A batch with two scattered varying operands charges two explicit
        gather launches — one per operand, not per instance."""
        rt = make_runtime(gather_fusion=False)
        x = np.ones((1, 4), np.float32)
        a1 = rt.invoke(0, 0, 0, [x])
        rt.trigger()
        a2 = rt.invoke(0, 0, 0, [x * 2])
        rt.trigger()
        b1 = rt.invoke(0, 0, 0, [x * 3])
        rt.trigger()
        b2 = rt.invoke(0, 0, 0, [x * 4])
        rt.trigger()
        # both "add" operands are scattered (each mixes two arenas)
        rt.invoke(2, 1, 0, [a1, b1])
        rt.invoke(2, 1, 0, [a2, b2])
        rt.trigger()
        assert rt.device[0].counters.num_gather_launches == 2

    def test_batch_of_one_never_gathers(self):
        rt = make_runtime(gather_fusion=False)
        rt.invoke(0, 0, 0, [np.ones((1, 4), np.float32)])
        rt.trigger()
        assert rt.device[0].counters.num_gather_launches == 0
        assert last_batch_forms(rt) == {0: OperandKind.CONTIGUOUS.value}

    def test_shared_operand_classified_shared(self):
        rt = make_runtime()
        w = np.eye(4, dtype=np.float32)
        rt.invoke(1, 0, 0, [np.ones((1, 4), np.float32), w])
        rt.invoke(1, 0, 0, [np.zeros((1, 4), np.float32), w])
        rt.trigger()
        assert last_batch_forms(rt)[1] == OperandKind.SHARED.value

    def test_operand_counts_reported_in_stats(self):
        rt = make_runtime()
        for i in range(3):
            rt.invoke(0, 0, 0, [np.full((1, 2), i, np.float32)])
        rt.trigger()
        stats = rt.collect_stats(batch_size=3)
        assert sum(stats.memory.values()) > 0
        assert "memory_planning" in stats.host_ms and "materialize" in stats.host_ms

    def test_out_of_order_batches_rejected(self):
        """Consuming a tensor that is neither materialized nor planned earlier
        in the round is a dependency-order violation."""
        rt = make_runtime()
        pending = [rt.invoke(0, 0, 0, [np.ones((1, 2), np.float32)]) for _ in range(2)]
        for p in pending:
            rt.invoke(0, 1, 0, [p])
        (producers, _), (consumers, stop) = rt._spans()
        planner = MemoryPlanner()
        with pytest.raises(RuntimeError, match="dependency order"):
            planner.plan_round([ScheduledBatch(0, ((consumers, range(stop)),))], rt.kernels)


class TestGatherSegments:
    """``RunStats.memory["gather_segments"]``: source arenas summed over the
    gathered columns — what an index gather costs, and the baseline a
    gather-free layout (producers landing where consumers read) starts from."""

    @staticmethod
    def run_counting_sources(monkeypatch, name, gather_fusion=True, size="test"):
        """Run one fixed batch, counting — independently of the planner's own
        walk, from the DFG before each launch resolves — the distinct arenas
        behind every gathered column of arena tensors."""
        per_column = []
        real = MemoryPlanner.resolve

        def resolve(self, plan, kernel, device, options):
            for op in plan.operands:
                if op.kind in (OperandKind.GATHER, OperandKind.FUSED_GATHER):
                    column = [args[op.index] for args in plan.batch.args()]
                    sources = {id(a.arena) for a in column if isinstance(a, LazyTensor)}
                    if sources:
                        per_column.append(len(sources))
            return real(self, plan, kernel, device, options)

        monkeypatch.setattr(MemoryPlanner, "resolve", resolve)
        module = MODEL_MODULES[name]
        mod, params, size = module.build_for(size)
        model = compile_model(mod, params, CompilerOptions(gather_fusion=gather_fusion))
        _, stats = model.run(module.make_batch(mod, size, 16, seed=3))
        return per_column, stats

    @pytest.mark.parametrize("gather_fusion", [True, False])
    def test_treelstm_columns_span_several_arenas(self, monkeypatch, gather_fusion):
        per_column, stats = self.run_counting_sources(monkeypatch, "treelstm", gather_fusion)
        assert stats.memory["gather_segments"] == sum(per_column)
        # children of one launch were produced by launches at several depths
        assert max(per_column) > 1 and sum(per_column) > len(per_column)
        kind = "fused_gather" if gather_fusion else "gather"
        assert 0 < len(per_column) <= stats.memory[kind]

    def test_stackrnn_columns_have_one_source_each(self, monkeypatch):
        """At the benchmark's size every fiber advances in lockstep, so a
        round's operands all come from the previous round's one launch."""
        per_column, stats = self.run_counting_sources(monkeypatch, "stackrnn", size="small")
        assert per_column and set(per_column) == {1}
        assert stats.memory["gather_segments"] == len(per_column)


class TestArenaResidency:
    """Batched launches write their outputs on the device: a later batch
    that reads them is charged no host->device copy."""

    @staticmethod
    def copies(rt):
        counters = rt.device[0].counters
        return counters.num_memcpy, counters.bytes_copied

    def test_reading_an_earlier_batchs_output_charges_no_memcpy(self):
        rt = make_runtime()
        out = rt.invoke(0, 0, 0, [np.ones((1, 4), np.float32)])
        rt.trigger()
        charged = self.copies(rt)
        assert charged[0] > 0  # the host input was uploaded
        total = rt.invoke(2, 0, 0, [out, out])
        rt.trigger()
        assert self.copies(rt) == charged
        np.testing.assert_array_equal(total.value, np.full((1, 4), 2.0, np.float32))

    def test_a_batch_over_earlier_outputs_charges_no_memcpy(self):
        """Two rows reading one earlier batch's outputs in swapped order:
        the operands are gathered on the device, never copied from the
        host."""
        rt = make_runtime()
        a, b = (rt.invoke(0, 0, 0, [np.full((1, 4), v, np.float32)]) for v in (1, 2))
        rt.trigger()
        charged = self.copies(rt)
        sums = [rt.invoke(2, 0, 0, [b, a]), rt.invoke(2, 0, 0, [a, a])]
        rt.trigger()
        assert self.copies(rt) == charged
        assert [float(s.value[0, 0]) for s in sums] == [3.0, 2.0]

    def test_session_reuses_resident_parameters_across_rounds(self):
        """Round two of a persistent session does not re-upload parameters:
        the residency cache survives the between-round reset."""
        module = MODEL_MODULES["treelstm"]
        mod, params, size = module.build_for("test")
        instances = module.make_batch(mod, size, 4, seed=7)
        model = compile_model(mod, params, CompilerOptions())

        session = model.serve("manual")
        session.submit(instances[0])
        session.submit(instances[1])
        session.flush()
        first_memcpys = session.last_stats.device["num_memcpy"]

        session.submit(instances[2])
        session.submit(instances[3])
        session.flush()
        second_memcpys = session.last_stats.device["num_memcpy"]
        assert first_memcpys > 0
        assert second_memcpys < first_memcpys


class TestPolicyEquivalenceUnderArenas:
    @pytest.fixture(scope="class")
    def treelstm_setup(self):
        module = MODEL_MODULES["treelstm"]
        mod, params, size = module.build_for("test")
        instances = module.make_batch(mod, size, 4, seed=13)
        reference = reference_run(mod, params, instances)
        return mod, params, instances, reference

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_policy_matches_reference(self, treelstm_setup, policy):
        """Arena-backed storage is numerically invisible: every scheduler
        policy still reproduces the unbatched reference outputs."""
        mod, params, instances, reference = treelstm_setup
        model = compile_model(mod, params, CompilerOptions(scheduler=policy))
        outs, _ = model.run(instances)
        assert all(values_allclose(r, o) for r, o in zip(reference, outs))

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_policy_matches_reference_without_gather_fusion(self, treelstm_setup, policy):
        mod, params, instances, reference = treelstm_setup
        model = compile_model(
            mod, params, CompilerOptions(scheduler=policy, gather_fusion=False)
        )
        outs, _ = model.run(instances)
        assert all(values_allclose(r, o) for r, o in zip(reference, outs))


class TestSchedulerArgsOption:
    def test_runtime_fallback_forwards_scheduler_args(self):
        """Parameterized policies work without an engine: ExecutionOptions
        carries the policy arguments to SCHEDULERS.make."""
        kernels = {0: BlockKernel(single_op_block(0, "relu", 1))}
        rt = AcrobatRuntime(
            kernels,
            ExecutionOptions(scheduler="dynet", scheduler_args={"kind": "depth"}),
        )
        assert rt._scheduler.kind == "depth"

    def test_bad_scheduler_args_surface(self):
        kernels = {0: BlockKernel(single_op_block(0, "relu", 1))}
        with pytest.raises(ValueError, match="agenda"):
            AcrobatRuntime(
                kernels,
                ExecutionOptions(scheduler="dynet", scheduler_args={"kind": "bogus"}),
            )

