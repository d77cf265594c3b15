"""Tests for the runtime: device simulator, schedulers, fibers, executor."""

import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.kernels import BlockKernel, LaunchRecord, single_op_block
from repro.runtime import (
    AcrobatRuntime,
    DeviceSimulator,
    DynamicDepthScheduler,
    ExecutionOptions,
    FiberScheduler,
    FiberYield,
    InlineDepthScheduler,
    LazyTensor,
    agenda_schedule,
    dynamic_depth_schedule,
    materialize_value,
)
from repro.runtime.scheduler import NoBatchScheduler, NumberedRows
from repro.runtime.trace import RoundTrace


def record(flops=1e5, bytes_read=1e4, bytes_written=1e4, name="k", scattered=0.0):
    return LaunchRecord(name, 4, flops, bytes_read, bytes_written, scattered)


class TestDeviceSimulator:
    def test_launch_charges_overhead_and_counts(self):
        dev = DeviceSimulator()
        t = dev.launch(record())
        assert t >= dev.spec.launch_overhead_us
        assert dev.counters.num_kernel_launches == 1
        assert dev.counters.api_time_us == dev.spec.api_overhead_us

    def test_bigger_kernels_take_longer(self):
        dev = DeviceSimulator()
        small = dev.kernel_time_us(record(flops=1e3, bytes_read=1e3, bytes_written=1e3), True)
        big = dev.kernel_time_us(record(flops=1e8, bytes_read=1e7, bytes_written=1e7), True)
        assert big > small

    def test_schedule_quality_scales_time(self):
        good = DeviceSimulator(schedule_quality=1.0)
        bad = DeviceSimulator(schedule_quality=0.5)
        r = record(flops=1e7, bytes_read=1e6, bytes_written=1e6)
        assert bad.kernel_time_us(r, True) > good.kernel_time_us(r, True)

    def test_scattered_penalty_only_when_gather_fused(self):
        dev = DeviceSimulator()
        # memory-bound kernel so the scattered-read penalty is visible
        r = record(flops=1e3, bytes_read=1e6, bytes_written=1e6, scattered=1e6)
        assert dev.kernel_time_us(r, gather_fused=True) > dev.kernel_time_us(r, gather_fused=False)

    def test_explicit_gather_is_its_own_launch(self):
        dev = DeviceSimulator()
        dev.gather(1e4)
        assert dev.counters.num_gather_launches == 1
        assert dev.counters.gather_time_us > 0

    def test_memcpy_and_residency(self):
        dev = DeviceSimulator()
        arr = np.zeros((64, 64), dtype=np.float32)
        t1 = dev.ensure_resident(arr)
        t2 = dev.ensure_resident(arr)
        assert t1 > 0 and t2 == 0.0
        assert dev.counters.num_memcpy == 1

    def test_reset_keeps_schedule_quality(self):
        dev = DeviceSimulator(schedule_quality=0.7)
        dev.launch(record())
        dev.reset()
        assert dev.counters.num_kernel_launches == 0
        assert dev.schedule_quality == 0.7

    def test_launch_counts_by_kernel(self):
        """The simulator counts every launch it charges, whatever the
        kernel."""
        dev = DeviceSimulator()
        for name in ("a", "a", "b"):
            dev.launch(record(name=name))
        assert dev.counters.num_kernel_launches == 3

    def test_gather_charges_api_and_bytes_per_call(self):
        dev = DeviceSimulator()
        dev.gather(1e4)
        dev.gather(2e4)
        assert dev.counters.num_gather_launches == 2
        assert dev.counters.bytes_gathered == pytest.approx(3e4)
        assert dev.counters.api_time_us == pytest.approx(2 * dev.spec.api_overhead_us)

    def test_ensure_resident_is_idempotent(self):
        dev = DeviceSimulator()
        arr = np.zeros((16, 16), dtype=np.float32)
        first = dev.ensure_resident(arr)
        assert first > 0.0
        for _ in range(5):
            assert dev.ensure_resident(arr) == 0.0
        assert dev.counters.num_memcpy == 1
        assert dev.counters.bytes_copied == pytest.approx(float(arr.nbytes))

    def test_reset_residency_forces_retransfer(self):
        dev = DeviceSimulator()
        arr = np.zeros((8, 8), dtype=np.float32)
        dev.ensure_resident(arr)
        dev.reset_residency()
        assert not dev.is_resident(arr)
        assert dev.ensure_resident(arr) > 0.0
        assert dev.counters.num_memcpy == 2

    def test_unbatched_memcpy_pays_per_call_overhead(self):
        batched = DeviceSimulator()
        unbatched = DeviceSimulator()
        arr = np.zeros((4, 4), dtype=np.float32)
        t_batched = batched.ensure_resident(arr, batch_transfers=True)
        t_unbatched = unbatched.ensure_resident(arr, batch_transfers=False)
        assert t_unbatched == pytest.approx(
            t_batched + unbatched.spec.memcpy_overhead_us
        )

    def test_device_reset_keeps_residency(self):
        dev = DeviceSimulator()
        arr = np.zeros((8, 8), dtype=np.float32)
        dev.ensure_resident(arr)
        dev.reset()  # clears counters only
        assert dev.is_resident(arr)
        assert dev.ensure_resident(arr) == 0.0

    def test_residency_not_fooled_by_recycled_ids(self):
        """The cache holds arrays weakly and verifies identity: a new array
        allocated at a freed array's address must still be charged."""
        dev = DeviceSimulator()
        arr = np.zeros((8, 8), dtype=np.float32)
        dev.ensure_resident(arr)
        del arr  # freed: CPython may hand its id() to the next allocation
        fresh = np.ones((8, 8), dtype=np.float32)
        assert dev.ensure_resident(fresh) > 0.0
        assert dev.counters.num_memcpy == 2

    def test_recycled_id_is_a_charged_miss(self):
        """Deterministic form of the above: find a fresh array that really
        did land on a freed one's ``id()`` and check it is charged — through
        ``ensure_resident`` and through ``ensure_resident_many``."""
        for many in (False, True):
            dev = DeviceSimulator()
            for _ in range(1000):
                arr = np.zeros(4, dtype=np.float32)
                dev.ensure_resident(arr)
                freed = id(arr)
                del arr
                fresh = np.ones(4, dtype=np.float32)
                if id(fresh) == freed:
                    break
            else:
                pytest.skip("the allocator never recycled an id")
            before = dev.counters.num_memcpy
            assert not dev.is_resident(fresh)
            if many:
                dev.ensure_resident_many([fresh])
            else:
                assert dev.ensure_resident(fresh) > 0.0
            assert dev.counters.num_memcpy == before + 1
            assert dev.is_resident(fresh)

    def test_ensure_resident_many_charges_like_per_array_calls(self):
        """One call per column: the same misses, charged the same terms in
        the same order — every counter bit-identical to per-array calls,
        with repeats and already-resident arrays inside the column."""
        rng = np.random.default_rng(0)
        arrays = [np.zeros(int(n), np.float32) for n in rng.integers(1, 4000, 300)]
        column = arrays + arrays[:50] + [arrays[7]] * 3
        for batch_transfers in (True, False):
            one, many = DeviceSimulator(), DeviceSimulator()
            for dev in (one, many):
                dev.launch(record())  # api_time_us starts from a non-zero float
                dev.ensure_resident(arrays[3], batch_transfers)
            for arr in column:
                one.ensure_resident(arr, batch_transfers)
            many.ensure_resident_many(column, batch_transfers)
            assert many.counters == one.counters  # dataclass ==: floats exact
            assert many.counters.num_memcpy == len(arrays)
            assert all(many.is_resident(arr) for arr in arrays)

    @pytest.mark.parametrize("many", [False, True])
    def test_host_table_stays_bounded_in_a_long_lived_session(self, many):
        """10^5 short-lived distinct host arrays with residency retained: the
        table holds them weakly and sweeps dead entries whenever it doubles,
        so it never outgrows a small multiple of the live working set."""
        dev = DeviceSimulator()
        pinned = [np.zeros(2, np.float32) for _ in range(10)]  # long-lived
        for arr in pinned:
            dev.ensure_resident(arr)
        largest = 0
        for _ in range(1000):
            column = [np.empty(1, np.float32) for _ in range(100)]  # short-lived
            if many:
                dev.ensure_resident_many(column)
            else:
                for arr in column:
                    dev.ensure_resident(arr)
            largest = max(largest, len(dev._host_resident))
        assert dev.counters.num_memcpy == len(pinned) + 100_000
        assert largest <= 2048 + 100
        assert all(dev.is_resident(arr) for arr in pinned)  # sweeps keep the living

    def test_note_resident_marks_without_charging(self):
        dev = DeviceSimulator()
        arr = np.zeros(8, np.float32)
        assert not dev.is_resident(arr)
        dev.note_resident(arr)
        assert dev.is_resident(arr)
        assert dev.ensure_resident(arr) == 0.0
        dev.ensure_resident_many([arr])
        assert dev.counters.num_memcpy == 0
        dev.reset_residency()
        assert not dev.is_resident(arr)
        dev.note_resident(arr)
        alive = weakref.ref(arr)
        del arr
        assert alive() is None  # the table holds its arrays weakly


def _recording_runtime(num_blocks=2):
    """A runtime over stand-in kernels: enough to record rows and cut the
    store into a round, nothing to execute."""
    kernels = {
        k: SimpleNamespace(block=SimpleNamespace(num_outputs=1)) for k in range(num_blocks)
    }
    return AcrobatRuntime(kernels, ExecutionOptions(scheduler="nobatch"))


def _record(kernel_ids, depths, phases=None):
    """The pending round of one invoke per entry, as scheduler spans."""
    rt = _recording_runtime(max(kernel_ids) + 1)
    for i, (k, d) in enumerate(zip(kernel_ids, depths)):
        rt.current_instance = i
        rt.invoke(k, d, phases[i] if phases else 0, ())
    return rt._spans()


class TestSchedulers:
    def test_inline_depth_groups_by_phase_depth_block(self):
        spans = _record([0, 0, 1, 0], [0, 0, 0, 1])
        batches = InlineDepthScheduler().schedule(spans)
        assert [(b.block_id, b.size) for b in batches] == [(0, 2), (1, 1), (0, 1)]

    def test_inline_depth_orders_phases_before_depths(self):
        spans = _record([0, 0], [5, 0], phases=[0, 1])
        batches = InlineDepthScheduler().schedule(spans)
        (col, _rows), = batches[0].segments
        assert col.depth == 5  # phase 0 first despite larger depth

    def test_inline_depth_orders_equal_depths_by_first_row(self):
        """Within a (phase, depth), columns run in the order their first
        pending rows were invoked."""
        spans = _record([1, 0, 1, 0], [0, 0, 0, 0])
        batches = InlineDepthScheduler().schedule(spans)
        assert [(b.block_id, b.seqs()) for b in batches] == [(1, [0, 2]), (0, [1, 3])]

    def test_dynamic_depth_scheduler_respects_dependencies(self):
        rt = _recording_runtime()
        produced = rt.invoke(0, 0, 0, ())
        rt.invoke(1, 0, 0, (produced,))  # same inline depth: only the edge orders them
        batches = DynamicDepthScheduler().schedule(rt._spans())
        order = [b.block_id for b in batches]
        assert order.index(0) < order.index(1)

    def test_no_batch_scheduler(self):
        spans = _record([0, 0, 0], [0, 0, 0])
        batches = NoBatchScheduler().schedule(spans)
        assert len(batches) == 3 and all(b.size == 1 for b in batches)
        assert [b.seqs() for b in batches] == [[0], [1], [2]]

    def test_numbered_rows_merge_columns_in_invoke_order(self):
        spans = _record([0, 1, 0, 1, 1], [0, 0, 1, 0, 1])
        rows = NumberedRows(spans)
        assert list(rows.numbers) == [0, 1, 2, 3, 4]
        assert [rows.cols[i].seqs[rows.rows[i]] for i in rows.numbers] == [0, 1, 2, 3, 4]
        assert [rows.cols[i].block_id for i in rows.numbers] == [0, 1, 0, 1, 1]

    def test_generic_depth_schedule(self):
        deps = {"b": ["a"], "c": ["a"], "d": ["b", "c"]}
        nodes = ["a", "b", "c", "d"]
        batches = dynamic_depth_schedule(nodes, lambda n: deps.get(n, []), lambda n: "sig")
        assert batches[0] == ["a"] and set(batches[1]) == {"b", "c"} and batches[2] == ["d"]

    def test_agenda_schedule_batches_same_signature(self):
        deps = {"b1": ["a1"], "b2": ["a2"]}
        sig = {"a1": "A", "a2": "A", "b1": "B", "b2": "B"}
        batches = agenda_schedule(["a1", "a2", "b1", "b2"], lambda n: deps.get(n, []), lambda n: sig[n])
        assert len(batches) == 2
        assert set(batches[0]) == {"a1", "a2"}

    def test_agenda_schedule_respects_order(self):
        deps = {"c": ["a", "b"]}
        sig = {"a": "X", "b": "Y", "c": "X"}
        batches = agenda_schedule(["a", "b", "c"], lambda n: deps.get(n, []), lambda n: sig[n])
        flat = [n for b in batches for n in b]
        assert flat.index("c") > flat.index("a") and flat.index("c") > flat.index("b")


class TestFibers:
    def test_fibers_interleave_at_sync_points(self):
        trace = []

        def trigger():
            trace.append("T")

        def fiber(name):
            trace.append(f"{name}1")
            yield FiberYield.SYNC
            trace.append(f"{name}2")
            return name

        sched = FiberScheduler(trigger)
        results = sched.run([fiber("a"), fiber("b")])
        assert results == ["a", "b"]
        # both fibers reach their sync point before the single trigger
        assert trace.index("T") > trace.index("a1") and trace.index("T") > trace.index("b1")
        assert trace.count("T") == 1
        assert sched.num_sync_rounds == 1

    def test_fork_join_returns_child_results(self):
        def child(x):
            if False:
                yield
            return x * 2

        def parent(sched):
            h1 = sched.spawn(child(1))
            h2 = sched.spawn(child(2))
            results = yield ("join", [h1, h2])
            return sum(results)

        sched = FiberScheduler(lambda: None)
        assert sched.run([parent(sched)]) == [6]

    def test_nested_fork_join_with_sync(self):
        triggers = []

        def leaf(x):
            yield FiberYield.SYNC
            return x

        def parent(sched):
            h1 = sched.spawn(leaf(1))
            h2 = sched.spawn(leaf(2))
            results = yield ("join", [h1, h2])
            return results

        sched = FiberScheduler(lambda: triggers.append(1))
        assert sched.run([parent(sched)]) == [[1, 2]]
        assert len(triggers) == 1

    def test_plain_return_fiber(self):
        def fib():
            if False:
                yield
            return 42

        assert FiberScheduler(lambda: None).run([fib()]) == [42]


class TestExecutor:
    def _runtime(self, **opts):
        kernel = BlockKernel(single_op_block(0, "relu", 1))
        dense = BlockKernel(single_op_block(1, "dense", 2, shared=[False, True]))
        return AcrobatRuntime({0: kernel, 1: dense}, ExecutionOptions(**opts))

    def test_invoke_returns_lazy_tensor_and_defers(self):
        rt = self._runtime()
        x = np.ones((1, 4), np.float32)
        out = rt.invoke(0, 0, 0, [x])
        assert isinstance(out, LazyTensor) and not out.is_materialized
        with pytest.raises(RuntimeError):
            _ = out.value
        rt.trigger()
        np.testing.assert_allclose(out.value, np.maximum(x, 0))

    def test_batching_groups_same_depth_nodes(self):
        rt = self._runtime()
        outs = [rt.invoke(0, 0, 0, [np.full((1, 2), i, np.float32)]) for i in range(5)]
        rt.trigger()
        assert rt.collect_stats(batch_size=5).num_batches == 1
        assert all(o.is_materialized for o in outs)

    def test_chained_dependencies_execute_in_order(self):
        rt = self._runtime()
        x = np.array([[-1.0, 2.0]], np.float32)
        a = rt.invoke(0, 0, 0, [x])
        b = rt.invoke(0, 1, 0, [a])
        rt.trigger()
        np.testing.assert_allclose(b.value, np.maximum(x, 0))

    def test_shared_argument_validation(self):
        rt = self._runtime(validate=True)
        w1 = np.ones((2, 2), np.float32)
        w2 = np.zeros((2, 2), np.float32)
        rt.invoke(1, 0, 0, [np.ones((1, 2), np.float32), w1])
        rt.invoke(1, 0, 0, [np.ones((1, 2), np.float32), w2])
        with pytest.raises(RuntimeError, match="shared"):
            rt.trigger()

    def test_explicit_gather_when_fusion_disabled(self):
        rt = self._runtime(gather_fusion=False)
        x = np.ones((1, 4), np.float32)
        # produce tensors from two different launches so they are scattered
        a = rt.invoke(0, 0, 0, [x])
        rt.trigger()
        b = rt.invoke(0, 0, 0, [x * 2])
        rt.trigger()
        rt.invoke(0, 1, 0, [a])
        rt.invoke(0, 1, 0, [b])
        rt.trigger()
        assert rt.device[0].counters.num_gather_launches >= 1

    def test_gather_fusion_avoids_gather_launches(self):
        rt = self._runtime(gather_fusion=True)
        x = np.ones((1, 4), np.float32)
        a = rt.invoke(0, 0, 0, [x])
        rt.trigger()
        b = rt.invoke(0, 0, 0, [x * 2])
        rt.trigger()
        rt.invoke(0, 1, 0, [a])
        rt.invoke(0, 1, 0, [b])
        rt.trigger()
        assert rt.device[0].counters.num_gather_launches == 0

    def test_stats_collection(self):
        rt = self._runtime()
        rt.invoke(0, 0, 0, [np.ones((1, 2), np.float32)])
        rt.trigger()
        stats = rt.collect_stats(batch_size=1)
        assert stats.kernel_calls >= 1
        assert stats.latency_ms > 0
        assert "kernel_time_us" in stats.device

    def test_reset_clears_state(self):
        rt = self._runtime()
        rt.invoke(0, 0, 0, [np.ones((1, 2), np.float32)])
        rt.trigger()
        rt.reset()
        assert rt.pending_count == 0 and rt.trace == RoundTrace()
        assert rt.device[0].counters.num_kernel_launches == 0

    def test_materialize_value_handles_nested_structures(self):
        rt = self._runtime()
        out = rt.invoke(0, 0, 0, [np.ones((1, 2), np.float32)])
        rt.trigger()
        nested = {"a"}  # set is returned untouched
        assert materialize_value([out, (out, None), nested])[0].shape == (1, 2)
