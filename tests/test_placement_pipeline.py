"""Tests for the depth-staged placements: the stage balancer, the pipeline
and tensor-parallel policies across models / device counts / scheduler
policies, per-lane timeline staging, and bitwise replay determinism."""

import pytest

from repro import CompilerOptions, compile_model, reference_run
from repro.devices import (
    DeviceGroup,
    PipelinePlacement,
    TensorParallelPlacement,
    make_placement,
    partition_stages,
)
from repro.models import MODEL_MODULES
from repro.serve.clock import SimulatedClock
from repro.serve.loop import DeviceTimeline
from repro.serve.traffic import bursty_arrivals, replay_continuous
from repro.utils import values_allclose

SCHEDULERS = ("inline_depth", "dynamic_depth", "agenda", "nobatch", "dynet")
STAGED_PLACEMENTS = ("pipeline", "tensor_parallel")


def build(model_name, batch=8, seed=11, scheduler=None):
    module = MODEL_MODULES[model_name]
    mod, params, size = module.build_for("test")
    instances = module.make_batch(mod, size, batch, seed=seed)
    reference = reference_run(mod, params, instances)
    compiled = compile_model(mod, params, CompilerOptions(scheduler=scheduler))
    return compiled, instances, reference


def _batch(block_id, size=4):
    """A scheduled batch of one synthetic column of ``size`` argument-less
    rows."""
    from repro.runtime.scheduler import ScheduledBatch
    from repro.runtime.tensor import Column

    col = Column(block_id, 0, 0, 1)
    for row in range(size):
        col.args.append(())
        col.instances.append(row)
        col.seqs.append(row)
    return ScheduledBatch(block_id, ((col, range(size)),))


def _assert_counters_sum(stats):
    assert stats.per_device
    total = sum(d["total_device_us"] for d in stats.per_device)
    assert total == pytest.approx(stats.device["total_device_us"])
    launches = sum(d["num_kernel_launches"] for d in stats.per_device)
    assert launches == stats.device["num_kernel_launches"]


# ---------------------------------------------------------------------------
# Stage balancer (the linear-partition DP)
# ---------------------------------------------------------------------------


class TestPartitionStages:
    def test_empty_and_single_stage(self):
        assert partition_stages([], 3) == []
        assert partition_stages([1.0, 2.0, 3.0], 1) == [(0, 3)]

    def test_balanced_split(self):
        assert partition_stages([1.0, 1.0, 1.0, 1.0], 2) == [(0, 2), (2, 4)]

    def test_heavy_head_isolated(self):
        # one dominant item gets its own stage regardless of position
        assert partition_stages([5.0, 1.0, 1.0, 1.0], 2) == [(0, 1), (1, 4)]

    def test_heavy_tail_isolated(self):
        assert partition_stages([1.0, 1.0, 1.0, 5.0], 2) == [(0, 3), (3, 4)]

    def test_fewer_items_than_stages(self):
        # each item its own stage; no empty stages emitted
        assert partition_stages([3.0, 1.0], 4) == [(0, 1), (1, 2)]

    def test_stages_cover_in_order(self):
        costs = [2.0, 4.0, 1.0, 3.0, 2.0, 5.0, 1.0]
        stages = partition_stages(costs, 3)
        assert stages[0][0] == 0 and stages[-1][1] == len(costs)
        for (_, e1), (s2, _) in zip(stages, stages[1:]):
            assert e1 == s2

    def test_deterministic(self):
        costs = [1.0, 2.0, 1.0, 2.0, 1.0]
        assert partition_stages(costs, 3) == partition_stages(costs, 3)


# ---------------------------------------------------------------------------
# PipelinePlacement: stage assignment and rebalancing
# ---------------------------------------------------------------------------


class TestPipelineStaging:
    def test_single_round_partition_follows_observed_cost(self):
        policy = PipelinePlacement()
        group = DeviceGroup(2)
        spec = group.spec
        heavy = 400.0 * 4 + spec.launch_overhead_us
        light = 10.0 * 4 + spec.launch_overhead_us
        for _ in range(3):
            policy.observe(0, 4, heavy, 1, spec)
            for b in (1, 2, 3):
                policy.observe(b, 4, light, 1, spec)
        batches = [_batch(b) for b in range(4)]
        policy.place_round(batches, group, {})
        # the heavy first block earns its own stage
        assert [b.device for b in batches] == [0, 1, 1, 1]

    def test_rebalances_when_observed_costs_shift(self):
        policy = PipelinePlacement()
        group = DeviceGroup(2)
        spec = group.spec
        heavy = 400.0 * 4 + spec.launch_overhead_us
        light = 10.0 * 4 + spec.launch_overhead_us
        for _ in range(3):
            policy.observe(0, 4, heavy, 1, spec)
            for b in (1, 2, 3):
                policy.observe(b, 4, light, 1, spec)
        batches = [_batch(b) for b in range(4)]
        policy.place_round(batches, group, {})
        assert [b.device for b in batches] == [0, 1, 1, 1]
        # the workload shifts: block 3 becomes the heavy one.  Enough fresh
        # observations move the EWMAs and the cut point follows.
        for _ in range(8):
            policy.observe(3, 4, heavy, 1, spec)
            for b in (0, 1, 2):
                policy.observe(b, 4, light, 1, spec)
        batches = [_batch(b) for b in range(4)]
        policy.place_round(batches, group, {})
        assert [b.device for b in batches] == [0, 0, 0, 1]

    def test_multi_round_runs_stage_across_rounds(self):
        # a fiber-shaped run: one single-batch round per depth step.  The
        # first run has no shape estimate and stays on stage 0 (ramp); the
        # second stages monotonically across the whole group.
        policy = PipelinePlacement()
        group = DeviceGroup(4)
        first_run = []
        for r in range(8):
            batches = [_batch(r)]
            policy.place_round(batches, group, {})
            first_run.append(batches[0].device)
        assert first_run == [0] * 8
        policy.note_reset()
        second_run = []
        for r in range(8):
            batches = [_batch(r)]
            policy.place_round(batches, group, {})
            second_run.append(batches[0].device)
        assert second_run == sorted(second_run)  # monotone depth staging
        assert second_run[0] == 0
        assert len(set(second_run)) == 4  # every member gets a stage
        policy.note_reset()

    def test_snapshot_restore_rolls_back_run_progress(self):
        policy = PipelinePlacement()
        group = DeviceGroup(2)
        policy.place_round([_batch(0)], group, {})
        state = policy.snapshot_state()
        policy.place_round([_batch(1)], group, {})
        policy.place_round([_batch(2)], group, {})
        policy.restore_state(state)
        assert policy.snapshot_state() == state

    def test_registry_construction(self):
        assert isinstance(make_placement("pipeline"), PipelinePlacement)
        assert isinstance(
            make_placement("tensor_parallel"), TensorParallelPlacement
        )


# ---------------------------------------------------------------------------
# Reference identity: staged placements x devices x scheduler policies
# ---------------------------------------------------------------------------


class TestStagedPlacementEquivalence:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("placement", STAGED_PLACEMENTS)
    @pytest.mark.parametrize("devices", [2, 4])
    def test_reference_identical(self, scheduler, placement, devices):
        compiled, instances, reference = build("treelstm", scheduler=scheduler)
        engine = compiled.make_engine(devices=devices, placement=placement)
        # two runs: the first seeds the cost observer, the second places
        # with learned costs (splits / staging engaged)
        for _ in range(2):
            outputs, stats = engine.run(instances)
            assert all(
                values_allclose(a, b) for a, b in zip(reference, outputs)
            )
            _assert_counters_sum(stats)

    @pytest.mark.parametrize("model_name", ["stackrnn", "nestedrnn"])
    def test_pipeline_stages_fiber_programs(self, model_name):
        # deep fiber models are the pipeline's home turf: the second run
        # (learned run shape) spreads depth across members, results and
        # accounting identical
        compiled, instances, reference = build(model_name, batch=4)
        engine = compiled.make_engine(devices=2, placement="pipeline")
        outputs, _ = engine.run(instances)
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))
        outputs, stats = engine.run(instances)
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))
        _assert_counters_sum(stats)
        busy = [d["total_device_us"] for d in stats.per_device]
        assert sum(1 for b in busy if b > 0) == 2

    def test_tensor_parallel_gather_accounting(self):
        from repro.runtime.device import GPUSpec

        # a compute-starved spec: per-block work dwarfs launch overhead and
        # the gather cost, so the splitter's cost model actually fires at
        # test sizes (on a datacenter spec nothing amortizes a split)
        slow = GPUSpec(
            name="slow-test",
            launch_overhead_us=5.0,
            api_overhead_us=4.0,
            mem_bandwidth_gbps=1.0,
            peak_gflops=0.5,
            pcie_bandwidth_gbps=4.0,
            memcpy_overhead_us=7.0,
            saturation_flops=5.0e4,
            min_utilization=0.05,
        )
        compiled, instances, reference = build("treelstm")
        engine = compiled.make_engine(
            devices=DeviceGroup(2, spec=slow, interconnect="nvlink"),
            placement="tensor_parallel",
        )
        _, first = engine.run(instances)
        # unobserved blocks never split: no gathers, no partial arenas
        assert first.device["num_peer_transfers"] == 0
        assert first.memory.get("partial_arenas", 0) == 0
        outputs, second = engine.run(instances)
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))
        _assert_counters_sum(second)
        # observed heavy blocks split: 1/k-cost shards on both members,
        # peer-priced gathers assembling partials on the home device, and
        # the planner counts the partial-output arenas
        assert second.device["num_peer_transfers"] > 0
        assert second.device["peer_time_us"] > 0
        assert second.memory.get("partial_arenas", 0) > 0
        busy = [d["total_device_us"] for d in second.per_device]
        assert all(b > 0 for b in busy)
        # splitting charges extra launches (one per extra member)
        assert (
            second.device["num_kernel_launches"]
            > first.device["num_kernel_launches"]
        )


# ---------------------------------------------------------------------------
# Per-lane timeline staging
# ---------------------------------------------------------------------------


class TestDeviceTimelineLanes:
    def test_staged_shares_chain_across_lanes(self):
        tl = DeviceTimeline(start=0.0, num_devices=2)
        done = tl.launch_round(0.0, [(0, 1.0), (1, 2.0)], staged=True)
        assert done == pytest.approx(3.0)
        # lane 0 freed after its stage; lane 1 holds the round's tail
        assert tl._lanes[0] == pytest.approx(1.0)
        assert tl._lanes[1] == pytest.approx(3.0)
        # the next round's stage 0 starts the moment lane 0 frees — while
        # round 1's stage 1 still runs downstream — and its stage 1 queues
        # behind lane 1: steady state is set by the busiest stage
        done = tl.launch_round(0.5, [(0, 1.0), (1, 2.0)], staged=True)
        assert done == pytest.approx(5.0)
        assert tl._lanes[0] == pytest.approx(2.0)

    def test_concurrent_shares_occupy_lanes_independently(self):
        tl = DeviceTimeline(start=0.0, num_devices=2)
        done = tl.launch_round(0.0, [(0, 1.0), (1, 2.0)], staged=False)
        assert done == pytest.approx(2.0)
        assert tl._lanes[0] == pytest.approx(1.0)
        assert tl._lanes[1] == pytest.approx(2.0)
        assert tl.busy_until == pytest.approx(2.0)

    def test_empty_shares_degenerate_to_aggregate_launch(self):
        tl = DeviceTimeline(start=0.0, num_devices=2)
        done = tl.launch_round(1.0, [], staged=True)
        assert done == pytest.approx(1.0)
        assert tl.rounds_launched == 1

    def test_aggregate_launch_occupies_every_lane(self):
        tl = DeviceTimeline(start=0.0, num_devices=3)
        tl.launch(0.0, 2.0)
        assert all(lane == pytest.approx(2.0) for lane in tl._lanes)


# ---------------------------------------------------------------------------
# Bitwise replay determinism (continuous batching, prepare on)
# ---------------------------------------------------------------------------


class TestReplayDeterminism:
    @pytest.mark.parametrize("placement", STAGED_PLACEMENTS)
    def test_bitwise_with_prepare(self, placement):
        # a non-fiber model: fiber sessions defer and never prepare, so
        # treelstm is what actually exercises speculative placement
        # (snapshot/restore) against the staged timeline
        from repro.experiments.continuous import _bitwise_equal

        compiled, instances, reference = build("treelstm")
        arrivals = bursty_arrivals(500.0, len(instances), burst=4, seed=7)

        def once():
            session = compiled.serve(
                "size",
                n=4,
                clock=SimulatedClock(),
                devices=DeviceGroup(2, interconnect="nvlink"),
                placement=placement,
            )
            return replay_continuous(
                session,
                instances,
                arrivals,
                deterministic=True,
                host_model=(0.5, 0.05),
                prepare=True,
            )

        first, second = once(), once()
        assert all(
            values_allclose(a, b) for a, b in zip(reference, first.outputs)
        )
        assert first.latencies_ms == second.latencies_ms
        assert _bitwise_equal(first.outputs, second.outputs)
