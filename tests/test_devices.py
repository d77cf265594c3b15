"""Tests for the multi-device subsystem: GPU presets, interconnects, device
groups, placement policies, cross-device transfer pricing, and
reference-identity of every placement across models, scheduler policies and
device counts."""

import numpy as np
import pytest

from repro import CompilerOptions, compile_model, reference_run
from repro.compiler.driver import CompiledProgramBinding
from repro.devices import (
    DataParallelPlacement,
    DeviceGroup,
    Interconnect,
    PlacementPolicy,
    RoundRobinPlacement,
    SinglePlacement,
    available_placements,
    make_placement,
    register_placement,
    unregister_placement,
)
from repro.kernels.batched import LaunchRecord
from repro.models import MODEL_MODULES
from repro.runtime.device import DeviceCounters, DeviceSimulator, GPUSpec
from repro.runtime.executor import AcrobatRuntime
from repro.runtime.scheduler import ScheduledBatch
from repro.serve import Server, SimulatedClock
from repro.utils import values_allclose
from tests.conftest import assert_members_match_trace

BATCH = 8

ALL_PLACEMENTS = ("single", "round_robin", "data_parallel")

#: the placements that actually spread a round over the group
SHARDING_PLACEMENTS = ("round_robin", "data_parallel")

SCHEDULERS = ("inline_depth", "dynamic_depth", "agenda", "nobatch", "dynet")


def build(model_name, batch=BATCH, seed=11, scheduler=None):
    module = MODEL_MODULES[model_name]
    mod, params, size = module.build_for("test")
    instances = module.make_batch(mod, size, batch, seed=seed)
    reference = reference_run(mod, params, instances)
    compiled = compile_model(mod, params, CompilerOptions(scheduler=scheduler))
    return compiled, instances, reference


def _assert_counters_sum(engine, stats):
    """Per-device counters are what the trace placed on each member."""
    assert stats.per_device
    assert_members_match_trace(engine.runtime.trace, stats)


@pytest.fixture(scope="module")
def treelstm():
    return build("treelstm")


@pytest.fixture(scope="module")
def birnn():
    return build("birnn")


# ---------------------------------------------------------------------------
# GPUSpec presets and validation
# ---------------------------------------------------------------------------


class TestGPUSpecPresets:
    def test_named_presets_exist(self):
        for name in ("rtx3070", "a100", "laptop"):
            spec = GPUSpec.preset(name)
            assert isinstance(spec, GPUSpec)
            assert name in GPUSpec.available_presets()

    def test_preset_returns_a_copy(self):
        a = GPUSpec.preset("laptop")
        a.mem_bandwidth_gbps = 1.0
        assert GPUSpec.preset("laptop").mem_bandwidth_gbps != 1.0

    def test_preset_overrides(self):
        spec = GPUSpec.preset("a100", launch_overhead_us=9.0)
        assert spec.launch_overhead_us == 9.0
        assert spec.name == "simulated-a100"

    def test_unknown_preset_lists_available(self):
        with pytest.raises(ValueError, match="rtx3070"):
            GPUSpec.preset("tpu9000")

    def test_default_spec_matches_rtx3070(self):
        assert GPUSpec.preset("rtx3070").mem_bandwidth_gbps == GPUSpec().mem_bandwidth_gbps

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mem_bandwidth_gbps": 0.0},
            {"peak_gflops": -1.0},
            {"launch_overhead_us": 0.0},
            {"min_utilization": 0.0},
            {"min_utilization": 1.5},
            {"scattered_read_penalty": 0.5},
            {"memcpy_overhead_us": -1.0},
        ],
    )
    def test_field_validation(self, kwargs):
        with pytest.raises(ValueError):
            GPUSpec(**kwargs)

    def test_simulator_accepts_preset_name(self):
        sim = DeviceSimulator(spec="laptop")
        assert sim.spec.name == "simulated-laptop"


# ---------------------------------------------------------------------------
# Interconnect
# ---------------------------------------------------------------------------


class TestInterconnect:
    def test_presets(self):
        pcie = Interconnect.preset("pcie")
        nvlink = Interconnect.preset("nvlink")
        assert nvlink.bandwidth_gbps > pcie.bandwidth_gbps
        assert set(Interconnect.available_presets()) >= {"pcie", "nvlink"}

    def test_transfer_time(self):
        link = Interconnect(name="x", bandwidth_gbps=1.0, latency_us=3.0)
        # 1 GB/s == 1e3 bytes/us: 2000 bytes -> 2 us + 3 us latency
        assert link.transfer_time_us(2000.0) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Interconnect(bandwidth_gbps=0.0)
        with pytest.raises(ValueError):
            Interconnect(latency_us=-1.0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="nvlink"):
            Interconnect.preset("carrier_pigeon")


# ---------------------------------------------------------------------------
# DeviceGroup
# ---------------------------------------------------------------------------


class TestDeviceGroup:
    def test_basic_construction(self):
        group = DeviceGroup(3, spec="laptop")
        assert len(group) == 3
        assert group.num_devices == 3
        # members are addressed by position
        assert [group.device_for(i) for i in range(3)] == list(group)
        assert group.device_for(2) is group[2]
        assert group.spec.name == "simulated-laptop"

    def test_heterogeneous_specs(self):
        group = DeviceGroup(["a100", GPUSpec.preset("laptop")])
        assert group[0].spec.name == "simulated-a100"
        assert group[1].spec.name == "simulated-laptop"
        assert "heterogeneous" in repr(group)

    def test_spec_list_with_count(self):
        group = DeviceGroup(2, spec=["a100", "laptop"])
        assert group[1].spec.name == "simulated-laptop"
        with pytest.raises(ValueError, match="one spec per device"):
            DeviceGroup(3, spec=["a100", "laptop"])

    def test_adopts_existing_simulators_without_mutating(self):
        sims = [DeviceSimulator(), DeviceSimulator()]
        before = [dict(vars(sim)) for sim in sims]
        group = DeviceGroup(sims)
        assert group[0] is sims[0]
        # adoption must not touch the simulators: their owner still reads
        # their own counters and may adopt them elsewhere
        for sim, attrs in zip(sims, before):
            assert vars(sim).keys() == attrs.keys()
            assert all(vars(sim)[k] is v for k, v in attrs.items())
        # the group addresses members by position
        assert list(group) == sims

    def test_mixed_simulators_and_specs_rejected(self):
        with pytest.raises(TypeError, match="not a mixture"):
            DeviceGroup([DeviceSimulator(), "a100"])

    def test_needs_at_least_one_device(self):
        with pytest.raises(ValueError):
            DeviceGroup(0)
        with pytest.raises(ValueError):
            DeviceGroup([])

    def test_device_for_out_of_range(self):
        with pytest.raises(IndexError, match="2 devices"):
            DeviceGroup(2).device_for(5)

    def test_peer_transfer_charges_destination(self):
        group = DeviceGroup(2, interconnect=Interconnect("x", 1.0, 3.0))
        t = group.peer_transfer(0, 1, 2000.0)
        assert t == pytest.approx(5.0)
        assert group[1].counters.peer_time_us == pytest.approx(5.0)
        assert group[1].counters.num_peer_transfers == 1
        assert group[1].counters.bytes_peer == 2000.0
        assert group[1].counters.api_time_us == group[1].spec.api_overhead_us
        assert group[0].counters.peer_time_us == 0.0
        # peer time is device time: it delays the consuming launch
        assert group[1].counters.total_device_us == pytest.approx(5.0)

    def test_same_device_transfer_is_free(self):
        group = DeviceGroup(2)
        assert group.peer_transfer(1, 1, 1e9) == 0.0
        assert all(d.counters.num_peer_transfers == 0 for d in group)

    def test_single_simulator_rejects_peers(self):
        """A bare simulator is the one-member group: it owns device 0 only,
        so it has no peer to transfer from or to."""
        sim = DeviceSimulator()
        group = DeviceGroup.coerce(sim)
        assert group.devices == [sim]
        assert group.peer_transfer(0, 0, 100.0) == 0.0
        with pytest.raises(IndexError, match="owns 1 devices"):
            group.device_for(1)
        for src, dst in ((0, 1), (1, 0)):
            with pytest.raises(IndexError, match="owns 1 devices"):
                group.peer_transfer(src, dst, 100.0)
        assert sim.counters.num_peer_transfers == 0

    def test_counters_aggregate_and_elapsed(self):
        group = DeviceGroup(2)
        record = LaunchRecord(
            kernel_name="k", batch_size=4, flops=1e6, bytes_read=1e6, bytes_written=1e6
        )
        group[0].launch(record)
        group[0].launch(record)
        group[1].launch(record)
        stats = AcrobatRuntime({}, device=group).collect_stats(batch_size=0)
        assert stats.device["num_kernel_launches"] == 3
        assert stats.device["total_device_us"] == pytest.approx(
            group[0].counters.total_device_us + group[1].counters.total_device_us
        )
        assert stats.device["elapsed_device_us"] == group[0].counters.total_device_us
        per = stats.per_device
        assert [p["device"] for p in per] == [0.0, 1.0]
        assert sum(p["num_kernel_launches"] for p in per) == 3

    def test_device_summary_balance(self):
        group = DeviceGroup(2)
        record = LaunchRecord(
            kernel_name="k", batch_size=4, flops=1e6, bytes_read=1e6, bytes_written=1e6
        )
        group[0].launch(record)
        summary = group.device_summary()
        assert summary["count"] == 2
        # balance is over *participating* members: one busy device is
        # perfectly balanced with itself, the idle member shows up in
        # active_devices instead
        assert summary["active_devices"] == 1
        assert summary["balance"] == pytest.approx(1.0)
        group[1].launch(record)
        summary = group.device_summary()
        assert summary["active_devices"] == 2
        assert summary["balance"] == pytest.approx(1.0)

    def test_reset_and_schedule_quality_fan_out(self):
        group = DeviceGroup(2)
        group.set_schedule_quality("k", 0.5)
        assert group[1].schedule_table["k"] == 0.5
        record = LaunchRecord(
            kernel_name="k", batch_size=1, flops=1.0, bytes_read=1.0, bytes_written=1.0
        )
        group[1].launch(record)
        group.reset()
        assert all(d.counters.num_kernel_launches == 0 for d in group)

    def test_per_device_residency(self):
        group = DeviceGroup(2)
        host = np.zeros(1024, np.float32)
        assert group[0].ensure_resident(host) > 0.0
        assert group[0].ensure_resident(host) == 0.0  # cached on device 0
        assert group[1].ensure_resident(host) > 0.0  # but not on device 1
        # a whole column at once lands on the member it is asked of, too
        other = np.zeros(16, np.float32)
        group[1].ensure_resident_many([host, other])
        assert group[1].counters.num_memcpy == 2  # host was resident there
        assert group[1].is_resident(other) and not group[0].is_resident(other)
        group.reset_residency()
        assert not group[0].is_resident(host) and not group[1].is_resident(host)


# ---------------------------------------------------------------------------
# Placement registry and policies
# ---------------------------------------------------------------------------


def _column(instance_ids, block_id=0, args=lambda row: ()):
    """A synthetic pending column, one row per instance id (no runtime
    needed for placement decisions); ``args(row)`` is the row's arguments."""
    from repro.runtime.tensor import Column, LazyTensor

    col = Column(block_id, 0, 0, 1)
    for row, i in enumerate(instance_ids):
        col.args.append(args(row))
        col.instances.append(i)
        col.seqs.append(row)
        col.outs.append(LazyTensor(col, row, 0))
    return col


def _batch(instance_ids, block_id=0, args=lambda row: (), device=0):
    """A scheduled batch of one whole synthetic column."""
    col = _column(instance_ids, block_id, args)
    return ScheduledBatch(block_id, ((col, range(len(col.seqs))),), device=device)


class TestPlacementRegistry:
    def test_builtins_listed(self):
        names = available_placements()
        for name in ALL_PLACEMENTS:
            assert name in names

    def test_make_placement(self):
        assert isinstance(make_placement("single"), SinglePlacement)
        assert isinstance(make_placement("round_robin"), RoundRobinPlacement)
        policy = make_placement("data_parallel", min_shard=4)
        assert isinstance(policy, DataParallelPlacement)
        assert policy.min_shard == 4

    def test_unknown_placement_lists_available(self):
        with pytest.raises(ValueError, match="round_robin"):
            make_placement("astrology")

    def test_register_and_unregister(self):
        class Custom(PlacementPolicy):
            name = "custom_test_placement"

        register_placement("custom_test_placement", lambda **_: Custom())
        try:
            assert "custom_test_placement" in available_placements()
            assert isinstance(make_placement("custom_test_placement"), Custom)
            with pytest.raises(ValueError, match="already registered"):
                register_placement("custom_test_placement", lambda **_: Custom())
        finally:
            unregister_placement("custom_test_placement")
        assert "custom_test_placement" not in available_placements()

    @pytest.mark.parametrize("name", ["single", "round_robin"])
    def test_stateless_policies_ignore_history(self, name):
        # placement is a pure function of the round: earlier rounds and run
        # boundaries change nothing
        group = DeviceGroup(2)

        def place():
            batches = [_batch([0, 1, 2, 3]), _batch([1, 3], block_id=1)]
            return [
                (b.block_id, b.device, b.instances())
                for b in policy.place_round(batches, group, {})
            ]

        policy = make_placement(name)
        fresh = place()
        for _ in range(3):
            policy.place_round([_batch([2, 3, 4])], group, {})
            policy.note_reset()
        assert place() == fresh


class TestRoundRobinPlacement:
    def test_splits_by_instance(self):
        group = DeviceGroup(2)
        batches = [_batch([0, 1, 2, 3])]
        placed = RoundRobinPlacement().place_round(batches, group, {})
        assert len(placed) == 2
        assert [b.device for b in placed] == [0, 1]
        assert placed[0].instances() == [0, 2]
        assert placed[1].instances() == [1, 3]

    def test_single_device_passthrough(self):
        group = DeviceGroup(1)
        batches = [_batch([0, 1])]
        assert RoundRobinPlacement().place_round(batches, group, {}) is batches

    def test_same_instance_stays_on_one_device(self):
        group = DeviceGroup(4)
        placed = RoundRobinPlacement().place_round([_batch([5, 5, 5])], group, {})
        assert len(placed) == 1
        assert placed[0].device == 5 % 4


class TestDataParallelPlacement:
    def test_small_batches_stay_whole(self):
        group = DeviceGroup(4)
        policy = DataParallelPlacement(min_shard=2)
        batches = [_batch([0, 1, 2])]
        placed = policy.place_round(batches, group, {})
        assert len(placed) == 1 and placed[0].device == 0

    def test_unsplit_batches_route_round_robin(self):
        """Unsplit batches must not pile onto device 0: each one takes the
        next device in rotation (the ROADMAP balance angle)."""
        group = DeviceGroup(4)
        policy = DataParallelPlacement(min_shard=2)
        homes = []
        for _ in range(6):
            batches = [_batch([0, 1, 2])]
            placed = policy.place_round(batches, group, {})
            assert len(placed) == 1  # still whole
            homes.append(placed[0].device)
        assert homes == [0, 1, 2, 3, 0, 1]

    def test_partial_splits_rotate_with_the_base_per_run(self):
        """A k-way split occupies devices base..base+k-1 (mod N), and the
        base rotates at run boundaries (note_reset), so k<N splits stop
        favouring the low device indices."""
        group = DeviceGroup(4)
        policy = DataParallelPlacement(min_shard=2)
        spec = group.spec
        # per-instance work where a 2-way split pays but 4-way does not
        # (see test_intermediate_shard_count_chosen_when_max_does_not_pay)
        policy.observe(0, 8, 8 * 1.6 + spec.launch_overhead_us, 1, spec)
        seen = []
        for _ in range(4):
            batches = [_batch(range(8))]
            placed = policy.place_round(batches, group, {})
            seen.append([b.device for b in placed])
            policy.note_reset()  # the runtime calls this between runs
        assert seen == [[0, 1], [1, 2], [2, 3], [3, 0]]

    def test_sync_rounds_within_a_run_share_the_base(self):
        """No rotation between a run's sync rounds: fiber chains spanning
        rounds keep producer/consumer shards device-aligned."""
        group = DeviceGroup(4)
        policy = DataParallelPlacement(min_shard=2)
        spec = group.spec
        policy.observe(0, 8, 8 * 1.6 + spec.launch_overhead_us, 1, spec)
        policy.note_reset()  # an empty reset must not rotate either
        seen = []
        for _ in range(3):  # three sync rounds of one run
            batches = [_batch(range(8))]
            placed = policy.place_round(batches, group, {})
            seen.append([b.device for b in placed])
        assert seen == [[0, 1], [0, 1], [0, 1]]

    def test_unsplit_rotation_spans_batches_and_rounds(self):
        """The unsplit round-robin is per batch and persists across rounds,
        so unsplittable work spreads over the whole group even when every
        round carries several unsplit batches."""
        group = DeviceGroup(4)
        policy = DataParallelPlacement(min_shard=2)
        batches = [
            _batch([0, 1, 2]),
            _batch([0, 1, 2], block_id=1),
        ]
        placed = policy.place_round(batches, group, {})
        assert [b.device for b in placed] == [0, 1]
        placed = policy.place_round(
            [_batch([0, 1, 2])],
            group,
            {},
        )
        assert [b.device for b in placed] == [2]

    def test_learned_work_drives_split(self):
        group = DeviceGroup(4)
        policy = DataParallelPlacement(min_shard=2)
        spec = group.spec
        # expensive per-instance work: splitting a batch of 8 clearly pays
        policy.observe(0, 8, 8 * 1000.0 + spec.launch_overhead_us, 1, spec)
        batches = [_batch(range(8))]
        placed = policy.place_round(batches, group, {})
        assert len(placed) == 4
        assert [b.device for b in placed] == [0, 1, 2, 3]
        assert [b.size for b in placed] == [2, 2, 2, 2]
        # contiguous runs: order preserved
        assert [i for b in placed for i in b.instances()] == list(range(8))

    def test_intermediate_shard_count_chosen_when_max_does_not_pay(self):
        group = DeviceGroup(4)
        policy = DataParallelPlacement(min_shard=2)
        spec = group.spec  # api_overhead_us = 4.0
        # per-instance work 1.6us on a batch of 8: a 4-way split saves
        # 1.6*(8-2)=9.6us < 12us serial cost, but a 2-way split saves
        # 1.6*(8-4)=6.4us > 4us — the intermediate split must win
        policy.observe(0, 8, 8 * 1.6 + spec.launch_overhead_us, 1, spec)
        batches = [_batch(range(8))]
        placed = policy.place_round(batches, group, {})
        assert [b.device for b in placed] == [0, 1]
        assert [b.size for b in placed] == [4, 4]

    def test_cheap_work_refuses_split(self):
        group = DeviceGroup(4)
        policy = DataParallelPlacement(min_shard=2)
        spec = group.spec
        # work so cheap the serial API overhead of extra launches dominates
        policy.observe(0, 8, spec.launch_overhead_us + 0.001, 1, spec)
        batches = [_batch(range(8))]
        assert len(policy.place_round(batches, group, {})) == 1

    def test_later_observations_retune_the_split(self):
        """The per-block work estimate is an EWMA: costly launches observed
        after a cheap one turn a refused split into a split."""
        group = DeviceGroup(4)
        policy = DataParallelPlacement(min_shard=2)
        spec = group.spec
        policy.observe(0, 8, spec.launch_overhead_us + 0.001, 1, spec)
        assert len(policy.place_round([_batch(range(8))], group, {})) == 1
        policy.observe(0, 8, 8 * 1000.0 + spec.launch_overhead_us, 1, spec)
        placed = policy.place_round([_batch(range(8))], group, {})
        assert len(placed) > 1
        assert [i for b in placed for i in b.instances()] == list(range(8))

    def test_min_shard_validation(self):
        with pytest.raises(ValueError):
            DataParallelPlacement(min_shard=0)


# ---------------------------------------------------------------------------
# End-to-end equivalence: placement x model x device count
# ---------------------------------------------------------------------------


class TestMultiDeviceEquivalence:
    @pytest.mark.parametrize("model_name", ["treelstm", "birnn"])
    @pytest.mark.parametrize("placement", ALL_PLACEMENTS)
    @pytest.mark.parametrize("devices", [2, 4])
    def test_reference_identical(self, model_name, placement, devices, request):
        compiled, instances, reference = request.getfixturevalue(model_name)
        engine = compiled.make_engine(device=devices, placement=placement)
        outputs, stats = engine.run(instances)
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))
        _assert_counters_sum(engine, stats)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("placement", SHARDING_PLACEMENTS)
    @pytest.mark.parametrize("devices", [2, 4])
    def test_scheduler_matrix(self, scheduler, placement, devices):
        """Every scheduler policy's batches shard over the whole group with
        reference-identical results."""
        compiled, instances, reference = build("treelstm", scheduler=scheduler)
        engine = compiled.make_engine(device=devices, placement=placement)
        # two runs: the first seeds data_parallel's cost observer, the
        # second splits on learned per-block costs
        for _ in range(2):
            outputs, stats = engine.run(instances)
            assert all(values_allclose(a, b) for a, b in zip(reference, outputs))
            _assert_counters_sum(engine, stats)
            assert all(d["total_device_us"] > 0 for d in stats.per_device)
            if placement == "round_robin":
                assert stats.device["num_peer_transfers"] == 0

    @pytest.mark.parametrize(
        "model_name",
        [m for m in MODEL_MODULES if m not in ("treelstm", "birnn")],
    )
    @pytest.mark.parametrize("placement", SHARDING_PLACEMENTS)
    def test_model_zoo(self, model_name, placement):
        """The rest of the zoo (fiber programs and generative decoders
        included) runs reference-identical on a sharded group, twice."""
        compiled, instances, reference = build(model_name, batch=4)
        engine = compiled.make_engine(device=2, placement=placement)
        for _ in range(2):
            outputs, stats = engine.run(instances)
            assert all(values_allclose(a, b) for a, b in zip(reference, outputs))
            _assert_counters_sum(engine, stats)

    def test_observed_costs_split_on_compute_starved_spec(self):
        """On a spec whose per-block work dwarfs the API overhead, the
        second run splits blocks the first run's byte estimate kept whole:
        more launches, every member busy, identical results."""
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
            device=DeviceGroup(2, spec=slow, interconnect="nvlink"),
            placement="data_parallel",
        )
        _, first = engine.run(instances)
        outputs, second = engine.run(instances)
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))
        _assert_counters_sum(engine, second)
        assert all(d["total_device_us"] > 0 for d in second.per_device)
        assert (
            second.device["num_kernel_launches"]
            > first.device["num_kernel_launches"]
        )

    def test_single_placement_matches_single_device_totals(self, treelstm):
        compiled, instances, reference = treelstm
        solo_outputs, solo_stats = compiled.make_engine().run(instances)
        engine = compiled.make_engine(device=4, placement="single")
        outputs, stats = engine.run(instances)
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))
        # all work on device 0; other members idle
        assert stats.per_device[0]["total_device_us"] == pytest.approx(
            solo_stats.device["total_device_us"]
        )
        assert stats.per_device[0]["num_kernel_launches"] == (
            solo_stats.device["num_kernel_launches"]
        )
        for idle in stats.per_device[1:]:
            assert idle["total_device_us"] == 0.0
        # and the group aggregate equals the single-device run
        assert stats.device["total_device_us"] == pytest.approx(
            solo_stats.device["total_device_us"]
        )

    def test_elapsed_is_busiest_member(self, treelstm):
        compiled, instances, _ = treelstm
        _, stats = compiled.make_engine(device=2, placement="round_robin").run(
            instances
        )
        busiest = max(d["total_device_us"] for d in stats.per_device)
        assert stats.device["elapsed_device_us"] == pytest.approx(busiest)
        assert stats.device_total_ms == pytest.approx(busiest / 1e3)
        assert stats.device_work_ms == pytest.approx(
            stats.device["total_device_us"] / 1e3
        )

    def test_round_robin_keeps_chains_device_local(self, treelstm):
        compiled, instances, _ = treelstm
        engine = compiled.make_engine(device=2, placement="round_robin")
        _, stats = engine.run(instances)
        # independent requests shard along instance boundaries: no
        # cross-device operand traffic
        assert stats.device["num_peer_transfers"] == 0
        assert stats.memory.get("peer", 0) == 0

    def test_cross_device_operands_are_priced(self, treelstm):
        """A placement that alternates whole batches across devices forces
        consumer batches to read producer arenas from the other device —
        classified as peer traffic and priced, with identical results."""
        compiled, instances, reference = treelstm

        class Alternate(PlacementPolicy):
            name = "alternate_test"

            def place_round(self, batches, group, kernels):
                for i, batch in enumerate(batches):
                    batch.device = i % group.num_devices
                return batches

        engine = compiled.make_engine(device=2, placement=Alternate())
        outputs, stats = engine.run(instances)
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))
        assert stats.device["num_peer_transfers"] > 0
        assert stats.device["peer_time_us"] > 0.0
        peer_ops = stats.memory.get("peer", 0)
        assert peer_ops > 0

        # singleton batches (nobatch scheduler) classify on the planning
        # fast path but must still report their remote reads as peer
        # operands, in agreement with the device transfer counters
        solo_engine = compiled.make_engine(
            device=2, placement=Alternate(), scheduler="nobatch"
        )
        solo_outputs, solo_stats = solo_engine.run(instances)
        assert all(values_allclose(a, b) for a, b in zip(reference, solo_outputs))
        assert solo_stats.device["num_peer_transfers"] > 0
        assert solo_stats.memory.get("peer", 0) > 0
        assert solo_stats.memory.get("contiguous", 0) >= 0

    def test_broadcast_peer_transfer_ships_once(self):
        """A broadcast arena read from another device ships its single
        underlying array once, not once per batch instance."""
        from repro.memory import StorageArena
        from repro.memory.planner import BatchPlan, OperandKind, OperandPlan
        from repro.runtime.executor import ExecutionOptions

        shared_out = np.arange(8.0, dtype=np.float32)
        arena = StorageArena.from_broadcast(shared_out, batch_size=4, device_index=1)
        producers = _column([0, 1, 2, 3])
        for tensor in producers.outs:
            tensor.arena = arena
        plan = BatchPlan(
            batch=_batch([0, 1, 2, 3], block_id=1, args=lambda row: (producers.outs[row],)),
            batch_size=4,
            operands=[
                OperandPlan(
                    0, OperandKind.PEER, arena_id=arena.arena_id, start=0
                )
            ],
            output_arena_ids=[],
            device=0,
        )
        group = DeviceGroup(2)
        from repro.memory import MemoryPlanner

        class _Kernel:
            class block:
                name = "b"
                inputs = ()

        MemoryPlanner().resolve(plan, _Kernel, group, ExecutionOptions())
        assert sum(d.counters.num_peer_transfers for d in group) == 1
        assert sum(d.counters.bytes_peer for d in group) == arena.nbytes  # once, not x4

    def test_gathered_segments_peer_charge_like_the_per_part_walk(self):
        """A scattered column whose source arenas live on two remote members
        (plus one local, one of the remote ones broadcast) charges the same
        peer_transfer bytes per source as walking the column instance by
        instance did: per-instance bytes summed per source device, a
        broadcast arena shipped once, transfers issued in the order the
        sources first appear — and the gathered operand equals a stack of
        the per-instance views."""
        from repro.kernels.batched import index_gather
        from repro.memory import MemoryPlanner, StorageArena
        from repro.memory.planner import BatchPlan, OperandKind, OperandPlan
        from repro.runtime.executor import ExecutionOptions

        rng = np.random.default_rng(5)
        arenas = [
            StorageArena.from_batched(rng.standard_normal((6, 8)).astype(np.float32), device_index=2),
            StorageArena.from_batched(rng.standard_normal((5, 8)).astype(np.float32), device_index=0),
            StorageArena.from_broadcast(rng.standard_normal(8).astype(np.float32), 4, device_index=1),
            StorageArena.from_batched(rng.standard_normal((7, 8)).astype(np.float32), device_index=1),
        ]
        # (arena, offset) per consumer instance: interleaved, repeated offsets
        column = [(0, 3), (2, 0), (1, 4), (3, 6), (0, 3), (2, 2), (3, 0), (0, 1), (1, 0)]
        producers = _column(range(len(column)))
        for tensor, (a, offset) in zip(producers.outs, column):
            tensor.arena = arenas[a]
            tensor.offset = offset

        # the per-part walk, written out: what resolve charged before columns
        # were resolved into segments
        expected, shipped = {}, set()
        for a, _ in column:
            arena = arenas[a]
            src = arena.device_index
            if src == 0:
                continue
            if arena.broadcast:
                if a not in shipped:
                    shipped.add(a)
                    expected[src] = expected.get(src, 0.0) + arena.nbytes
            else:
                expected[src] = expected.get(src, 0.0) + float(arena.view(0).nbytes)

        class _Kernel:
            class block:
                name = "b"
                inputs = ()

        for kind in (OperandKind.FUSED_GATHER, OperandKind.GATHER):
            group = DeviceGroup(3)
            calls = []
            real = group.peer_transfer
            group.peer_transfer = lambda src, dst, nbytes: (
                calls.append((src, dst, nbytes)),
                real(src, dst, nbytes),
            )[1]
            plan = BatchPlan(
                batch=_batch(
                    range(len(column)), block_id=1, args=lambda row: (producers.outs[row],)
                ),
                batch_size=len(column),
                operands=[OperandPlan(0, kind)],
                output_arena_ids=[],
                device=0,
            )
            planner = MemoryPlanner()
            (operand,) = planner.resolve(plan, _Kernel, group, ExecutionOptions())
            assert calls == [(src, 0, nbytes) for src, nbytes in expected.items()]
            assert list(expected) == [2, 1]  # first-appearance order of the sources
            assert group[0].counters.bytes_peer == sum(expected.values())
            assert plan.operands[0].segments == len(arenas)
            assert operand.scattered is (kind is OperandKind.FUSED_GATHER)
            views = [arenas[a].view(offset) for a, offset in column]
            gathered = index_gather(operand.segments)
            assert gathered.dtype == np.float32
            assert np.array_equal(gathered, np.stack(views))
            # an explicit gather is charged the bytes of every instance read
            assert group[0].counters.bytes_gathered == (
                sum(float(v.nbytes) for v in views) if kind is OperandKind.GATHER else 0.0
            )

    def test_fiber_program_multi_device(self):
        """Tensor-dependent control flow (fiber scheduling) composes with
        placement: nestedrnn runs reference-identical on a sharded group."""
        compiled, instances, reference = build("nestedrnn", batch=4)
        engine = compiled.make_engine(device=2, placement="round_robin")
        outputs, _ = engine.run(instances)
        assert all(values_allclose(a, b) for a, b in zip(reference, outputs))

    @pytest.mark.parametrize("name", ["nestedrnn", "stackrnn"])
    def test_fiber_rows_record_their_own_instance(self, name):
        """Fibers invoke only once the scheduler steps them, long after the
        roots were built: each row must still name the instance its fiber
        (or its root, for a spawned child) belongs to, so round_robin puts
        instances 0 and 2 on device 0 and 1 and 3 on device 1."""
        compiled, instances, reference = build(name, batch=4)
        engine = compiled.make_engine(device=2, placement="round_robin")
        seen = []
        rt = engine.runtime
        real_invoke = rt.invoke

        def invoke(*args, **kwargs):
            seen.append(rt.current_instance)
            return real_invoke(*args, **kwargs)

        rt.invoke = invoke
        outputs, stats = engine.run(instances)
        assert all(values_allclose(a, b, atol=0, rtol=0) for a, b in zip(reference, outputs))
        assert set(seen) == {0, 1, 2, 3}
        assert all(d["num_kernel_launches"] > 0 for d in stats.per_device)
        _assert_counters_sum(engine, stats)


# ---------------------------------------------------------------------------
# Engine / session / server wiring
# ---------------------------------------------------------------------------


class TestEngineWiring:
    def test_devices_count_builds_group(self, treelstm):
        compiled, _, _ = treelstm
        engine = compiled.make_engine(device=3)
        assert engine.num_devices == 3
        assert isinstance(engine.device, DeviceGroup)
        # multi-device default placement is request-level sharding
        assert isinstance(engine.placement, RoundRobinPlacement)

    def test_single_device_engine_unchanged(self, treelstm):
        compiled, _, _ = treelstm
        engine = compiled.make_engine()
        assert engine.num_devices == 1
        assert engine.placement is None
        assert type(engine.device) is DeviceGroup
        assert len(engine.device) == 1

    def test_bare_simulator_adopted_as_one_member_group(self, treelstm):
        """Whatever ``device=`` names, the engine holds a DeviceGroup; a
        bare simulator is adopted as its only member and keeps showing
        everything charged to it."""
        compiled, instances, _ = treelstm
        for device in (None, DeviceSimulator(), DeviceGroup(2), 2, ["a100", "laptop"]):
            assert type(compiled.make_engine(device).device) is DeviceGroup
        sim = DeviceSimulator()
        engine = compiled.make_engine(sim)
        assert engine.device.devices[0] is sim
        _, stats = engine.run(instances)
        assert stats.device["num_kernel_launches"] > 0
        assert sim.counters.num_kernel_launches == stats.device["num_kernel_launches"]
        assert len(stats.per_device) == 1
        # a member count builds the 2-member round_robin group devices=2 built
        server = Server(device=2, clock=SimulatedClock())
        assert type(server.device) is DeviceGroup
        assert server.num_devices == 2
        assert server.device.interconnect.name == "pcie"
        endpoint = server.add_endpoint("m", compiled)
        assert endpoint.session.engine.device is server.device
        assert isinstance(endpoint.session.engine.placement, RoundRobinPlacement)

    def test_devices_and_device_conflict(self, treelstm):
        """``device=`` is the one way to name the device: the retired
        ``device=`` keyword is refused rather than a second spelling."""
        compiled, _, _ = treelstm
        with pytest.raises(TypeError, match="devices"):
            compiled.make_engine(device=DeviceSimulator(), devices=2)

    def test_placement_instance_and_args(self, treelstm):
        compiled, _, _ = treelstm
        engine = compiled.make_engine(
            device=2, placement=DataParallelPlacement(min_shard=3)
        )
        assert isinstance(engine.placement, DataParallelPlacement)
        assert engine.placement.min_shard == 3

    def test_runtime_resolves_placement_as_an_engine_does(self, treelstm):
        """The runtime is the one placement resolver: one built directly
        with a registry name places every batch exactly as an engine-built
        one does, and a two-member group with none named shards
        round-robin while one member gets no placement."""
        compiled, instances, _ = treelstm
        engine = compiled.make_engine(device=2, placement="round_robin")
        engine.run(instances)
        rt = AcrobatRuntime(
            compiled.kernels, engine.options, DeviceGroup(2), placement="round_robin"
        )
        binding = CompiledProgramBinding(compiled)  # owns the program's namespace
        entry = binding.bind(rt, None)
        for i, instance in enumerate(instances):
            rt.current_instance = i
            entry(instance)
        rt.trigger()
        assert isinstance(rt._placement, RoundRobinPlacement)
        assert rt.trace == engine.runtime.trace
        assert {r[6] for r in rt.trace.records if r[0] == "batch"} == {0, 1}
        assert isinstance(AcrobatRuntime({}, device=2)._placement, RoundRobinPlacement)
        assert AcrobatRuntime({}, device=1)._placement is None

    def test_placement_instance_shared_across_engines_rejected(self, treelstm):
        """Placement instances carry per-runtime rotation/EWMA state: a
        second engine adopting the same instance must be refused (it would
        rotate the first runtime's split base mid-run)."""
        compiled, _, _ = treelstm
        policy = DataParallelPlacement()
        compiled.make_engine(device=2, placement=policy)
        with pytest.raises(ValueError, match="exactly one runtime"):
            compiled.make_engine(device=2, placement=policy)

    def test_group_passthrough(self, treelstm):
        compiled, _, _ = treelstm
        group = DeviceGroup(2, spec="laptop", interconnect="nvlink")
        engine = compiled.make_engine(device=group)
        assert engine.device is group

    def test_explicit_interconnect_with_ready_group_rejected(self, treelstm):
        # an adopted group keeps its own interconnect; silently ignoring a
        # contradictory interconnect= would fake e.g. an interconnect sweep.
        # The engine entry points take no interconnect: the group names it
        compiled, _, _ = treelstm
        group = DeviceGroup(2, interconnect="pcie")
        with pytest.raises(ValueError, match="own interconnect"):
            Server(device=group, interconnect="nvlink")
        with pytest.raises(TypeError, match="interconnect"):
            compiled.make_engine(device=group, interconnect="nvlink")

    def test_tuned_schedule_table_with_ready_group_rejected(self, treelstm):
        # a tuned model's schedule table must not silently vanish into an
        # adopted group or bare simulator built without it — the kernels
        # would simulate at default_schedule_quality; one built WITH the
        # same table (and an untuned model with any device) still adopts
        compiled, instances, _ = treelstm
        assert not compiled.schedule_table  # untuned: adoption is fine
        assert compiled.make_engine(device=DeviceGroup(2)) is not None
        compiled.schedule_table.update({"fused_node_block_0": 0.97})
        try:
            with pytest.raises(ValueError, match="schedule_table"):
                compiled.make_engine(device=DeviceGroup(2))
            with pytest.raises(ValueError, match="schedule_table"):
                compiled.run(instances, device=DeviceSimulator())
            tuned = DeviceGroup(2, schedule_table=compiled.schedule_table)
            assert compiled.make_engine(device=tuned).device is tuned
            sim = DeviceSimulator(schedule_table=compiled.schedule_table)
            assert compiled.make_engine(device=sim).device[0] is sim
        finally:
            compiled.schedule_table.clear()

    def test_session_repeats_with_placement(self, treelstm):
        """Structurally identical sharded flushes stay reference-identical
        round after round."""
        compiled, instances, reference = treelstm
        session = compiled.serve(
            "size", n=len(instances), device=2, placement="round_robin"
        )
        for _ in range(3):
            handles = [session.submit(i) for i in instances]
            assert all(
                values_allclose(a, h.result())
                for a, h in zip(reference, handles)
            )

    def test_session_repeats_with_rotating_data_parallel(self, treelstm):
        """data_parallel rotates its split base per flush; identical flushes
        stay reference-identical under every base."""
        compiled, instances, reference = treelstm
        session = compiled.serve(
            "size", n=len(instances), device=2, placement="data_parallel"
        )
        for _ in range(4):
            handles = [session.submit(i) for i in instances]
            assert all(
                values_allclose(a, h.result())
                for a, h in zip(reference, handles)
            )


class TestServerSharding:
    def test_server_devices(self, treelstm):
        compiled, instances, reference = treelstm
        server = Server(device=2, clock=SimulatedClock(), interconnect="nvlink")
        assert server.num_devices == 2
        server.add_endpoint("m", compiled, policy="manual")
        report = server.replay([(0.0, "m", i) for i in instances])["m"]
        assert report.num_flushes == 1  # manual: the drain flushes one round
        assert len(report.handles) == len(reference)
        assert all(
            values_allclose(a, h.result()) for a, h in zip(reference, report.handles)
        )
        summary = server.summary()
        assert summary["devices"]["count"] == 2
        assert 0.0 <= summary["devices"]["balance"] <= 1.0
        assert summary["m"]["requests"] == len(instances)

    def test_server_single_device_summary(self, treelstm):
        compiled, _, _ = treelstm
        server = Server(clock=SimulatedClock())
        server.add_endpoint("m", compiled)
        assert server.summary()["devices"]["count"] == 1

    def test_server_device_conflict(self):
        with pytest.raises(TypeError, match="devices"):
            Server(device=DeviceSimulator(), devices=2)

    def test_server_wide_placement_instance_rejected(self):
        # a stateful instance shared across endpoints would mix per-block
        # cost observations between models; names resolve fresh per engine
        with pytest.raises(TypeError, match="registry name"):
            Server(device=2, placement=RoundRobinPlacement())

    def test_devices_endpoint_name_reserved(self, treelstm):
        compiled, _, _ = treelstm
        server = Server(clock=SimulatedClock())
        with pytest.raises(ValueError, match="reserved"):
            server.add_endpoint("devices", compiled)

    def test_serve_forwards_interconnect_and_placement_args(self, treelstm):
        """serve() must route sharding kwargs to the engine, not into the
        flush policy's argument list."""
        compiled, instances, reference = treelstm
        session = compiled.serve(
            "size",
            n=len(instances),
            clock=SimulatedClock(),
            device=DeviceGroup(2, interconnect="nvlink"),
            placement=DataParallelPlacement(min_shard=3),
        )
        assert session.engine.device.interconnect.name == "nvlink"
        assert session.engine.placement.min_shard == 3
        handles = [session.submit(i) for i in instances]
        assert all(
            values_allclose(a, h.result()) for a, h in zip(reference, handles)
        )


# ---------------------------------------------------------------------------
# Counters merge helper
# ---------------------------------------------------------------------------


class TestCountersMerge:
    def test_merge_sums_everything(self):
        """``RunStats.device`` is the fold of ``per_device``: every
        component summed in member order, the total recomputed from the
        sums, elapsed the busiest member's total."""
        group = DeviceGroup(2)
        group[0].counters = DeviceCounters(kernel_time_us=1.0, num_kernel_launches=2)
        group[1].counters = DeviceCounters(
            kernel_time_us=3.0, num_kernel_launches=1, peer_time_us=4.0
        )
        stats = AcrobatRuntime({}, device=group).collect_stats(batch_size=0)
        merged = stats.device
        assert merged["kernel_time_us"] == 4.0
        assert merged["num_kernel_launches"] == 3
        assert merged["peer_time_us"] == 4.0
        assert merged["total_device_us"] == 8.0
        assert merged["elapsed_device_us"] == 7.0
        assert set(merged) == set(stats.per_device[0]) - {"device"} | {"elapsed_device_us"}
