"""Tests for the sharded serving front door: the loop-topology registry
(single / per_device / per_endpoint), cross-loop work-stealing, and the
deterministic multi-loop trace driver behind ``Server.replay``."""

import pytest

from tests.conftest import build_listing1_rnn, rnn_instances
from repro import CompilerOptions, compile_model, reference_run
from repro.serve import Server, SimulatedClock, available_topologies, make_topology
from repro.utils import values_allclose

HOST_MODEL = (2.0, 0.75)
LENGTHS = [3, 4, 5, 6] * 6


@pytest.fixture(scope="module")
def rnn_setup():
    mod, params = build_listing1_rnn()
    instances = rnn_instances(mod, 8, LENGTHS)
    reference = reference_run(mod, params, instances)
    model = compile_model(mod, params, CompilerOptions())
    return model, instances, reference


def _serve(model, instances, topology="single", gap=0.001, meta=None, **kw):
    """One fresh server, one endpoint, one deterministic trace replay."""
    srv = Server(clock=SimulatedClock(), device=4, topology=topology, **kw)
    srv.add_endpoint("m", model, policy="adaptive")
    workload = []
    for i, inst in enumerate(instances):
        if meta is None:
            workload.append((gap * i, "m", inst))
        else:
            workload.append((gap * i, "m", inst, meta(i)))
    reports = srv.replay(workload, host_model=HOST_MODEL)
    return srv, reports["m"].handles


class TestRegistry:
    def test_builtin_topologies_registered(self):
        names = available_topologies()
        assert {"single", "per_device", "per_endpoint"} <= set(names)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown loop topology"):
            make_topology("no-such-topology")

    def test_per_device_requires_even_slices(self, rnn_setup):
        model, instances, _ = rnn_setup
        srv = Server(
            clock=SimulatedClock(),
            device=4,
            topology="per_device",
            topology_args={"members_per_loop": 3},
        )
        srv.add_endpoint("m", model, policy="adaptive")
        with pytest.raises(ValueError, match="divide evenly"):
            srv.replay([(0.0, "m", instances[0])])

    def test_reserved_endpoint_names(self, rnn_setup):
        model, _, _ = rnn_setup
        srv = Server(clock=SimulatedClock(), device=2)
        for name in ("devices", "loops"):
            with pytest.raises(ValueError, match="reserved"):
                srv.add_endpoint(name, model)


class TestTraceTopologies:
    def test_per_device_matches_reference_and_single(self, rnn_setup):
        model, instances, reference = rnn_setup
        _, h_single = _serve(model, instances, "single")
        _, h_multi = _serve(model, instances, "per_device")
        for hs in (h_single, h_multi):
            assert all(not h.failed for h in hs)
            assert all(
                values_allclose(h.result(), r) for h, r in zip(hs, reference)
            )

    def test_per_device_uses_every_loop(self, rnn_setup):
        model, instances, _ = rnn_setup
        srv, _ = _serve(model, instances, "per_device", gap=0.0)
        loops = srv.summary()["loops"]
        assert len(loops) == 4
        assert sum(g["admitted"] for g in loops.values()) == len(instances)

    def test_double_replay_bit_for_bit(self, rnn_setup):
        model, instances, _ = rnn_setup
        _, h1 = _serve(model, instances, "per_device")
        _, h2 = _serve(model, instances, "per_device")
        assert [h.stats.completed_at for h in h1] == [
            h.stats.completed_at for h in h2
        ]
        assert [h.stats.latency_ms for h in h1] == [
            h.stats.latency_ms for h in h2
        ]

    def test_per_device_beats_single_when_host_bound(self, rnn_setup):
        model, instances, _ = rnn_setup
        _, h1 = _serve(model, instances, "single")
        _, h4 = _serve(model, instances, "per_device")
        horizon = lambda hs: max(h.stats.completed_at for h in hs)  # noqa: E731
        assert horizon(h4) < horizon(h1)

    def test_per_endpoint_one_loop_per_model(self, rnn_setup):
        model, instances, reference = rnn_setup
        srv = Server(clock=SimulatedClock(), device=4, topology="per_endpoint")
        srv.add_endpoint("a", model, policy="adaptive")
        srv.add_endpoint("b", model, policy="adaptive")
        workload = [
            (0.001 * i, "a" if i % 2 == 0 else "b", inst)
            for i, inst in enumerate(instances)
        ]
        reports = srv.replay(workload, host_model=HOST_MODEL)
        handles = {name: report.handles for name, report in reports.items()}
        assert len(srv.summary()["loops"]) == 2
        outs = {"a": handles["a"], "b": handles["b"]}
        for name, hs in outs.items():
            assert all(not h.failed for h in hs)
        merged = []
        ia = iter(handles["a"])
        ib = iter(handles["b"])
        for i in range(len(instances)):
            merged.append(next(ia if i % 2 == 0 else ib))
        assert all(
            values_allclose(h.result(), r) for h, r in zip(merged, reference)
        )


class TestWorkStealing:
    def test_stolen_run_matches_unstolen_bitwise(self, rnn_setup):
        """Pin every arrival to loop0: siblings steal.  Results must be
        bitwise identical to the same pinned run with stealing disabled."""
        model, instances, reference = rnn_setup
        pin = lambda i: {"loop": 0}  # noqa: E731
        srv_steal, h_steal = _serve(
            model,
            instances, "per_device", gap=0.00001, meta=pin
        )
        srv_nosteal, h_nosteal = _serve(
            model,
            instances,
            "per_device",
            gap=0.00001,
            meta=pin,
            topology_args={"steal_min": None},
        )
        stolen = sum(
            g["stolen_out"] for g in srv_steal.summary()["loops"].values()
        )
        assert stolen > 0, "pinned overload must trigger stealing"
        assert (
            sum(
                g["stolen_out"]
                for g in srv_nosteal.summary()["loops"].values()
            )
            == 0
        )
        for a, b, r in zip(h_steal, h_nosteal, reference):
            assert not a.failed and not b.failed
            assert values_allclose(a.result(), r)
            assert values_allclose(b.result(), r)

    def test_stealing_is_replay_deterministic(self, rnn_setup):
        model, instances, _ = rnn_setup
        pin = lambda i: {"loop": 0}  # noqa: E731
        srv1, h1 = _serve(model, instances, "per_device", gap=0.00001, meta=pin)
        srv2, h2 = _serve(model, instances, "per_device", gap=0.00001, meta=pin)
        assert srv1.summary()["loops"] == srv2.summary()["loops"]
        assert [h.stats.completed_at for h in h1] == [
            h.stats.completed_at for h in h2
        ]

    def test_stealing_shortens_pinned_backlog(self, rnn_setup):
        model, instances, _ = rnn_setup
        pin = lambda i: {"loop": 0}  # noqa: E731
        _, h_steal = _serve(model, instances, "per_device", gap=0.00001, meta=pin)
        _, h_nosteal = _serve(
            model,
            instances,
            "per_device",
            gap=0.00001,
            meta=pin,
            topology_args={"steal_min": None},
        )
        horizon = lambda hs: max(h.stats.completed_at for h in hs)  # noqa: E731
        assert horizon(h_steal) <= horizon(h_nosteal)


class TestLoopPins:
    @pytest.mark.parametrize("pin", [-1, 1, 2.0, "0", True])
    def test_bad_pin_rejected_before_any_admission(self, rnn_setup, pin):
        """A ``loop`` pin must be the int index of an existing loop.  Any
        other value is refused before the first arrival is admitted — not
        routed by Python indexing (-1 would quietly pick the last loop) nor
        failed partway through the trace."""
        model, instances, _ = rnn_setup
        srv = Server(clock=SimulatedClock())  # single topology: one loop
        srv.add_endpoint("m", model, policy="adaptive")
        trace = [(0.0, "m", instances[0]), (0.001, "m", instances[1], {"loop": pin})]
        with pytest.raises(ValueError, match=r"\[0, 1\) \(this server runs 1 loop"):
            srv.replay(trace)
        assert srv.loop.num_admitted == 0
        assert srv.endpoint("m").session.num_requests == 0

    def test_pin_to_loop_not_serving_endpoint_rejected(self, rnn_setup):
        """Under per_endpoint each loop serves one model: pinning "a" to
        "b"'s loop is an in-range index that still names the wrong loop."""
        model, instances, _ = rnn_setup
        srv = Server(clock=SimulatedClock(), device=2, topology="per_endpoint")
        srv.add_endpoint("a", model, policy="adaptive")
        srv.add_endpoint("b", model, policy="adaptive")
        trace = [(0.0, "a", instances[0]), (0.001, "a", instances[1], {"loop": 1})]
        with pytest.raises(ValueError, match="does not serve it"):
            srv.replay(trace)
        assert sum(g["admitted"] for g in srv.summary()["loops"].values()) == 0

    def test_unknown_endpoint_rejected_before_any_admission(self, rnn_setup):
        model, instances, _ = rnn_setup
        srv = Server(clock=SimulatedClock())
        srv.add_endpoint("m", model, policy="adaptive")
        trace = [(0.0, "m", instances[0]), (0.001, "nope", instances[1])]
        with pytest.raises(KeyError, match="no loop serves endpoint 'nope'"):
            srv.replay(trace)
        assert srv.loop.num_admitted == 0


class TestSummarySchema:
    def test_loop_gauges(self, rnn_setup):
        model, instances, _ = rnn_setup
        srv, handles = _serve(
            model, instances, "per_device", meta=lambda i: {"deadline": 10.0}
        )
        assert all(not h.failed for h in handles)
        summary = srv.summary()
        assert set(summary["loops"]) == {"loop0", "loop1", "loop2", "loop3"}
        for gauges in summary["loops"].values():
            assert {
                "admitted",
                "rejected",
                "shed",
                "expired",
                "cancelled",
                "stolen_in",
                "stolen_out",
                "queued",
            } <= set(gauges)
        assert sum(g["admitted"] for g in summary["loops"].values()) == len(
            instances
        )

    def test_endpoint_summary_not_regressed(self, rnn_setup):
        model, instances, _ = rnn_setup
        srv, _ = _serve(model, instances, "per_device")
        summary = srv.summary()
        assert "m" in summary and "devices" in summary
        # endpoint gauges aggregate over every per-loop replica
        assert summary["m"]["requests"] == len(instances)
        assert summary["m"]["pending"] == 0


class TestWallClockTopology:
    def test_multi_loop_wall_run(self, rnn_setup):
        model, instances, reference = rnn_setup
        srv = Server(device=4, topology="per_device")
        srv.add_endpoint("m", model, policy="adaptive")
        with srv.run():
            handles = [srv.submit("m", inst) for inst in instances]
            results = [h.result(timeout=60) for h in handles]
        assert all(
            values_allclose(out, r) for out, r in zip(results, reference)
        )
        loops = srv.summary()["loops"]
        assert len(loops) == 4
        assert sum(g["admitted"] for g in loops.values()) == len(instances)
