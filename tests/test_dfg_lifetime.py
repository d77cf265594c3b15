"""A finished dataflow graph is freed by reference counting, not by the
cyclic collector.

``DFGNode.outputs -> LazyTensor.node`` was the graph's only reference cycle;
``MemoryPlanner.commit`` clears ``outputs`` on every executed node, so with
the collector switched off nothing of a finished round may be left for it.
Never-executed (cancelled / withdrawn) nodes keep their cycle and are exempt.
"""

import gc

import pytest

from repro import CompilerOptions, compile_model
from repro.models import MODEL_MODULES
from repro.runtime.tensor import DFGNode, LazyTensor


def live_graph_objects():
    """(DFGNode, LazyTensor) instances the interpreter still tracks."""
    nodes = tensors = 0
    for obj in gc.get_objects():
        if type(obj) is DFGNode:
            nodes += 1
        elif type(obj) is LazyTensor:
            tensors += 1
    return nodes, tensors


@pytest.fixture
def collector_off():
    """Start from a collected heap with the cyclic collector disabled, so
    whatever ``gc.collect()`` finds afterwards was garbage only it could
    free."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def build(name, batch=8):
    module = MODEL_MODULES[name]
    mod, params, size = module.build_for("test")
    model = compile_model(mod, params, CompilerOptions())
    return model, module.make_batch(mod, size, batch, seed=1)


def assert_collector_reclaims_no_graph():
    before = live_graph_objects()
    gc.collect()
    assert live_graph_objects() == before, (
        "the cyclic collector had to free executed DFG nodes / lazy tensors"
    )
    return before


@pytest.mark.parametrize("name", ["treelstm", "stackrnn"])
def test_a_finished_run_leaves_nothing_for_the_collector(name, collector_off):
    model, batch = build(name)
    model.run(batch)  # warm-up: first-run allocations are not the subject
    gc.collect()
    counts = []
    for _ in range(10):
        outputs, stats = model.run(batch)
        del outputs, stats
        counts.append(assert_collector_reclaims_no_graph())
    # a fiber program's scheduler holds no fiber (hence no root result) once
    # its run has finished, so both kinds of program leave nothing reachable
    assert counts == [(0, 0)] * 10


def test_executed_nodes_drop_their_outputs(monkeypatch):
    from repro.memory import MemoryPlanner

    committed = []
    real = MemoryPlanner.commit

    def commit(self, plan, outputs, device):
        nodes = plan.batch.nodes
        assert all(len(node.outputs) == len(outputs) for node in nodes)
        arenas = real(self, plan, outputs, device)
        committed.extend(nodes)
        return arenas

    monkeypatch.setattr(MemoryPlanner, "commit", commit)
    model, batch = build("treelstm")
    model.run(batch)
    assert committed
    assert all(node.executed and len(node.outputs) == 0 for node in committed)


def test_a_flushed_session_round_leaves_nothing_for_the_collector(collector_off):
    model, batch = build("treelstm")
    session = model.session(flush_policy="size", flush_args={"n": len(batch)})
    for _ in range(2):  # the second round also drops the first's arenas
        handles = [session.submit(instance) for instance in batch]
        session.flush()
        results = [handle.result() for handle in handles]
        assert len(results) == len(batch)
        del handles, results
        assert assert_collector_reclaims_no_graph() == (0, 0)


def test_a_served_round_leaves_nothing_for_the_collector(collector_off):
    """The threaded server: done-callbacks live on the handle and are dropped
    when it resolves, so a resolved handle is not part of a cycle either."""
    from repro.serve import Server
    from repro.serve.request import RequestHandle

    model, batch = build("treelstm")
    server = Server()
    server.add_endpoint("m", model, policy="size", n=len(batch))
    with server.run():
        for measured in (False, True, True):
            fired = []
            handles = [server.submit("m", instance) for instance in batch]
            for handle in handles:
                handle.add_done_callback(fired.append)
            results = [handle.result(timeout=30) for handle in handles]
            server.drain()
            assert len(results) == len(fired) == len(batch)
            del handles, results, fired, handle
            if not measured:
                gc.collect()  # compiling and first-round set-up leave cycles
                continue
            # reference counting alone has freed the round: no graph, no
            # handle, and no unreachable cycle for the collector to find
            assert live_graph_objects() == (0, 0)
            assert not any(type(obj) is RequestHandle for obj in gc.get_objects())
            assert gc.collect() == 0


def test_never_executed_nodes_are_exempt(collector_off):
    """A withdrawn request's nodes never reach commit: they keep their
    ``outputs`` (and their cycle), which is the collector's to free."""
    model, batch = build("treelstm")
    session = model.session(flush_policy="manual")
    handle = session.submit(batch[0])
    assert live_graph_objects() > (0, 0)
    assert handle.cancel()
    del handle
    assert live_graph_objects() > (0, 0)  # cyclic: reference counting keeps them
    gc.collect()
    assert live_graph_objects() == (0, 0)
