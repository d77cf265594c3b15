"""A finished dataflow graph is freed by reference counting, not by the
cyclic collector.

``Column.outs -> LazyTensor.column`` is the pending graph's only reference
cycle; ``AcrobatRuntime.trigger`` drops ``outs`` of every column it
executed, so with the collector switched off nothing of a finished round may
be left for it.  A withdrawn (cancelled) request's rows
leave the column with their outputs, so they are freed the same way.
"""

import gc

import pytest

from repro import CompilerOptions, compile_model
from repro.models import MODEL_MODULES
from repro.runtime.executor import AcrobatRuntime
from repro.runtime.tensor import Column, LazyTensor


def live_graph_objects():
    """(LazyTensor, Column) instances the interpreter still tracks."""
    tensors = columns = 0
    for obj in gc.get_objects():
        if type(obj) is LazyTensor:
            tensors += 1
        elif type(obj) is Column:
            columns += 1
    return tensors, columns


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
        "the cyclic collector had to free lazy tensors / executed columns"
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


@pytest.mark.parametrize("name", ["treelstm", "stackrnn"])
def test_a_finished_run_frees_its_runtime_by_reference_counting(name, collector_off):
    """Each engine runs its own instance of the generated program, whose
    functions and namespace reference each other and the runtime: dropping
    the engine must still free the runtime (planner, arenas) at once."""
    model, batch = build(name)
    model.run(batch)
    gc.collect()
    for _ in range(3):
        model.run(batch)
        assert sum(type(obj) is AcrobatRuntime for obj in gc.get_objects()) == 0


@pytest.mark.parametrize("name", ["treelstm", "stackrnn"])
def test_executed_columns_drop_their_back_edges(monkeypatch, name):
    from repro.memory import MemoryPlanner

    committed = []
    real = MemoryPlanner.commit

    def commit(self, plan, outputs, device):
        columns = [col for col, _rows in plan.batch.segments]
        assert all(len(col.outs) == len(col.seqs) * col.num_outputs for col in columns)
        arenas = real(self, plan, outputs, device)
        committed.extend(columns)
        return arenas

    monkeypatch.setattr(MemoryPlanner, "commit", commit)
    model, batch = build(name)
    model.run(batch)
    assert committed
    assert all(col.outs is None and col.args is None for col in committed)


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


def test_withdrawn_rows_are_freed_by_reference_counting(collector_off):
    """A withdrawn request's rows never reach commit: they leave their
    columns with their outputs, so nothing of them is cyclic."""
    model, batch = build("treelstm")
    session = model.session(flush_policy="manual")
    kept = session.submit(batch[0])
    handle = session.submit(batch[1])
    pending = live_graph_objects()
    assert handle.cancel()
    del handle
    tensors, columns = live_graph_objects()
    # the kept request's rows stay; columns only it had are gone
    assert 0 < tensors < pending[0] and 0 < columns <= pending[1]
    kept.cancel()
    del kept
    assert live_graph_objects() == (0, 0)


def test_a_capped_flush_leaves_nothing_for_the_collector(collector_off):
    """A round cap that falls inside columns: the executed prefix keeps its
    columns, the rest moves to fresh ones, and both are freed once run."""
    model, batch = build("treelstm")
    session = model.session(flush_policy="manual")
    handles = [session.submit(instance) for instance in batch[:3]]
    session.policy.round_cap = lambda _session: 2
    session.flush()
    assert [h.done for h in handles] == [True, True, False]
    session.policy.round_cap = lambda _session: None
    session.flush()
    results = [h.result() for h in handles]
    assert len(results) == 3
    del handles, results
    assert assert_collector_reclaims_no_graph() == (0, 0)
