"""The column store against the per-node graph it replaced.

``AcrobatRuntime.invoke`` files every invocation into the column of its
``(phase, depth, block)`` key, and every scheduler reads a round as column
spans.  The oracles here are the per-node schedulers the store replaced,
kept as they were: they bucket, traverse and agenda-sort a list of node
records the tests build from the invocations the runtime saw.  For every
round of a run, each policy's batch sequence — ``(block_id, [(instance,
round_seq), ...])`` per launch — must equal its oracle's, over the model zoo
and over random tail-recursive programs; a capped flush and a cancellation
whose cuts fall inside columns keep (or drop) their prepared round and stay
bitwise equal to the reference.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import CompilerOptions, compile_model, reference_run
from repro.baselines.dynet import compile_dynet
from repro.models import MODEL_MODULES
from repro.runtime.tensor import LazyTensor
from repro.utils import flatten_arrays
from tests.test_tail_calls_generative import build, instances, make_batch, steps

# -- the per-node graph, rebuilt from the invocations --------------------------


class Node:
    """One recorded invocation, as the per-node graph held it."""

    __slots__ = (
        "node_id", "block_id", "args", "depth", "phase", "instance_id",
        "round_seq", "outputs", "state",
    )

    def __init__(self, node_id, block_id, args, depth, phase, instance_id, round_seq):
        self.node_id = node_id
        self.block_id = block_id
        self.args = tuple(args)
        self.depth = depth
        self.phase = phase
        self.instance_id = instance_id
        self.round_seq = round_seq
        self.outputs = ()
        self.state = "pending"  # -> "executed" / "dropped"


class Recorder:
    """Wraps one runtime: logs every ``invoke`` as a :class:`Node` and, on
    every ``schedule`` call, runs ``oracle`` over the round's nodes and
    compares batch sequences."""

    def __init__(self, runtime, oracle):
        self.runtime = runtime
        self.oracle = oracle
        self.log = []
        self.producer = {}  # id(lazy output) -> Node
        self.rounds = []  # (real, expected) batch sequences
        self.last_round = []
        invoke, schedule = runtime.invoke, runtime._scheduler.schedule
        drop, reset = runtime.drop_pending_slice, runtime.reset

        def recording_invoke(block_id, depth, phase, args):
            node = Node(
                len(self.log), block_id, args, depth, phase,
                runtime.current_instance, runtime.next_seq,
            )
            out = invoke(block_id, depth, phase, args)
            node.outputs = out if isinstance(out, tuple) else (out,)
            for tensor in node.outputs:
                self.producer[id(tensor)] = node
            self.log.append(node)
            return out

        def recording_schedule(spans):
            batches = schedule(spans)
            seqs = {col.seqs[row] for col, stop in spans for row in range(stop)}
            nodes = [n for n in self.pending() if n.round_seq in seqs]
            assert len(nodes) == len(seqs)
            self.last_round = nodes
            real = [(b.block_id, list(zip(b.instances(), b.seqs()))) for b in batches]
            expected = [
                (block_id, [(n.instance_id, n.round_seq) for n in batch])
                for block_id, batch in self.oracle(self, nodes)
            ]
            self.rounds.append((real, expected))
            assert real == expected
            return batches

        def recording_drop(start, end):
            for n in self.pending():
                if start <= n.round_seq < end:
                    n.state = "dropped"
            drop(start, end)

        def recording_reset(*a, **kw):
            for n in self.pending():
                n.state = "dropped"
            reset(*a, **kw)

        runtime.invoke = recording_invoke
        runtime._scheduler.schedule = recording_schedule
        runtime.drop_pending_slice = recording_drop
        runtime.reset = recording_reset

    def pending(self):
        """Recorded nodes not executed nor withdrawn (an output is written
        exactly when its node executes)."""
        for n in self.log:
            if n.state == "pending" and n.outputs and n.outputs[0].is_materialized:
                n.state = "executed"
        return [n for n in self.log if n.state == "pending"]

    def deps(self, node):
        """The per-node ``dfg_deps``: producers of unmaterialized arguments."""
        return [
            self.producer[id(a)]
            for a in node.args
            if isinstance(a, LazyTensor) and not a.is_materialized
        ]


# -- the per-node schedulers ----------------------------------------------------


def inline_depth(rec, nodes):
    buckets, order = {}, {}
    for node in nodes:
        key = (node.phase, node.depth, node.block_id)
        if key not in buckets:
            buckets[key] = []
            order[key] = node.node_id
        buckets[key].append(node)
    keys = sorted(buckets, key=lambda k: (k[0], k[1], order[k]))
    return [(k[2], buckets[k]) for k in keys]


def dynamic_depth(rec, nodes):
    depth = {}

    def node_depth(n):
        if n.node_id not in depth:
            producers = rec.deps(n)
            depth[n.node_id] = 0 if not producers else 1 + max(node_depth(p) for p in producers)
        return depth[n.node_id]

    buckets, order = {}, {}
    for node in nodes:
        key = (node_depth(node), node.block_id)
        if key not in buckets:
            buckets[key] = []
            order[key] = node.node_id
        buckets[key].append(node)
    keys = sorted(buckets, key=lambda k: (k[0], order[k]))
    return [(k[1], buckets[k]) for k in keys]


def agenda(rec, nodes):
    return [(b[0].block_id, b) for b in agenda_by_id(nodes, rec.deps, lambda n: n.block_id)]


def nobatch(rec, nodes):
    return [(n.block_id, [n]) for n in nodes]


def dynet(scheduler):
    """DyNet's policy over nodes.  Its signatures name a node that never
    batches by its round sequence number and a first argument by the
    producer's ``(column, row)`` identity — the runtime's spelling, so that
    ties broken on a signature's text break the same way."""
    kernels, imp = scheduler.kernels, scheduler.improvements

    def signature(node):
        ops = kernels[node.block_id].block.ops
        op_name = ops[0].op_name if len(ops) == 1 else None
        sig = (node.block_id,)
        if op_name is None:
            return sig
        if op_name in ("argmax", "scale", "full", "zeros"):
            if (
                (op_name == "argmax" and imp.batch_argmax)
                or (op_name == "scale" and imp.batch_broadcast_mul)
                or (op_name in ("full", "zeros") and imp.reuse_constants)
            ):
                return sig
            return sig + ("node", node.round_seq)
        if op_name in ("dense", "matmul") and not imp.improved_matmul:
            first = node.args[0] if node.args else None
            key = (id(first.column), first.row) if isinstance(first, LazyTensor) else id(first)
            return sig + ("first_arg", key)
        return sig

    def schedule(rec, nodes):
        if scheduler.kind == "agenda":
            raw = agenda_by_id(nodes, rec.deps, signature)
        else:
            raw = depth_by_id(nodes, rec.deps, signature)
        return [(b[0].block_id, b) for b in raw]

    return schedule


def depth_by_id(nodes, get_deps, get_signature):
    node_list = list(nodes)
    index = {id(n): i for i, n in enumerate(node_list)}
    depth = {}

    def compute_depth(n):
        if id(n) not in depth:
            deps = [d for d in get_deps(n) if id(d) in index]
            depth[id(n)] = 0 if not deps else 1 + max(compute_depth(d) for d in deps)
        return depth[id(n)]

    buckets, first_seen = defaultdict(list), {}
    for i, n in enumerate(node_list):
        key = (compute_depth(n), get_signature(n))
        first_seen.setdefault(key, i)
        buckets[key].append(n)
    keys = sorted(buckets, key=lambda k: (k[0], first_seen[k]))
    return [buckets[k] for k in keys]


def agenda_by_id(nodes, get_deps, get_signature):
    node_list = list(nodes)
    in_set = {id(n) for n in node_list}
    remaining, dependents, depth = {}, defaultdict(list), {}
    for n in node_list:
        deps = [d for d in get_deps(n) if id(d) in in_set]
        remaining[id(n)] = len(deps)
        for d in deps:
            dependents[id(d)].append(n)

    def compute_depth(n):
        if id(n) not in depth:
            deps = [d for d in get_deps(n) if id(d) in in_set]
            depth[id(n)] = 0 if not deps else 1 + max(compute_depth(d) for d in deps)
        return depth[id(n)]

    for n in node_list:
        compute_depth(n)
    ready = [n for n in node_list if remaining[id(n)] == 0]
    scheduled = []
    while ready:
        by_sig = defaultdict(list)
        for n in ready:
            by_sig[get_signature(n)].append(n)
        best = min(
            by_sig,
            key=lambda s: (
                sum(depth[id(n)] for n in by_sig[s]) / len(by_sig[s]),
                -len(by_sig[s]),
                str(s),
            ),
        )
        batch = by_sig[best]
        scheduled.append(batch)
        taken = {id(n) for n in batch}
        ready = [n for n in ready if id(n) not in taken]
        for n in batch:
            for dep in dependents[id(n)]:
                remaining[id(dep)] -= 1
                if remaining[id(dep)] == 0:
                    ready.append(dep)
    assert sum(len(b) for b in scheduled) == len(node_list)
    return scheduled


ORACLES = {
    "inline_depth": inline_depth,
    "dynamic_depth": dynamic_depth,
    "agenda": agenda,
    "nobatch": nobatch,
}


# -- helpers ---------------------------------------------------------------------


def assert_bitwise(outputs, reference):
    assert len(outputs) == len(reference)
    for out, ref in zip(outputs, reference):
        xs, ys = flatten_arrays(out), flatten_arrays(ref)
        assert len(xs) == len(ys)
        for x, y in zip(xs, ys):
            assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


def recorded_run(model, batch, oracle=None):
    engine = model.make_engine()
    scheduler = engine.runtime._scheduler
    rec = Recorder(engine.runtime, oracle or dynet(scheduler))
    outputs, _stats = engine.run(batch)
    assert rec.rounds
    return outputs, rec


@pytest.fixture(scope="module")
def zoo():
    built = {}
    for name, module in MODEL_MODULES.items():
        mod, params, size = module.build_for("test")
        batch = module.make_batch(mod, size, 4, seed=5)
        built[name] = (mod, params, batch, reference_run(mod, params, batch))
    return built


# -- every policy equals its oracle ----------------------------------------------


@pytest.mark.parametrize("policy", sorted(ORACLES))
@pytest.mark.parametrize("name", sorted(MODEL_MODULES))
def test_zoo_batches_equal_the_per_node_schedule(zoo, name, policy):
    mod, params, batch, reference = zoo[name]
    model = compile_model(mod, params, CompilerOptions(scheduler=policy))
    outputs, rec = recorded_run(model, batch, ORACLES[policy])
    assert_bitwise(outputs, reference)
    assert sum(len(b) for real, _ in rec.rounds for _, b in real) == len(rec.log)


@pytest.mark.parametrize("kind", ["agenda", "depth"])
@pytest.mark.parametrize("name", ["treelstm", "mvrnn", "drnn", "stackrnn"])
def test_dynet_batches_equal_the_per_node_schedule(zoo, name, kind):
    mod, params, batch, reference = zoo[name]
    model = compile_dynet(mod, params, scheduler_kind=kind)
    outputs, _rec = recorded_run(model, batch)
    for out, ref in zip(outputs, reference):
        for x, y in zip(flatten_arrays(out), flatten_arrays(ref)):
            assert np.allclose(x, y, rtol=1e-4, atol=1e-5)


@settings(max_examples=40, deadline=None)
@given(
    step=steps,
    base_pick=st.integers(0, 1),
    coin_lists=instances,
    policy=st.sampled_from(sorted(ORACLES)),
)
def test_random_programs_batch_as_the_per_node_schedule(step, base_pick, coin_lists, policy):
    mod, params = build(step, base_pick, hide_tail=False)
    batch = make_batch(mod, coin_lists)
    model = compile_model(mod, params, CompilerOptions(scheduler=policy))
    outputs, _rec = recorded_run(model, batch, ORACLES[policy])
    assert_bitwise(outputs, reference_run(mod, params, batch))


# -- serving cuts inside columns -------------------------------------------------


def capped_session(zoo, requests):
    mod, params, batch, reference = zoo["treelstm"]
    model = compile_model(mod, params, CompilerOptions())
    session = model.session(flush_policy="manual")
    rec = Recorder(session.engine.runtime, inline_depth)
    handles = [session.submit(batch[i]) for i in requests]
    # flush the two oldest requests per round, and let the session prepare
    session.policy.round_cap = lambda _session: 2
    session.policy.predict_next_flush = lambda _session, now: now
    return session, rec, handles, [reference[i] for i in requests]


def straddled(runtime, cut):
    """Columns with rows on both sides of ``cut``."""
    return [c for c in runtime._columns.values() if c.seqs[0] < cut <= c.seqs[-1]]


def assert_outputs_name_their_rows(runtime):
    for col in runtime._columns.values():
        n = col.num_outputs
        assert all(t.column is col and t.row == i // n for i, t in enumerate(col.outs))


def test_capped_flush_adopts_its_prepared_round_across_a_column_cut(zoo):
    session, rec, handles, reference = capped_session(zoo, [0, 1, 2, 3])
    runtime = session.engine.runtime
    cut = session._seq_ends[1]
    assert straddled(runtime, cut)
    assert session.consider_prepare(session.clock.now())
    # exactly the two oldest requests' rows went into the prepared round
    assert sorted(n.round_seq for n in rec.last_round) == list(range(cut))

    # an arrival appends behind the cut: the prepared prefix still matches
    _mod, _params, batch, batch_reference = zoo["treelstm"]
    handles.append(session.submit(batch[0]))
    reference.append(batch_reference[0])
    assert session.consider_prepare(session.clock.now())
    session.flush()
    assert session.speculation_hits == 1 and session.speculation_aborts == 0
    assert [h.done for h in handles] == [True, True, False, False, False]

    # the rows the cut left behind moved to fresh columns, renumbered
    assert all(col.seqs[0] >= cut for col in runtime._columns.values())
    assert_outputs_name_their_rows(runtime)
    while session.pending_requests:
        session.flush()
    assert_bitwise([h.result() for h in handles], reference)


def test_cancel_inside_a_column_drops_the_prepared_round(zoo):
    session, rec, handles, reference = capped_session(zoo, [0, 1, 2, 3])
    runtime = session.engine.runtime
    first, second = session._seq_ends[0], session._seq_ends[1]
    assert straddled(runtime, first) and straddled(runtime, second)
    assert session.consider_prepare(session.clock.now())
    prepared = session._prepared

    assert handles[1].cancel()  # its rows sit inside columns, below the cut
    assert session.speculation_aborts == 1 and session._prepared is None
    assert not runtime.prepared_matches(prepared, limit=session._flush_seq_cut())
    assert not any(first <= s < second for c in runtime._columns.values() for s in c.seqs)
    assert_outputs_name_their_rows(runtime)

    # the new prefix is requests 0 and 2; it prepares and adopts
    assert session.consider_prepare(session.clock.now())
    assert {n.instance_id for n in rec.last_round} == {handles[0].index, handles[2].index}
    session.flush()
    assert session.speculation_hits == 1
    while session.pending_requests:
        session.flush()
    kept = [0, 2, 3]
    assert_bitwise([handles[i].result() for i in kept], [reference[i] for i in kept])


def test_a_prepared_round_is_stamped_with_its_cut_and_generation(zoo):
    session, _rec, _handles, _reference = capped_session(zoo, [0, 1, 2])
    runtime = session.engine.runtime
    cut = session._seq_ends[1]
    prepared = runtime.prepare_pending(limit=cut)
    assert runtime.prepared_matches(prepared, limit=cut)
    assert not runtime.prepared_matches(prepared)  # an uncapped flush cuts elsewhere
    # any withdrawal advances the generation, even one behind the cut
    runtime.drop_pending_slice(cut, session._seq_ends[2])
    assert not runtime.prepared_matches(prepared, limit=cut)
    assert not runtime.trigger(prepared=prepared, limit=cut)
