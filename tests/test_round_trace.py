"""What a round did: the runtime's :class:`~repro.runtime.trace.RoundTrace`.

Every zoo model's run of one fixed batch (test size, four instances) has
its printed trace pinned under ``tests/golden/``: one line per sync round,
one per batch with its operand forms and charged launches.  Over the zoo ×
three schedulers × one device or two under ``round_robin``, the
``RunStats`` counters are the trace's folds: launch records are the
device's kernel launches, form counts are ``RunStats.memory``, executed
rows are the DFG nodes the program invoked; a repeated run records an
equal trace, and turning gather fusion off turns every ``fused_gather``
into a ``gather`` and changes no batch.

Regenerate after an intended change to scheduling, planning or the device
cost model:

    PYTHONPATH=src python tests/test_round_trace.py
"""

import functools
import os

import pytest

from repro import CompilerOptions, compile_model
from repro.models import MODEL_MODULES
from repro.runtime.executor import AcrobatRuntime
from repro.runtime.trace import RoundTrace

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REGENERATE = "PYTHONPATH=src python tests/test_round_trace.py"
SCHEDULERS = ("inline_depth", "dynamic_depth", "agenda")
DEVICES = ({}, {"device": 2, "placement": "round_robin"})


@functools.lru_cache(maxsize=None)
def compiled(name, gather_fusion=True):
    module = MODEL_MODULES[name]
    mod, params, size = module.build_for("test")
    model = compile_model(mod, params, CompilerOptions(gather_fusion=gather_fusion))
    return model, module.make_batch(mod, size, 4, seed=0)


def traced_run(name, scheduler=None, gather_fusion=True, **device):
    """One run of the model's fixed batch: its stats and its trace."""
    model, batch = compiled(name, gather_fusion)
    engine = model.make_engine(scheduler=scheduler, **device)
    _, stats = engine.run(batch)
    return stats, engine.runtime.trace


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"trace_{name}.txt")


def records(trace, kind):
    return [r for r in trace.records if r[0] == kind]


@pytest.mark.parametrize("name", sorted(MODEL_MODULES))
def test_trace_matches_golden(name):
    with open(golden_path(name)) as fh:
        golden = fh.read()
    assert str(traced_run(name)[1]) == golden, (
        f"the round trace of {name} changed; if intended, regenerate with: {REGENERATE}"
    )


@pytest.mark.parametrize("device", DEVICES, ids=["1dev", "2dev_round_robin"])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("name", sorted(MODEL_MODULES))
def test_run_stats_are_folds_of_the_trace(monkeypatch, name, scheduler, device):
    invoked = []
    real_invoke = AcrobatRuntime.invoke

    def invoke(self, block_id, depth, phase, args):
        invoked.append(block_id)
        return real_invoke(self, block_id, depth, phase, args)

    monkeypatch.setattr(AcrobatRuntime, "invoke", invoke)
    stats, trace = traced_run(name, scheduler, **device)
    monkeypatch.undo()

    assert len(records(trace, "launch")) == stats.device["num_kernel_launches"]
    forms = {form: 0 for form in stats.memory if form != "gather_segments"}
    for _, _k, _j, form, _segments in records(trace, "operand"):
        forms[form] += 1
    assert {**forms, "gather_segments": trace.counts()["gather_segments"]} == stats.memory
    rows = sum(r[5] for r in records(trace, "batch"))
    assert rows == stats.num_dfg_nodes == len(invoked)
    assert len(records(trace, "batch")) == stats.num_batches
    assert len(records(trace, "sync")) == stats.sync_rounds
    # every batch runs on a member of the group
    assert {r[6] for r in records(trace, "batch")} <= set(range(len(stats.per_device)))

    assert traced_run(name, scheduler, **device)[1] == trace


@pytest.mark.parametrize("placement", ["round_robin", "data_parallel"])
def test_each_members_counters_are_its_launch_records(placement):
    """Per member, the launch records of the batches placed on it count and
    sum to its ``per_device`` counters — a check the group fold cannot
    satisfy by construction (it only adds the members up)."""
    # imported here: the module also runs as the golden-regenerating script
    from tests.conftest import assert_members_match_trace

    model, batch = compiled("treelstm")
    engine = model.make_engine(device=2, placement=placement)
    for _ in range(2):  # the second data_parallel run splits on learned costs
        _, stats = engine.run(batch)
        assert_members_match_trace(engine.runtime.trace, stats)
        assert all(d["num_kernel_launches"] > 0 for d in stats.per_device)


@pytest.mark.parametrize("name", sorted(MODEL_MODULES))
def test_gather_fusion_off_turns_fused_gathers_into_gathers(name):
    _, fused = traced_run(name)
    _, explicit = traced_run(name, gather_fusion=False)
    assert records(explicit, "batch") == records(fused, "batch")
    assert records(explicit, "sync") == records(fused, "sync")
    assert records(explicit, "operand") == [
        (kind, k, j, "gather" if form == "fused_gather" else form, segments)
        for kind, k, j, form, segments in records(fused, "operand")
    ]


class TestRoundTrace:
    def test_host_time_stays_out_of_equality_and_text(self):
        a, b = RoundTrace(), RoundTrace()
        for trace, seconds in ((a, 0.5), (b, 2.0)):
            trace.sync(1)
            k = trace.batch("cell", 0, 3, 4, 0)
            trace.operand(k, 0, "fused_gather", 2)
            trace.operand(k, 1, "shared", 0)
            trace.operand(k, 2, "shared", 0)
            trace.launch(k, "dense", 5.25)
            trace.host_s["dispatch"] += seconds
        assert a == b and str(a) == str(b)
        assert str(a) == (
            "sync: 1 batch\n"
            "    0 cell p0 d3 rows=4 dev=0 | fused_gather/2 shared*2 | dense 5.250us\n"
        )
        b.launch(0, "dense", 5.25)
        assert a != b

    def test_counts_fold_every_record_kind(self):
        trace = RoundTrace()
        trace.sync(2)
        for rows in (4, 3):
            k = trace.batch("cell", 0, 0, rows, 1)
            trace.operand(k, 0, "contiguous", 0)
            trace.operand(k, 1, "gather", 3)
            trace.launch(k, "dense", 1.0)
            trace.launch(k, "add", 1.0)
        assert trace.counts() == {
            "sync": 1,
            "batch": 2,
            "rows": 7,
            "launch": 4,
            "gather_segments": 6,
            "contiguous": 2,
            "gather": 2,
        }

    def test_batches_are_numbered_across_sync_rounds(self):
        trace = RoundTrace()
        trace.sync(1)
        assert trace.batch("a", 0, 0, 1, 0) == 0
        trace.sync(1)
        assert trace.batch("a", 0, 1, 1, 0) == 1

    def test_runtime_replaces_its_trace_at_reset(self):
        model, batch = compiled("treelstm")
        engine = model.make_engine()
        engine.run(batch)
        first = engine.runtime.trace
        engine.run(batch)
        assert engine.runtime.trace is not first and engine.runtime.trace == first
        engine.runtime.reset()
        assert engine.runtime.trace == RoundTrace()


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for model_name in sorted(MODEL_MODULES):
        with open(golden_path(model_name), "w") as out:
            out.write(str(traced_run(model_name)[1]))
        print("wrote", golden_path(model_name))
