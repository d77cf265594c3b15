"""Shared fixtures for the test-suite."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.ir import (  # noqa: E402
    ScopeBuilder,
    call,
    ctor,
    function,
    match,
    op,
    pat_ctor,
    prelude_module,
    var,
)


def build_listing1_rnn(hidden: int = 8, classes: int = 4):
    """The paper's Listing-1 RNN, used as a small end-to-end fixture."""
    mod = prelude_module()
    nil, cons = mod.get_constructor("Nil"), mod.get_constructor("Cons")
    rnn_gv = mod.get_global_var("rnn")

    inps, state, bias, i_wt, h_wt = (
        var("inps"), var("state"), var("bias"), var("i_wt"), var("h_wt"),
    )
    inp, tail = var("inp"), var("tail")
    sb = ScopeBuilder()
    inp_linear = sb.let("inp_linear", op.add(bias, op.dense(inp, i_wt)))
    new_state = sb.let("new_state", op.sigmoid(op.add(inp_linear, op.dense(state, h_wt))))
    sb.ret(ctor(cons, new_state, call(rnn_gv, tail, new_state, bias, i_wt, h_wt)))
    body = match(inps, [(pat_ctor(nil), ctor(nil)), (pat_ctor(cons, inp, tail), sb.get())])
    mod.add_function("rnn", function([inps, state, bias, i_wt, h_wt], body, name="rnn"))

    rnn_bias, rnn_i, rnn_h, rnn_init = var("rnn_bias"), var("rnn_i_wt"), var("rnn_h_wt"), var("rnn_init")
    c_wt, c_bias, m_inps = var("c_wt"), var("c_bias"), var("inps")
    p = var("p")
    out_fn = function([p], op.relu(op.add(c_bias, op.dense(p, c_wt))))
    msb = ScopeBuilder()
    rnn_res = msb.let("rnn_res", call(rnn_gv, m_inps, rnn_init, rnn_bias, rnn_i, rnn_h))
    msb.ret(call(mod.get_global_var("map"), out_fn, rnn_res))
    mod.add_function(
        "main",
        function([rnn_bias, rnn_i, rnn_h, rnn_init, c_wt, c_bias, m_inps], msb.get(), name="main"),
    )

    rng = np.random.default_rng(0)
    params = {
        "rnn_bias": rng.standard_normal((1, hidden)).astype(np.float32) * 0.1,
        "rnn_i_wt": rng.standard_normal((hidden, hidden)).astype(np.float32) * 0.1,
        "rnn_h_wt": rng.standard_normal((hidden, hidden)).astype(np.float32) * 0.1,
        "rnn_init": np.zeros((1, hidden), dtype=np.float32),
        "c_wt": rng.standard_normal((hidden, classes)).astype(np.float32) * 0.1,
        "c_bias": np.zeros((1, classes), dtype=np.float32),
    }
    return mod, params


def rnn_instances(mod, hidden: int, lengths, seed: int = 1):
    rng = np.random.default_rng(seed)
    return [
        mod.make_list(
            [rng.standard_normal((1, hidden)).astype(np.float32) * 0.1 for _ in range(n)]
        )
        for n in lengths
    ]


def one_endpoint(model, policy="adaptive", *, scheduler=None, server_args=None, **policy_args):
    """A simulated-clock server whose one endpoint ``"m"`` serves ``model``:
    how a single-session trace replays (``Server.replay``)."""
    from repro.serve import Server, SimulatedClock

    server = Server(clock=SimulatedClock(), **(server_args or {}))
    server.add_endpoint("m", model, policy=policy, scheduler=scheduler, **policy_args)
    return server


def trace_of(arrivals, requests, endpoint="m"):
    """A single-endpoint trace: one ``(arrival, endpoint, request)`` item per
    request."""
    return [(t, endpoint, request) for t, request in zip(arrivals, requests)]


def assert_members_match_trace(trace, stats):
    """Each group member's charged kernel launches, counted and summed
    independently from the trace's ``launch`` records on the batches placed
    on it, equal that member's ``per_device`` counters (and so, through
    the fold, the group totals)."""
    placed = {r[1]: r[6] for r in trace.records if r[0] == "batch"}
    counts = [0] * len(stats.per_device)
    micros = [0.0] * len(stats.per_device)
    for r in trace.records:
        if r[0] == "launch":
            counts[placed[r[1]]] += 1
            micros[placed[r[1]]] += r[3]
    assert counts == [d["num_kernel_launches"] for d in stats.per_device]
    assert micros == pytest.approx([d["kernel_time_us"] for d in stats.per_device])


@pytest.fixture(scope="session")
def rnn_module_and_params():
    return build_listing1_rnn()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
