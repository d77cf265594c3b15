"""Random tail-recursive IR functions through every backend.

A self tail call compiles to a loop (``compiler/codegen.py``).  Strategies
here draw the body of a small recursive function ``f(xs, a, b, w, n)`` — the
tail call under nested ``If`` / ``Match`` / ``Let``, arguments that swap
``a`` and ``b``, ``w`` passed through unchanged, a closure in the body, a tail
call to another function, a sync point before the call or none — and check

* ``compile_model`` (fiber mode when the body has a sync point, plain mode
  otherwise) against ``VMModel`` and ``reference_run``, bitwise;
* the ``(phase, depth, block_id)`` of every invocation against the same
  function with each self tail call hidden behind an identity ``Let``
  (``let r = f(..) in r`` is not in tail position, so it compiles to the
  recursive form): an oracle that needs no second code path in ``src/``.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro import CompilerOptions, compile_model, reference_run
from repro.ir import (
    ScopeBuilder,
    call,
    function,
    if_else,
    match,
    op,
    pat_ctor,
    prelude_module,
    var,
)
from repro.ir.expr import Let
from repro.utils import flatten_arrays

H = 4
N0 = 3

# -- the drawn shape of f's step (the Cons arm of its match on xs) -------------
picks = st.integers(0, 7)  # an index into the tensor values in scope
self_calls = st.tuples(st.just("self"), picks, picks, st.booleans())  # f(rest, A, B, w, n[-1])
leaves = st.one_of(
    self_calls,
    self_calls,  # twice: drawn twice as often
    st.tuples(st.just("other"), picks, picks),  # g(rest, A, B, w, n)
    st.tuples(st.just("value"), picks),
)


def interior(children):
    sync = st.tuples(st.just("if_sync"), children, children)
    return st.one_of(
        sync,
        st.tuples(st.just("let"), st.sampled_from(["tanh_add", "dense", "relu"]), picks, picks, children),
        st.tuples(st.just("if_host"), st.integers(0, N0), children, children),
        sync,
        st.tuples(st.just("match_rest"), children, children),
        st.tuples(st.just("closure"), picks, children),
    )


steps = st.recursive(leaves, interior, max_leaves=6)
instances = st.lists(
    st.lists(st.sampled_from([0.0, 1.0]), min_size=0, max_size=6), min_size=1, max_size=3
)


def has(spec, kind):
    return spec[0] == kind or any(has(s, kind) for s in spec if isinstance(s, tuple))


def build(step, base_pick, hide_tail):
    """The module for one drawn step; ``hide_tail`` wraps every self tail
    call in an identity ``Let``."""
    mod = prelude_module()
    nil, cons = mod.get_constructor("Nil"), mod.get_constructor("Cons")
    f_gv, g_gv = mod.get_global_var("f"), mod.get_global_var("g")

    xs, a, b, w, n = var("xs"), var("a"), var("b"), var("w"), var("n")
    c, rest = var("c"), var("rest")

    def emit(spec, env, c, rest):
        kind = spec[0]

        def pick(i):
            return env[i % len(env)]

        if kind == "self":
            n_next = op.scalar_sub(n, 1) if spec[3] else n
            tail = call(f_gv, rest, pick(spec[1]), pick(spec[2]), w, n_next)
            if hide_tail:
                r = var("r")
                return Let(r, tail, r)
            return tail
        if kind == "other":
            return call(g_gv, rest, pick(spec[1]), pick(spec[2]), w, n)
        if kind == "value":
            return pick(spec[1])
        sb = ScopeBuilder()
        if kind == "let":
            x, y = pick(spec[2]), pick(spec[3])
            value = {
                "tanh_add": lambda: op.tanh(op.add(x, y)),
                "dense": lambda: op.sigmoid(op.dense(x, w)),
                "relu": lambda: op.relu(x),
            }[spec[1]]()
            s = sb.let("s", value)
            sb.ret(emit(spec[4], env + [s], c, rest))
        elif kind == "if_host":
            sb.ret(
                if_else(
                    op.scalar_gt(n, spec[1]),
                    emit(spec[2], env, c, rest),
                    emit(spec[3], env, c, rest),
                )
            )
        elif kind == "if_sync":
            flag = sb.let("flag", op.item(c))
            sb.ret(
                if_else(
                    op.scalar_gt(flag, 0.5),
                    emit(spec[1], env, c, rest),
                    emit(spec[2], env, c, rest),
                )
            )
        elif kind == "match_rest":
            c2, rest2 = var("c2"), var("rest2")
            sb.ret(
                match(
                    rest,
                    [
                        (pat_ctor(nil), emit(spec[1], env, c, rest)),
                        (pat_ctor(cons, c2, rest2), emit(spec[2], env, c2, rest2)),
                    ],
                )
            )
        else:  # a closure over a value in scope, applied once
            p = var("p")
            k = sb.let("k", function([p], op.tanh(op.add(p, pick(spec[1])))))
            s = sb.let("s", call(k, env[-1]))
            sb.ret(emit(spec[2], env + [s], c, rest))
        return sb.get()

    body = match(
        xs,
        [
            (pat_ctor(nil), [a, b][base_pick]),
            (pat_ctor(cons, c, rest), emit(step, [a, b], c, rest)),
        ],
    )
    mod.add_function("f", function([xs, a, b, w, n], body, name="f"))

    # the other function: a tail call back into f with a and b swapped
    g_xs, g_a, g_b, g_w, g_n = var("xs"), var("a"), var("b"), var("w"), var("n")
    mod.add_function(
        "g",
        function([g_xs, g_a, g_b, g_w, g_n], call(f_gv, g_xs, g_b, g_a, g_w, g_n), name="g"),
    )

    m_w, m_b, m_x, m_xs = var("w"), var("init_b"), var("x"), var("xs")
    msb = ScopeBuilder()
    res = msb.let("res", call(f_gv, m_xs, m_x, m_b, m_w, N0))
    msb.ret(op.relu(res))
    mod.add_function("main", function([m_w, m_b, m_x, m_xs], msb.get(), name="main"))

    rng = np.random.default_rng(0)
    params = {
        "w": (rng.standard_normal((H, H)) * 0.5).astype(np.float32),
        "init_b": (rng.standard_normal((1, H)) * 0.5).astype(np.float32),
    }
    return mod, params


def make_batch(mod, coin_lists):
    rng = np.random.default_rng(1)
    return [
        {
            "x": rng.standard_normal((1, H)).astype(np.float32),
            "xs": mod.make_list([np.full((1, 1), coin, dtype=np.float32) for coin in coins]),
        }
        for coins in coin_lists
    ]


def run_recorded(model, batch):
    """Outputs plus the ``(phase, depth, block_id)`` of every ``invoke``, in
    the order the runtime saw them."""
    engine = model.make_engine()
    runtime, seen = engine.runtime, []
    invoke = runtime.invoke

    def recording_invoke(block_id, depth, phase, args):
        seen.append((phase, depth, block_id))
        return invoke(block_id, depth, phase, args)

    runtime.invoke = recording_invoke
    outputs, _stats = engine.run(batch)
    return outputs, seen


def assert_bitwise(actual, expected):
    for out, ref in zip(actual, expected):
        xs, ys = flatten_arrays(out), flatten_arrays(ref)
        assert len(xs) == len(ys)
        for x, y in zip(xs, ys):
            assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


def f_source(model):
    (chunk,) = [s for s in model.source.split("\n\n\n") if s.startswith("def __fn_f(")]
    return chunk


@settings(max_examples=150, deadline=None)
@given(step=steps, base_pick=st.integers(0, 1), coin_lists=instances)
# found by this test, all in the analyses: an operator hoisted to depth 0
# although f -> g -> f hands it a computed value, a closure's captured
# per-instance value read as batch-invariant, and a parameter that f -> g -> f
# rebinds to a computed value (or to a swapped one) marked shared
@example(
    step=("let", "tanh_add", 1, 1, ("if_sync", ("other", 1, 0), ("other", 2, 0))),
    base_pick=1,
    coin_lists=[[0.0, 0.0], [1.0, 0.0]],
)
@example(
    step=("match_rest", ("self", 0, 0, False), ("let", "tanh_add", 0, 0, ("other", 0, 2))),
    base_pick=0,
    coin_lists=[[0.0, 0.0, 0.0, 0.0]],
)
@example(
    step=("closure", 0, ("closure", 1, ("other", 3, 0))),
    base_pick=1,
    coin_lists=[[0.0, 0.0], [0.0, 0.0]],
)
def test_loop_form_is_the_recursive_form(step, base_pick, coin_lists):
    mod, params = build(step, base_pick, hide_tail=False)
    hidden_mod, _ = build(step, base_pick, hide_tail=True)
    batch, hidden_batch = make_batch(mod, coin_lists), make_batch(hidden_mod, coin_lists)

    looped = compile_model(mod, params, CompilerOptions())
    hidden = compile_model(hidden_mod, params, CompilerOptions())
    assert looped.uses_tdc == hidden.uses_tdc == has(step, "if_sync")

    # a loop exactly when there is a self tail call and no closure to outlive it
    wants_loop = has(step, "self") and not has(step, "closure")
    assert ("while True:" in f_source(looped)) == wants_loop
    if has(step, "self") and has(step, "closure"):
        assert "__fn_f(" in f_source(looped).split("\n", 1)[1]  # still a call
    assert "while True:" not in hidden.source

    reference = reference_run(mod, params, batch)
    outputs, seen = run_recorded(looped, batch)
    hidden_outputs, hidden_seen = run_recorded(hidden, hidden_batch)
    assert_bitwise(outputs, reference)
    assert_bitwise(hidden_outputs, reference)
    assert seen == hidden_seen

    # per instance too (a fiber batch interleaves its instances)
    for i in range(len(batch)):
        _, alone = run_recorded(looped, batch[i:i + 1])
        _, hidden_alone = run_recorded(hidden, hidden_batch[i:i + 1])
        assert alone == hidden_alone

    vm = compile_model(mod, params, CompilerOptions(aot=False))
    vm_outputs, _ = vm.run(batch)
    assert_bitwise(vm_outputs, reference)


def test_swapped_arguments_rebind_simultaneously():
    """``f(rest, b, a, ..)``: assigning the parameters one after the other
    would hand both the same value."""
    step = ("let", "tanh_add", 0, 1, ("self", 1, 0, False))
    mod, params = build(step, 0, hide_tail=False)
    model = compile_model(mod, params, CompilerOptions())
    assert "xs, a, b = rest, b, a" in f_source(model)
    batch = make_batch(mod, [[1.0, 0.0, 1.0], [1.0]])
    outputs, _ = model.run(batch)
    assert_bitwise(outputs, reference_run(mod, params, batch))


def test_unchanged_parameters_are_not_reassigned():
    step = ("self", 0, 1, False)  # f(rest, a, b, w, n): only xs moves
    mod, params = build(step, 1, hide_tail=False)
    model = compile_model(mod, params, CompilerOptions())
    assert "            xs = rest\n            continue" in f_source(model)
