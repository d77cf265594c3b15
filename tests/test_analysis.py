"""Tests for the static analyses: taint/parameter reuse, hoisting, recursion,
tensor-dependent control flow, program phases and code duplication."""

import numpy as np
import pytest

from repro import CompilerOptions, compile_model, reference_run
from repro.analysis import (
    analyze_taint,
    concurrent_groups,
    hoistable_bindings,
    infer_phases,
    reachable_functions,
    recursive_functions,
    specialize_functions,
    uses_tensor_dependent_control_flow,
)
from repro.ir import (
    Call,
    GlobalVar,
    ScopeBuilder,
    call,
    function,
    if_else,
    iter_let_chain,
    match,
    op,
    pat_ctor,
    prelude_module,
    var,
)
from repro.ir.visitor import collect
from repro.models import berxit, birnn, drnn, mvrnn, nestedrnn, stackrnn, treelstm
from tests.conftest import build_listing1_rnn


@pytest.fixture(scope="module")
def rnn_setup():
    mod, params = build_listing1_rnn()
    instance_params = ["inps"]
    taint = analyze_taint(mod, instance_params)
    return mod, params, taint


class TestTaint:
    def test_weights_are_invariant(self, rnn_setup):
        mod, params, taint = rnn_setup
        main = mod.main
        for p in main.params:
            if p.name_hint in params:
                assert taint.is_invariant(p), p.name_hint
            else:
                assert taint.is_tainted(p), p.name_hint

    def test_rnn_state_becomes_tainted(self, rnn_setup):
        mod, _, taint = rnn_setup
        rnn = mod.functions["rnn"]
        names = {p.name_hint: taint.is_tainted(p) for p in rnn.params}
        assert names["inps"] and names["state"]
        assert not names["bias"] and not names["i_wt"] and not names["h_wt"]

    def test_reachability(self, rnn_setup):
        mod, _, taint = rnn_setup
        assert {"main", "rnn"} <= taint.reachable

    def test_control_dependent_state_is_tainted(self):
        # NestedRNN: state values diverge across instances only because the
        # number of iterations differs (implicit flow through the match/if)
        mod, params, _ = nestedrnn.build_for("test")
        taint = analyze_taint(mod, ["segs"])
        inner = mod.functions["inner_rnn"]
        istate = [p for p in inner.params if p.name_hint == "istate"][0]
        assert taint.is_tainted(istate)

    def test_treelstm_weights_shared(self):
        mod, params, _ = treelstm.build_for("test")
        taint = analyze_taint(mod, ["tree"])
        cell = mod.functions["treelstm_cell"]
        flags = {p.name_hint: taint.is_tainted(p) for p in cell.params}
        assert flags["tree"]
        assert not flags["i_l_wt"] and not flags["leaf_wt"]

    def test_closure_capturing_per_instance_value_is_tainted(self):
        # let a = tanh(x); let k = fn(p) => p + a; k(w): the argument is a
        # shared weight, but the result varies with the captured ``a``
        mod = prelude_module()
        w, x, p = var("w"), var("x"), var("p")
        sb = ScopeBuilder()
        a = sb.let("a", op.tanh(x))
        k = sb.let("k", function([p], op.add(p, a)))
        applied = call(k, w)
        r = sb.let("r", applied)
        sb.ret(op.relu(r))
        mod.add_function("main", function([w, x], sb.get(), name="main"))

        taint = analyze_taint(mod, ["x"])
        assert taint.is_tainted(applied) and taint.is_tainted(r)

        # end to end: instance 1 must not be handed instance 0's ``r``
        rng = np.random.default_rng(0)
        params = {"w": rng.standard_normal((1, 4)).astype(np.float32)}
        batch = [{"x": rng.standard_normal((1, 4)).astype(np.float32)} for _ in range(2)]
        outputs, _ = compile_model(mod, params, CompilerOptions()).run(batch)
        reference = reference_run(mod, params, batch)
        assert not np.array_equal(reference[0], reference[1])
        for out, ref in zip(outputs, reference):
            assert np.array_equal(out, ref)

    def test_closure_over_shared_values_stays_invariant(self):
        mod = prelude_module()
        w, b, x, p = var("w"), var("b"), var("x"), var("p")
        sb = ScopeBuilder()
        k = sb.let("k", function([p], op.add(p, b)))
        applied = call(k, w)
        r = sb.let("r", applied)
        sb.ret(op.add(r, x))
        mod.add_function("main", function([w, b, x], sb.get(), name="main"))
        taint = analyze_taint(mod, ["x"])
        assert taint.is_invariant(applied)

    def test_parameter_rebound_by_recursion_is_tainted(self):
        # f(xs, b, w) = match xs { Nil => b, Cons(c, rest) => f(rest, tanh(b + b), w) }:
        # no instance input reaches b, but each level binds it anew, and rows
        # of different levels batch together; w is forwarded unchanged
        mod = prelude_module()
        nil, cons = mod.get_constructor("Nil"), mod.get_constructor("Cons")
        f_gv = mod.get_global_var("f")
        xs, b, w, c, rest = var("xs"), var("b"), var("w"), var("c"), var("rest")
        step = call(f_gv, rest, op.tanh(op.add(b, b)), w)
        body = match(xs, [(pat_ctor(nil), b), (pat_ctor(cons, c, rest), step)])
        mod.add_function("f", function([xs, b, w], body, name="f"))
        m_xs, m_b, m_w = var("xs"), var("init_b"), var("w")
        mod.add_function(
            "main", function([m_xs, m_b, m_w], call(f_gv, m_xs, m_b, m_w), name="main")
        )
        taint = analyze_taint(mod, ["xs"])
        assert taint.is_tainted(b) and taint.is_invariant(w)


class TestStructure:
    def test_recursive_functions(self, rnn_setup):
        mod, _, _ = rnn_setup
        rec = recursive_functions(mod)
        assert "rnn" in rec and "main" not in rec

    def test_reachable_functions_order(self, rnn_setup):
        mod, _, _ = rnn_setup
        reach = reachable_functions(mod)
        assert reach[0] == "main" and "rnn" in reach

    def test_hoisting_finds_input_transformation(self, rnn_setup):
        mod, _, _ = rnn_setup
        rnn = mod.functions["rnn"]
        hoisted = hoistable_bindings("rnn", rnn, mod)
        assert len(hoisted) >= 1
        bindings, _ = iter_let_chain(rnn.body.clauses[1].body)
        by_name = {v.name_hint: value for v, value in bindings}
        assert id(by_name["inp_linear"]) in hoisted
        assert id(by_name["new_state"]) not in hoisted

    def test_non_recursive_function_hoists_nothing(self, rnn_setup):
        mod, _, _ = rnn_setup
        assert hoistable_bindings("main", mod.main, mod) == set()

    def test_treelstm_node_ops_not_hoisted(self):
        mod, _, _ = treelstm.build_for("test")
        cell = mod.functions["treelstm_cell"]
        hoisted = hoistable_bindings("treelstm_cell", cell, mod)
        node_clause = cell.body.clauses[1].body
        bindings, _ = iter_let_chain(node_clause)
        gate_ops = [value for v, value in bindings if v.name_hint == "i"]
        assert gate_ops and all(id(g) not in hoisted for g in gate_ops)

    def test_recursion_through_another_function_hoists_nothing(self):
        # f(xs, a): s = tanh(a) reads only ``a``, which every *self* call
        # passes through unchanged -- but f -> g -> f hands back ``s``
        mod = prelude_module()
        nil, cons = mod.get_constructor("Nil"), mod.get_constructor("Cons")
        f_gv, g_gv = mod.get_global_var("f"), mod.get_global_var("g")

        def f_body(through_g):
            xs, a, n, c, rest = var("xs"), var("a"), var("n"), var("c"), var("rest")
            sb = ScopeBuilder()
            s = sb.let("s", op.tanh(a))
            other = call(g_gv, rest, s, n) if through_g else s
            sb.ret(if_else(op.scalar_gt(n, 0), call(f_gv, rest, a, n), other))
            body = match(xs, [(pat_ctor(nil), a), (pat_ctor(cons, c, rest), sb.get())])
            return function([xs, a, n], body, name="f"), s

        g_xs, g_a, g_n = var("xs"), var("a"), var("n")
        mod.add_function("g", function([g_xs, g_a, g_n], call(f_gv, g_xs, g_a, g_n), name="g"))

        self_only, s = f_body(through_g=False)
        mod.add_function("f", self_only)
        bindings = dict(iter_let_chain(self_only.body.clauses[1].body)[0])
        assert hoistable_bindings("f", self_only, mod) == {id(bindings[s])}

        mutual, _ = f_body(through_g=True)
        mod.functions["f"] = mutual
        assert hoistable_bindings("f", mutual, mod) == set()

    @pytest.mark.parametrize(
        "model,expected",
        [
            (treelstm, False),
            (mvrnn, False),
            (birnn, False),
            (nestedrnn, True),
            (drnn, True),
            (berxit, True),
            (stackrnn, True),
        ],
    )
    def test_tdc_detection(self, model, expected):
        mod, _, _ = model.build_for("test")
        assert uses_tensor_dependent_control_flow(mod) is expected

    def test_concurrent_groups_found(self):
        mod, _, _ = treelstm.build_for("test")
        groups = concurrent_groups(mod.functions["treelstm_cell"])
        assert len(groups) == 1
        assert len(next(iter(groups.values()))) == 2


class TestPhases:
    def test_rnn_output_stage_is_second_phase(self, rnn_setup):
        mod, _, _ = rnn_setup
        phases = infer_phases(mod)
        assert phases.num_phases >= 2
        assert phases.result_phase >= 1

    def test_phases_disabled_collapse_to_zero(self, rnn_setup):
        mod, _, _ = rnn_setup
        phases = infer_phases(mod, enabled=False)
        assert phases.num_phases == 1 and phases.result_phase == 0

    def test_birnn_forward_backward_share_phase(self):
        mod, _, _ = birnn.build_for("test")
        spec = specialize_functions(mod)
        phases = infer_phases(spec)
        main = spec.main
        bindings, _ = iter_let_chain(main.body)
        by_name = {v.name_hint: phases.phase_of(value) for v, value in bindings}
        assert by_name["f_states"] == by_name["b_states_rev"] == 0
        assert phases.result_phase > 0


class TestDuplication:
    def test_birnn_rnn_is_specialized_per_weight_binding(self):
        mod, _, _ = birnn.build_for("test")
        spec = specialize_functions(mod)
        rnn_like = [n for n in spec.functions if n.startswith("rnn")]
        assert len(rnn_like) == 2  # forward + backward copies
        calls = [
            c
            for c in collect(spec.main.body, lambda e: isinstance(e, Call))
            if isinstance(c.op, GlobalVar) and c.op.name.startswith("rnn")
        ]
        assert len({c.op.name for c in calls}) == 2

    def test_single_context_functions_are_not_duplicated(self):
        mod, _, _ = treelstm.build_for("test")
        spec = specialize_functions(mod)
        assert set(spec.functions) == set(mod.functions)

    def test_specialized_copy_calls_itself(self):
        mod, _, _ = birnn.build_for("test")
        spec = specialize_functions(mod)
        copy_name = [n for n in spec.functions if n.startswith("rnn$")][0]
        body_calls = collect(
            spec.functions[copy_name].body,
            lambda e: isinstance(e, Call) and isinstance(e.op, GlobalVar),
        )
        assert any(c.op.name == copy_name for c in body_calls)
        assert all(c.op.name != "rnn" for c in body_calls)
