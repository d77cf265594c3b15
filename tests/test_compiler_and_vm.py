"""Tests for compiler options, code generation, the compiled-model driver and
the Relay-VM interpreter baseline."""

import numpy as np
import pytest

from repro import CompilerOptions, compile_model, reference_run
from repro.compiler import compile_module, py_func_name
from repro.utils import values_allclose
from repro.vm import Interpreter, VMModel
from tests.conftest import build_listing1_rnn, rnn_instances

HIDDEN = 8
LENGTHS = (3, 5, 2, 4)


@pytest.fixture(scope="module")
def rnn_compiled():
    mod, params = build_listing1_rnn(HIDDEN)
    instances = rnn_instances(mod, HIDDEN, LENGTHS)
    compiled = compile_module(mod, params, CompilerOptions(validate=True))
    reference = reference_run(mod, params, instances)
    return mod, params, instances, compiled, reference


class TestCompilerOptions:
    def test_ablation_levels_are_cumulative(self):
        levels = CompilerOptions.ablation_levels()
        assert len(levels) == 6
        names = [n for n, _ in levels]
        assert names[0] == "No kernel fusion" and names[-1] == "+Gather op fusion"
        assert not levels[0][1].kernel_fusion
        assert levels[-1][1].gather_fusion and levels[-1][1].inline_depth

    def test_all_off_is_still_aot(self):
        assert CompilerOptions.all_off().aot


class TestCodegen:
    def test_generated_source_structure(self, rnn_compiled):
        _, _, _, compiled, _ = rnn_compiled
        src = compiled.source
        assert f"def {py_func_name('main')}(" in src
        assert f"def {py_func_name('rnn')}(" in src
        assert "__rt.invoke(" in src
        assert "__depth[0] += 1" in src

    def test_hoisted_block_uses_static_depth_zero(self, rnn_compiled):
        _, _, _, compiled, _ = rnn_compiled
        # the hoisted input transformation is invoked at literal depth 0
        assert "__rt.invoke(" in compiled.source
        hoisted_lines = [
            line
            for line in compiled.source.splitlines()
            if "__rt.invoke(" in line and ", 0, __phase" in line
        ]
        assert hoisted_lines, "expected at least one hoisted invocation at static depth 0"

    def test_phase_update_emitted_in_main(self, rnn_compiled):
        _, _, _, compiled, _ = rnn_compiled
        assert "__phase = 1" in compiled.source

    def test_no_phase_update_when_disabled(self):
        mod, params = build_listing1_rnn(HIDDEN)
        compiled = compile_module(mod, params, CompilerOptions(program_phases=False))
        assert "__phase = 1" not in compiled.source

    def test_coarsening_reduces_block_count(self):
        mod, params = build_listing1_rnn(HIDDEN)
        coarse = compile_module(mod, params, CompilerOptions())
        fine = compile_module(mod, params, CompilerOptions(grain_size_coarsening=False))
        assert len(coarse.kernels) <= len(fine.kernels)

    def test_tdc_models_generate_generators(self):
        from repro.models import drnn

        mod, params, _ = drnn.build_for("test")
        compiled = compile_module(mod, params, CompilerOptions())
        assert compiled.uses_tdc
        assert "yield" in compiled.source
        assert "__fibers.spawn(" in compiled.source

    def test_non_tdc_models_have_no_yields(self, rnn_compiled):
        _, _, _, compiled, _ = rnn_compiled
        assert not compiled.uses_tdc
        assert "yield" not in compiled.source

    def test_kernel_names_exposed(self, rnn_compiled):
        _, _, _, compiled, _ = rnn_compiled
        names = compiled.kernel_names()
        assert names and any("dense" in n for n in names)

    @pytest.mark.parametrize("acc_len", [0, 1, 2])
    def test_direct_rev_append_keeps_its_accumulator(self, acc_len):
        """``rev_append(xs, acc)`` is ``reverse(xs)`` in front of ``acc``; a
        direct call used to compile to ``reverse(xs)`` alone."""
        from repro.ir import ScopeBuilder, call, function, match, op, pat_ctor, prelude_module, var

        mod = prelude_module()
        nil, cons = mod.get_constructor("Nil"), mod.get_constructor("Cons")
        xs, acc, z = var("xs"), var("acc"), var("z")
        first, rest, second, tail = var("first"), var("rest"), var("second"), var("tail")
        sb = ScopeBuilder()
        out = sb.let("out", call(mod.get_global_var("rev_append"), xs, acc))
        # the second element of the result, or z when there is none
        sb.ret(
            match(
                out,
                [
                    (pat_ctor(nil), z),
                    (
                        pat_ctor(cons, first, rest),
                        match(
                            rest,
                            [
                                (pat_ctor(nil), z),
                                (pat_ctor(cons, second, tail), op.relu(second)),
                            ],
                        ),
                    ),
                ],
            )
        )
        mod.add_function("main", function([z, xs, acc], sb.get(), name="main"))
        params = {"z": np.zeros((1, 2), np.float32)}

        def row(v):
            return np.full((1, 2), v, np.float32)

        batch = [
            {"xs": mod.make_list([row(1.0)]), "acc": mod.make_list([row(2.0 + k) for k in range(acc_len)])},
            {"xs": mod.make_list([row(3.0), row(4.0)]), "acc": mod.make_list([row(5.0)] * acc_len)},
        ]
        reference = reference_run(mod, params, batch)
        assert np.array_equal(reference[0], row(2.0) if acc_len else params["z"])
        for options in (CompilerOptions(), CompilerOptions(aot=False)):
            outputs, _ = compile_model(mod, params, options).run(batch)
            for out, ref in zip(outputs, reference):
                assert out.dtype == ref.dtype and np.array_equal(out, ref)


class TestCompiledModelDriver:
    def test_outputs_match_reference(self, rnn_compiled):
        mod, _, instances, compiled, reference = rnn_compiled
        outs, stats = compiled.run(instances)
        for r, o in zip(reference, outs):
            assert values_allclose(mod.from_list(r), mod.from_list(o))
        assert stats.batch_size == len(instances)

    def test_missing_weight_binding_raises(self):
        mod, params = build_listing1_rnn(HIDDEN)
        everything = dict(params)
        # bind every parameter -> no per-instance input left
        everything["inps"] = np.zeros((1, HIDDEN), np.float32)
        with pytest.raises(ValueError):
            compile_module(mod, everything, CompilerOptions())

    def test_instance_mapping_by_name(self, rnn_compiled):
        mod, params, instances, compiled, reference = rnn_compiled
        outs, _ = compiled.run([{"inps": instances[0]}])
        assert values_allclose(mod.from_list(reference[0]), mod.from_list(outs[0]))

    def test_stats_have_host_and_device_breakdown(self, rnn_compiled):
        _, _, instances, compiled, _ = rnn_compiled
        _, stats = compiled.run(instances)
        assert set(stats.host_ms) == {
            "dfg_construction",
            "scheduling",
            "memory_planning",
            "dispatch",
            "materialize",
        }
        assert stats.device["num_kernel_launches"] > 0
        assert stats.latency_ms >= stats.device_total_ms

    def test_run_is_repeatable(self, rnn_compiled):
        mod, _, instances, compiled, _ = rnn_compiled
        out1, _ = compiled.run(instances)
        out2, _ = compiled.run(instances)
        for a, b in zip(out1, out2):
            assert values_allclose(mod.from_list(a), mod.from_list(b))

    @pytest.mark.parametrize(
        "options",
        [
            CompilerOptions.all_off(),
            CompilerOptions(kernel_fusion=False),
            CompilerOptions(grain_size_coarsening=False),
            CompilerOptions(inline_depth=False),
            CompilerOptions(program_phases=False),
            CompilerOptions(gather_fusion=False),
        ],
    )
    def test_every_option_combination_is_numerically_correct(self, options):
        mod, params = build_listing1_rnn(HIDDEN)
        instances = rnn_instances(mod, HIDDEN, LENGTHS)
        reference = reference_run(mod, params, instances)
        compiled = compile_module(mod, params, options)
        outs, _ = compiled.run(instances)
        for r, o in zip(reference, outs):
            assert values_allclose(mod.from_list(r), mod.from_list(o))

    def test_batch_of_one(self, rnn_compiled):
        mod, _, instances, compiled, reference = rnn_compiled
        outs, stats = compiled.run(instances[:1])
        assert values_allclose(mod.from_list(reference[0]), mod.from_list(outs[0]))
        assert stats.batch_size == 1


class TestVM:
    def test_eager_interpreter_matches_itself_across_modes(self, rnn_compiled):
        mod, params, instances, _, reference = rnn_compiled
        vm = VMModel(module=mod, params=params)
        outs, stats = vm.run(instances)
        for r, o in zip(reference, outs):
            assert values_allclose(mod.from_list(r), mod.from_list(o))
        assert stats.kernel_calls > 0

    def test_vm_is_slower_than_aot(self, rnn_compiled):
        mod, params, instances, compiled, _ = rnn_compiled
        vm = VMModel(module=mod, params=params)
        _, vm_stats = vm.run(instances)
        _, aot_stats = compiled.run(instances)
        assert vm_stats.latency_ms > aot_stats.latency_ms

    def test_unbatched_vm_launches_more_kernels(self, rnn_compiled):
        mod, params, instances, _, _ = rnn_compiled
        batched = VMModel(module=mod, params=params)
        unbatched = VMModel(module=mod, params=params, batching=False)
        _, b_stats = batched.run(instances)
        _, u_stats = unbatched.run(instances)
        assert u_stats.kernel_calls > b_stats.kernel_calls

    def test_interpreter_rejects_bad_mode(self, rnn_compiled):
        mod, _, _, _, _ = rnn_compiled
        with pytest.raises(ValueError):
            Interpreter(mod, mode="jit")

    def test_compile_model_dispatches_on_aot_flag(self, rnn_compiled):
        mod, params, _, _, _ = rnn_compiled
        assert isinstance(compile_model(mod, params, CompilerOptions(aot=False)), VMModel)
