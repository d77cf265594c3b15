"""Whatever is a function of block structure is computed when the model is
compiled: once ``compile_model`` has returned, no launch looks an operator
up, adjusts an attribute or walks a block's consumer map again."""

import numpy as np
import pytest

import repro.kernels
from repro import CompilerOptions, compile_model, reference_run
from repro.generate import GenerationRequest, GenerationSession, reference_generate
from repro.kernels import StaticBlock
from repro.models import MODEL_MODULES
from repro.serve import SimulatedClock
from repro.utils import values_allclose


def exact_equal(a, b):
    return values_allclose(a, b, atol=0, rtol=0)


def _setup(name, batch=6, seed=5):
    module = MODEL_MODULES[name]
    mod, params, size = module.build_for("test")
    instances = module.make_batch(mod, size, batch, seed=seed)
    reference = reference_run(mod, params, instances)
    compiled = compile_model(mod, params, CompilerOptions())
    return module, mod, params, size, instances, reference, compiled


def test_no_static_work_on_the_launch_path(monkeypatch):
    tree = _setup("treelstm")
    stack = _setup("stackrnn")
    decl_module, decl_mod, decl_params, decl_size, _, _, declm = _setup("declm")
    rng = np.random.default_rng(2)
    requests = [
        GenerationRequest(
            [int(t) for t in rng.integers(0, decl_size.classes, 2)],
            max_new_tokens=8,
            arrival=0.0,
        )
        for _ in range(4)
    ]
    decl_reference = [
        reference_generate(
            decl_mod, decl_params, decl_module, decl_size, r.prompt, r.max_new_tokens
        )
        for r in requests
    ]

    def static_work(*args, **kwargs):
        raise AssertionError("static fact re-derived on the launch path")

    monkeypatch.setattr(StaticBlock, "consumers", static_work)
    monkeypatch.setattr(StaticBlock, "op_is_output", static_work)
    monkeypatch.setattr(repro.kernels.batched, "_adjust_attrs", static_work)
    # every module binds get_op by name at import: patch each binding
    for module in (
        repro.kernels.registry, repro.kernels.batched, repro.kernels.fusion, repro.kernels,
    ):
        monkeypatch.setattr(module, "get_op", static_work)

    for _, _, _, _, instances, reference, compiled in (tree, stack):
        outputs, _ = compiled.run(instances)
        assert all(exact_equal(r, o) for r, o in zip(reference, outputs))

    _, _, _, _, instances, reference, compiled = tree
    session = compiled.serve("size", n=len(instances))
    handles = [session.submit(i) for i in instances]
    assert all(exact_equal(r, h.result()) for r, h in zip(reference, handles))

    # same-length prompts decode in lockstep: rounds repeat
    session = declm.serve("adaptive", clock=SimulatedClock())
    handles = GenerationSession(session, decl_module, decl_size).generate(requests)
    assert [h.result() for h in handles] == decl_reference


def test_missized_operand_raises_the_batch_dimension_error(monkeypatch):
    """Every operand form the planner resolves — a ready array, an index
    gather's segments, host parts — is checked against the batch size by
    the block program, with one error naming the block and the input."""
    from repro.kernels import BatchedOperand, BlockKernel

    _, _, _, _, instances, _, compiled = _setup("treelstm", batch=4, seed=3)
    session = compiled.session(flush_policy="size", flush_args={"n": len(instances)})
    launched = []
    real = BlockKernel.execute_batched
    monkeypatch.setattr(
        BlockKernel,
        "execute_batched",
        lambda kernel, operands, batch_size: (
            launched.append((kernel, list(operands), batch_size)),
            real(kernel, operands, batch_size),
        )[1],
    )
    for i in instances:
        session.submit(i)
    session.flush()
    monkeypatch.undo()
    checked = 0
    forms = set()
    for kernel, operands, batch_size in launched:
        if batch_size < 2:
            continue
        for inp in kernel.block.inputs:
            if inp.shared:
                continue
            op = operands[inp.index]
            if op.array is not None:
                short = BatchedOperand.batched(op.array[:-1])
                forms.add("array")
            elif op.parts is not None:
                short = BatchedOperand(
                    shared=False, parts=op.parts[:-1], scattered=op.scattered
                )
                forms.add("parts")
            else:
                # the index form names its instances per source arena: drop
                # the batch's last row from whichever segment has it
                last = batch_size - 1
                segments = [
                    (arena, None, offsets[:-1])
                    if positions is None
                    else (arena, positions[positions != last], offsets[positions != last])
                    for arena, positions, offsets in op.segments
                ]
                short = BatchedOperand(
                    shared=False, segments=segments, scattered=op.scattered
                )
                forms.add("segments")
            bad = operands[: inp.index] + [short] + operands[inp.index + 1:]
            expected = f"block {kernel.name}: varying input {inp.name} got"
            with pytest.raises(ValueError, match=expected):
                kernel.execute_batched(bad, batch_size)
            checked += 1
    assert checked > 0
    # the count check guards the index form as it guards the parts form
    assert {"segments", "parts"} <= forms
