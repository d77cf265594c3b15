"""Whatever is a function of block structure is computed when the model is
compiled: once ``compile_model`` has returned, no launch looks an operator
up, adjusts an attribute or walks a block's consumer map again."""

import numpy as np

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

    # same-length prompts decode in lockstep: rounds repeat, so the
    # specializer promotes and then dispatches through frozen entries
    session = declm.serve("adaptive", clock=SimulatedClock())
    handles = GenerationSession(session, decl_module, decl_size).generate(requests)
    assert [h.result() for h in handles] == decl_reference
    spec = session.last_stats.specialize
    assert spec["promotions"] > 0 and spec["hits"] > 0
