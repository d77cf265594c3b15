"""What the compiler emits for the unbatched program.

Golden sources pin the generated Python of the three models whose recursion
is a self tail call (emitted as a loop) and of TreeLSTM, whose child calls
are not in tail position (emitted as calls).  A profile of one long StackRNN
instance pins what the loop form is for: the generated frames entered per
fiber resume do not grow with the sequence.

Regenerate after an intended codegen change:

    PYTHONPATH=src python tests/test_codegen_golden.py
"""

import functools
import os
import sys

import pytest

from repro import compile_model
from repro.data.sequences import random_sequences
from repro.models import MODEL_MODULES

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REGENERATE = "PYTHONPATH=src python tests/test_codegen_golden.py"
#: model -> (``while True:`` loops, recursive self calls) in its source
GOLDEN_MODELS = {"stackrnn": (1, 0), "nestedrnn": (2, 0), "berxit": (1, 0), "treelstm": (0, 2)}


@functools.lru_cache(maxsize=None)
def generated_source(name):
    mod, params, _size = MODEL_MODULES[name].build_for("small")
    return compile_model(mod, params).source + "\n"


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.py.txt")


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_generated_source_matches_golden(name):
    with open(golden_path(name)) as fh:
        golden = fh.read()
    assert generated_source(name) == golden, (
        f"generated source of {name} changed; if intended, regenerate with: {REGENERATE}"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_tail_calls_are_loops_and_other_recursion_is_not(name):
    source = generated_source(name)
    loops, self_calls = GOLDEN_MODELS[name]
    assert source.count("while True:") == loops
    recursive = 0
    for chunk in source.split("\n\n\n"):
        header, body = chunk.split("\n", 1)
        fn = header[len("def "):header.index("(")]
        recursive += body.count(fn + "(")
    assert recursive == self_calls
    if name == "stackrnn":
        assert source.count("yield from") == 1  # main calling parse_step


@pytest.mark.parametrize("tokens", [50, 400])
def test_frames_entered_per_resume_do_not_grow_with_the_sequence(tokens):
    module = MODEL_MODULES["stackrnn"]
    mod, params, size = module.build_for("test")
    model = compile_model(mod, params)
    (sequence,) = random_sequences(1, size.embed, seed=3, lengths=[tokens])
    batch = [module.instance_input(mod, sequence)]
    model.run(batch)  # warm-up

    entered = {}

    def profile(frame, event, _arg):
        # "<module>" is the program's one instantiation for the run's engine
        code = frame.f_code
        if event == "call" and code.co_filename == "<acrobat-aot>" and code.co_name != "<module>":
            entered[code.co_name] = entered.get(code.co_name, 0) + 1

    sys.setprofile(profile)
    try:
        model.run(batch)
    finally:
        sys.setprofile(None)
    # the root generator is entered exactly once per resume of the fiber
    resumes = entered["__fn_main"]
    assert resumes > tokens  # at least one sync point per token
    assert sum(entered.values()) / resumes <= 2.0, entered  # main + parse_step


def test_depth_rebases_at_every_sync():
    """After a sync the depth counter restarts, so instances whose
    shift/reduce histories differ batch the same block together again:
    inline depth launches exactly as few batches as depths recomputed from
    the DFG (it launched 548.5 per run here before the rebase)."""
    from repro import CompilerOptions, reference_run
    from repro.utils import flatten_arrays

    module = MODEL_MODULES["stackrnn"]
    mod, params, size = module.build_for("test")
    batches = {}
    for scheduler in ("inline_depth", "dynamic_depth"):
        model = compile_model(mod, params, CompilerOptions(scheduler=scheduler))
        counts = []
        for seed in range(7000, 7004):
            batch = module.make_batch(mod, size, 16, seed=seed)
            outputs, stats = model.run(batch)
            counts.append(stats.num_batches)
            if scheduler == "inline_depth":
                for out, ref in zip(outputs, reference_run(mod, params, batch)):
                    for x, y in zip(flatten_arrays(out), flatten_arrays(ref)):
                        assert x.dtype == y.dtype and (x == y).all()
        batches[scheduler] = sum(counts) / len(counts)
    assert batches == {"inline_depth": 240.25, "dynamic_depth": 240.25}
    lines = [line.strip() for line in generated_source("stackrnn").split("\n")]
    syncs = [i for i, line in enumerate(lines) if line == "yield"]
    assert syncs and all(lines[i + 1] == "__depth[0] = 0" for i in syncs)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for model_name in sorted(GOLDEN_MODELS):
        with open(golden_path(model_name), "w") as out:
            out.write(generated_source(model_name))
        print("wrote", golden_path(model_name))
