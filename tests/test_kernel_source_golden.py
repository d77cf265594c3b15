"""What the compiler emits for a static block's batched launch.

Each zoo model's largest block (most ops, then lowest block id) has its
generated ``kernel.source`` pinned under ``tests/golden/``: the operand
prologue (ready array, index gather, host parts), one line per op with its
attributes spelled out, the record-cache lookup, and the release of the
launch's values newest first.

Regenerate after an intended change to the launch generator:

    PYTHONPATH=src python tests/test_kernel_source_golden.py
"""

import ast
import functools
import os

import pytest

from repro import compile_model
from repro.models import MODEL_MODULES

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REGENERATE = "PYTHONPATH=src python tests/test_kernel_source_golden.py"


@functools.lru_cache(maxsize=None)
def compiled(name):
    mod, params, _size = MODEL_MODULES[name].build_for("small")
    return compile_model(mod, params)


def largest_kernel(name):
    kernels = compiled(name).kernels.values()
    return min(kernels, key=lambda k: (-len(k.block.ops), k.block.block_id))


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"kernel_{name}.py.txt")


@pytest.mark.parametrize("name", sorted(MODEL_MODULES))
def test_launch_source_matches_golden(name):
    with open(golden_path(name)) as fh:
        golden = fh.read()
    assert largest_kernel(name).source == golden, (
        f"launch source of {name}'s largest block changed; if intended, "
        f"regenerate with: {REGENERATE}"
    )


def assigned_values(statements):
    """Value locals (``v<slot>``) in the order the statements first assign
    them, branches included."""
    order = []
    for statement in statements:
        if isinstance(statement, ast.Assign):
            order += [t.id for t in statement.targets if t.id.startswith("v")]
        elif isinstance(statement, ast.If):
            order += assigned_values(statement.body) + assigned_values(statement.orelse)
    return list(dict.fromkeys(order))


@pytest.mark.parametrize("name", sorted(MODEL_MODULES))
def test_every_launch_is_straight_line_python_3_9(name):
    """The oldest Python CI runs parses every block's launch; no launch
    loops (one statement per value, branching only on an operand's form);
    and it releases its values newest first, the order glibc reuses."""
    for kernel in compiled(name).kernels.values():
        tree = ast.parse(kernel.source, feature_version=(3, 9))
        (launch,) = tree.body
        assert launch.name == "launch"
        assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(tree))
        release = launch.body[-2]
        assert isinstance(release, ast.Delete)
        assert [t.id for t in release.targets] == assigned_values(launch.body)[::-1]
        assert kernel.launch.__code__.co_filename == f"<kernel {kernel.name}>"


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for model_name in sorted(MODEL_MODULES):
        with open(golden_path(model_name), "w") as out:
            out.write(largest_kernel(model_name).source)
        print("wrote", golden_path(model_name))
