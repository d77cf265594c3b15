"""What the compiler emits for a static block's batched launch.

Each zoo model's largest block (most ops, then lowest block id) has its
generated ``kernel.source`` pinned under ``tests/golden/``: the operand
prologue (ready array, index gather, host parts), the record-cache key and
lookup, one line per op with its attributes spelled out, each followed by
the ``del`` of the values it read last (newest first) and, on a cache miss,
the capture of its result's ``(shape, dtype)``.  Every block of every model
is checked for that liveness: a value the launch does not return is dropped
right after its last read, once, and never read again.

Regenerate after an intended change to the launch generator:

    PYTHONPATH=src python tests/test_kernel_source_golden.py
"""

import ast
import functools
import os
import re

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


#: a value local of a launch: an input or an op result
VALUE = re.compile(r"v\d+")


def assigned_values(statements):
    """Value locals (``v<slot>``) in the order the statements first assign
    them, branches included."""
    order = []
    for statement in statements:
        if isinstance(statement, ast.Assign):
            names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
            order += [n for n in names if VALUE.fullmatch(n)]
        elif isinstance(statement, ast.If):
            order += assigned_values(statement.body) + assigned_values(statement.orelse)
    return list(dict.fromkeys(order))


def values_read(statement):
    """Value locals ``statement`` reads, branches included."""
    return {
        node.id
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and VALUE.fullmatch(node.id)
    }


@pytest.mark.parametrize("name", sorted(MODEL_MODULES))
def test_every_launch_is_straight_line_python_3_9(name):
    """The oldest Python CI runs parses every block's launch; no launch
    loops (one statement per value, branching only on an operand's form);
    and it holds only its working set: every value it does not return is
    deleted exactly once, in the statement right after its last read, and
    never read after; returned values are never deleted; and one ``del``
    drops its values newest first, the order glibc reuses."""
    for kernel in compiled(name).kernels.values():
        tree = ast.parse(kernel.source, feature_version=(3, 9))
        (launch,) = tree.body
        assert launch.name == "launch"
        assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(tree))
        assert isinstance(launch.body[-1], ast.Return)
        order = assigned_values(launch.body)
        returned = values_read(launch.body[-1])
        deleted_at, last_read = {}, {}
        for at, statement in enumerate(launch.body):
            for value in values_read(statement):
                assert value not in deleted_at, f"{kernel.name}: {value} read after its del"
                last_read[value] = at
            if isinstance(statement, ast.Delete):
                dropped = [t.id for t in statement.targets]
                assert dropped == sorted(dropped, key=order.index, reverse=True)
                for value in dropped:
                    assert value not in deleted_at, f"{kernel.name}: {value} deleted twice"
                    deleted_at[value] = at
        for value in order:
            if value in returned:
                assert value not in deleted_at, f"{kernel.name}: returned {value} deleted"
            else:
                assert deleted_at.get(value) == last_read[value] + 1, (
                    f"{kernel.name}: {value} not deleted right after its last read"
                )
        assert kernel.launch.__code__.co_filename == f"<kernel {kernel.name}>"


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for model_name in sorted(MODEL_MODULES):
        with open(golden_path(model_name), "w") as out:
            out.write(largest_kernel(model_name).source)
        print("wrote", golden_path(model_name))
