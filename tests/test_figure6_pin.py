"""Figure 6's configurations compile to fixed programs.

Every zoo model is compiled at the ``test`` size under each of the six
cumulative levels of :meth:`CompilerOptions.ablation_levels` and under the
default options.  Each compile is reduced to one digest over what the
configuration decides: the generated unbatched program, every block's fused
kernel groups (kernel name, op list, horizontal or not) and batched launch
source, and the runtime options the model hands its engines.  A change to
how the options are spelled must leave every digest as it is.

Print the digests of the current tree with:

    PYTHONPATH=src python tests/test_figure6_pin.py
"""

import hashlib

import pytest

from repro import compile_model
from repro.compiler.options import CompilerOptions
from repro.models import MODEL_MODULES

#: (model, configuration) -> digest; configuration is a Figure 6 level or "default"
PINNED = {
    ('treelstm', 'No kernel fusion'): 'd3f36e820418f01f',
    ('treelstm', '+Std. kernel fusion'): '4fd0edb58360cb44',
    ('treelstm', '+Grain size coarsening'): '106f0fc1d4009b4a',
    ('treelstm', '+Inline depth computation'): '967e63e2b0d0841f',
    ('treelstm', '+Program phases/Ghost ops'): '1a6e0418bad653f9',
    ('treelstm', '+Gather op fusion'): 'a7c1a76f1c8583ee',
    ('treelstm', 'default'): 'a7c1a76f1c8583ee',
    ('mvrnn', 'No kernel fusion'): '125aa110ece4fd93',
    ('mvrnn', '+Std. kernel fusion'): '4167114ba15fabf0',
    ('mvrnn', '+Grain size coarsening'): 'f32f0a41a1518b15',
    ('mvrnn', '+Inline depth computation'): 'dc7877538c2c5200',
    ('mvrnn', '+Program phases/Ghost ops'): 'f1a94f2549ba60fc',
    ('mvrnn', '+Gather op fusion'): '4c280ebacf403992',
    ('mvrnn', 'default'): '4c280ebacf403992',
    ('birnn', 'No kernel fusion'): '9ddcf647d68307bb',
    ('birnn', '+Std. kernel fusion'): '3b8f671ed40c9d22',
    ('birnn', '+Grain size coarsening'): '7faab56256446a03',
    ('birnn', '+Inline depth computation'): 'f19c9e165d8a46c8',
    ('birnn', '+Program phases/Ghost ops'): 'e9089063ea7d1105',
    ('birnn', '+Gather op fusion'): '0a208f5c8a209026',
    ('birnn', 'default'): '0a208f5c8a209026',
    ('nestedrnn', 'No kernel fusion'): '597e266da1a1f5df',
    ('nestedrnn', '+Std. kernel fusion'): '5eac59abcf602623',
    ('nestedrnn', '+Grain size coarsening'): '02c67a7066974be9',
    ('nestedrnn', '+Inline depth computation'): '4972bab29e7c48e4',
    ('nestedrnn', '+Program phases/Ghost ops'): 'd22b52a4da35fcbf',
    ('nestedrnn', '+Gather op fusion'): 'e54a01530f3f3edc',
    ('nestedrnn', 'default'): 'e54a01530f3f3edc',
    ('drnn', 'No kernel fusion'): 'cbd86945c7f262e2',
    ('drnn', '+Std. kernel fusion'): '03c680244a47368c',
    ('drnn', '+Grain size coarsening'): '286029cfcb3e3ce2',
    ('drnn', '+Inline depth computation'): 'e8523f7c8b449aea',
    ('drnn', '+Program phases/Ghost ops'): 'e8523f7c8b449aea',
    ('drnn', '+Gather op fusion'): 'a753644d176b475a',
    ('drnn', 'default'): 'a753644d176b475a',
    ('berxit', 'No kernel fusion'): 'a87fa75eb3eef40a',
    ('berxit', '+Std. kernel fusion'): 'ff602280c91cdd06',
    ('berxit', '+Grain size coarsening'): 'bdbd581537f884cd',
    ('berxit', '+Inline depth computation'): '55d9905392fd4d15',
    ('berxit', '+Program phases/Ghost ops'): '9b32cf500b59a93d',
    ('berxit', '+Gather op fusion'): '9561525c1cb91616',
    ('berxit', 'default'): '9561525c1cb91616',
    ('stackrnn', 'No kernel fusion'): '1b6ddfaf8acc4ca3',
    ('stackrnn', '+Std. kernel fusion'): '399347d57619b5b9',
    ('stackrnn', '+Grain size coarsening'): '65c70e79d256b978',
    ('stackrnn', '+Inline depth computation'): 'a4293a24164aeb27',
    ('stackrnn', '+Program phases/Ghost ops'): '515afdf41f820120',
    ('stackrnn', '+Gather op fusion'): 'f94877010fd217a7',
    ('stackrnn', 'default'): 'f94877010fd217a7',
    ('declm', 'No kernel fusion'): '212fb4869c0f3b46',
    ('declm', '+Std. kernel fusion'): '2d55c117634f7468',
    ('declm', '+Grain size coarsening'): '90fb2304d90ff5e8',
    ('declm', '+Inline depth computation'): '7f6004c4f0fec903',
    ('declm', '+Program phases/Ghost ops'): '7f6004c4f0fec903',
    ('declm', '+Gather op fusion'): 'bfc013b8f79a6c41',
    ('declm', 'default'): 'bfc013b8f79a6c41',
    ('declm_gru', 'No kernel fusion'): '2b00ee3616619856',
    ('declm_gru', '+Std. kernel fusion'): '3ae8f4dce5f51eed',
    ('declm_gru', '+Grain size coarsening'): '4ea35cfec90a2fca',
    ('declm_gru', '+Inline depth computation'): '4f75030a0ad397ff',
    ('declm_gru', '+Program phases/Ghost ops'): '4f75030a0ad397ff',
    ('declm_gru', '+Gather op fusion'): '8746bde4d9bb4943',
    ('declm_gru', 'default'): '8746bde4d9bb4943',
}


def configurations():
    return CompilerOptions.ablation_levels() + [("default", CompilerOptions())]


def compile_digest(model, options):
    mod, params, _size = MODEL_MODULES[model].build_for("test")
    compiled = compile_model(mod, params, options)
    parts = [compiled.source]
    for block_id in sorted(compiled.kernels):
        kernel = compiled.kernels[block_id]
        block = kernel.block
        parts.append(f"block {block_id} {kernel.name}")
        for name, group in zip(kernel.kernel_names(), kernel.groups):
            ops = [block.ops[j].op_name for j in group.op_indices]
            parts.append(f"  {name} horizontal={group.horizontal} ops={ops}")
        parts.append(kernel.source)
    exec_options = compiled._exec_options()
    parts.append(
        f"scheduler={exec_options.scheduler} gather_fusion={exec_options.gather_fusion} "
        f"batch_memcpy={exec_options.batch_memcpy} validate={exec_options.validate}"
    )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


CASES = [(model, label) for model in MODEL_MODULES for label, _ in configurations()]


@pytest.mark.parametrize("model,label", CASES)
def test_configuration_compiles_to_the_pinned_program(model, label):
    options = dict(configurations())[label]
    assert compile_digest(model, options) == PINNED[(model, label)]


if __name__ == "__main__":
    for model in MODEL_MODULES:
        for label, options in configurations():
            print(f"    ({model!r}, {label!r}): {compile_digest(model, options)!r},")
