"""Tests for static blocks, kernel fusion and batched execution, including
property-based checks that batched execution matches the unbatched reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompilerOptions, compile_model
from repro.kernels import (
    BatchedOperand,
    BlockInput,
    BlockKernel,
    BlockOp,
    StaticBlock,
    const_ref,
    fuse_block,
    fused_kernel_name,
    input_ref,
    op_ref,
    single_op_block,
)
from repro.kernels import registry
from repro.kernels.batched import LaunchRecord, index_gather
from repro.memory import StorageArena
from repro.kernels.registry import get_op
from repro.models import MODEL_MODULES


def rnn_cell_block(shared_weights=True):
    """sigmoid(bias + dense(x, w) + dense(h, u)) with two outputs."""
    return StaticBlock(
        block_id=0,
        name="cell",
        inputs=[
            BlockInput(0, "x"),
            BlockInput(1, "h"),
            BlockInput(2, "w", shared=shared_weights),
            BlockInput(3, "u", shared=shared_weights),
            BlockInput(4, "b", shared=shared_weights),
        ],
        ops=[
            BlockOp(0, "dense", [input_ref(0), input_ref(2)]),
            BlockOp(1, "dense", [input_ref(1), input_ref(3)]),
            BlockOp(2, "add", [op_ref(0), op_ref(1)]),
            BlockOp(3, "bias_add", [op_ref(2), input_ref(4)]),
            BlockOp(4, "sigmoid", [op_ref(3)]),
            BlockOp(5, "tanh", [op_ref(3)]),
        ],
        outputs=[op_ref(4), op_ref(5)],
    )


class TestStaticBlock:
    def test_validate_accepts_wellformed(self):
        rnn_cell_block().validate()

    def test_validate_rejects_forward_reference(self):
        block = StaticBlock(
            0, "bad", [BlockInput(0, "x")],
            [BlockOp(0, "relu", [op_ref(1)]), BlockOp(1, "relu", [input_ref(0)])],
            [op_ref(1)],
        )
        with pytest.raises(ValueError):
            block.validate()

    def test_validate_rejects_bad_input_index(self):
        block = StaticBlock(
            0, "bad", [BlockInput(0, "x")], [BlockOp(0, "relu", [input_ref(3)])], [op_ref(0)]
        )
        with pytest.raises(ValueError):
            block.validate()

    def test_consumers_and_output_flags(self):
        block = rnn_cell_block()
        consumers = block.consumers()
        assert consumers[0] == [2] and consumers[3] == [4, 5]
        assert block.op_is_output(4) and not block.op_is_output(2)

    def test_shared_mask(self):
        assert rnn_cell_block().shared_mask() == [False, False, True, True, True]

    def test_single_op_block(self):
        blk = single_op_block(3, "relu", 1)
        blk.validate()
        assert blk.num_outputs == 1 and blk.ops[0].op_name == "relu"


class TestFusion:
    def test_elementwise_ops_fuse_into_producer(self):
        groups = fuse_block(rnn_cell_block())
        assert len(groups) < 6  # strictly fewer kernels than operators

    def test_fusion_disabled_gives_one_group_per_op(self):
        groups = fuse_block(rnn_cell_block(), enable_standard=False, enable_horizontal=False)
        assert len(groups) == 6
        assert all(g.size == 1 for g in groups)

    def test_groups_partition_all_ops(self):
        block = rnn_cell_block()
        groups = fuse_block(block)
        covered = sorted(j for g in groups for j in g.op_indices)
        assert covered == list(range(len(block.ops)))

    def test_group_order_is_topological(self):
        block = rnn_cell_block()
        groups = fuse_block(block)
        position = {}
        for rank, g in enumerate(groups):
            for j in g.op_indices:
                position[j] = rank
        for bop in block.ops:
            for dep in bop.op_indices():
                assert position[dep] <= position[bop.index]

    def test_horizontal_fusion_merges_shared_arg_denses(self):
        block = StaticBlock(
            0, "gates",
            [BlockInput(0, "x"), BlockInput(1, "w1", shared=True), BlockInput(2, "w2", shared=True)],
            [
                BlockOp(0, "dense", [input_ref(0), input_ref(1)]),
                BlockOp(1, "dense", [input_ref(0), input_ref(2)]),
            ],
            [op_ref(0), op_ref(1)],
        )
        groups = fuse_block(block)
        assert len(groups) == 1 and groups[0].horizontal

    def test_fused_kernel_name(self):
        block = rnn_cell_block()
        groups = fuse_block(block, enable_standard=False, enable_horizontal=False)
        assert fused_kernel_name(block, groups[0]) == "dense"


class TestBatchedExecution:
    def _args(self, batch, hidden=6, rng=None):
        rng = rng or np.random.default_rng(0)
        xs = [rng.standard_normal((1, hidden)).astype(np.float32) for _ in range(batch)]
        hs = [rng.standard_normal((1, hidden)).astype(np.float32) for _ in range(batch)]
        w = rng.standard_normal((hidden, hidden)).astype(np.float32)
        u = rng.standard_normal((hidden, hidden)).astype(np.float32)
        b = rng.standard_normal((1, hidden)).astype(np.float32)
        return xs, hs, w, u, b

    def test_batched_matches_unbatched_reference(self):
        kernel = BlockKernel(rnn_cell_block())
        xs, hs, w, u, b = self._args(5)
        outs, _ = kernel.execute_batched([xs, hs, w, u, b], 5)
        for i in range(5):
            ref = kernel.execute_single([xs[i], hs[i], w, u, b])
            np.testing.assert_allclose(outs[0][i], ref[0], atol=1e-5)
            np.testing.assert_allclose(outs[1][i], ref[1], atol=1e-5)

    def test_fusion_does_not_change_numerics(self):
        xs, hs, w, u, b = self._args(4)
        fused = BlockKernel(rnn_cell_block(), enable_fusion=True)
        unfused = BlockKernel(rnn_cell_block(), enable_fusion=False, enable_horizontal_fusion=False)
        out_f, _ = fused.execute_batched([xs, hs, w, u, b], 4)
        out_u, _ = unfused.execute_batched([xs, hs, w, u, b], 4)
        np.testing.assert_allclose(out_f[0][2], out_u[0][2], atol=1e-6)

    def test_launch_records_count_matches_groups(self):
        kernel = BlockKernel(rnn_cell_block(), enable_fusion=False, enable_horizontal_fusion=False)
        xs, hs, w, u, b = self._args(3)
        _, launches = kernel.execute_batched([xs, hs, w, u, b], 3)
        assert len(launches) == kernel.num_launches == 6

    def test_launch_records_account_scattered_bytes(self):
        kernel = BlockKernel(rnn_cell_block())
        xs, hs, w, u, b = self._args(3)
        _, launches = kernel.execute_batched(
            [BatchedOperand.scattered_parts(xs), hs, w, u, b], 3
        )
        assert sum(rec.scattered_bytes for rec in launches) > 0

    def test_contiguous_operand_view_is_not_copied(self, monkeypatch):
        kernel = BlockKernel(rnn_cell_block())
        xs, hs, w, u, b = self._args(3)
        stacked = np.stack(xs, axis=0)
        real_stack, stack_calls = np.stack, []
        monkeypatch.setattr(
            np, "stack", lambda *a, **k: (stack_calls.append(1), real_stack(*a, **k))[1]
        )
        outs, _ = kernel.execute_batched(
            [BatchedOperand.batched(stacked), hs, w, u, b], 3
        )
        # the pre-batched operand is consumed as-is: the only stack performed
        # is for the legacy list-valued hs input, none for the batched view
        assert len(stack_calls) == 1
        for i in range(3):
            ref = kernel.execute_single([xs[i], hs[i], w, u, b])
            np.testing.assert_allclose(outs[0][i], ref[0], atol=1e-5)

    def test_wrong_varying_length_raises(self):
        kernel = BlockKernel(rnn_cell_block())
        xs, hs, w, u, b = self._args(3)
        with pytest.raises(ValueError):
            kernel.execute_batched([xs[:2], hs, w, u, b], 3)

    def test_shared_output_is_replicated(self):
        block = single_op_block(0, "zeros", 0, attrs={"shape": (1, 4)})
        kernel = BlockKernel(block)
        outs, _ = kernel.execute_batched([], 3)
        assert len(outs[0]) == 3
        assert outs[0][0] is outs[0][1]  # same constant reused across the batch

    def test_concat_with_shared_operand_broadcasts(self):
        block = StaticBlock(
            0, "cat",
            [BlockInput(0, "x"), BlockInput(1, "e", shared=True)],
            [BlockOp(0, "concat", [input_ref(0), input_ref(1)], {"axis": 1})],
            [op_ref(0)],
        )
        kernel = BlockKernel(block)
        xs = [np.ones((1, 2), np.float32) * i for i in range(3)]
        e = np.zeros((1, 3), np.float32)
        outs, _ = kernel.execute_batched([xs, e], 3)
        assert outs[0][0].shape == (1, 5)

    def test_axis_attrs_shift_for_batched_args(self):
        block = single_op_block(0, "softmax", 1, attrs={"axis": 1})
        kernel = BlockKernel(block)
        xs = [np.random.default_rng(i).standard_normal((1, 4)).astype(np.float32) for i in range(3)]
        outs, _ = kernel.execute_batched([xs], 3)
        for i, x in enumerate(xs):
            ref = kernel.execute_single([x])[0]
            np.testing.assert_allclose(outs[0][i], ref, atol=1e-6)


class TestBatchedProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=7),
        hidden=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_batched_equals_reference_for_any_batch_and_width(self, batch, hidden, seed):
        rng = np.random.default_rng(seed)
        kernel = BlockKernel(rnn_cell_block())
        xs, hs, w, u, b = (
            [rng.standard_normal((1, hidden)).astype(np.float32) for _ in range(batch)],
            [rng.standard_normal((1, hidden)).astype(np.float32) for _ in range(batch)],
            rng.standard_normal((hidden, hidden)).astype(np.float32),
            rng.standard_normal((hidden, hidden)).astype(np.float32),
            rng.standard_normal((1, hidden)).astype(np.float32),
        )
        outs, _ = kernel.execute_batched([xs, hs, w, u, b], batch)
        for i in range(batch):
            ref = kernel.execute_single([xs[i], hs[i], w, u, b])
            np.testing.assert_allclose(outs[0][i], ref[0], atol=1e-4)
            np.testing.assert_allclose(outs[1][i], ref[1], atol=1e-4)

    @settings(max_examples=20, deadline=None)
    @given(
        op_name=st.sampled_from(["relu", "sigmoid", "tanh", "exp", "neg"]),
        batch=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_single_op_blocks_batch_correctly(self, op_name, batch, seed):
        rng = np.random.default_rng(seed)
        kernel = BlockKernel(single_op_block(0, op_name, 1))
        xs = [rng.standard_normal((2, 3)).astype(np.float32) for _ in range(batch)]
        outs, _ = kernel.execute_batched([xs], batch)
        for i in range(batch):
            np.testing.assert_allclose(outs[0][i], kernel.execute_single([xs[i]])[0], atol=1e-5)


# ---------------------------------------------------------------------------
# block programs against an independent accounting oracle
# ---------------------------------------------------------------------------


def instance_arrays(op):
    """The per-instance arrays of a gathered operand, realized one arena view
    at a time — what the kernel-side gather must be equal to a stack of."""
    if op.parts is not None:
        return list(op.parts)
    rows = [None] * op.num_instances()
    for arena, positions, offsets in op.segments:
        where = range(len(offsets)) if positions is None else positions
        for position, offset in zip(where, offsets):
            rows[int(position)] = arena.view(int(offset))
    return rows


def naive_launch_records(kernel, operands, batch_size):
    """The per-launch accounting loop ``execute_batched`` ran before blocks
    were compiled into programs, kept as a deliberately naive reference: it
    re-derives every static fact per op per launch and measures every byte
    from the arrays it just computed."""
    block = kernel.block
    group_of_op = {j: g.group_id for g in kernel.groups for j in g.op_indices}
    values, scattered = {}, {}
    for inp in block.inputs:
        op = operands[inp.index]
        if inp.shared:
            values[("input", inp.index)] = (np.asarray(op.array), False)
            continue
        stacked = op.array if op.array is not None else np.stack(instance_arrays(op), axis=0)
        scattered[inp.index] = op.scattered
        values[("input", inp.index)] = (np.asarray(stacked), True)

    launches = []
    for group in kernel.groups:
        flops = bytes_read = bytes_written = scattered_bytes = 0.0
        external_reads = set()
        for j in group.op_indices:
            bop = block.ops[j]
            opdef = get_op(bop.op_name)
            arg_vals = []
            for kind, ref in bop.args:
                if kind == "const":
                    arg_vals.append((np.asarray(ref), False))
                    continue
                arg_vals.append(values[(kind, ref)])
                external = kind == "input" or group_of_op[ref] != group.group_id
                if external and (kind, ref) not in external_reads:
                    external_reads.add((kind, ref))
                    nbytes = float(arg_vals[-1][0].nbytes)
                    bytes_read += nbytes
                    if kind == "input" and scattered.get(ref):
                        scattered_bytes += nbytes
            any_batched = any(b for _, b in arg_vals)
            attrs = dict(bop.attrs)
            arrays = [a for a, _ in arg_vals]
            if any_batched:
                if bop.op_name in ("concat", "softmax", "argmax", "sum", "mean"):
                    axis = attrs.get("axis", -1)
                    if isinstance(axis, int) and axis >= 0:
                        attrs["axis"] = axis + 1
                elif bop.op_name == "transpose":
                    attrs["axes"] = [0] + [a + 1 for a in attrs["axes"]]
                if bop.op_name == "concat":
                    arrays = [
                        a if b else np.broadcast_to(a, (batch_size,) + a.shape)
                        for a, b in arg_vals
                    ]
                if bop.op_name == "reshape":
                    attrs["newshape"] = [batch_size] + list(attrs["newshape"])
            if bop.op_name == "take_row" and any_batched:
                result = arrays[0][:, int(attrs["index"])]
            else:
                batched_fn = any_batched and opdef.batched is not None
                result = (opdef.batched if batched_fn else opdef.compute)(*arrays, **attrs)
            values[("op", j)] = (np.asarray(result), any_batched)
            shapes = [a.shape[1:] if b else a.shape for a, b in arg_vals]
            flops += opdef.estimate_flops(shapes, bop.attrs) * (batch_size if any_batched else 1)
        for j in group.op_indices:
            if block.op_is_output(j) or any(
                group_of_op[c] != group.group_id for c in block.consumers()[j]
            ):
                bytes_written += float(values[("op", j)][0].nbytes)
        launches.append(
            LaunchRecord(
                kernel_name=kernel.group_names[group.group_id],
                batch_size=batch_size,
                flops=flops,
                bytes_read=bytes_read,
                bytes_written=bytes_written,
                scattered_bytes=scattered_bytes,
            )
        )
    return launches


def _indexed(parts):
    """The instances laid out in two storage arenas — the even ones in
    reverse order, then the odd ones — and delivered as the segments of an
    index gather fused into the kernel."""
    n = len(parts)
    segments = []
    for members in (list(range(0, n, 2))[::-1], list(range(1, n, 2))):
        if members:
            arena = StorageArena.from_batched(np.stack([parts[i] for i in members], axis=0))
            positions = None if n == 1 else np.array(members, dtype=np.intp)
            segments.append((arena, positions, np.arange(len(members), dtype=np.intp)))
    return BatchedOperand(shared=False, segments=segments, scattered=True)


#: how a varying operand reaches the kernel: a contiguous array, the host
#: parts of an explicit gather, the scattered host parts of a gather fused
#: into the kernel, a fused index gather over storage arenas
DELIVERIES = {
    "contiguous": lambda parts: BatchedOperand.batched(np.stack(parts, axis=0)),
    "gather": lambda parts: BatchedOperand(shared=False, parts=list(parts)),
    "fused": BatchedOperand.scattered_parts,
    "indexed": _indexed,
}


def check_against_oracle(kernel, per_instance, batch_size, delivery):
    """``per_instance[i]`` is the shared array of input ``i`` or its list of
    ``batch_size`` per-instance arrays.  Records must equal the naive loop's
    field for field (``==`` on floats), outputs the per-instance reference
    bit for bit."""
    operands = [
        BatchedOperand.shared_value(per_instance[inp.index])
        if inp.shared
        else DELIVERIES[delivery](per_instance[inp.index])
        for inp in kernel.block.inputs
    ]
    outputs, launches = kernel.execute_batched(operands, batch_size)
    assert launches == naive_launch_records(kernel, operands, batch_size)
    for rec in launches:
        costs = (rec.flops, rec.bytes_read, rec.bytes_written, rec.scattered_bytes)
        assert all(type(v) is float for v in costs)
    for b in range(batch_size):
        single = kernel.execute_single(
            [
                per_instance[inp.index] if inp.shared else per_instance[inp.index][b]
                for inp in kernel.block.inputs
            ]
        )
        for out, ref in zip(outputs, single):
            assert out[b].dtype == ref.dtype and np.array_equal(out[b], ref)


def _random_like(rng, shape, dtype):
    if np.issubdtype(dtype, np.floating):
        return rng.standard_normal(shape).astype(dtype)
    return rng.integers(0, 3, shape).astype(dtype)


@pytest.fixture(scope="module")
def model_block_operands():
    """Every static block of every registered model with the per-instance
    operand shapes a real run feeds it: ``(kernel, shared arrays, varying
    (shape, dtype))`` per input."""
    seen = {}
    real = BlockKernel.execute_batched

    def recording(self, args, batch_size):
        if self not in seen:
            example = []
            for inp in self.block.inputs:
                op = args[inp.index]
                if inp.shared:
                    example.append(np.asarray(op.array))
                    continue
                first = op.array[0] if op.array is not None else instance_arrays(op)[0]
                example.append((first.shape, first.dtype))
            seen[self] = example
        return real(self, args, batch_size)

    cases = []
    BlockKernel.execute_batched = recording
    try:
        for name, module in MODEL_MODULES.items():
            mod, params, size = module.build_for("test")
            compiled = compile_model(mod, params, CompilerOptions())
            compiled.run(module.make_batch(mod, size, 8, seed=1))
            for kernel in compiled.kernels.values():
                example = seen.get(kernel)
                if example is None:
                    # a block the batch never reached (stackrnn's empty-parse
                    # case) reads model parameters only
                    assert all(inp.shared for inp in kernel.block.inputs), kernel.name
                    example = [np.asarray(params[inp.name]) for inp in kernel.block.inputs]
                cases.append((f"{name}/{kernel.name}", kernel, example))
    finally:
        BlockKernel.execute_batched = real
    return cases


#: the weight of the ``dense`` steps below (a block constant); its tile is 16
#: rows, so 2-row instances fall short of a tile (B <= 5), across one with a
#: ragged tail (9), and exactly on a boundary (16)
_DENSE_WEIGHT = np.linspace(-1.0, 1.0, 12, dtype=np.float32).reshape(3, 4)


class TestBlockProgram:
    @pytest.mark.parametrize("tile", [None, 2, 4, 16])
    @pytest.mark.parametrize("delivery", list(DELIVERIES))
    @pytest.mark.parametrize("batch_size", [1, 2, 7, 64])
    def test_every_model_block_matches_the_oracle(
        self, model_block_operands, batch_size, delivery, tile, monkeypatch
    ):
        """``tile`` overrides the row tile of ``dense`` (None: the table's
        choice): batched == unbatched has to hold for any tile, with the
        launch records — shape-derived, pad rows uncharged — unmoved."""
        if tile is not None:
            monkeypatch.setattr(registry, "dense_tile", lambda k, n: tile)
        rng = np.random.default_rng(batch_size)
        assert len(model_block_operands) >= 20
        for _label, kernel, example in model_block_operands:
            per_instance = [
                e
                if isinstance(e, np.ndarray)
                else [_random_like(rng, *e) for _ in range(batch_size)]
                for e in example
            ]
            check_against_oracle(kernel, per_instance, batch_size, delivery)

    @pytest.mark.parametrize("delivery", list(DELIVERIES))
    @pytest.mark.parametrize("batch_size", [1, 5, 9, 16, 21])
    def test_dense_pad_rows_are_not_charged(self, batch_size, delivery):
        """``dense`` evaluates 2-row instances in 16-row tiles here: short of
        a tile, across tiles with a ragged tail, exactly on a boundary.  The
        zero rows that fill the last tile appear in no record and no output."""
        block = StaticBlock(
            0,
            "tiled",
            [BlockInput(0, "x")],
            [
                BlockOp(0, "tanh", [input_ref(0)]),
                BlockOp(1, "dense", [op_ref(0), const_ref(_DENSE_WEIGHT)]),
            ],
            [op_ref(1)],
        )
        assert registry.dense_tile(*_DENSE_WEIGHT.shape) == 16
        rng = np.random.default_rng(batch_size)
        xs = [_random_like(rng, (2, 3), np.float32) for _ in range(batch_size)]
        check_against_oracle(BlockKernel(block), [xs], batch_size, delivery)

    def test_cost_table_is_keyed_by_shape_class_not_batch_size(self):
        kernel = BlockKernel(rnn_cell_block())
        rng = np.random.default_rng(0)

        def launch(batch, hidden):
            w = rng.standard_normal((hidden, hidden)).astype(np.float32)
            b = rng.standard_normal((1, hidden)).astype(np.float32)
            x = BatchedOperand.batched(np.zeros((batch, 1, hidden), np.float32))
            return kernel.execute_batched([x, x, w, w, b], batch)

        for batch in range(1, 1001):
            launch(batch, 4)
        assert len(kernel._cost_table) == 1
        launch(3, 5)
        assert len(kernel._cost_table) == 2
        # a long-lived server seeing ever-new operand shapes stays bounded too
        for hidden in range(6, 200):
            launch(2, hidden)
        assert len(kernel._cost_table) <= 64


# random blocks: mixed shared/varying inputs of per-instance shape (2, 3),
# shape-preserving ops anywhere, then optionally one shape-changing tail op
_UNARY = ["relu", "tanh", "neg", "sigmoid"]
_BINARY = ["add", "mul", "sub", "maximum"]
_TAILS = [
    None,
    ("softmax", {"axis": 1}),
    ("softmax", {"axis": -2}),
    ("sum", {"axis": 0}),
    ("sum", {"axis": -1, "keepdims": True}),
    ("mean", {"axis": 1}),
    ("argmax", {"axis": 0}),
    ("argmax", {"axis": -1}),
    ("transpose", {"axes": [1, 0]}),
    ("reshape", {"newshape": [3, 2]}),
    ("reshape", {"newshape": [6]}),
    ("take_row", {"index": 1}),
    ("concat", {"axis": 0}),
    ("concat", {"axis": -1}),
    ("dense", {}),
]


@st.composite
def random_blocks(draw):
    n_inputs = draw(st.integers(min_value=1, max_value=4))
    inputs = [
        BlockInput(i, f"in{i}", shared=draw(st.booleans())) for i in range(n_inputs)
    ]

    def value_ref(n_ops):
        k = draw(st.integers(min_value=0, max_value=n_inputs + n_ops - 1))
        return input_ref(k) if k < n_inputs else op_ref(k - n_inputs)

    ops = []
    for j in range(draw(st.integers(min_value=1, max_value=5))):
        if draw(st.booleans()):
            ops.append(BlockOp(j, draw(st.sampled_from(_UNARY)), [value_ref(j)]))
        else:
            ops.append(
                BlockOp(j, draw(st.sampled_from(_BINARY)), [value_ref(j), value_ref(j)])
            )
    outputs = [op_ref(len(ops) - 1)]
    tail = draw(st.sampled_from(_TAILS))
    if tail is not None:
        name, attrs = tail
        n_args = 2 if name == "concat" else 1
        args = [value_ref(len(ops)) for _ in range(n_args)]
        if name == "dense":
            args.append(const_ref(_DENSE_WEIGHT))
        ops.append(BlockOp(len(ops), name, args, dict(attrs)))
        outputs.append(op_ref(len(ops) - 1))
    if draw(st.booleans()):
        outputs.append(input_ref(draw(st.integers(min_value=0, max_value=n_inputs - 1))))
    block = StaticBlock(0, "rand", inputs, ops, outputs)
    block.validate()
    return block


class TestBlockProgramProperty:
    @settings(max_examples=100, deadline=None)
    @given(
        block=random_blocks(),
        fusion=st.booleans(),
        batch_size=st.sampled_from([1, 2, 5, 9, 16]),
        delivery=st.sampled_from(list(DELIVERIES)),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_random_blocks_match_the_oracle(self, block, fusion, batch_size, delivery, seed):
        rng = np.random.default_rng(seed)
        kernel = BlockKernel(block, enable_fusion=fusion, enable_horizontal_fusion=fusion)
        per_instance = [
            _random_like(rng, (2, 3), np.float32)
            if inp.shared
            else [_random_like(rng, (2, 3), np.float32) for _ in range(batch_size)]
            for inp in block.inputs
        ]
        check_against_oracle(kernel, per_instance, batch_size, delivery)


# ---------------------------------------------------------------------------
# the index gather against np.stack of the per-instance views
# ---------------------------------------------------------------------------


def column_segments(arenas, column):
    """Segments of ``column`` (one ``(arena index, offset)`` per instance),
    one per source arena in first-appearance order — built the slow way."""
    by_arena = {}
    for position, (a, offset) in enumerate(column):
        by_arena.setdefault(a, []).append((position, offset))
    whole = len(by_arena) == 1
    return [
        (
            arenas[a],
            None if whole else np.array([p for p, _ in rows], dtype=np.intp),
            np.array([o for _, o in rows], dtype=np.intp),
        )
        for a, rows in by_arena.items()
    ]


class TestIndexGather:
    @settings(max_examples=150, deadline=None)
    @given(
        batch=st.sampled_from([1, 2, 7, 240]),
        n_arenas=st.integers(min_value=1, max_value=8),
        shape=st.sampled_from([(), (3,), (1, 5), (2, 0), (2, 3, 2)]),
        dtype=st.sampled_from([np.float32, np.float64, np.int64]),
        buffered=st.booleans(),
        shuffle=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_equals_the_stack_of_instance_views(
        self, batch, n_arenas, shape, dtype, buffered, shuffle, seed
    ):
        """Random arena layouts — batched and broadcast arenas, 1-8 sources,
        interleaved (optionally shuffled) positions, repeated offsets, with
        and without a preallocated buffer: bitwise what ``np.stack`` of the
        per-instance views builds, never aliasing an arena."""
        rng = np.random.default_rng(seed)
        arenas = []
        for _ in range(n_arenas):
            if rng.random() < 0.3:
                arenas.append(StorageArena.from_broadcast(_random_like(rng, shape, dtype), batch))
            else:
                rows = int(rng.integers(1, 12))
                arenas.append(StorageArena.from_batched(_random_like(rng, (rows,) + shape, dtype)))
        column = []
        for a in rng.integers(0, n_arenas, batch):
            arena = arenas[a]
            rows = batch if arena.broadcast else arena.data.shape[0]
            column.append((int(a), int(rng.integers(0, rows))))
        segments = column_segments(arenas, column)
        if shuffle:
            # a segment's rows are unordered: any permutation of its
            # (position, offset) pairs names the same gather
            shuffled = []
            for arena, positions, offsets in segments:
                if positions is not None:
                    perm = rng.permutation(len(offsets))
                    positions, offsets = positions[perm], offsets[perm]
                shuffled.append((arena, positions, offsets))
            segments = shuffled
        expected = np.stack([arenas[a].view(offset) for a, offset in column], axis=0)
        out = np.empty_like(expected) if buffered else None
        got = index_gather(segments, out)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        if buffered:
            assert got is out
        assert not any(np.shares_memory(got, arena.data) for arena in arenas)

    def test_mismatched_instance_shapes_raise(self):
        """``np.stack`` refuses instances of different shapes; so does the
        gather — a (1, 4) arena must never broadcast into (2, 4) rows."""
        wide = StorageArena.from_batched(np.zeros((3, 2, 4), np.float32))
        narrow = StorageArena.from_batched(np.ones((3, 1, 4), np.float32))
        shared = StorageArena.from_broadcast(np.ones((1, 4), np.float32), 3)
        for other in (narrow, shared):
            column = [(0, 0), (1, 1), (0, 2)]
            views = [(wide, other)[a].view(offset) for a, offset in column]
            with pytest.raises(ValueError, match="same shape"):
                np.stack(views, axis=0)
            with pytest.raises(ValueError, match="same shape"):
                index_gather(column_segments((wide, other), column))

    @pytest.mark.parametrize("stray", [np.float64, np.int32, np.float16])
    def test_stray_dtype_promotes_as_the_stack_did(self, stray):
        """One arena of another dtype promotes the whole operand exactly as
        ``np.stack`` promoted — and a preallocated float32 buffer is left
        alone rather than cast into, unless float32 *is* the promoted
        dtype."""
        rng = np.random.default_rng(3)
        arenas = [
            StorageArena.from_batched(_random_like(rng, (4, 3), np.float32)),
            StorageArena.from_batched(_random_like(rng, (2, 3), stray)),
            StorageArena.from_broadcast(_random_like(rng, (3,), np.float32), 6),
        ]
        column = [(0, 1), (1, 0), (2, 4), (0, 3), (1, 1), (0, 1)]
        expected = np.stack([arenas[a].view(offset) for a, offset in column], axis=0)
        buffer = np.full((len(column), 3), 7, np.float32)
        for out in (None, buffer):
            got = index_gather(column_segments(arenas, column), out)
            assert got.dtype == expected.dtype == np.result_type(np.float32, stray)
            assert got.tobytes() == expected.tobytes()
            fits = out is buffer and expected.dtype == np.float32
            assert (got is buffer) == fits
        assert expected.dtype == np.float32 or (buffer == 7).all()

    def test_missized_buffer_is_not_written(self):
        arena = StorageArena.from_batched(np.arange(12, dtype=np.float32).reshape(4, 3))
        segments = column_segments([arena], [(0, 2), (0, 0)])
        buffer = np.zeros((3, 3), np.float32)
        got = index_gather(segments, buffer)
        assert got is not buffer and not buffer.any()
        assert np.array_equal(got, arena.data[[2, 0]])
