"""The batch-invariance contract of ``dense``: a row's result is a function of
that row and the weight alone.

``dense_rows`` is both the unbatched and the batched body of ``dense``, so
batched execution equals the eager reference bit for bit only if the rows
computed together do not influence one another — whatever their number,
their position, their companions, the operand layout or the BLAS thread
count.  The property is checked for the tile ``dense_tile`` picks on every
dense shape of the model zoo, for arbitrary shapes, and — through whole
models — for tiles it does not pick: the invariant must not hinge on the
table.
"""

import functools
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompilerOptions, compile_model, reference_run
from repro.generate import GenerationRequest, GenerationSession, reference_generate
from repro.kernels import registry
from repro.kernels.registry import dense_rows, dense_tile, get_op
from repro.models import MODEL_MODULES
from repro.serve import Server, SimulatedClock
from repro.utils import flatten_arrays

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.lru_cache(maxsize=None)
def zoo_dense_shapes():
    """``(k, n)`` of every ``dense`` weight of every registered model at every
    size, read off one eager instance each."""
    shapes = set()
    opdef = get_op("dense")
    real = opdef.compute

    def recording(x, w, **attrs):
        shapes.add(tuple(np.shape(w)))
        return real(x, w, **attrs)

    opdef.compute = recording
    try:
        for module in MODEL_MODULES.values():
            for size_name in ("test", "small", "large"):
                mod, params, size = module.build_for(size_name)
                reference_run(mod, params, module.make_batch(mod, size, 1, seed=1))
    finally:
        opdef.compute = real
    return sorted(shapes)


def assert_rows_stand_alone(x, w, rows):
    """Row ``i`` of the batched result is bitwise the unbatched result of row
    ``i`` alone, and both agree with a float64 matmul that shares no code
    with the kernel."""
    batched = dense_rows(x, w)
    flat_x = np.asarray(x).reshape(-1, w.shape[0])
    flat_out = batched.reshape(-1, w.shape[1])
    oracle = flat_x.astype(np.float64) @ np.asarray(w, dtype=np.float64)
    # the standard dot-product bound k * eps * |x| @ |w|, doubled because for
    # float64 operands the oracle rounds as coarsely as the kernel
    magnitude = np.abs(flat_x).astype(np.float64) @ np.abs(w).astype(np.float64)
    bound = 2 * w.shape[0] * np.finfo(batched.dtype).eps * magnitude
    assert np.all(np.abs(flat_out - oracle) <= bound)
    for i in rows:
        alone = dense_rows(flat_x[i : i + 1], w)
        assert alone.dtype == batched.dtype
        assert np.array_equal(alone[0], flat_out[i]), (i, flat_x.shape, w.shape, w.dtype)


def _operands(rng, m, k, n, dtype, layout):
    """``x`` of ``m`` rows and a ``(k, n)`` weight in the requested layout;
    row magnitudes differ by orders so a companion leaking into a row's sum
    could not hide in the rounding."""
    scale = rng.choice([1e-3, 1.0, 1e3], size=(m, 1))
    if layout == "strided":
        x = (rng.standard_normal((m, 2 * k)) * scale).astype(dtype)[:, ::2]
    elif layout == "transposed":
        x = np.asfortranarray((rng.standard_normal((m, k)) * scale).astype(dtype))
    else:
        x = (rng.standard_normal((m, k)) * scale).astype(dtype)
        if layout == "instances":
            x = x.reshape(m, 1, k)
    w = rng.standard_normal((k, n)).astype(dtype)
    return x, w


LAYOUTS = ["rows", "instances", "strided", "transposed"]


class TestRowStability:
    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=70),
        k=st.integers(min_value=1, max_value=320),
        n=st.integers(min_value=1, max_value=320),
        dtype=st.sampled_from([np.float32, np.float64]),
        layout=st.sampled_from(LAYOUTS),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_any_shape(self, m, k, n, dtype, layout, seed):
        rng = np.random.default_rng(seed)
        x, w = _operands(rng, m, k, n, dtype, layout)
        assert_rows_stand_alone(x, w, rng.choice(m, size=min(m, 4), replace=False))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_zoo_shape_at_ragged_row_counts(self, dtype):
        rng = np.random.default_rng(0)
        shapes = zoo_dense_shapes()
        assert (256, 256) in shapes and (1024, 512) in shapes and len(shapes) >= 25
        for k, n in shapes:
            tile = dense_tile(k, n)
            assert 1 <= tile <= 32
            # below one tile, one row short of / exactly / one row past a
            # tile boundary, and a batch of many tiles with a ragged tail
            for m in sorted({1, tile - 1, tile, tile + 1, 2 * tile + 3, 5 * tile - 1} - {0}):
                x, w = _operands(rng, m, k, n, dtype, "instances")
                assert_rows_stand_alone(x, w, sorted({0, m // 2, m - 1}))

    def test_row_position_and_companions_do_not_matter(self):
        rng = np.random.default_rng(1)
        x, w = _operands(rng, 37, 256, 256, np.float32, "rows")
        row = x[5]
        expect = dense_rows(row[None], w)[0]
        for position in (0, 1, 3, 4, 17, 36):
            other = (rng.standard_normal(x.shape) * 1e4).astype(np.float32)
            other[position] = row
            assert np.array_equal(dense_rows(other, w)[position], expect)

    def test_mixed_precision_promotes_like_matmul(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((9, 1, 96))
        w = rng.standard_normal((96, 16)).astype(np.float32)
        assert dense_rows(x, w).dtype == np.float64
        assert dense_rows(x.astype(np.float32), w).dtype == np.float32
        assert_rows_stand_alone(x, w, range(9))

    def test_per_instance_weights_use_the_same_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 1, 20)).astype(np.float32)
        w = rng.standard_normal((6, 20, 7)).astype(np.float32)
        out = dense_rows(x, w)
        assert out.shape == (6, 1, 7)
        for b in range(6):
            assert np.array_equal(out[b], dense_rows(x[b], w[b]))

    def test_tile_is_a_function_of_the_weight_shape_alone(self):
        assert list(inspect.signature(dense_tile).parameters) == ["k", "n"]
        opdef = get_op("dense")
        assert opdef.compute is dense_rows and opdef.batched is dense_rows

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_property_holds_under_each_blas_thread_count(self, threads):
        """OpenBLAS splits a GEMM across threads by its shape, so the thread
        count is part of what a tile has to be stable under; it is fixed when
        the library loads, hence a fresh interpreter per count."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             os.path.abspath(__file__), "-k", "any_shape or zoo_shape or companions"],
            env=env, cwd=REPO, capture_output=True, text=True, timeout=170,
        )
        assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]


# ---------------------------------------------------------------------------
# the invariant holds for any tile, through whole models
# ---------------------------------------------------------------------------


def _bitwise(a, b):
    xs, ys = flatten_arrays(a), flatten_arrays(b)
    return len(xs) == len(ys) and all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(xs, ys)
    )


@pytest.mark.parametrize("tile", [2, 4, 16])
class TestAnyTile:
    def test_every_model_matches_the_reference(self, monkeypatch, tile):
        """Every registered model, at batch sizes below, across and far above
        the tile, with gathers fused into the kernels and launched apart
        (contiguous operands arise in both)."""
        monkeypatch.setattr(registry, "dense_tile", lambda k, n: tile)
        for name, module in MODEL_MODULES.items():
            mod, params, size = module.build_for("test")
            instances = module.make_batch(mod, size, 64, seed=5)
            reference = reference_run(mod, params, instances)
            for gather_fusion in (True, False):
                compiled = compile_model(
                    mod, params, CompilerOptions(gather_fusion=gather_fusion)
                )
                for batch_size in (1, 2, 7, 64):
                    outs, _stats = compiled.run(instances[:batch_size])
                    assert len(outs) == batch_size
                    for out, ref in zip(outs, reference):
                        assert _bitwise(ref, out), (name, gather_fusion, batch_size)

    def test_generation_matches_the_eager_loop(self, monkeypatch, tile):
        monkeypatch.setattr(registry, "dense_tile", lambda k, n: tile)
        module = MODEL_MODULES["declm"]
        mod, params, size = module.build_for("test")
        rng = np.random.default_rng(tile)
        requests = [
            GenerationRequest(
                [int(t) for t in rng.integers(0, size.classes, int(rng.integers(1, 5)))],
                max_new_tokens=6,
                arrival=0.0004 * i,
            )
            for i in range(7)
        ]
        server = Server(clock=SimulatedClock())
        session = server.add_endpoint(
            "dec", compile_model(mod, params, CompilerOptions()), "adaptive"
        ).session
        gen = GenerationSession(server=server, endpoint="dec", model=module, size=size)
        # the host model prices each step, so live sequences overlap and
        # rounds carry several rows
        handles = gen.generate(requests, host_model=(0.2, 0.05))
        assert session.requests_flushed / session.num_flushes > 1.5
        assert [h.result() for h in handles] == [
            reference_generate(mod, params, module, size, r.prompt, r.max_new_tokens)
            for r in requests
        ]
