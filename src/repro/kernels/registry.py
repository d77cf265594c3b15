"""Primitive tensor-operator registry.

Every operator the IR can call is described by an :class:`OpDef`:

* ``compute``      — unbatched NumPy semantics (one model instance).
* ``batched``      — vectorized semantics over a leading batch dimension.
  Arguments flagged *varying* carry the batch dimension; *shared* arguments
  (model parameters identified by the taint analysis, §5.1) do not and are
  reused across the whole batch.
* ``infer_shape``  — static shape inference used by the cost model and the
  batched-kernel generator.
* ``flops``        — arithmetic cost estimate for the device simulator.
* ``kind``         — ``"tensor"`` (a DFG node), ``"host"`` (evaluated inline
  by the generated code, e.g. scalar comparisons) or ``"sync"`` (forces DFG
  execution: reading a tensor value back to the host, §4.2).

Operators are registered at import time; :func:`get_op` / :func:`has_op` are
the lookup API used by the compiler, runtime, VM and baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

Shape = Tuple[int, ...]


def _prod(shape: Sequence[int]) -> int:
    n = 1
    for s in shape:
        n *= int(s)
    return n


@dataclass
class OpDef:
    """Description of one primitive operator."""

    name: str
    compute: Callable[..., Any]
    infer_shape: Callable[[List[Shape], Dict[str, Any]], Shape]
    batched: Optional[Callable[..., Any]] = None
    flops: Optional[Callable[[List[Shape], Dict[str, Any]], float]] = None
    kind: str = "tensor"  # "tensor" | "host" | "sync"
    is_elementwise: bool = False
    is_injective: bool = False  # cheap data-movement ops (reshape/transpose/...)
    arity: Optional[int] = None  # None = variadic
    out_dtype: str = "float32"

    def estimate_flops(self, arg_shapes: List[Shape], attrs: Dict[str, Any]) -> float:
        """FLOP estimate for one unbatched application."""
        if self.flops is not None:
            return float(self.flops(arg_shapes, attrs))
        try:
            return float(_prod(self.infer_shape(arg_shapes, attrs)))
        except Exception:
            return 0.0


_REGISTRY: Dict[str, OpDef] = {}


def register(opdef: OpDef) -> OpDef:
    """Register an operator definition (overwrites any previous one)."""
    _REGISTRY[opdef.name] = opdef
    return opdef


def get_op(name: str) -> OpDef:
    """Look up an operator; raises ``KeyError`` with a helpful message."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown operator '{name}'; known: {sorted(_REGISTRY)}"
        ) from None


def has_op(name: str) -> bool:
    return name in _REGISTRY


def all_ops() -> Dict[str, OpDef]:
    """A copy of the registry mapping (name -> OpDef)."""
    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# shape-inference helpers
# ---------------------------------------------------------------------------


def _broadcast_shape(shapes: List[Shape], attrs: Dict[str, Any]) -> Shape:
    out = np.broadcast_shapes(*shapes) if shapes else ()
    return tuple(int(s) for s in out)


def _same_as_first(shapes: List[Shape], attrs: Dict[str, Any]) -> Shape:
    return tuple(shapes[0])


def _elementwise_flops(shapes: List[Shape], attrs: Dict[str, Any]) -> float:
    return float(_prod(_broadcast_shape(shapes, attrs)))


def _register_elementwise(name: str, fn: Callable, unary: bool = False, cost: float = 1.0) -> None:
    arity = 1 if unary else 2

    def compute(*args, **attrs):
        return fn(*args)

    register(
        OpDef(
            name=name,
            compute=compute,
            batched=compute,
            infer_shape=_broadcast_shape,
            flops=lambda shapes, attrs, c=cost: c * _elementwise_flops(shapes, attrs),
            is_elementwise=True,
            arity=arity,
        )
    )


# ---------------------------------------------------------------------------
# elementwise arithmetic and activations
# ---------------------------------------------------------------------------

_register_elementwise("add", lambda a, b: a + b)
_register_elementwise("sub", lambda a, b: a - b)
_register_elementwise("mul", lambda a, b: a * b)
_register_elementwise("divide", lambda a, b: a / b)
_register_elementwise("maximum", np.maximum)
_register_elementwise("minimum", np.minimum)
_register_elementwise("neg", lambda a: -a, unary=True)
_register_elementwise("exp", np.exp, unary=True, cost=4.0)
_register_elementwise("log", np.log, unary=True, cost=4.0)
_register_elementwise("sqrt", np.sqrt, unary=True, cost=2.0)
_register_elementwise("relu", lambda a: np.maximum(a, 0.0), unary=True)
_register_elementwise(
    "sigmoid", lambda a: 1.0 / (1.0 + np.exp(-a)), unary=True, cost=5.0
)
_register_elementwise("tanh", np.tanh, unary=True, cost=5.0)
_register_elementwise(
    "gelu",
    lambda a: 0.5 * a * (1.0 + np.tanh(0.7978845608028654 * (a + 0.044715 * a ** 3))),
    unary=True,
    cost=10.0,
)


def _bias_add(x, b, **attrs):
    return x + b


register(
    OpDef(
        name="bias_add",
        compute=_bias_add,
        batched=_bias_add,
        infer_shape=_same_as_first,
        flops=lambda shapes, attrs: float(_prod(shapes[0])),
        is_elementwise=True,
        arity=2,
    )
)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def dense_tile(k: int, n: int) -> int:
    """Row tile ``T`` of :func:`dense_rows` for a ``(k, n)`` weight.

    A function of the weight shape alone — never of the row count, a timing
    or a setting — because a row's bits depend on the ``(T, k, n)`` GEMM it
    went through: any other input would make batched and unbatched
    execution of the same instance disagree.

    Measured on the benchmark host (OpenBLAS 0.3.31 SkylakeX kernels, one
    thread, float32, ms per call; GEMV is ``[M, 1, k] @ [k, n]``, what
    ``dense`` used to be, GEMM the single ``[M, k] @ [k, n]`` call that is
    fastest but not row-stable)::

        (k, n)       M    GEMV   T=2    T=4    T=8    T=16   T=32   GEMM
        (256, 256)   235  0.755  0.424  0.261  0.263  0.389  0.346  0.210
        (256, 256)   1    0.004  0.008  0.010  0.015  0.032  0.046
        (512, 256)   235  1.355  0.688  0.523  1.303  0.664  0.601  0.554
        (512, 512)   235  2.707  2.056  3.680  2.635  1.826  1.627  0.830
        (512, 512)   1    0.013  0.022  0.061  0.075  0.100  0.159
        (256, 1024)  235  2.694  2.083  3.497  2.442  1.602  1.499  0.856
        (1024, 512)  235  12.51  20.02  10.22  7.245  3.867  3.051  1.804
        (1024, 512)  1    0.043  0.254  0.254  0.299  0.373  0.538
        (128, 256)   235  0.240  0.199  0.120  0.121  0.121  0.150  0.099
        (128, 128)   235  0.130  0.067  0.050  0.050  0.050  0.052  0.051
        (96, 192)    235  0.183  0.107  0.070  0.065  0.062  0.064  0.058
        (512, 32)    235  0.237  0.117  0.119  0.100  0.101  0.095  0.090
        (256, 16)    235  0.057  0.049  0.047  0.030  0.030  0.027  0.018
        (256, 2)     235  0.026  0.040  0.025  0.017  0.014  0.012  0.005

    The cliff between ``T*k*n = 2**19`` and ``2**20`` is OpenBLAS leaving its
    small-matrix kernels (``M*N*K <= 100**3``) for the packed path, which
    re-packs the whole weight on every call.  So the tile stays under
    ``2**19 / (k*n)``; within that, 4 rows already reach the weight-streaming
    floor for the big weights, and smaller weights take 8 or 16 to amortize
    the fixed cost per call.  Above ``2**18`` elements only GEMV is left:
    ``T = 1`` is exactly the old kernel (tiles of 16–32 rows are 4x faster
    at ``M = 235`` there but cost an unbatched call 9–12x).  Every tile up
    to 32 was row-stable on every shape tried (float32 and float64, one and
    two BLAS threads); 64 was not — ``tests/test_dense_rows.py``.
    """
    size = k * n
    if size <= 2 ** 11:
        return 16
    if size < 2 ** 15:
        return 8
    if size <= 2 ** 17:
        return 4
    if size <= 2 ** 18:
        return 2
    return 1


def dense_rows(x, w, **attrs):
    """``x @ w`` with ``w`` stored as ``(in_features, out_features)``,
    evaluated in fixed row tiles so that a row's result does not depend on
    the rows computed with it.

    The leading dimensions of ``x`` are flattened to ``M`` rows and evaluated
    as ``[M // T, T, k] @ [k, n]`` with ``T = dense_tile(k, n)``; the ragged
    tail is staged into one zero-padded tile.  Every BLAS call therefore has
    the same ``(T, k, n)`` shape on contiguous same-dtype operands, whether
    ``x`` is one instance or a stacked batch — which is what makes batched
    execution bitwise equal to the unbatched reference: both are this
    function (it is the ``compute`` *and* the ``batched`` of ``dense``).
    """
    x, w = np.asarray(x), np.asarray(w)
    if w.ndim > 2:
        # per-instance weights: each instance through the same 2-D kernel
        lead = np.broadcast_shapes(x.shape[:-2], w.shape[:-2])
        xs = np.broadcast_to(x, lead + x.shape[-2:])
        ws = np.broadcast_to(w, lead + w.shape[-2:])
        out = np.empty(lead + (x.shape[-2], w.shape[-1]), np.result_type(x, w))
        for idx in np.ndindex(*lead):
            out[idx] = dense_rows(xs[idx], ws[idx])
        return out
    k, n = w.shape
    m = _prod(x.shape[:-1])
    dtype = np.result_type(x, w)
    rows = np.ascontiguousarray(x, dtype=dtype).reshape(m, k)
    w = np.asarray(w, dtype=dtype)
    tile = dense_tile(k, n)
    full = m - m % tile
    out = np.empty((m, n), dtype=dtype)
    if full:
        np.matmul(rows[:full].reshape(-1, tile, k), w, out=out[:full].reshape(-1, tile, n))
    if full < m:
        stage = np.zeros((tile, k), dtype=dtype)
        stage[: m - full] = rows[full:]
        out[full:] = (stage @ w)[: m - full]
    return out.reshape(x.shape[:-1] + (n,))


def _dense_shape(shapes: List[Shape], attrs: Dict[str, Any]) -> Shape:
    x, w = shapes
    return tuple(x[:-1]) + (w[-1],)


def _dense_flops(shapes: List[Shape], attrs: Dict[str, Any]) -> float:
    x, w = shapes
    return 2.0 * _prod(x[:-1]) * x[-1] * w[-1]


register(
    OpDef(
        name="dense",
        compute=dense_rows,
        batched=dense_rows,
        infer_shape=_dense_shape,
        flops=_dense_flops,
        arity=2,
    )
)


def _matmul(a, b, **attrs):
    return a @ b


def _matmul_shape(shapes: List[Shape], attrs: Dict[str, Any]) -> Shape:
    a, b = shapes
    batch = np.broadcast_shapes(a[:-2], b[:-2]) if (len(a) > 2 or len(b) > 2) else ()
    return tuple(int(s) for s in batch) + (a[-2], b[-1])


def _matmul_flops(shapes: List[Shape], attrs: Dict[str, Any]) -> float:
    a, b = shapes
    batch = _prod(np.broadcast_shapes(a[:-2], b[:-2])) if (len(a) > 2 or len(b) > 2) else 1
    return 2.0 * batch * a[-2] * a[-1] * b[-1]


register(
    OpDef(
        name="matmul",
        compute=_matmul,
        batched=_matmul,
        infer_shape=_matmul_shape,
        flops=_matmul_flops,
        arity=2,
    )
)


# ---------------------------------------------------------------------------
# reductions, normalization, attention helpers
# ---------------------------------------------------------------------------


def _axis(attrs: Dict[str, Any], default: int = -1) -> int:
    return int(attrs.get("axis", default))


def _softmax(x, **attrs):
    axis = _axis(attrs)
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def _softmax_batched(x, **attrs):
    # negative axes are batch-safe; positive axes must be shifted by the
    # batched-kernel generator before reaching here.
    return _softmax(x, **attrs)


register(
    OpDef(
        name="softmax",
        compute=_softmax,
        batched=_softmax_batched,
        infer_shape=_same_as_first,
        flops=lambda shapes, attrs: 5.0 * _prod(shapes[0]),
        is_elementwise=False,
        arity=1,
    )
)


def _layer_norm(x, gamma, beta, **attrs):
    eps = float(attrs.get("eps", 1e-5))
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


register(
    OpDef(
        name="layer_norm",
        compute=_layer_norm,
        batched=_layer_norm,
        infer_shape=_same_as_first,
        flops=lambda shapes, attrs: 8.0 * _prod(shapes[0]),
        arity=3,
    )
)


def _reduce_shape(shapes: List[Shape], attrs: Dict[str, Any]) -> Shape:
    axis = _axis(attrs)
    keepdims = bool(attrs.get("keepdims", False))
    shape = list(shapes[0])
    axis = axis % len(shape)
    if keepdims:
        shape[axis] = 1
    else:
        shape.pop(axis)
    return tuple(shape)


register(
    OpDef(
        name="sum",
        compute=lambda x, **attrs: np.sum(x, axis=_axis(attrs), keepdims=bool(attrs.get("keepdims", False))),
        infer_shape=_reduce_shape,
        flops=lambda shapes, attrs: float(_prod(shapes[0])),
        arity=1,
    )
)

register(
    OpDef(
        name="mean",
        compute=lambda x, **attrs: np.mean(x, axis=_axis(attrs), keepdims=bool(attrs.get("keepdims", False))),
        infer_shape=_reduce_shape,
        flops=lambda shapes, attrs: float(_prod(shapes[0])),
        arity=1,
    )
)


def _argmax(x, **attrs):
    axis = _axis(attrs)
    return np.argmax(x, axis=axis).astype(np.int32)


register(
    OpDef(
        name="argmax",
        compute=_argmax,
        batched=_argmax,
        infer_shape=_reduce_shape,
        flops=lambda shapes, attrs: float(_prod(shapes[0])),
        arity=1,
        out_dtype="int32",
    )
)


# ---------------------------------------------------------------------------
# data movement
# ---------------------------------------------------------------------------


def _concat(*xs, **attrs):
    axis = _axis(attrs)
    return np.concatenate(xs, axis=axis)


def _concat_shape(shapes: List[Shape], attrs: Dict[str, Any]) -> Shape:
    axis = _axis(attrs) % len(shapes[0])
    out = list(shapes[0])
    out[axis] = sum(s[axis] for s in shapes)
    return tuple(out)


register(
    OpDef(
        name="concat",
        compute=_concat,
        batched=_concat,
        infer_shape=_concat_shape,
        flops=lambda shapes, attrs: float(sum(_prod(s) for s in shapes)),
        is_injective=True,
        arity=None,
    )
)


def _reshape(x, **attrs):
    return np.reshape(x, tuple(attrs["newshape"]))


register(
    OpDef(
        name="reshape",
        compute=_reshape,
        infer_shape=lambda shapes, attrs: tuple(int(s) for s in attrs["newshape"]),
        flops=lambda shapes, attrs: 0.0,
        is_injective=True,
        arity=1,
    )
)


def _transpose(x, **attrs):
    return np.transpose(x, tuple(attrs["axes"]))


register(
    OpDef(
        name="transpose",
        compute=_transpose,
        infer_shape=lambda shapes, attrs: tuple(shapes[0][a] for a in attrs["axes"]),
        flops=lambda shapes, attrs: float(_prod(shapes[0])),
        is_injective=True,
        arity=1,
    )
)


def _take_row(x, **attrs):
    return x[int(attrs["index"])]


register(
    OpDef(
        name="take_row",
        compute=_take_row,
        infer_shape=lambda shapes, attrs: tuple(shapes[0][1:]),
        flops=lambda shapes, attrs: float(_prod(shapes[0][1:])),
        is_injective=True,
        arity=1,
    )
)


def _full(**attrs):
    return np.full(tuple(attrs["shape"]), float(attrs.get("value", 0.0)), dtype=np.float32)


register(
    OpDef(
        name="full",
        compute=lambda **attrs: _full(**attrs),
        infer_shape=lambda shapes, attrs: tuple(int(s) for s in attrs["shape"]),
        flops=lambda shapes, attrs: float(_prod(attrs["shape"])),
        arity=0,
    )
)

register(
    OpDef(
        name="zeros",
        compute=lambda **attrs: np.zeros(tuple(attrs["shape"]), dtype=np.float32),
        infer_shape=lambda shapes, attrs: tuple(int(s) for s in attrs["shape"]),
        flops=lambda shapes, attrs: float(_prod(attrs["shape"])),
        arity=0,
    )
)


# ---------------------------------------------------------------------------
# host / synchronization operators
# ---------------------------------------------------------------------------

register(
    OpDef(
        name="item",
        compute=lambda x, **attrs: float(np.asarray(x).reshape(-1)[int(attrs.get("index", 0))]),
        infer_shape=lambda shapes, attrs: (),
        kind="sync",
        arity=1,
    )
)

register(
    OpDef(
        name="item_int",
        compute=lambda x, **attrs: int(np.asarray(x).reshape(-1)[int(attrs.get("index", 0))]),
        infer_shape=lambda shapes, attrs: (),
        kind="sync",
        arity=1,
    )
)


def _register_host(name: str, fn: Callable) -> None:
    register(
        OpDef(
            name=name,
            compute=fn,
            infer_shape=lambda shapes, attrs: (),
            kind="host",
        )
    )


_register_host("scalar_add", lambda a, b: a + b)
_register_host("scalar_sub", lambda a, b: a - b)
_register_host("scalar_mul", lambda a, b: a * b)
_register_host("scalar_gt", lambda a, b: bool(a > b))
_register_host("scalar_ge", lambda a, b: bool(a >= b))
_register_host("scalar_lt", lambda a, b: bool(a < b))
_register_host("scalar_le", lambda a, b: bool(a <= b))
_register_host("scalar_eq", lambda a, b: bool(a == b))
_register_host("scalar_and", lambda a, b: bool(a) and bool(b))
_register_host("scalar_or", lambda a, b: bool(a) or bool(b))
_register_host("scalar_not", lambda a: not bool(a))


# "scale": elementwise multiplication that broadcasts a per-instance gate
# (e.g. a (1, 1) scalar tensor) over a hidden-state tensor.  Semantically
# identical to "mul"; registered under its own name because DyNet executes
# broadcasting element-wise multiplications unbatched (§7.3), which the DyNet
# baseline models by treating "scale" as an unbatchable operator.
_register_elementwise("scale", lambda a, b: a * b)
