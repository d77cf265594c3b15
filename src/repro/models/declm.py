"""Autoregressive decoder cell (single-step RNN/GRU language-model head).

Unlike the seven single-shot encoders from the paper's Table 3, this model
is one *step* of a generation loop: ``main(weights..., state, inp)`` maps a
recurrent state and an embedded token to ``(new_state, logits)``.  The
generation driver (``repro.generate``) feeds the returned state back in at
the next step, so the sequential structure lives *outside* the DFG and each
step's nodes batch freely with round-mates — decode steps of live sequences
and fresh prefills land in the same rounds.

The cell is deliberately pure feedforward (no tensor-dependent control
flow): token selection (argmax / EOS) happens host-side in the driver, which
keeps the model on the non-fiber path so plan caching and kernel
specialization both apply to decode rounds.

Two cells share this module:

* ``declm`` — a tanh-RNN cell;
* ``declm_gru`` — a GRU cell (update/reset gates; uses the registered
  ``sub``/``mul`` elementwise kernels so no constant tensors are needed:
  ``h' = z*h + (c - z*c)`` ≡ ``z*h + (1-z)*c``).

Both are registered in ``MODEL_MODULES`` so the generic harness/test
surface (``build``/``build_for``/``instance_input``/``make_batch``) covers
them like any encoder.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..ir import IRModule, ScopeBuilder, function, op, prelude_module, tuple_expr, var
from .common import glorot, zeros
from .configs import ModelSize, get_size


def _rnn_main(mod: IRModule) -> List[str]:
    """tanh-RNN step: ``h' = tanh(b + x@Wi + h@Wh)``; logits off ``h'``."""
    in_wt, rec_wt, rec_bias = var("in_wt"), var("rec_wt"), var("rec_bias")
    out_wt, out_bias = var("out_wt"), var("out_bias")
    state, inp = var("state"), var("inp")

    sb = ScopeBuilder()
    pre = sb.let(
        "pre", op.add(op.add(rec_bias, op.dense(inp, in_wt)), op.dense(state, rec_wt))
    )
    new_state = sb.let("new_state", op.tanh(pre))
    logits = sb.let("logits", op.add(op.dense(new_state, out_wt), out_bias))
    sb.ret(tuple_expr(new_state, logits))
    mod.add_function(
        "main",
        function(
            [in_wt, rec_wt, rec_bias, out_wt, out_bias, state, inp],
            sb.get(),
            name="main",
        ),
    )
    return ["in_wt", "rec_wt", "rec_bias", "out_wt", "out_bias"]


def _gru_main(mod: IRModule) -> List[str]:
    """GRU step: update gate ``z``, reset gate ``r``, candidate ``c``."""
    names = [
        "z_in", "z_rec", "z_bias",
        "r_in", "r_rec", "r_bias",
        "c_in", "c_rec", "c_bias",
        "out_wt", "out_bias",
    ]
    v = {n: var(n) for n in names}
    state, inp = var("state"), var("inp")

    def gate(prefix: str, act, hidden):
        return act(
            op.add(
                op.add(v[f"{prefix}_bias"], op.dense(inp, v[f"{prefix}_in"])),
                op.dense(hidden, v[f"{prefix}_rec"]),
            )
        )

    sb = ScopeBuilder()
    z = sb.let("z", gate("z", op.sigmoid, state))
    r = sb.let("r", gate("r", op.sigmoid, state))
    c = sb.let("c", gate("c", op.tanh, op.mul(r, state)))
    # h' = z*h + (1-z)*c, written without a ones-constant: z*h + (c - z*c)
    new_state = sb.let("new_state", op.add(op.mul(z, state), op.sub(c, op.mul(z, c))))
    logits = sb.let("logits", op.add(op.dense(new_state, v["out_wt"]), v["out_bias"]))
    sb.ret(tuple_expr(new_state, logits))
    mod.add_function(
        "main",
        function([v[n] for n in names] + [state, inp], sb.get(), name="main"),
    )
    return names


def build(
    size: ModelSize, seed: int = 0, cell: str = "rnn"
) -> Tuple[IRModule, Dict[str, np.ndarray]]:
    """Build one decoder step.  ``main``'s unbound inputs are ``state``
    (1, hidden) and ``inp`` (1, embed); it returns ``(new_state, logits)``
    with ``logits`` shaped (1, classes) — ``classes`` doubles as the
    vocabulary size."""
    H, E, C = size.hidden, size.embed, size.classes
    mod = prelude_module()
    names = _rnn_main(mod) if cell == "rnn" else _gru_main(mod)

    rng = np.random.default_rng(seed)
    params: Dict[str, np.ndarray] = {}
    for name in names:
        if name.endswith("_bias") or name == "out_bias":
            width = C if name == "out_bias" else H
            params[name] = zeros((1, width))
        elif name in ("in_wt",) or name.endswith("_in"):
            params[name] = glorot(rng, (E, H))
        elif name == "out_wt":
            params[name] = glorot(rng, (H, C))
        else:  # recurrent H x H
            params[name] = glorot(rng, (H, H))
    return mod, params


def embedding(size: ModelSize, seed: int = 0) -> np.ndarray:
    """Deterministic token-embedding table, shape (vocab, embed).

    Seeded independently of the cell weights so model and embedding can be
    rebuilt separately yet bitwise-agree between the eager reference loop
    and the batched generation driver.
    """
    rng = np.random.default_rng(seed + 7919)
    return glorot(rng, (size.classes, size.embed))


def initial_state(size: ModelSize) -> np.ndarray:
    """Fresh per-sequence recurrent state (zeros, shape (1, hidden))."""
    return zeros((1, size.hidden))


def select_token(logits: np.ndarray) -> int:
    """Greedy host-side decode: argmax over the vocabulary axis.

    Kept here (not in the driver) so the eager reference loop and the
    batched path share one bitwise-identical selection rule.
    """
    return int(np.argmax(np.asarray(logits), axis=-1).ravel()[0])


def instance_input(module: IRModule, raw: Tuple[np.ndarray, np.ndarray]) -> Dict[str, Any]:
    """``raw`` is a ``(state, embedded_token)`` pair."""
    state, inp = raw
    return {"state": state, "inp": inp}


def make_batch(
    module: IRModule, size: ModelSize, batch_size: int, seed: int = 0
) -> List[Dict[str, Any]]:
    """Random mid-generation decode steps (random states, random tokens)."""
    rng = np.random.default_rng(seed)
    emb = embedding(size, seed=0)
    out = []
    for _ in range(batch_size):
        state = np.tanh(rng.standard_normal((1, size.hidden))).astype(np.float32)
        tok = int(rng.integers(0, size.classes))
        out.append(instance_input(module, (state, emb[tok : tok + 1])))
    return out


def build_for(
    size_name: str, seed: int = 0
) -> Tuple[IRModule, Dict[str, np.ndarray], ModelSize]:
    size = get_size("declm", size_name)
    mod, params = build(size, seed, cell="rnn")
    return mod, params, size


class _GRUVariant:
    """Module-shaped shim registering the GRU cell as ``declm_gru``."""

    @staticmethod
    def build(size: ModelSize, seed: int = 0):
        return build(size, seed, cell="gru")

    @staticmethod
    def build_for(size_name: str, seed: int = 0):
        size = get_size("declm_gru", size_name)
        mod, params = build(size, seed, cell="gru")
        return mod, params, size

    embedding = staticmethod(embedding)
    initial_state = staticmethod(initial_state)
    select_token = staticmethod(select_token)
    instance_input = staticmethod(instance_input)
    make_batch = staticmethod(make_batch)


gru = _GRUVariant()
