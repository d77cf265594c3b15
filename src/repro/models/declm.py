"""Autoregressive decoder (RNN/GRU language-model head folded over tokens).

Unlike the seven single-shot encoders from the paper's Table 3, this model
is one *step* of a generation loop: ``main(weights..., state, tokens)``
folds a cell over the embedded rows of the ``tokens`` list through the
self-tail-recursive ``decode_fold`` and returns the last step's
``(new_state, logits)``.  The generation driver (``repro.generate``) passes
a whole prompt as the first step's list and a one-token list at every later
step, feeding the returned state back in.  ``decode_fold`` compiles to one
loop whose cell invokes sit at depths 0, 1, 2, ..., so the prefill chains
of concurrent prompts batch by depth inside one round, next to the round's
decode steps (depth 0), while the generation loop itself stays *outside*
the DFG.

The fold recurses on the list's structure only (no tensor-dependent
control flow): token selection (argmax / EOS) happens host-side in the
driver, which keeps the model on the non-fiber path.

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

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..ir import (
    IRModule,
    ScopeBuilder,
    Var,
    call,
    function,
    match,
    op,
    pat_ctor,
    prelude_module,
    tuple_expr,
    var,
)
from .common import glorot, zeros
from .configs import ModelSize, get_size


#: weight names of each cell, in ``main``'s (and ``decode_fold``'s) order
CELL_WEIGHTS = {
    "rnn": ["in_wt", "rec_wt", "rec_bias", "out_wt", "out_bias"],
    "gru": [
        "z_in", "z_rec", "z_bias",
        "r_in", "r_rec", "r_bias",
        "c_in", "c_rec", "c_bias",
        "out_wt", "out_bias",
    ],
}


def _rnn_cell(sb: ScopeBuilder, v: Dict[str, Var], state: Var, inp: Var) -> Var:
    """tanh-RNN step: ``h' = tanh(b + x@Wi + h@Wh)``."""
    pre = sb.let(
        "pre",
        op.add(op.add(v["rec_bias"], op.dense(inp, v["in_wt"])), op.dense(state, v["rec_wt"])),
    )
    return sb.let("new_state", op.tanh(pre))


def _gru_cell(sb: ScopeBuilder, v: Dict[str, Var], state: Var, inp: Var) -> Var:
    """GRU step: update gate ``z``, reset gate ``r``, candidate ``c``."""

    def gate(prefix: str, act, hidden):
        return act(
            op.add(
                op.add(v[f"{prefix}_bias"], op.dense(inp, v[f"{prefix}_in"])),
                op.dense(hidden, v[f"{prefix}_rec"]),
            )
        )

    z = sb.let("z", gate("z", op.sigmoid, state))
    r = sb.let("r", gate("r", op.sigmoid, state))
    c = sb.let("c", gate("c", op.tanh, op.mul(r, state)))
    # h' = z*h + (1-z)*c, written without a ones-constant: z*h + (c - z*c)
    return sb.let("new_state", op.add(op.mul(z, state), op.sub(c, op.mul(z, c))))


def _define_decoder(mod: IRModule, cell: str) -> None:
    """``@decode_fold(tokens, state, weights...) -> (new_state, logits)``:
    one cell step per row of ``tokens``, the state threaded through; the
    last step's pair is the result.  A self tail call, so it compiles to
    one loop whose invokes sit at depths 0, 1, 2, ... (an empty list is a
    match failure).  ``@main(weights..., state, tokens)`` calls it."""
    nil = mod.get_constructor("Nil")
    cons = mod.get_constructor("Cons")
    fold_gv = mod.get_global_var("decode_fold")
    names = CELL_WEIGHTS[cell]
    v = {n: var(n) for n in names}
    weights = [v[n] for n in names]
    tokens, state, inp, rest = var("tokens"), var("state"), var("inp"), var("rest")

    sb = ScopeBuilder()
    new_state = (_rnn_cell if cell == "rnn" else _gru_cell)(sb, v, state, inp)
    logits = sb.let("logits", op.add(op.dense(new_state, v["out_wt"]), v["out_bias"]))
    sb.ret(
        match(
            rest,
            [
                (pat_ctor(nil), tuple_expr(new_state, logits)),
                (pat_ctor(cons, None, None), call(fold_gv, rest, new_state, *weights)),
            ],
        )
    )
    body = match(tokens, [(pat_ctor(cons, inp, rest), sb.get())])
    mod.add_function(
        "decode_fold", function([tokens, state] + weights, body, name="decode_fold")
    )

    m_weights = [var(n) for n in names]
    m_state, m_tokens = var("state"), var("tokens")
    mod.add_function(
        "main",
        function(
            m_weights + [m_state, m_tokens],
            call(fold_gv, m_tokens, m_state, *m_weights),
            name="main",
        ),
    )


def build(
    size: ModelSize, seed: int = 0, cell: str = "rnn"
) -> Tuple[IRModule, Dict[str, np.ndarray]]:
    """Build the decoder.  ``main``'s unbound inputs are ``state``
    (1, hidden) and ``tokens``, a non-empty ``List`` of (1, embed) rows; it
    returns ``(new_state, logits)`` after the last row, with ``logits``
    shaped (1, classes) — ``classes`` doubles as the vocabulary size."""
    H, E, C = size.hidden, size.embed, size.classes
    mod = prelude_module()
    _define_decoder(mod, cell)
    names = CELL_WEIGHTS[cell]

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


#: builds the ``tokens`` list of an instance without the caller's module:
#: compiled code matches a constructor by tag, the reference interpreter by
#: name, and every prelude agrees on both
_LISTS = prelude_module()


def instance_input(
    module: IRModule, raw: Tuple[np.ndarray, Sequence[np.ndarray]]
) -> Dict[str, Any]:
    """``raw`` is ``(state, rows)``: the recurrent state and the embedded
    tokens to fold over, one (1, embed) row each — a whole prompt, or the
    one token a decode step feeds back."""
    state, rows = raw
    return {"state": state, "tokens": _LISTS.make_list(rows)}


def make_batch(
    module: IRModule, size: ModelSize, batch_size: int, seed: int = 0
) -> List[Dict[str, Any]]:
    """Random mid-generation decode steps (random states, one random token
    each)."""
    rng = np.random.default_rng(seed)
    emb = embedding(size, seed=0)
    out = []
    for _ in range(batch_size):
        state = np.tanh(rng.standard_normal((1, size.hidden))).astype(np.float32)
        tok = int(rng.integers(0, size.classes))
        out.append(instance_input(module, (state, [emb[tok : tok + 1]])))
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
