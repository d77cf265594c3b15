"""Cortex-style baseline (Fegade et al. 2021) for recursive models.

Cortex is specialized for *recursive* computations: the user manually lowers
the model into level-synchronous batched kernels that are aggressively fused
and persistent, with essentially no runtime scheduling.  It therefore
(Table 8) beats ACROBAT modestly on TreeLSTM/BiRNN, cannot express the
non-recursive models at all, and loses badly on MV-RNN because its
restrictive interface forces extra copies of the leaf embedding matrices.

This module hand-implements that execution style for the three models
Cortex supports, against the same parameters and inputs as the IR models, so
outputs remain comparable.  The device simulator is charged with the few,
large, fused kernel launches such an implementation performs; host overhead
is just the level bookkeeping below.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.trees import TreeNode
from ..kernels.batched import LaunchRecord
from ..runtime.device import DeviceSimulator, GPUSpec
from ..runtime.executor import RunStats

SUPPORTED_MODELS = ("treelstm", "mvrnn", "birnn")


def _charge(device: DeviceSimulator, name: str, arrays: Sequence[np.ndarray], flops: float) -> None:
    nbytes = float(sum(a.nbytes for a in arrays))
    device.launch(
        LaunchRecord(
            kernel_name=name,
            batch_size=max(1, len(arrays)),
            flops=flops,
            bytes_read=nbytes,
            bytes_written=nbytes * 0.5,
        ),
        gather_fused=True,
    )


def _collect_levels(trees: Sequence[TreeNode]) -> List[List[TreeNode]]:
    """Group all nodes of all trees by height (leaves first)."""
    levels: Dict[int, List[TreeNode]] = {}

    def height(node: TreeNode) -> int:
        h = 1 if node.is_leaf else 1 + max(height(node.left), height(node.right))
        levels.setdefault(h, []).append(node)
        return h

    for t in trees:
        height(t)
    return [levels[h] for h in sorted(levels)]


@dataclass
class CortexResult:
    outputs: List[np.ndarray]
    stats: RunStats


class CortexModel:
    """Hand-batched, level-synchronous execution of one supported model."""

    def __init__(
        self,
        model_name: str,
        params: Dict[str, np.ndarray],
        gpu_spec: Optional[GPUSpec] = None,
    ) -> None:
        if model_name not in SUPPORTED_MODELS:
            raise ValueError(
                f"Cortex supports only recursive models {SUPPORTED_MODELS}, not {model_name!r}"
            )
        self.model_name = model_name
        self.params = {k: np.asarray(v) for k, v in params.items()}
        self.gpu_spec = gpu_spec

    # -- public API ---------------------------------------------------------------
    def run(self, raw_instances: Sequence[Any]) -> Tuple[List[np.ndarray], RunStats]:
        device = DeviceSimulator(spec=self.gpu_spec, schedule_quality=0.97)
        start = time.perf_counter()
        if self.model_name == "treelstm":
            outputs = self._run_treelstm(raw_instances, device)
        elif self.model_name == "mvrnn":
            outputs = self._run_mvrnn(raw_instances, device)
        else:
            outputs = self._run_birnn(raw_instances, device)
        host_ms = (time.perf_counter() - start) * 1e3
        stats = RunStats(
            host_ms={"dfg_construction": host_ms, "scheduling": 0.0, "dispatch": 0.0},
            device=device.counters.as_dict(),
            num_dfg_nodes=0,
            num_batches=device.counters.num_kernel_launches,
            batch_size=len(raw_instances),
        )
        return outputs, stats

    # -- TreeLSTM -------------------------------------------------------------------
    def _run_treelstm(self, trees: Sequence[TreeNode], device: DeviceSimulator) -> List[np.ndarray]:
        p = self.params
        state: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        gates = ("i", "fl", "fr", "o", "u")
        for level in _collect_levels(trees):
            leaves = [n for n in level if n.is_leaf]
            nodes = [n for n in level if not n.is_leaf]
            if leaves:
                emb = np.concatenate([n.embedding for n in leaves], axis=0)
                h = np.tanh(emb @ p["leaf_wt"] + p["leaf_bias"])
                c = np.zeros_like(h)
                for k, n in enumerate(leaves):
                    state[id(n)] = (h[k : k + 1], c[k : k + 1])
                _charge(device, "cortex_leaf", [emb], 2.0 * emb.size * p["leaf_wt"].shape[1])
            if nodes:
                hl = np.concatenate([state[id(n.left)][0] for n in nodes], axis=0)
                hr = np.concatenate([state[id(n.right)][0] for n in nodes], axis=0)
                cl = np.concatenate([state[id(n.left)][1] for n in nodes], axis=0)
                cr = np.concatenate([state[id(n.right)][1] for n in nodes], axis=0)
                acts = {}
                for g in gates:
                    pre = hl @ p[f"{g}_l_wt"] + hr @ p[f"{g}_r_wt"] + p[f"{g}_bias"]
                    acts[g] = np.tanh(pre) if g == "u" else 1.0 / (1.0 + np.exp(-pre))
                c = acts["i"] * acts["u"] + acts["fl"] * cl + acts["fr"] * cr
                h = acts["o"] * np.tanh(c)
                for k, n in enumerate(nodes):
                    state[id(n)] = (h[k : k + 1], c[k : k + 1])
                flops = 2.0 * hl.shape[0] * hl.shape[1] * hl.shape[1] * 10
                _charge(device, "cortex_treelstm_cell", [hl, hr, cl, cr], flops)
        outs = []
        for t in trees:
            h_root = state[id(t)][0]
            outs.append(h_root @ p["cls_wt"] + p["cls_bias"])
        _charge(device, "cortex_classifier", [state[id(t)][0] for t in trees], 1e4)
        return outs

    # -- MV-RNN ---------------------------------------------------------------------
    def _run_mvrnn(self, instances: Sequence[Any], device: DeviceSimulator) -> List[np.ndarray]:
        """``instances`` are (tree, leaf_payload) structures produced by
        :func:`repro.models.mvrnn.instance_input`; we accept the ADT form and
        walk it directly."""
        p = self.params
        H = p["v_bias"].shape[1]

        def eval_node(adt) -> Tuple[np.ndarray, np.ndarray]:
            if adt.constructor.name == "MVLeaf":
                vec, mat = adt.fields
                # Cortex's restrictive interface requires copying every leaf
                # embedding matrix into its internal buffers (§7.3)
                device.memcpy(float(np.asarray(mat).nbytes + np.asarray(vec).nbytes))
                return np.asarray(vec).copy(), np.asarray(mat).copy()
            la, lA = eval_node(adt.fields[0])
            ra, rA = eval_node(adt.fields[1])
            c1, c2 = la @ rA, ra @ lA
            vec = np.tanh(np.concatenate([c1, c2], axis=1) @ p["v_wt"] + p["v_bias"])
            mat = np.concatenate([lA, rA], axis=1) @ p["m_wt"]
            _charge(device, "cortex_mvrnn_cell", [la, ra, lA, rA], 2.0 * (2 * H * H * H))
            return vec, mat

        outs = []
        for inst in instances:
            tree = inst["tree"] if isinstance(inst, dict) else inst
            vec, _ = eval_node(tree)
            outs.append(vec @ p["cls_wt"] + p["cls_bias"])
        _charge(device, "cortex_classifier", outs, 1e4)
        return outs

    # -- BiRNN ------------------------------------------------------------------------
    def _run_birnn(self, sequences: Sequence[List[np.ndarray]], device: DeviceSimulator) -> List[np.ndarray]:
        p = self.params
        B = len(sequences)
        lengths = [len(s) for s in sequences]
        max_len = max(lengths)
        H = p["f_h_wt"].shape[0]

        def run_direction(prefix: str, reverse: bool) -> List[List[np.ndarray]]:
            states = [[None] * n for n in lengths]
            cur = np.repeat(p[f"{prefix}_init"], B, axis=0)
            for t in range(max_len):
                tok_rows, active = [], []
                for b, seq in enumerate(sequences):
                    if t < lengths[b]:
                        idx = lengths[b] - 1 - t if reverse else t
                        tok_rows.append(seq[idx])
                        active.append(b)
                if not tok_rows:
                    break
                toks = np.concatenate(tok_rows, axis=0)
                prev = np.concatenate([cur[b : b + 1] for b in active], axis=0)
                new = 1.0 / (
                    1.0
                    + np.exp(
                        -(p[f"{prefix}_bias"] + toks @ p[f"{prefix}_i_wt"] + prev @ p[f"{prefix}_h_wt"])
                    )
                )
                for k, b in enumerate(active):
                    cur[b] = new[k]
                    idx = lengths[b] - 1 - t if reverse else t
                    states[b][idx] = new[k : k + 1]
                _charge(device, f"cortex_rnn_{prefix}", [toks, prev], 4.0 * toks.shape[0] * H * H)
            return states

        f_states = run_direction("f", reverse=False)
        b_states = run_direction("b", reverse=True)
        outs = []
        all_pairs = []
        for b in range(B):
            pairs = [
                np.concatenate([f, bk], axis=1) for f, bk in zip(f_states[b], b_states[b])
            ]
            all_pairs.extend(pairs)
            outs.append(
                [np.maximum(pr @ p["out_wt"] + p["out_bias"], 0.0) for pr in pairs]
            )
        _charge(device, "cortex_output", all_pairs, 2.0 * len(all_pairs) * 2 * H * p["out_wt"].shape[1])
        return outs
