"""Kernel fusion inside static blocks.

Two flavours, both from the paper:

* **Standard (producer-consumer) fusion** — elementwise / injective operators
  are merged into the kernel of the value they consume, so intermediates
  never round-trip through device memory and fewer kernels are launched
  (§7.4: "Standard kernel fusion provides significant benefits for all
  models").
* **Horizontal fusion** (§B.1, Fig. 9) — independent applications of the same
  operator inside one block that share an argument (e.g. the four gate
  projections of an LSTM cell reading the same input vector) are merged into
  a single wider kernel, so the shared operand is read once.

The result of fusion is a partition of the block's ops into
:class:`KernelGroup` objects; the batched executor launches one (simulated)
kernel per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .block import StaticBlock
from .registry import get_op


@dataclass
class KernelGroup:
    """A set of block ops executed as one fused kernel launch."""

    group_id: int
    op_indices: List[int]
    #: True when the group was formed by horizontal fusion of same-op calls
    horizontal: bool = False

    @property
    def size(self) -> int:
        return len(self.op_indices)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _groups_are_acyclic(block: StaticBlock, uf: _UnionFind) -> bool:
    """Check that the dependency graph between fusion groups has no cycle."""
    edges: Dict[int, Set[int]] = {}
    for j, bop in enumerate(block.ops):
        gj = uf.find(j)
        for dep in bop.op_indices():
            gd = uf.find(dep)
            if gd != gj:
                edges.setdefault(gj, set()).add(gd)
    # DFS cycle detection over group roots
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}

    def visit(g: int) -> bool:
        color[g] = GREY
        for nxt in edges.get(g, ()):  # g depends on nxt
            c = color.get(nxt, WHITE)
            if c == GREY:
                return False
            if c == WHITE and not visit(nxt):
                return False
        color[g] = BLACK
        return True

    roots = {uf.find(j) for j in range(len(block.ops))}
    return all(visit(g) for g in roots if color.get(g, WHITE) == WHITE)


def _would_create_cycle(block: StaticBlock, uf: _UnionFind, a: int, b: int) -> bool:
    """Would merging the groups of ``a`` and ``b`` create a cyclic dependency
    between kernel groups?  Checked by tentatively merging and testing."""
    ra, rb = uf.find(a), uf.find(b)
    if ra == rb:
        return False
    trial = _UnionFind(len(block.ops))
    trial.parent = list(uf.parent)
    trial.union(a, b)
    return not _groups_are_acyclic(block, trial)


def fuse_block(
    block: StaticBlock,
    enable_standard: bool = True,
    enable_horizontal: bool = True,
) -> List[KernelGroup]:
    """Partition ``block``'s ops into fused kernel groups.

    With both flags off every op becomes its own group (one kernel launch per
    operator, as in vendor-library based execution).
    """
    n = len(block.ops)
    uf = _UnionFind(n)
    consumers = block.consumers()

    if enable_standard:
        # Merge each elementwise/injective op into its (single-group) producer.
        for j, bop in enumerate(block.ops):
            opdef = get_op(bop.op_name)
            if not (opdef.is_elementwise or opdef.is_injective):
                continue
            producer_ops = bop.op_indices()
            if not producer_ops:
                continue
            # fuse with the first producer; additional producers are fused too
            # when they are elementwise chains feeding only this op
            target = producer_ops[0]
            if not _would_create_cycle(block, uf, target, j):
                uf.union(target, j)
            for extra in producer_ops[1:]:
                extra_def = get_op(block.ops[extra].op_name)
                if (
                    (extra_def.is_elementwise or extra_def.is_injective)
                    and consumers[extra] == [j]
                    and not _would_create_cycle(block, uf, extra, j)
                ):
                    uf.union(extra, j)

    if enable_horizontal:
        # Merge independent same-op calls that share an argument.
        by_signature: Dict[Tuple[str, Tuple], List[int]] = {}
        for j, bop in enumerate(block.ops):
            opdef = get_op(bop.op_name)
            if opdef.is_elementwise or opdef.is_injective or opdef.kind != "tensor":
                continue
            for arg in bop.args:
                if arg[0] == "const":
                    continue  # an embedded array: not hashable, never shared
                key = (bop.op_name, arg)
                by_signature.setdefault(key, []).append(j)
        for (_, _), indices in by_signature.items():
            if len(indices) < 2:
                continue
            # only merge ops with no dependency between them
            indices = sorted(indices)
            base = indices[0]
            for j in indices[1:]:
                if _depends_on(block, j, base) or _depends_on(block, base, j):
                    continue
                if not _would_create_cycle(block, uf, base, j):
                    uf.union(base, j)

    groups: Dict[int, List[int]] = {}
    for j in range(n):
        groups.setdefault(uf.find(j), []).append(j)

    # order groups so that every group runs after the groups it depends on
    group_deps: Dict[int, Set[int]] = {root: set() for root in groups}
    for j, bop in enumerate(block.ops):
        gj = uf.find(j)
        for dep in bop.op_indices():
            gd = uf.find(dep)
            if gd != gj:
                group_deps[gj].add(gd)
    ordered_roots: List[int] = []
    placed: Set[int] = set()
    remaining = sorted(groups)
    while remaining:
        progressed = False
        for root in list(remaining):
            if group_deps[root] <= placed:
                ordered_roots.append(root)
                placed.add(root)
                remaining.remove(root)
                progressed = True
        if not progressed:  # pragma: no cover - fusion never builds cycles
            raise RuntimeError(f"cyclic kernel-fusion groups in block {block.name}")

    out: List[KernelGroup] = []
    for gid, root in enumerate(ordered_roots):
        members = sorted(groups[root])
        names = {block.ops[j].op_name for j in members}
        horizontal = len(members) > 1 and len(names) == 1 and not get_op(
            block.ops[members[0]].op_name
        ).is_elementwise
        out.append(KernelGroup(gid, members, horizontal=horizontal))
    return out


def _depends_on(block: StaticBlock, consumer: int, producer: int) -> bool:
    """Transitive dependency check between two ops in a block."""
    stack = [consumer]
    seen: Set[int] = set()
    while stack:
        j = stack.pop()
        if j == producer:
            return True
        if j in seen:
            continue
        seen.add(j)
        stack.extend(block.ops[j].op_indices())
    return False


def group_launch_count(groups: Sequence[KernelGroup]) -> int:
    """Number of kernel launches a block costs per batched execution."""
    return len(groups)


def fused_kernel_name(block: StaticBlock, group: KernelGroup) -> str:
    """Human-readable name of a fused kernel, e.g. ``dense_add_sigmoid``."""
    names = [block.ops[j].op_name for j in group.op_indices]
    if group.horizontal:
        return f"h{len(names)}x_{names[0]}"
    if len(names) > 4:
        return f"{names[0]}_fused{len(names)}"
    return "_".join(names)
