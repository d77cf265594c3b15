"""DFG schedulers.

Three scheduling strategies appear in the paper:

* **Inline-depth scheduling (ACROBAT, §4.1)** — the AOT-compiled program
  already annotated every invocation with a ``(phase, depth)`` pair, and the
  runtime filed it into the column of its ``(phase, depth, block)`` key at
  invoke time (:mod:`repro.runtime.tensor`), so the scheduler only sorts the
  round's columns by ``(phase, depth, first sequence number)``.  No
  dependency analysis happens at runtime; observations O.1/O.2 guarantee the
  order is safe.
* **Dynamic depth-based scheduling (DyNet / ACROBAT without inline depth)** —
  depths are recomputed at runtime from the DFG structure (max producer depth
  plus one), which costs a full traversal of the graph.
* **Agenda-based scheduling (DyNet's alternative)** — repeatedly pick a
  kernel signature among the currently-ready nodes (lowest average depth
  first) and batch all ready nodes with that signature.

Every scheduler receives the round as *spans*: ``(column, stop)`` pairs in
column first-appearance order, each naming the column's rows ``[0, stop)``
(a capped flush cuts a column at a sequence number; otherwise ``stop`` is
the column's length).  The runtime-analysis schedulers number the round's
rows in invoke order (:class:`NumberedRows`) and follow a lazy argument's
``(column, row)`` edge to its producer's number.

The generic ``dynamic_depth_schedule`` / ``agenda_schedule`` helpers are also
used by the DyNet baseline (:mod:`repro.baselines.dynet`), so both systems
run literally the same batching algorithm and differ only in where the
information comes from — which is the paper's point.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .tensor import Column, LazyTensor

#: one column's share of a round: its rows ``[0, stop)``
Span = Tuple[Column, int]
#: one row of a round, as a node: ``(column, row)``
RowRef = Tuple[Column, int]


class ScheduledBatch:
    """A group of same-block rows to execute as one batched launch.

    ``segments`` lists the batch's rows in launch order as runs of one
    column each — ``(column, rows)``, ``rows`` a ``range`` or a sequence of
    row indices.  An inline-depth batch is one whole-column run; batches of the
    runtime-analysis schedulers and of splitting placements may gather rows
    from several columns.  The row accessors (:meth:`args`,
    :meth:`instances`, :meth:`seqs`) return the column's own list when the
    batch is exactly one whole column: read them, never mutate them.
    """

    __slots__ = ("block_id", "segments", "size", "device", "tp_devices", "_operands")

    def __init__(
        self,
        block_id: int,
        segments: Sequence[Tuple[Column, Sequence[int]]],
        device: int = 0,
        tp_devices: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.block_id = block_id
        self.segments = segments
        self.size = (
            len(segments[0][1])
            if len(segments) == 1
            else sum(len(rows) for _, rows in segments)
        )
        #: index of the device this batch executes on, within the runtime's
        #: device group (assigned by a placement policy; 0 = the primary
        #: device)
        self.device = device
        #: tensor-parallel member set: when a placement policy splits this
        #: batch's kernel column/row-wise, the group devices sharing the
        #: launch (``device`` is the home member assembling the output
        #: partials); None for an ordinary whole-batch launch
        self.tp_devices = tp_devices
        self._operands: Optional[Dict[int, Tuple[Any, ...]]] = None

    @classmethod
    def of_rows(cls, block_id: int, refs: Sequence[RowRef], device: int = 0) -> "ScheduledBatch":
        """The batch of ``refs`` (``(column, row)`` pairs, in launch order)."""
        segments: List[Tuple[Column, List[int]]] = []
        last = None
        for col, row in refs:
            if col is not last:
                rows: List[int] = []
                segments.append((col, rows))
                last = col
            rows.append(row)
        return cls(block_id, segments, device)

    def _take(self, field: str) -> List[Any]:
        segments = self.segments
        if len(segments) == 1:
            col, rows = segments[0]
            values = getattr(col, field)
            if type(rows) is range:
                if rows.start == 0 and rows.stop == len(values):
                    return values
                return values[rows.start:rows.stop]
            return [values[r] for r in rows]
        out: List[Any] = []
        for col, rows in segments:
            values = getattr(col, field)
            if type(rows) is range:
                out.extend(values[rows.start:rows.stop])
            else:
                out.extend([values[r] for r in rows])
        return out

    def args(self) -> List[Sequence[Any]]:
        """Each row's argument sequence, in launch order."""
        return self._take("args")

    def first_args(self) -> Sequence[Any]:
        """The argument sequence of the batch's first row."""
        col, rows = self.segments[0]
        return col.args[rows[0]]

    def instances(self) -> List[int]:
        return self._take("instances")

    def seqs(self) -> List[int]:
        """Each row's round sequence number, in launch order."""
        return self._take("seqs")

    def refs(self) -> List[RowRef]:
        """The batch's rows as ``(column, row)`` pairs, in launch order."""
        return [(col, row) for col, rows in self.segments for row in rows]

    def operand(self, index: int) -> Tuple[Any, ...]:
        """Block input ``index`` across the batch: instance ``b``'s argument
        at position ``b`` (transposed once per input — planning,
        fingerprinting and resolution all read it)."""
        columns = self._operands
        if columns is None:
            columns = self._operands = {}
        column = columns.get(index)
        if column is None:
            column = columns[index] = tuple(map(itemgetter(index), self.args()))
        return column

    def __repr__(self) -> str:
        return f"ScheduledBatch(block={self.block_id}, size={self.size}, device={self.device})"


def _seq_bounds(spans: Sequence[Span]) -> Tuple[int, int]:
    """The round's first sequence number, and how many numbers it spans
    (more than its rows when a withdrawn request left a gap)."""
    if len(spans) == 1:
        col, stop = spans[0]
        lo = col.seqs[0]
        return lo, col.seqs[stop - 1] - lo + 1
    lo = min([col.seqs[0] for col, _ in spans])
    return lo, max([col.seqs[stop - 1] for col, stop in spans]) - lo + 1


class NumberedRows:
    """A round's rows numbered in invoke order, for the schedulers that
    analyse dependencies at run time.

    Row number ``i`` is row ``rows[i]`` of column ``cols[i]``; the number is
    the row's sequence number less the round's first, so a lazy argument's
    ``(column, row)`` edge leads to its producer's number directly.
    ``numbers`` lists the round's numbers in invoke order (a withdrawn
    request leaves a gap, where ``cols[i]`` is None).  Nothing is allocated
    per row beyond these lists: the generic algorithms below see plain
    integers.
    """

    __slots__ = ("lo", "cols", "rows", "numbers")

    def __init__(self, spans: Sequence[Span]) -> None:
        lo, size = _seq_bounds(spans)
        self.lo = lo
        cols: List[Optional[Column]] = [None] * size
        rows = [0] * size
        total = 0
        for col, stop in spans:
            seqs = col.seqs
            first = seqs[0] - lo
            if seqs[stop - 1] - lo == first + stop - 1:
                # the column's rows were invoked back to back
                cols[first:first + stop] = [col] * stop
                rows[first:first + stop] = range(stop)
            else:
                for row in range(stop):
                    i = seqs[row] - lo
                    cols[i] = col
                    rows[i] = row
            total += stop
        self.cols = cols
        self.rows = rows
        self.numbers: Sequence[int] = (
            range(size) if total == size else [i for i, c in enumerate(cols) if c is not None]
        )

    def dfg_deps(self, i: int) -> List[int]:
        """Numbers of the pending producers of row ``i``: the rows behind
        its not-yet materialized lazy-tensor arguments.  Shared by every
        runtime-analysis scheduler so 'ready' means the same thing under all
        policies."""
        lo = self.lo
        lazy = LazyTensor
        return [
            a.column.seqs[a.row] - lo
            for a in self.cols[i].args[self.rows[i]]
            if type(a) is lazy and a.arena is None
        ]

    def batches(self, schedule: Iterable[Sequence[int]]) -> List[ScheduledBatch]:
        """Scheduled batches from a schedule of row numbers."""
        cols, rows = self.cols, self.rows
        batches: List[ScheduledBatch] = []
        for batch in schedule:
            col = cols[batch[0]]
            if len(batch) == 1:  # the common case under DyNet's signatures
                batches.append(ScheduledBatch(col.block_id, ((col, (rows[batch[0]],)),)))
            else:
                refs = [(cols[i], rows[i]) for i in batch]
                batches.append(ScheduledBatch.of_rows(col.block_id, refs))
        return batches


class InlineDepthScheduler:
    """ACROBAT's scheduler: the columns, sorted by the statically computed
    ``(phase, depth)`` and then by first appearance."""

    def schedule(self, spans: Sequence[Span]) -> List[ScheduledBatch]:
        ordered = sorted(spans, key=lambda s: (s[0].phase, s[0].depth, s[0].seqs[0]))
        return [ScheduledBatch(col.block_id, ((col, range(stop)),)) for col, stop in ordered]


class DynamicDepthScheduler:
    """Depth-based scheduling with depths recomputed from the DFG at runtime.

    Used when inline depth computation is disabled; the traversal cost is real
    host time and shows up in the ablation (Fig. 6) and Table 6.
    """

    def schedule(self, spans: Sequence[Span]) -> List[ScheduledBatch]:
        rows = NumberedRows(spans)
        cols, row_of, lo = rows.cols, rows.rows, rows.lo
        lazy = LazyTensor
        # producers precede their consumers in invoke order, so one pass in
        # that order finds every depth (NumberedRows.dfg_deps, inlined)
        depth = [0] * len(cols)
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for i in rows.numbers:
            d = 0
            for a in cols[i].args[row_of[i]]:
                if type(a) is lazy and a.arena is None:
                    p = depth[a.column.seqs[a.row] - lo] + 1
                    if p > d:
                        d = p
            depth[i] = d
            key = (d, cols[i].block_id)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = bucket = []
            bucket.append(i)
        # stable: within a depth, buckets keep first-appearance order
        return rows.batches([buckets[k] for k in sorted(buckets, key=lambda k: k[0])])


class AgendaScheduler:
    """Agenda-based scheduling over DFG nodes (Neubig et al. 2017b).

    Batches by block signature among the currently-ready nodes, picking the
    signature with the lowest average depth first.  This is DyNet's
    alternative scheduling scheme running on ACROBAT's coarsened DFG; the
    dependency analysis happens at runtime, so its cost is real host time.
    """

    def schedule(self, spans: Sequence[Span]) -> List[ScheduledBatch]:
        rows = NumberedRows(spans)
        blocks = [None if col is None else col.block_id for col in rows.cols]
        return rows.batches(agenda_schedule(rows.numbers, rows.dfg_deps, blocks.__getitem__))


class NoBatchScheduler:
    """Executes every DFG node as its own batch of one, in invoke order.

    Models eager frameworks without auto-batching (the PyTorch baseline of
    Fig. 5): every operator becomes its own kernel launch.
    """

    def schedule(self, spans: Sequence[Span]) -> List[ScheduledBatch]:
        # each row's batch, at its sequence number less the round's first
        lo, size = _seq_bounds(spans)
        slots: List[Optional[ScheduledBatch]] = [None] * size
        for col, stop in spans:
            seqs, block = col.seqs, col.block_id
            for row in range(stop):
                slots[seqs[row] - lo] = ScheduledBatch(block, ((col, (row,)),))
        return [batch for batch in slots if batch is not None]


# ---------------------------------------------------------------------------
# Generic batching algorithms shared with the DyNet baseline
# ---------------------------------------------------------------------------


def dynamic_depth_schedule(
    nodes: Sequence[Hashable],
    get_deps: Callable[[Any], Iterable[Any]],
    get_signature: Callable[[Any], Hashable],
) -> List[List[Any]]:
    """Depth-based batching over an arbitrary node graph.

    Nodes are hashable (a node is its own key).  ``get_deps`` returns the
    *pending* producers of a node; ``get_signature`` returns the batching
    signature — nodes batch together only when their signatures compare
    equal.  Returns batches in a dependency-safe order.
    """
    node_list = list(nodes)
    index = set(node_list)
    depth: Dict[Hashable, int] = {}

    def compute_depth(n: Any) -> int:
        if n in depth:
            return depth[n]
        deps = [d for d in get_deps(n) if d in index]
        value = 0 if not deps else 1 + max(compute_depth(d) for d in deps)
        depth[n] = value
        return value

    buckets: Dict[Tuple[int, Hashable], List[Any]] = defaultdict(list)
    first_seen: Dict[Tuple[int, Hashable], int] = {}
    for i, n in enumerate(node_list):
        key = (compute_depth(n), get_signature(n))
        if key not in first_seen:
            first_seen[key] = i
        buckets[key].append(n)
    keys = sorted(buckets, key=lambda k: (k[0], first_seen[k]))
    return [buckets[k] for k in keys]


def agenda_schedule(
    nodes: Sequence[Hashable],
    get_deps: Callable[[Any], Iterable[Any]],
    get_signature: Callable[[Any], Hashable],
) -> List[List[Any]]:
    """DyNet's agenda-based batching (Neubig et al. 2017b).

    Maintains the set of ready nodes (all dependencies executed) and
    repeatedly selects the signature whose ready nodes have the lowest average
    depth, batching all of them at once.  More resistant to over-eager
    batching than the plain depth scheme, at a higher scheduling cost.
    Nodes are hashable, as for :func:`dynamic_depth_schedule`.
    """
    node_list = list(nodes)
    in_set = set(node_list)
    remaining_deps: Dict[Hashable, int] = {}
    dependents: Dict[Hashable, List[Any]] = defaultdict(list)
    depth: Dict[Hashable, int] = {}

    for n in node_list:
        deps = [d for d in get_deps(n) if d in in_set]
        remaining_deps[n] = len(deps)
        for d in deps:
            dependents[d].append(n)

    def compute_depth(n: Any) -> int:
        if n in depth:
            return depth[n]
        deps = [d for d in get_deps(n) if d in in_set]
        value = 0 if not deps else 1 + max(compute_depth(d) for d in deps)
        depth[n] = value
        return value

    for n in node_list:
        compute_depth(n)

    ready: List[Any] = [n for n in node_list if remaining_deps[n] == 0]
    scheduled: List[List[Any]] = []
    done: set = set()

    while ready:
        by_sig: Dict[Hashable, List[Any]] = defaultdict(list)
        for n in ready:
            by_sig[get_signature(n)].append(n)
        # pick the signature with the lowest average depth (ties: most nodes)
        best_sig = min(
            by_sig,
            key=lambda s: (
                sum(depth[n] for n in by_sig[s]) / len(by_sig[s]),
                -len(by_sig[s]),
                str(s),
            ),
        )
        batch = by_sig[best_sig]
        scheduled.append(batch)
        batch_ids = set(batch)
        done.update(batch_ids)
        ready = [n for n in ready if n not in batch_ids]
        for n in batch:
            for dep in dependents[n]:
                remaining_deps[dep] -= 1
                if remaining_deps[dep] == 0:
                    ready.append(dep)

    if len(done) != len(node_list):
        raise RuntimeError("agenda_schedule: dependency cycle or unresolved producers")
    return scheduled
