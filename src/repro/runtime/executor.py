"""The ACROBAT runtime: lazy DFG construction and batched execution.

The AOT-compiled program (or the VM) calls :meth:`AcrobatRuntime.invoke` for
every static-block invocation; the runtime records one row into the pending
graph's column store and hands back lazy tensors.
:meth:`AcrobatRuntime.trigger` schedules the pending rows, hands the
scheduled batches to the memory planner
(:class:`~repro.memory.planner.MemoryPlanner`) — which classifies every
operand as contiguous-reuse / explicit-gather / fused-gather and places every
output in a storage arena ahead of execution — then resolves each plan
against the device simulator, runs the batched NumPy kernels and commits the
outputs into arenas.

The column store
----------------
The pending graph is a dict from ``(phase, depth, block_id)`` to a
:class:`~repro.runtime.tensor.Column`.  ``invoke`` does one lookup on that
key (creating the column on a miss) and appends the row: its argument
tuple, instance id and round sequence number — the row's position in the
round's invoke order.  No per-invocation object is built besides the lazy
outputs.  The ordering contract: **columns in first-appearance order, rows
in invoke order**.  Every scheduler sees the round as ``(column, stop)``
spans in that order (:mod:`repro.runtime.scheduler`); the inline-depth
schedule is those columns sorted by ``(phase, depth, first sequence
number)``, which is exactly the bucket order of a per-node schedule.

Serving cuts the store by sequence number.  A request's rows are one
contiguous sequence range (requests are recorded one after another), so a
cancelled request is withdrawn by range
(:meth:`AcrobatRuntime.drop_pending_slice`) and a capped flush executes the rows below a sequence number
(``trigger(limit=)``): a column the cut falls inside keeps its executed
prefix, and its remaining rows move to a fresh column that stays pending.

Host-side work (graph construction, scheduling, memory planning, operand
dispatch, output materialization) is measured as real wall-clock time;
device-side work is charged to the
:class:`~repro.runtime.device.DeviceSimulator`.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels.batched import BlockKernel
from ..memory.planner import BatchPlan, MemoryPlanner, OperandKind
from .device import DeviceSimulator
from .profiler import ActivityProfiler
from .scheduler import ScheduledBatch, Span
from .tensor import Column, LazyTensor


#: the ``RunStats.memory`` keys that count operands (one per classification)
_OPERAND_KINDS = frozenset(kind.value for kind in OperandKind)


@dataclass
class ExecutionOptions:
    """Runtime-facing switches (a subset of the compiler options)."""

    #: fuse the memory gather into batched kernels (§5.2); when off, scattered
    #: operands are first copied into contiguous buffers by explicit gather
    #: kernels, as DyNet does
    gather_fusion: bool = True
    #: scheduler-policy name, resolved through the registry in
    #: :mod:`repro.engine.registry` ("inline_depth" schedules by the
    #: statically computed (phase, depth) pairs; "dynamic_depth" recomputes
    #: depths by traversing the DFG at runtime)
    scheduler: str = "inline_depth"
    #: extra keyword arguments forwarded to the scheduler-policy factory
    #: (e.g. ``{"kind": "depth"}`` for the "dynet" policy), so parameterized
    #: policies work even when the runtime resolves its own scheduler
    scheduler_args: Dict[str, Any] = field(default_factory=dict)
    #: placement-policy name, resolved through the registry in
    #: :mod:`repro.devices.placement` ("single", "round_robin",
    #: "data_parallel"); None keeps every batch on the primary device.
    #: Only meaningful when the runtime's device is a
    #: :class:`~repro.devices.group.DeviceGroup` with more than one member.
    placement: Optional[str] = None
    #: extra keyword arguments forwarded to the placement-policy factory
    placement_args: Dict[str, Any] = field(default_factory=dict)
    #: coalesce host->device parameter/input transfers
    batch_memcpy: bool = True
    #: extra consistency checks (shared-argument equality, dependency order)
    validate: bool = False


@dataclass
class RunStats:
    """Per-run breakdown used by the experiment harness (Table 6 et al.)."""

    host_ms: Dict[str, float] = field(default_factory=dict)
    device: Dict[str, float] = field(default_factory=dict)
    #: memory-planner operand classification counts (contiguous / gather /
    #: fused_gather / peer / shared), ``gather_segments`` (source arenas
    #: summed over the gathered columns — an index gather costs one take per
    #: segment)
    memory: Dict[str, int] = field(default_factory=dict)
    #: always empty; kept only because the wall-clock benchmark (``bench/``)
    #: still reads it
    specialize: Dict[str, float] = field(default_factory=dict)
    #: per-device counter breakdown when the runtime drives a
    #: :class:`~repro.devices.group.DeviceGroup` (one dict per member, with
    #: a ``device`` index key); empty for a standalone device, whose
    #: aggregate ``device`` dict *is* the single device's counters
    per_device: List[Dict[str, float]] = field(default_factory=list)
    num_dfg_nodes: int = 0
    num_batches: int = 0
    batch_size: int = 0
    sync_rounds: int = 0
    #: serving-clock timestamp at which the run's flush started (seconds on
    #: the session's :class:`~repro.serve.clock.Clock`; 0.0 outside sessions)
    flushed_at: float = 0.0
    #: what triggered the flush ("size", "deadline", "adaptive", "manual";
    #: empty outside sessions)
    flush_reason: str = ""

    @property
    def host_total_ms(self) -> float:
        return sum(self.host_ms.values())

    @property
    def device_total_ms(self) -> float:
        """Elapsed device time: on a device group, members execute a round
        concurrently, so the round takes as long as its busiest member
        (``elapsed_device_us``); on a single device elapsed equals total."""
        device = self.device
        if "elapsed_device_us" in device:
            return device["elapsed_device_us"] / 1e3
        return device.get("total_device_us", 0.0) / 1e3

    @property
    def device_work_ms(self) -> float:
        """Total device work performed (summed across the group's members)."""
        return self.device.get("total_device_us", 0.0) / 1e3

    @property
    def api_time_ms(self) -> float:
        return self.device.get("api_time_us", 0.0) / 1e3

    @property
    def latency_ms(self) -> float:
        """End-to-end latency estimate: real host time plus simulated device
        time (the CPU-side CUDA API time is part of the device counters)."""
        return self.host_total_ms + self.device_total_ms + self.api_time_ms

    @property
    def kernel_calls(self) -> int:
        return int(
            self.device.get("num_kernel_launches", 0)
            + self.device.get("num_gather_launches", 0)
        )

    def summary(self) -> Dict[str, float]:
        out = {
            "latency_ms": self.latency_ms,
            "host_ms": self.host_total_ms,
            "device_ms": self.device_total_ms,
            "api_ms": self.api_time_ms,
            "dfg_nodes": self.num_dfg_nodes,
            "kernel_calls": self.kernel_calls,
            "batches": self.num_batches,
        }
        out.update({f"host_{k}_ms": v for k, v in self.host_ms.items()})
        out.update(
            {
                (f"mem_{k}_operands" if k in _OPERAND_KINDS else f"mem_{k}"): v
                for k, v in self.memory.items()
            }
        )
        out.update(self.device)
        if self.per_device:
            out["num_devices"] = len(self.per_device)
        return out


class AcrobatRuntime:
    """Lazy auto-batching runtime driving batched block kernels."""

    def __init__(
        self,
        kernels: Dict[int, BlockKernel],
        options: Optional[ExecutionOptions] = None,
        device: Optional[DeviceSimulator] = None,
        profiler: Optional[ActivityProfiler] = None,
        scheduler: Optional[Any] = None,
        placement: Optional[Any] = None,
    ) -> None:
        self.kernels = kernels
        self.options = options or ExecutionOptions()
        #: the accelerator this runtime charges: a single
        #: :class:`~repro.runtime.device.DeviceSimulator` or a
        #: :class:`~repro.devices.group.DeviceGroup` (both satisfy the
        #: :class:`~repro.devices.device.Device` protocol)
        self.device = device or DeviceSimulator()
        self.profiler = profiler or ActivityProfiler()
        self.planner = MemoryPlanner(gather_fusion=self.options.gather_fusion)
        #: the pending graph: ``(phase, depth, block_id) -> Column`` (see the
        #: module docstring)
        self._columns: Dict[Tuple[int, int, int], Column] = {}
        if scheduler is None:
            # resolved through the engine-layer policy registry so that even
            # directly constructed runtimes select schedulers by name;
            # policy-specific arguments come from options.scheduler_args
            from ..engine.registry import make_scheduler

            scheduler = make_scheduler(
                self.options.scheduler,
                kernels=kernels,
                options=self.options,
                **self.options.scheduler_args,
            )
        self._scheduler = scheduler
        if placement is None and self.options.placement is not None:
            from ..devices.placement import make_placement

            placement = make_placement(
                self.options.placement, **self.options.placement_args
            )
        elif placement is not None:
            # placement instances carry per-runtime rotation/EWMA state: a
            # second runtime sharing one would rotate the first's split
            # base mid-run (misaligning its chains) and pollute its learned
            # work — bind each instance to exactly one runtime
            if getattr(placement, "_bound_runtime", None) is not None:
                raise ValueError(
                    "placement policy instances are stateful and belong to "
                    "exactly one runtime/engine; pass the registry name "
                    "(e.g. placement='data_parallel') to get a fresh "
                    "instance per engine"
                )
            placement._bound_runtime = id(self)
        #: placement policy assigning scheduled batches to group devices
        #: (None: every batch stays on the primary device)
        self._placement = placement
        self.current_instance = 0
        self.num_nodes_total = 0
        self.num_batches_total = 0
        self.sync_rounds = 0
        self._round_seq = 0

    # -- API called by generated code / VM ------------------------------------
    def invoke(self, block_id: int, depth: int, phase: int, args: Sequence[Any]) -> Any:
        """Record one block invocation; returns its lazy output(s).

        ``args`` is kept as given (the generated program passes a tuple)."""
        key = (phase, depth, block_id)
        col = self._columns.get(key)
        if col is None:
            # the VM and DyNet front-ends add kernels after the runtime is
            # built, so the output count is read when the column opens
            num_outputs = self.kernels[block_id].block.num_outputs
            col = self._columns[key] = Column(block_id, phase, depth, num_outputs)
        row = len(col.seqs)
        col.args.append(args)
        col.instances.append(self.current_instance)
        col.seqs.append(self._round_seq)
        self._round_seq += 1
        self.num_nodes_total += 1
        n = col.num_outputs
        if n == 1:
            out = LazyTensor(col, row, 0)
            col.outs.append(out)
            return out
        if n == 2:
            # spelled out: a comprehension's frame costs as much again as
            # the two tensors (TreeLSTM's cell and the parser step return
            # two outputs)
            outs = (LazyTensor(col, row, 0), LazyTensor(col, row, 1))
        else:
            outs = tuple([LazyTensor(col, row, k) for k in range(n)])
        col.outs.extend(outs)
        return outs

    @staticmethod
    def read(value: Any) -> np.ndarray:
        """Concrete array behind ``value`` (lazy or already concrete)."""
        if isinstance(value, LazyTensor):
            return value.value
        return np.asarray(value)

    def item(self, value: Any, index: int = 0) -> float:
        """Host read of one scalar out of a (materialized) tensor."""
        return float(self.read(value).item(index))

    def item_int(self, value: Any, index: int = 0) -> int:
        return int(self.read(value).item(index))

    @property
    def pending_count(self) -> int:
        """Rows recorded and not yet executed."""
        return sum(len(col.seqs) for col in self._columns.values())

    @property
    def next_seq(self) -> int:
        """The round sequence number the next ``invoke`` records: a caller
        reading it before and after recording a request has the request's
        sequence range."""
        return self._round_seq

    # -- the store's cuts --------------------------------------------------------
    def _cut(self, limit: Optional[int]) -> int:
        """The sequence number a trigger with ``limit`` cuts at."""
        if limit is not None and 0 < limit < self._round_seq:
            return limit
        return self._round_seq

    def _spans(self, cut: int) -> List[Span]:
        """The pending rows below ``cut``, as ``(column, stop)`` spans in
        column first-appearance order (a column's rows are in sequence
        order, so the rows below a cut are a prefix)."""
        spans: List[Span] = []
        for col in self._columns.values():
            seqs = col.seqs
            if seqs[-1] < cut:
                spans.append((col, len(seqs)))
            elif seqs[0] < cut:
                spans.append((col, bisect_left(seqs, cut)))
        return spans

    def _take(self, spans: List[Span], cut: int) -> None:
        """Remove the round ``spans`` from the store: a column the cut falls
        inside keeps its first ``stop`` rows (they execute now), and the
        rest move to a fresh column under the same key."""
        if cut >= self._round_seq:
            self._columns = {}
            self._round_seq = 0
            return
        # leftover rows keep their sequence numbers; new invokes keep
        # appending after them
        stops = dict(spans)
        rest: Dict[Tuple[int, int, int], Column] = {}
        for key, col in self._columns.items():
            stop = stops.get(col)
            if stop is None:
                rest[key] = col
            elif stop < len(col.seqs):
                rest[key] = _split_column(col, stop)
        self._columns = rest

    # -- execution -------------------------------------------------------------
    def trigger(self, limit: Optional[int] = None) -> None:
        """Schedule, memory-plan and execute pending rows.

        Every non-empty trigger is one synchronization round (a DFG flush);
        the count is reported in :attr:`RunStats.sync_rounds`, so callers no
        longer thread fiber-round counts through :meth:`collect_stats`.

        ``limit`` executes only the rows whose sequence number is below it
        (the caller cuts at a request boundary — see the flush policies'
        round cap); the rows at or above it stay pending as the next
        round's prefix, their lazy outputs untouched.
        """
        cut = self._cut(limit)
        spans = self._spans(cut)
        if not spans:
            return
        self._take(spans, cut)
        self.sync_rounds += 1

        sched_start = time.perf_counter()
        batches = self._scheduler.schedule(spans)
        self.profiler.add("scheduling", time.perf_counter() - sched_start)

        if self._placement is not None:
            place_start = time.perf_counter()
            batches = self._placement.place_round(batches, self.device, self.kernels)
            self.profiler.add("placement", time.perf_counter() - place_start)

        plan_start = time.perf_counter()
        plans = self.planner.plan_round(batches, self.kernels)
        self.profiler.add("memory_planning", time.perf_counter() - plan_start)

        for plan in plans:
            self._execute_batch(plan)
        # every row of the round's columns has executed (a column the cut
        # fell inside kept only its executed prefix): drop the graph's one
        # back edge, so the round is freed by reference counting, and the
        # rows' arguments, so a live tensor keeps only its own column, not
        # the history of every row its column shared
        for col, _stop in spans:
            col.outs = col.args = None
        self.num_batches_total += len(batches)
        self.profiler.bump("num_batches", len(batches))

    def drop_pending_slice(self, start: int, end: int) -> None:
        """Withdraw the pending rows with sequence numbers in ``[start,
        end)`` — the removal path for a cancelled request whose rows were
        recorded but whose round has not flushed.  Callers pass whole
        requests' ranges.  Later rows of a column move up, their lazy
        outputs renumbered."""
        for key, col in list(self._columns.items()):
            seqs = col.seqs
            a = bisect_left(seqs, start)
            b = bisect_left(seqs, end)
            if a == b:
                continue
            for rows in (col.args, col.instances, seqs):
                del rows[a:b]
            n = col.num_outputs
            del col.outs[a * n:b * n]
            if seqs:
                _renumber(col, a)
            else:
                del self._columns[key]
        self.num_nodes_total = self.pending_count

    def finish_partial_round(self) -> None:
        """Round boundary after a capped trigger left rows pending: reset
        the per-round collectors exactly as the next round's
        :meth:`reset` would, but keep the live lazy graph — the leftover
        rows are the next round's oldest requests."""
        self.num_nodes_total = self.pending_count
        self.num_batches_total = 0
        self.sync_rounds = 0
        self.profiler.reset()
        self.planner.reset()
        if self._placement is not None:
            self._placement.note_reset()

    def _execute_batch(self, plan: BatchPlan) -> None:
        batch: ScheduledBatch = plan.batch
        kernel = self.kernels[batch.block_id]
        batch_size = batch.size

        dispatch_start = time.perf_counter()
        operands = self.planner.resolve(plan, kernel, self.device, self.options)
        self.profiler.add("dispatch", time.perf_counter() - dispatch_start)

        compute_start = time.perf_counter()
        outputs, launches = kernel.execute_batched(operands, batch_size)
        self.profiler.add("numpy_compute", time.perf_counter() - compute_start)

        # launches land on the member device the placement policy chose
        local = self.device.device_for(plan.device)
        launch_us = 0.0
        for record in launches:
            launch_us += local.launch(record, gather_fused=self.options.gather_fusion)
        if self._placement is not None:
            # feed observed device cost back so adaptive placements learn
            # per-block work (static byte estimates miss compute-bound time)
            self._placement.observe(
                batch.block_id, batch_size, launch_us, len(launches), local.spec
            )

        store_start = time.perf_counter()
        self.planner.commit(plan, outputs, self.device)
        self.profiler.add("materialize", time.perf_counter() - store_start)

    # -- bookkeeping -------------------------------------------------------------
    def collect_stats(self, batch_size: int) -> RunStats:
        """Snapshot the profiler and device counters into a :class:`RunStats`.

        Synchronization rounds are accounted by :meth:`trigger` itself.
        """
        host_ms = {
            "dfg_construction": self.profiler.ms("dfg_construction"),
            "scheduling": self.profiler.ms("scheduling"),
            "memory_planning": self.profiler.ms("memory_planning"),
            "dispatch": self.profiler.ms("dispatch"),
            "materialize": self.profiler.ms("materialize"),
        }
        if self._placement is not None:
            # the placement bucket exists only when a policy is active, so
            # single-device breakdowns keep their historical shape
            host_ms["placement"] = self.profiler.ms("placement")
        memory = dict(self.planner.operand_counts)
        memory["gather_segments"] = self.planner.gather_segments
        device = self.device.counters_dict()
        per_device = self.device.per_device_dicts()
        return RunStats(
            host_ms=host_ms,
            device=device,
            per_device=per_device,
            memory=memory,
            num_dfg_nodes=self.num_nodes_total,
            num_batches=self.num_batches_total,
            batch_size=batch_size,
            sync_rounds=self.sync_rounds,
        )

    def reset(self, release_residency: bool = True) -> None:
        """Clear per-run state (keeps kernels, device schedule table).

        ``release_residency=False`` keeps the device's residency cache —
        parameters (and arenas) uploaded in earlier rounds stay resident, as
        they do for a persistent serving session.
        """
        self._columns = {}
        self._round_seq = 0
        self.current_instance = 0
        self.num_nodes_total = 0
        self.num_batches_total = 0
        self.sync_rounds = 0
        self.profiler.reset()
        self.planner.reset()
        self.device.reset()
        if self._placement is not None:
            # run boundary: placement policies rotate here, not between a
            # run's sync rounds (keeps fiber chains device-aligned)
            self._placement.note_reset()
        if release_residency:
            self.device.reset_residency()


def _renumber(col: Column, first: int) -> None:
    """Point the lazy outputs of ``col``'s rows from ``first`` on at their
    (moved) row."""
    n = col.num_outputs
    outs = col.outs
    for i in range(first * n, len(outs)):
        tensor = outs[i]
        tensor.column = col
        tensor.row = i // n


def _split_column(col: Column, stop: int) -> Column:
    """Move ``col``'s rows from ``stop`` on to a fresh column under the same
    key, which the returned column is."""
    n = col.num_outputs
    rest = Column(col.block_id, col.phase, col.depth, n)
    rest.args, rest.instances, rest.seqs, rest.outs = (
        col.args[stop:],
        col.instances[stop:],
        col.seqs[stop:],
        col.outs[stop * n:],
    )
    for rows in (col.args, col.instances, col.seqs):
        del rows[stop:]
    del col.outs[stop * n:]
    _renumber(rest, 0)
    return rest
