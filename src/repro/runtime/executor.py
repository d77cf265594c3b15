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

A trigger executes every pending row.  Serving removes rows only by
sequence number: a request's rows are one contiguous sequence range
(requests are recorded one after another), so a cancelled request is
withdrawn by range (:meth:`AcrobatRuntime.drop_pending_slice`).

What a round did
----------------
The executor appends every decision to its
:class:`~repro.runtime.trace.RoundTrace` (a ``sync`` record per trigger, a
``batch`` per scheduled batch, an ``operand`` per planned operand, a
``launch`` per charged kernel launch) and times its host work into the
trace's buckets; device work is charged to the runtime's
:class:`~repro.devices.group.DeviceGroup`.  :meth:`AcrobatRuntime.collect_stats`
folds the trace and the members' counters into :class:`RunStats` once.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels.batched import BlockKernel
from ..memory.planner import BatchPlan, MemoryPlanner, OperandKind
from .scheduler import Span
from .tensor import Column, LazyTensor
from .trace import RoundTrace


@dataclass
class ExecutionOptions:
    """Runtime-facing switches (a subset of the compiler options).

    The scheduler is named here and resolved once, by the runtime; the
    placement is not an option but the runtime's ``placement=`` argument
    (a registry name or an instance)."""

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
    #: (e.g. ``{"kind": "depth"}`` for the "dynet" policy)
    scheduler_args: Dict[str, Any] = field(default_factory=dict)
    #: coalesce host->device parameter/input transfers
    batch_memcpy: bool = True
    #: extra consistency checks (shared-argument equality, dependency order)
    validate: bool = False


@dataclass
class RunStats:
    """Per-run breakdown used by the experiment harness (Table 6 et al.)."""

    host_ms: Dict[str, float] = field(default_factory=dict)
    #: the fold of ``per_device`` (``elapsed_device_us``: the busiest member)
    device: Dict[str, float] = field(default_factory=dict)
    #: the trace's operand records counted by form, and their summed
    #: ``gather_segments`` (an index gather costs one take per segment)
    memory: Dict[str, int] = field(default_factory=dict)
    #: always empty; kept only because the wall-clock benchmark (``bench/``)
    #: still reads it
    specialize: Dict[str, float] = field(default_factory=dict)
    #: per-device counter breakdown of the runtime's
    #: :class:`~repro.devices.group.DeviceGroup`: one dict per member, with
    #: a ``device`` index key, always (a one-member group has one entry);
    #: empty only for stats no runtime produced (the Cortex baseline)
    per_device: List[Dict[str, float]] = field(default_factory=list)
    #: rows the run's batches executed
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


class AcrobatRuntime:
    """Lazy auto-batching runtime driving batched block kernels."""

    def __init__(
        self,
        kernels: Dict[int, BlockKernel],
        options: Optional[ExecutionOptions] = None,
        device: Any = None,
        placement: Any = None,
    ) -> None:
        from ..devices.group import DeviceGroup
        from ..devices.placement import make_placement
        from ..engine.registry import make_scheduler

        self.kernels = kernels
        self.options = options or ExecutionOptions()
        #: the accelerators this runtime charges, always a
        #: :class:`~repro.devices.group.DeviceGroup` (anything
        #: :meth:`~repro.devices.group.DeviceGroup.coerce` takes is adopted
        #: as one; a single simulator is the one-member group)
        self.device = DeviceGroup.coerce(device)
        #: what the current round did (see the module docstring)
        self.trace = RoundTrace()
        self.planner = MemoryPlanner(gather_fusion=self.options.gather_fusion)
        #: the pending graph: ``(phase, depth, block_id) -> Column`` (see the
        #: module docstring)
        self._columns: Dict[Tuple[int, int, int], Column] = {}
        self._scheduler = make_scheduler(
            self.options.scheduler,
            kernels=kernels,
            options=self.options,
            **self.options.scheduler_args,
        )
        # placement: a registry name or an instance; none given shards a
        # multi-member group request by request and leaves one member alone
        if placement is None and self.device.num_devices > 1:
            placement = "round_robin"
        if isinstance(placement, str):
            placement = make_placement(placement)
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

    # -- execution -------------------------------------------------------------
    def _spans(self) -> List[Span]:
        """Every pending row, as ``(column, stop)`` spans in column
        first-appearance order (``stop`` is the column's length)."""
        return [(col, len(col.seqs)) for col in self._columns.values()]

    def trigger(self) -> None:
        """Schedule, memory-plan and execute every pending row.

        Every non-empty trigger is one synchronization round (a DFG flush)
        and appends one ``sync`` record to the trace.
        """
        spans = self._spans()
        if not spans:
            return
        self._columns = {}
        self._round_seq = 0
        trace = self.trace
        host = trace.host_s

        start = time.perf_counter()
        batches = self._scheduler.schedule(spans)
        host["scheduling"] += time.perf_counter() - start

        if self._placement is not None:
            start = time.perf_counter()
            batches = self._placement.place_round(batches, self.device, self.kernels)
            host["placement"] += time.perf_counter() - start
        trace.sync(len(batches))

        start = time.perf_counter()
        plans = self.planner.plan_round(batches, self.kernels)
        host["memory_planning"] += time.perf_counter() - start

        for plan in plans:
            self._execute_batch(plan, trace)
        # every row of the round's columns has executed: drop the graph's
        # one back edge, so the round is freed by reference counting, and
        # the rows' arguments, so a live tensor keeps only its own column,
        # not the history of every row its column shared
        for col, _stop in spans:
            col.outs = col.args = None

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

    def _execute_batch(self, plan: BatchPlan, trace: RoundTrace) -> None:
        batch = plan.batch
        kernel = self.kernels[batch.block_id]
        batch_size = batch.size
        first = batch.segments[0][0]
        k = trace.batch(kernel.block.name, first.phase, first.depth, batch_size, plan.device)
        host = trace.host_s

        start = time.perf_counter()
        operands = self.planner.resolve(plan, kernel, self.device, self.options)
        host["dispatch"] += time.perf_counter() - start
        # resolution settles each operand's form (a remote singleton turns
        # peer) and counts a gathered column's source arenas
        for op in plan.operands:
            trace.operand(k, op.index, op.kind.value, op.segments)

        start = time.perf_counter()
        outputs, launches = kernel.execute_batched(operands, batch_size)
        host["numpy_compute"] += time.perf_counter() - start

        # launches land on the member device the placement policy chose
        local = self.device.device_for(plan.device)
        gather_fused = self.options.gather_fusion
        launch_us = 0.0
        for record in launches:
            us = local.launch(record, gather_fused=gather_fused)
            trace.launch(k, record.kernel_name, us)
            launch_us += us
        if self._placement is not None:
            # feed observed device cost back so adaptive placements learn
            # per-block work (static byte estimates miss compute-bound time)
            self._placement.observe(
                batch.block_id, batch_size, launch_us, len(launches), local.spec
            )

        start = time.perf_counter()
        self.planner.commit(plan, outputs)
        host["materialize"] += time.perf_counter() - start

    # -- bookkeeping -------------------------------------------------------------
    def collect_stats(self, batch_size: int, wall_s: float = 0.0) -> RunStats:
        """Fold the trace and the device group's counters into a
        :class:`RunStats`.

        Host time not attributed to scheduling, placement, memory planning,
        dispatch, kernel compute or output materialization is charged to DFG
        construction: graph building is interleaved with the front-end's own
        program execution, so it is measured as the remainder of the run's
        ``wall_s`` (0 when no wall time is given).
        """
        counts = self.trace.counts()
        host_s = self.trace.host_s
        host_ms = {"dfg_construction": max(0.0, 1e3 * (wall_s - sum(host_s.values())))}
        for bucket in ("scheduling", "memory_planning", "dispatch", "materialize"):
            host_ms[bucket] = 1e3 * host_s[bucket]
        if self._placement is not None:
            # the placement bucket exists only when a policy is active, so
            # single-device breakdowns keep their historical shape
            host_ms["placement"] = 1e3 * host_s["placement"]
        memory = {kind.value: counts.get(kind.value, 0) for kind in OperandKind}
        memory["gather_segments"] = counts["gather_segments"]
        # keyed by position in the group, as placement indices are
        per_device = [{"device": float(i), **member.counters.as_dict()} for i, member in enumerate(self.device)]
        return RunStats(
            host_ms=host_ms,
            device=_fold_devices(per_device),
            per_device=per_device,
            memory=memory,
            num_dfg_nodes=counts["rows"],
            num_batches=counts["batch"],
            batch_size=batch_size,
            sync_rounds=counts["sync"],
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
        self.trace = RoundTrace()
        self.device.reset()
        if self._placement is not None:
            # run boundary: placement policies rotate here, not between a
            # run's sync rounds (keeps fiber chains device-aligned)
            self._placement.note_reset()
        if release_residency:
            self.device.reset_residency()


def _fold_devices(per_device: List[Dict[str, float]]) -> Dict[str, float]:
    """The group's counters: every member component summed in member order,
    ``total_device_us`` recomputed from the sums, and ``elapsed_device_us``
    the busiest member's total (members run a round concurrently)."""
    skip = ("device", "total_device_us")
    device = {key: sum(m[key] for m in per_device) for key in per_device[0] if key not in skip}
    device["total_device_us"] = (
        device["kernel_time_us"] + device["gather_time_us"] + device["memcpy_time_us"] + device["peer_time_us"]
    )
    device["elapsed_device_us"] = max(m["total_device_us"] for m in per_device)
    return device


def _renumber(col: Column, first: int) -> None:
    """Point the lazy outputs of ``col``'s rows from ``first`` on at their
    (moved) row."""
    n = col.num_outputs
    outs = col.outs
    for i in range(first * n, len(outs)):
        outs[i].row = i // n

