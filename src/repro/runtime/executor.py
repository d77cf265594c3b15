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
A prepared round (:meth:`AcrobatRuntime.prepare_pending`) is stamped with
its cut and the store's generation, which every trigger, withdrawal and
reset advances; it still describes the next flush iff that flush cuts at the
same number in the same generation (appends land behind every cut, so
arrivals never invalidate it).

Host-side work (graph construction, scheduling, memory planning, operand
dispatch, output materialization) is measured as real wall-clock time;
device-side work is charged to the
:class:`~repro.runtime.device.DeviceSimulator`.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels.batched import BlockKernel
from ..memory.planner import BatchPlan, MemoryPlanner, OperandKind
from ..specialize.cache import BUILD as _SPEC_BUILD, SpecializationCache
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
    #: cache memory plans across structurally identical rounds (serving
    #: sessions flush similar request batches repeatedly; see
    #: :class:`~repro.memory.planner.MemoryPlanner`)
    plan_cache: bool = True
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
    #: segment) plus plan-cache accounting (``plan_cache_hits`` /
    #: ``plan_cache_misses`` / ``plan_cache_evictions``, cumulative over the
    #: runtime's lifetime)
    memory: Dict[str, int] = field(default_factory=dict)
    #: kernel-specialization tier accounting (promotions / demotions / hits /
    #: misses / entries / frozen_bytes, cumulative); empty when the tier is
    #: off
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
    #: fraction of this round's prepare-pipeline host work that was hidden
    #: behind the previous round's device time (0.0 when the round was not
    #: prepared ahead, 1.0 when preparation finished entirely under device
    #: execution); set by serving sessions with the overlap pipeline on
    overlap_ratio: float = 0.0

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
        out.update({f"spec_{k}": v for k, v in self.specialize.items()})
        out.update(self.device)
        if self.per_device:
            out["num_devices"] = len(self.per_device)
        if self.overlap_ratio:
            out["overlap_ratio"] = self.overlap_ratio
        return out


class PreparedRound:
    """A ready-to-launch round built ahead of its flush.

    Holds everything :meth:`AcrobatRuntime.trigger` would otherwise derive
    at flush time — the scheduled/placed batches of the rows it was built
    from, and fully instantiated ``BatchPlan``s — plus the *deferred* side
    effects (the planner's :class:`~repro.memory.planner.StagedRound` and
    the placement policy's pre-speculation state snapshot) that make
    abandoning it free.  It is stamped with what identifies those rows: the
    store's generation (advanced by every trigger, withdrawal and reset) and
    the sequence number it cut at.  A prepared round adopts only when the
    flush cuts at the same number in the same generation; any other
    admission divergence makes it worthless and it is abandoned, restoring
    placement state and dropping the staged planner mutations on the floor.
    """

    __slots__ = (
        "generation",
        "cut",
        "batches",
        "plans",
        "staged",
        "placement_state",
        "prepare_s",
    )

    def __init__(self, generation, cut, batches, plans, staged, placement_state, prepare_s):
        self.generation: int = generation
        self.cut: int = cut
        self.batches: List[ScheduledBatch] = batches
        self.plans: List[BatchPlan] = plans
        self.staged = staged
        self.placement_state = placement_state
        self.prepare_s: float = prepare_s


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
        self.planner = MemoryPlanner(
            gather_fusion=self.options.gather_fusion,
            plan_cache=self.options.plan_cache,
        )
        #: the kernel-specialization tier (see :mod:`repro.specialize`);
        #: exists iff the plan cache does — fingerprints *are* plan-cache
        #: slots — and never under `validate`, which wants every launch on
        #: the fully accounted generic program
        self._specializer = None
        if self.options.plan_cache and not self.options.validate:
            self._specializer = SpecializationCache()
            self.planner.attach_specializer(self._specializer)
        #: the pending graph: ``(phase, depth, block_id) -> Column`` (see the
        #: module docstring)
        self._columns: Dict[Tuple[int, int, int], Column] = {}
        #: advanced by every trigger, withdrawal and reset: a prepared round
        #: is only ever adopted within the generation it was built in
        self._generation = 0
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
        self._generation += 1
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

    def _matches(self, prepared: "PreparedRound", cut: int) -> bool:
        return prepared.generation == self._generation and prepared.cut == cut

    # -- execution -------------------------------------------------------------
    def trigger(
        self,
        prepared: Optional[PreparedRound] = None,
        limit: Optional[int] = None,
    ) -> bool:
        """Schedule, memory-plan and execute pending rows.

        Every non-empty trigger is one synchronization round (a DFG flush);
        the count is reported in :attr:`RunStats.sync_rounds`, so callers no
        longer thread fiber-round counts through :meth:`collect_stats`.

        ``limit`` executes only the rows whose sequence number is below it
        (the caller cuts at a request boundary — see the flush policies'
        round cap); the rows at or above it stay pending as the next
        round's prefix, their lazy outputs untouched.

        When a :class:`PreparedRound` (built earlier by
        :meth:`prepare_pending`, possibly speculatively) is passed and still
        describes the rows this trigger executes, the round *adopts* it:
        schedule/placement/planning are skipped, the staged planner
        mutations commit, and the already-timed prepare work lands in the
        ``prepare`` profiler bucket instead.  A stale prepared round is
        abandoned (placement state restored, staged mutations dropped) and
        the trigger falls back to the normal path — mis-speculation costs
        only the wasted host work, never correctness.  Returns True when the
        prepared round was adopted.
        """
        cut = self._cut(limit)
        spans = self._spans(cut)
        if not spans:
            if prepared is not None:
                self.abandon_prepared(prepared)
            return False
        if prepared is not None and not self._matches(prepared, cut):
            self.abandon_prepared(prepared)
            prepared = None
        self._take(spans, cut)
        self.sync_rounds += 1

        if prepared is not None:
            commit_start = time.perf_counter()
            self.planner.commit_staged(prepared.staged)
            self.profiler.add(
                "prepare", prepared.prepare_s + (time.perf_counter() - commit_start)
            )
            batches, plans = prepared.batches, prepared.plans
        else:
            sched_start = time.perf_counter()
            batches = self._scheduler.schedule(spans)
            self.profiler.add("scheduling", time.perf_counter() - sched_start)

            if self._placement is not None:
                place_start = time.perf_counter()
                batches = self._placement.place_round(
                    batches, self.device, self.kernels
                )
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
        return prepared is not None

    def drop_pending_slice(self, start: int, end: int) -> None:
        """Withdraw the pending rows with sequence numbers in ``[start,
        end)`` — the removal path for a cancelled request whose rows were
        recorded but whose round has not flushed.  Callers pass whole
        requests' ranges; the gap the removal leaves in the sequence only
        perturbs plan-cache signatures for this one round, never
        correctness.  Later rows of a column move up, their lazy outputs
        renumbered."""
        self._generation += 1
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

    # -- prepare pipeline ------------------------------------------------------
    def prepare_pending(self, limit: Optional[int] = None) -> Optional[PreparedRound]:
        """Build a :class:`PreparedRound` from the current pending rows
        without committing anything.

        Runs the full host pipeline — schedule, placement, memory planning —
        over the rows the next flush would execute, but defers every state
        mutation: the planner stages (``plan_round_staged``), the placement
        policy's rotation state is snapshotted for rollback, and the store
        is only read (the batches name its columns, which a later trigger
        at the same cut executes as they are).

        Safe to call from a second host thread while the previous round's
        *device* share is in flight — by construction nothing here touches
        the device simulator, the specialization tier, or any cumulative
        counter.  The caller must not interleave it with ``invoke``/
        ``trigger`` on the same runtime (serving loops serialize via their
        own synchronization).

        ``limit`` prepares only the rows below that sequence number — the
        composition a round-capped flush would execute (see
        :meth:`trigger`).
        """
        cut = self._cut(limit)
        spans = self._spans(cut)
        if not spans:
            return None
        start = time.perf_counter()
        batches = self._scheduler.schedule(spans)
        placement_state = None
        if self._placement is not None:
            placement_state = self._placement.snapshot_state()
            batches = self._placement.place_round(batches, self.device, self.kernels)
        plans, staged = self.planner.plan_round_staged(batches, self.kernels)
        prepare_s = time.perf_counter() - start
        return PreparedRound(
            self._generation, cut, batches, plans, staged, placement_state, prepare_s
        )

    def prepared_matches(
        self, prepared: PreparedRound, limit: Optional[int] = None
    ) -> bool:
        """True when the prepared round still describes exactly the rows the
        next flush would execute.  With a round cap (``limit``) those are
        the rows below the cut — later admissions append *behind* it, so a
        prepared prefix survives arrival churn."""
        return self._matches(prepared, self._cut(limit))

    def abandon_prepared(self, prepared: PreparedRound) -> None:
        """Discard a prepared round: restore the placement policy's state
        and drop the staged planner mutations.  After this, the runtime is
        observably identical to one that never speculated."""
        if self._placement is not None and prepared.placement_state is not None:
            self._placement.restore_state(prepared.placement_state)

    def arm_specialization(self) -> None:
        """Arm the kernel-specialization tier (idempotent, a no-op when the
        tier is off).  Sessions call this at construction, exactly as they
        arm the planner via ``expect_repeats``; one-shot runs never pay for
        promotion tracking they cannot amortize."""
        if self._specializer is not None:
            self._specializer.arm()

    @property
    def specializer(self):
        """The specialization cache (None when the tier is off)."""
        return self._specializer

    def _execute_batch(self, plan: BatchPlan) -> None:
        batch: ScheduledBatch = plan.batch
        kernel = self.kernels[batch.block_id]
        batch_size = batch.size

        dispatch_start = time.perf_counter()
        operands = self.planner.resolve(plan, kernel, self.device, self.options)
        # specialization tier: a promoted fingerprint whose operands pass the
        # entry's shape check replays its launch records; the promoting
        # launch itself, and a launch that just demoted, run the oracle on
        # the operands already in hand
        spec = self._specializer
        slot = plan.spec_slot
        verdict = None
        if spec is not None and slot is not None and spec.armed:
            verdict = spec.poll(slot, operands)
        self.profiler.add("dispatch", time.perf_counter() - dispatch_start)
        entry = None if verdict is _SPEC_BUILD else verdict

        compute_start = time.perf_counter()
        if entry is None:
            outputs, launches = kernel.execute_batched(operands, batch_size)
        else:
            outputs, launches = entry.execute(operands), entry.launches
        self.profiler.add("numpy_compute", time.perf_counter() - compute_start)

        if verdict is _SPEC_BUILD:
            # freeze the entry from this very oracle launch: promotion never
            # installs a path that has not just executed
            build_start = time.perf_counter()
            spec.build_and_install(
                slot, kernel, batch_size, operands, outputs, launches
            )
            self.profiler.add("specialize", time.perf_counter() - build_start)
        elif entry is not None and spec.crosscheck:
            check_start = time.perf_counter()
            entry.crosscheck(operands, outputs)
            self.profiler.add("specialize", time.perf_counter() - check_start)

        # launches land on the member device the placement policy chose
        local = self.device.device_for(plan.device)
        tp = getattr(batch, "tp_devices", None)
        launch_us = 0.0
        if tp is not None and len(tp) > 1:
            # tensor-parallel batch: every member runs a 1/k-scaled shard of
            # each launch record concurrently (the batch's elapsed time is
            # its slowest shard), then the remote members ship their output
            # partials to the home device as peer-priced gathers.  The NumPy
            # kernel already executed once, unsharded — sharding is purely a
            # cost-model transform — so the observation fed back below is
            # the *unsharded* cost and the split decision stays stable.
            k = len(tp)
            observe_us = 0.0
            for record in launches:
                shard = replace(
                    record,
                    flops=record.flops / k,
                    bytes_read=record.bytes_read / k,
                    bytes_written=record.bytes_written / k,
                    scattered_bytes=record.scattered_bytes / k,
                )
                launch_us += max(
                    self.device.device_for(member).launch(
                        shard, gather_fused=self.options.gather_fusion
                    )
                    for member in tp
                )
                observe_us += local.kernel_time_us(
                    record, self.options.gather_fusion
                )
            for out, _arena_id in zip(outputs, plan.output_arena_ids):
                nbytes = float(np.asarray(out.array).nbytes)
                for member in tp:
                    if member != plan.device:
                        self.device.peer_transfer(member, plan.device, nbytes / k)
            self.planner.partial_arenas += len(plan.output_arena_ids)
        else:
            for record in launches:
                launch_us += local.launch(
                    record, gather_fused=self.options.gather_fusion
                )
            observe_us = launch_us
        if self._placement is not None:
            # feed observed device cost back so adaptive placements learn
            # per-block work (static byte estimates miss compute-bound time)
            self._placement.observe(
                batch.block_id,
                batch_size,
                observe_us,
                len(launches),
                local.spec,
                bytes_written=sum(record.bytes_written for record in launches),
            )

        store_start = time.perf_counter()
        if entry is not None:
            entry.commit(outputs)
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
        prepare = self.profiler.ms("prepare")
        if prepare:
            # pipelined host work (schedule+placement+planning done ahead of
            # the flush); the bucket exists only when rounds actually adopt
            # prepared work, so non-pipelined breakdowns keep their shape
            host_ms["prepare"] = prepare
        if self._specializer is not None and self._specializer.armed:
            # promotion (entry freezing / cross-checking) time; like
            # placement, the bucket exists only when the tier is active
            host_ms["specialize"] = self.profiler.ms("specialize")
        memory = dict(self.planner.operand_counts)
        memory["gather_segments"] = self.planner.gather_segments
        memory["plan_cache_hits"] = self.planner.cache_hits
        memory["plan_cache_misses"] = self.planner.cache_misses
        memory["plan_cache_evictions"] = self.planner.cache_evictions
        if self.planner.partial_arenas:
            # partial-output arenas born from tensor-parallel launches (the
            # key exists only when the policy actually split something, so
            # non-TP breakdowns keep their historical shape)
            memory["partial_arenas"] = self.planner.partial_arenas
        device = self.device.counters_dict()
        per_device = self.device.per_device_dicts()
        if (
            per_device
            and "elapsed_device_us" in device
            and getattr(self._placement, "timeline_mode", None) == "staged"
        ):
            # a depth-staged round runs its stages *sequentially* (stage s+1
            # consumes stage s's outputs), so its elapsed device time is the
            # members' busy sum, not the busiest member; the cross-round
            # overlap a staged placement buys is the serving timeline's job
            # (per-device lanes), never this counter's
            device["elapsed_device_us"] = sum(
                d.get("total_device_us", 0.0) for d in per_device
            )
        return RunStats(
            host_ms=host_ms,
            device=device,
            per_device=per_device,
            memory=memory,
            specialize=(
                self._specializer.stats_dict()
                if self._specializer is not None
                else {}
            ),
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
        self._generation += 1
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
