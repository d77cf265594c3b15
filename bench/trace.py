"""Outside-in layer tracing for the wall-clock benchmark.

Nothing under ``src/`` knows it is being traced: :func:`install_layer_boundaries`
patches wrappers around the public functions at each layer boundary (module
under ``src/repro/``), and :meth:`Tracer.uninstall` puts the originals back.

Two kinds of wrapper exist because the boundaries differ by four orders of
magnitude in call rate:

* a **span** records ``(name, start, end, seq, parent, thread, id, self)``
  in memory — one per compile pass, engine run, sync round, memory plan,
  kernel launch, session submit/flush;
* a **leaf** (``AcrobatRuntime.invoke``, the op-registry bodies,
  ``DeviceSimulator.launch``, ``materialize_value``: thousands of calls per
  batch) only adds its duration to a per-thread ``(calls, seconds)`` total
  and to its parent's child coverage.  Recording those as spans would cost
  more than the calls themselves and write a 40 MB trace per run.

Self time of a span is its duration minus the part its children cover;
children of one span run on the same thread and never overlap, so coverage
is the sum of their durations.  Each thread keeps its own stack.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_perf = time.perf_counter

# frame layout on a thread's stack
_T0, _CHILD, _SEQ, _RID = 0, 1, 2, 3


class _ThreadState:
    __slots__ = ("stack", "leaves", "tid", "name", "rid")

    def __init__(self, tid: int, name: str) -> None:
        self.stack: List[list] = []
        #: leaf name -> [calls, seconds]
        self.leaves: Dict[str, list] = {}
        self.tid = tid
        self.name = name
        #: id given to spans opened on this thread with no id of their own
        #: and no parent (the harness sets it: batch index / sequence id)
        self.rid: Any = None


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self) -> None:
        self.enabled = False
        #: finished spans: (name, t0, t1, seq, parent_seq, tid, rid, self_s, extra)
        self.spans: List[tuple] = []
        #: spans of earlier phases, kept for the trace file only
        self._archived: List[tuple] = []
        #: plain counts taken at the wrapped boundaries
        self.counters: Dict[str, float] = {}
        self._tls = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self._seq = itertools.count()

    # -- per-thread state --------------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            thread = threading.current_thread()
            st = _ThreadState(threading.get_ident(), thread.name)
            self._tls.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def set_id(self, rid: Any) -> None:
        """Tag the spans this thread opens next (one batch / one request)."""
        self._state().rid = rid

    # -- wrappers ----------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        leaf: bool = False,
        ident: Optional[Callable[[tuple, dict], Any]] = None,
        before: Optional[Callable[[tuple, dict], Any]] = None,
        after: Optional[Callable[[Any, tuple, dict, Any], Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper named ``name``.

        ``ident(args, kwargs)`` supplies the span id (default: the parent's,
        else the thread's).  ``before(args, kwargs)`` runs ahead of the call
        and its result is handed to ``after(result, args, kwargs, token)``,
        which runs when the call returns; what ``after`` returns, if not
        None, is stored as the span's ``extra`` (e.g. the request ids a
        round served).
        """
        fn = getattr(owner, attr)
        if leaf:
            wrapper = self._leaf(fn, name)
        else:
            wrapper = self._span(fn, name, ident, before, after)
        wrapper.__wrapped__ = fn
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def _leaf(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def leaf(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            st = getattr(tracer._tls, "st", None) or tracer._state()
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _perf() - t0
                tot = st.leaves.get(name)
                if tot is None:
                    st.leaves[name] = [1, dur]
                else:
                    tot[0] += 1
                    tot[1] += dur
                if st.stack:
                    st.stack[-1][_CHILD] += dur

        return leaf

    def _span(self, fn: Callable, name: str, ident, before, after) -> Callable:
        tracer = self

        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            st = getattr(tracer._tls, "st", None) or tracer._state()
            stack = st.stack
            rid = ident(args, kwargs) if ident is not None else None
            if rid is None:
                rid = stack[-1][_RID] if stack else st.rid
            seq = next(tracer._seq)
            token = before(args, kwargs) if before is not None else None
            frame = [_perf(), 0.0, seq, rid]
            stack.append(frame)
            extra = None
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    extra = after(result, args, kwargs, token)
                return result
            finally:
                t1 = _perf()
                stack.pop()
                dur = t1 - frame[_T0]
                parent = None
                if stack:
                    stack[-1][_CHILD] += dur
                    parent = stack[-1][_SEQ]
                tracer.spans.append(
                    (name, frame[_T0], t1, seq, parent, st.tid, rid,
                     dur - frame[_CHILD], extra)
                )

        return span

    def next_phase(self) -> None:
        """Keep the spans so far for the trace file; aggregate from zero."""
        self._archived.extend(self.spans)
        self.spans = []
        self.counters = {}
        for st in self._threads:
            st.leaves = {}

    def uninstall(self) -> None:
        """Disable tracing and restore every patched attribute."""
        self.enabled = False
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    # -- aggregation -------------------------------------------------------------
    def thread_names(self) -> Dict[int, str]:
        return {st.tid: st.name for st in self._threads}

    def leaf_totals(self) -> Dict[str, List[float]]:
        """Leaf name -> [calls, seconds], summed over threads."""
        out: Dict[str, List[float]] = {}
        for st in self._threads:
            for name, (calls, secs) in st.leaves.items():
                tot = out.setdefault(name, [0, 0.0])
                tot[0] += calls
                tot[1] += secs
        return out

    def span_totals(self, thread: Optional[str] = None) -> Dict[str, List[float]]:
        """Span name -> [calls, self seconds, total seconds]; ``thread``
        restricts to spans recorded on the thread of that name."""
        names = self.thread_names()
        out: Dict[str, List[float]] = {}
        for name, t0, t1, _seq, _parent, tid, _rid, self_s, _extra in self.spans:
            if thread is not None and names.get(tid) != thread:
                continue
            tot = out.setdefault(name, [0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += self_s
            tot[2] += t1 - t0
        return out

    def top_level_seconds(self, tid: int) -> float:
        """Wall covered by the spans of one thread that have no parent."""
        return sum(
            t1 - t0
            for _n, t0, t1, _s, parent, span_tid, _r, _self, _e in self.spans
            if parent is None and span_tid == tid
        )

    def self_sum_error(self, root: str) -> float:
        """|sum of self times under ``root`` spans - sum of ``root`` durations|
        as a share of the latter: 0 when every span and leaf nests inside
        exactly one parent.  Only meaningful when everything traced runs
        under ``root`` spans (the batch workloads)."""
        root_s = 0.0
        self_s = 0.0
        for name, t0, t1, _seq, _parent, _tid, _rid, span_self, _extra in self.spans:
            self_s += span_self
            if name == root:
                root_s += t1 - t0
        for _calls, secs in self.leaf_totals().values():
            self_s += secs
        if root_s == 0.0:
            return 0.0
        return abs(self_s - root_s) / root_s

    def dump_chrome(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the spans as Chrome trace-event JSON (open in
        ``chrome://tracing`` or Perfetto).  Leaves appear as per-thread
        totals under ``leafTotals``, not as events."""
        spans = self._archived + self.spans
        origin = min((s[1] for s in spans), default=0.0)
        events = []
        for name, t0, t1, seq, parent, tid, rid, self_s, extra in spans:
            args = {"seq": seq, "parent": parent, "id": rid, "self_us": self_s * 1e6}
            if extra is not None:
                args["served"] = extra
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (t0 - origin) * 1e6,
                    "dur": (t1 - t0) * 1e6,
                    "pid": 0,
                    "tid": tid,
                    "args": args,
                }
            )
        for tid, tname in self.thread_names().items():
            events.append(
                {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                 "args": {"name": tname}}
            )
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "meta": meta,
            "leafTotals": {
                st.name: {k: {"calls": v[0], "ms": v[1] * 1e3} for k, v in st.leaves.items()}
                for st in self._threads
                if st.leaves
            },
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def install_layer_boundaries(
    tracer: Tracer, request_ids: Dict[int, Any], request_times: List[tuple]
) -> None:
    """Wrap the calls into each layer of ``repro`` and enable the tracer.

    Every handle ``Server.submit`` returns reports ``(queue_ms, execute_ms)``
    from its public ``stats`` into ``request_times`` when it resolves.  For
    token streaming the step requests are submitted by the pump thread, so
    this boundary is the only place the harness can see them.

    ``request_ids`` maps ``id(instance)`` to the harness's request number;
    the harness fills it before it submits, and the serving spans read it so
    the spans of one request share an id across the producer and the loop
    thread.  Install before compiling: the op-registry wrappers must be in
    place before any specialized block program captures an op body.
    """
    import inspect

    from repro.compiler import codegen, driver
    from repro.core import api
    from repro.devices import placement
    from repro.engine import engine
    from repro.generate.session import GenerationSession
    from repro.kernels.batched import BlockKernel
    from repro.kernels.registry import all_ops
    from repro.memory.planner import MemoryPlanner
    from repro.runtime import scheduler
    from repro.runtime.device import DeviceSimulator
    from repro.runtime.executor import AcrobatRuntime
    from repro.runtime.fibers import FiberScheduler
    from repro.serve import session as serve_session
    from repro.serve.server import Server
    from repro.specialize.cache import SpecializationCache
    from repro.specialize.entry import SpecializedEntry

    wrap = tracer.wrap

    # compiler / analysis / kernels construction
    wrap(api, "compile_module", "compiler.compile_module")
    for name in (
        "specialize_functions",
        "analyze_taint",
        "infer_phases",
        "uses_tensor_dependent_control_flow",
        "reachable_functions",
    ):
        wrap(driver, name, "analysis.pass")
    wrap(codegen.PythonCodegen, "generate", "compiler.codegen")
    wrap(BlockKernel, "__init__", "kernels.build")

    # engine
    wrap(engine.ExecutionEngine, "run", "engine.run")
    wrap(engine, "materialize_value", "engine.materialize", leaf=True)
    wrap(serve_session, "materialize_value", "engine.materialize", leaf=True)

    # runtime
    wrap(AcrobatRuntime, "invoke", "runtime.invoke", leaf=True)
    wrap(AcrobatRuntime, "trigger", "runtime.trigger")
    wrap(FiberScheduler, "run", "runtime.fibers")
    for _, cls in inspect.getmembers(scheduler, inspect.isclass):
        if "schedule" in vars(cls):
            wrap(cls, "schedule", "runtime.schedule")

    # memory
    wrap(MemoryPlanner, "plan_round", "memory.plan")
    wrap(MemoryPlanner, "resolve", "memory.resolve")
    wrap(MemoryPlanner, "commit", "memory.commit")

    # specialize
    wrap(SpecializedEntry, "try_resolve", "specialize.dispatch")
    wrap(SpecializedEntry, "execute", "kernels.execute", after=_count_entry_launches(tracer))
    wrap(SpecializedEntry, "commit", "memory.commit")
    wrap(SpecializationCache, "build_and_install", "specialize.build")

    # kernels: the batched block and the registered op bodies under it
    wrap(BlockKernel, "execute_batched", "kernels.execute", after=_count_launches(tracer))
    for opdef in all_ops().values():
        wrap(opdef, "compute", "kernels.op_body", leaf=True)
        if opdef.batched is not None:
            wrap(opdef, "batched", "kernels.op_body", leaf=True)

    # devices
    wrap(DeviceSimulator, "launch", "devices.launch", leaf=True)
    for _, cls in inspect.getmembers(placement, inspect.isclass):
        if "place_round" in vars(cls):
            wrap(cls, "place_round", "devices.place")

    # serve / generate
    def request_id_of(position):
        """Span id from the ``instance`` argument at ``position``."""

        def ident(args, kwargs):
            instance = args[position] if len(args) > position else kwargs.get("instance")
            return request_ids.get(id(instance))

        return ident

    def note_times(handle):
        stats = handle.stats
        if stats is not None:
            request_times.append((stats.queue_ms, stats.execute_ms))

    wrap(
        Server, "submit", "serve.submit", ident=request_id_of(2),
        after=lambda handle, args, kwargs, _token: handle.add_done_callback(note_times),
    )
    wrap(
        serve_session.InferenceSession, "submit", "serve.session_submit",
        ident=request_id_of(1), after=_note_handle(request_ids),
    )
    wrap(
        serve_session.InferenceSession, "flush", "serve.flush",
        # the pending handles are gone once the round has run
        before=lambda args, kwargs: args[0].pending_handles,
        after=_served_ids(request_ids),
    )
    wrap(serve_session.InferenceSession, "poll", "serve.poll")
    wrap(GenerationSession, "submit", "generate.submit")

    tracer.enabled = True


def _count_launches(tracer: Tracer) -> Callable:
    def after(result, args, kwargs, _token):
        _outputs, launches = result
        _count_records(tracer, launches, args[2] if len(args) > 2 else kwargs["batch_size"])

    return after


def _count_entry_launches(tracer: Tracer) -> Callable:
    def after(result, args, kwargs, _token):
        entry = args[0]
        _count_records(tracer, entry.launches, entry.batch_size)

    return after


def _count_records(tracer: Tracer, launches, batch_size: int) -> None:
    """FLOPs and bytes are *computed* by the kernels from operand shapes
    (``LaunchRecord``), not measured."""
    c = tracer.counters
    c["kernels.batch_rows"] = c.get("kernels.batch_rows", 0) + batch_size
    flops = moved = 0.0
    for rec in launches:
        flops += rec.flops
        moved += rec.bytes_read + rec.bytes_written
    c["kernels.flops"] = c.get("kernels.flops", 0.0) + flops
    c["kernels.bytes_moved"] = c.get("kernels.bytes_moved", 0.0) + moved


def _served_ids(request_ids: Dict[int, Any]) -> Callable:
    """The request ids a round served (a capped flush leaves some handles
    pending; decode steps are submitted by the pump and carry no id)."""

    def after(_result, _args, _kwargs, handles):
        ids = (request_ids.pop(id(h), None) for h in handles if h.done)
        return [rid for rid in ids if rid is not None]

    return after


def _note_handle(request_ids: Dict[int, Any]) -> Callable:
    """Remember which request a session handle belongs to, so the round
    span can list the requests it served."""

    def after(handle, args, kwargs, _token):
        instance = args[1] if len(args) > 1 else kwargs.get("instance")
        rid = request_ids.get(id(instance))
        if rid is not None:
            request_ids[id(handle)] = rid

    return after
