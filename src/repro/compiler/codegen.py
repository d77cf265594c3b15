"""Ahead-of-time code generation (§6, §C.2).

The paper compiles the input Relay program to C++; here we compile it to
Python source that is ``exec``-ed once at compile time.  The generated code
is the *unbatched* program: it runs once per mini-batch instance, calling
``__rt.invoke(block_id, depth, phase, args)`` for every static block and
thereby lazily building the DFG.  The generator also inserts:

* **inline depth computation** — a per-instance ``__depth`` counter threaded
  through calls; hoisted blocks use the static depth 0 (§4.1, §A.1);
* **program-phase updates** in ``main`` (§A.3);
* **ghost-operator alignment** of the depth counter across conditional
  branches (§4.1, Fig. 3);
* **concurrent-call handling** — sibling calls annotated as concurrent share
  their starting depth; under tensor-dependent control flow they are spawned
  as fibers and joined (§4.2);
* **synchronization points** (``yield``) before every host read of a tensor
  value, which is what makes batching possible in the presence of
  tensor-dependent control flow;
* **self tail calls as loops** — see below.

For programs without tensor-dependent control flow plain functions are
generated; otherwise every generated function is a generator coroutine
driven by :class:`repro.runtime.fibers.FiberScheduler`.

Tail calls
----------
A call is in *tail position* when its value is the function's result: the end
of the body's let-chain, through the arms of ``If`` and ``Match`` and through
nested let-chains (a ``Let`` value, a condition, a scrutinee or a tuple field
is not).  A function with a call to *itself* in tail position, with its own
arity, is emitted as ``while True:``; each such call becomes one simultaneous
assignment of the parameters whose argument is not the parameter itself
(``buffer, stack = buf_rest, ADTValue(...)`` — ``f(b, a)`` must swap, and a
weight passed through unchanged is never touched) followed by ``continue``,
in generator and plain mode alike.  A sequence model's step therefore runs in
one frame however long the sequence is: a ``yield from`` chain instead grows
by a frame per step, and every fiber resume walks all of it.  The depth
counter lives in the shared ``__depth`` cell either way, so every node gets
the ``(phase, depth)`` it had as a call.

Every other call keeps the call form: non-tail recursion (TreeLSTM's child
calls), calls to other functions, ``map`` / ``foldl``, spawned concurrent
calls.  The loop form is refused, and a self tail call stays a call, when

* the function is ``main`` (its phase updates assume one pass over the body);
* the body contains a nested ``Function``: a closure created in one iteration
  would see the next iteration's rebinding of the variables it captured.

The jump is sound only because nothing runs after it.  What could is a ghost
alignment after the enclosing conditional — never emitted there, because a
jump, like a call, makes the branch's depth delta unknown;
``_emit_alignment`` asserts it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..analysis.phases import PhaseAssignment
from ..analysis.structure import hoistable_bindings
from ..analysis.taint import TaintResult
from ..ir.adt import ADTValue, PatternConstructor, PatternVar, PatternWildcard
from ..ir.expr import (
    Call,
    Constant,
    ConstructorRef,
    Expr,
    Function,
    GlobalVar,
    If,
    Let,
    Match,
    OpRef,
    TupleExpr,
    TupleGetItem,
    Var,
)
from ..ir.module import IRModule, PRELUDE_FUNCTIONS
from ..ir.visitor import collect, free_vars
from ..kernels.block import StaticBlock
from ..kernels.registry import get_op, has_op
from .blocks import BlockBuilder
from .intrinsics import make_intrinsics
from .options import CompilerOptions

#: host scalar operators inlined as Python expressions
_SCALAR_FMT = {
    "scalar_add": "({0} + {1})",
    "scalar_sub": "({0} - {1})",
    "scalar_mul": "({0} * {1})",
    "scalar_gt": "({0} > {1})",
    "scalar_ge": "({0} >= {1})",
    "scalar_lt": "({0} < {1})",
    "scalar_le": "({0} <= {1})",
    "scalar_eq": "({0} == {1})",
    "scalar_and": "({0} and {1})",
    "scalar_or": "({0} or {1})",
    "scalar_not": "(not {0})",
}


def py_func_name(name: str) -> str:
    """Sanitize an IR global-function name into a Python identifier."""
    return "__fn_" + name.replace("$", "_S_").replace("-", "_")


@dataclass
class GeneratedProgram:
    """Result of AOT code generation."""

    source: str
    namespace: Dict[str, Any]
    blocks: List[StaticBlock]
    tdc: bool
    entry: str = "main"
    num_functions: int = 0

    @property
    def entry_callable(self):
        return self.namespace[py_func_name(self.entry)]


class PythonCodegen:
    """Generates Python source for every reachable function of a module."""

    def __init__(
        self,
        module: IRModule,
        taint: TaintResult,
        phases: PhaseAssignment,
        options: CompilerOptions,
        tdc: bool,
        function_order: Sequence[str],
    ) -> None:
        self.module = module
        self.taint = taint
        self.phases = phases
        self.options = options
        self.tdc = tdc
        self.function_order = [
            n for n in function_order if n not in PRELUDE_FUNCTIONS and n in module.functions
        ]
        self.block_builder = BlockBuilder(taint)
        self.constants: Dict[str, np.ndarray] = {}
        self._const_counter = itertools.count()
        self._hoistable: Dict[str, Set[int]] = {}

    # -- public ---------------------------------------------------------------
    def generate(self) -> GeneratedProgram:
        sources: List[str] = []
        for name in self.function_order:
            func = self.module.functions[name]
            if self.options.hoisting:
                self._hoistable[name] = hoistable_bindings(name, func, self.module)
            else:
                self._hoistable[name] = set()
            emitter = _FunctionEmitter(self, name, func)
            sources.append(emitter.generate())
        source = "\n\n\n".join(sources)

        nil = self.module.get_constructor("Nil")
        cons = self.module.get_constructor("Cons")
        namespace: Dict[str, Any] = {
            "ADTValue": ADTValue,
            "__rt": None,
            "__fibers": None,
        }
        for adt in self.module.adts.values():
            for ctor in adt.constructors:
                namespace[f"__ctor_{ctor.name}"] = ctor
        namespace.update(make_intrinsics(nil, cons, self.tdc))
        namespace.update(self.constants)
        exec(compile(source, "<acrobat-aot>", "exec"), namespace)
        return GeneratedProgram(
            source=source,
            namespace=namespace,
            blocks=self.block_builder.blocks,
            tdc=self.tdc,
            num_functions=len(self.function_order),
        )

    # -- helpers used by the emitters -------------------------------------------
    def intern_constant(self, value: np.ndarray) -> str:
        name = f"__const_{next(self._const_counter)}"
        self.constants[name] = value
        return name

    def hoistable_for(self, fname: str) -> Set[int]:
        return self._hoistable.get(fname, set())


class _Scope:
    """Per-function name allocation and variable environment."""

    def __init__(self) -> None:
        self.env: Dict[int, str] = {}
        self.used: Set[str] = set()
        self._counter = itertools.count()

    def fresh(self, hint: str) -> str:
        base = "".join(c if (c.isalnum() or c == "_") else "_" for c in hint) or "v"
        if base[0].isdigit():
            base = "v" + base
        name = base
        while name in self.used or name in ("__depth", "__phase"):
            name = f"{base}_{next(self._counter)}"
        self.used.add(name)
        return name

    def bind(self, var: Var) -> str:
        name = self.fresh(var.name_hint or "v")
        self.env[id(var)] = name
        return name

    def lookup(self, var: Var) -> str:
        try:
            return self.env[id(var)]
        except KeyError:
            raise KeyError(f"codegen: unbound variable {var!r}") from None


class _FunctionEmitter:
    """Emits the Python definition of one IR function."""

    def __init__(self, cg: PythonCodegen, fname: str, func: Function) -> None:
        self.cg = cg
        self.fname = fname
        self.func = func
        self.scope = _Scope()
        self.lines: List[Optional[str]] = []
        self.level = 1
        # ghost-op bookkeeping: dynamic-depth invocations emitted so far and
        # whether an unknown-depth construct (call/recursion) was emitted
        self.dyn_invokes = 0
        self.unknown_delta = False
        self.cur_phase = 0
        self.is_main = fname == "main"
        #: ``continue`` statements emitted so far (see ``_emit_alignment``)
        self.tail_jumps = 0
        #: emit the body as a loop and self tail calls as jumps (module
        #: docstring, "Tail calls", has the two refusals and why)
        self.loop = (
            not self.is_main
            and self._ends_in_self_call(func.body)
            and not collect(func.body, lambda e: isinstance(e, Function))
        )

    # -- emission helpers -------------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " * self.level + line)

    def fresh(self, hint: str) -> str:
        return self.scope.fresh(hint)

    def _reserve_depth_capture(self) -> Optional[Tuple[int, int]]:
        """Hold a line, ahead of a conditional, for the entry-depth capture
        its ghost alignment may turn out to need."""
        if not self.cg.options.ghost_ops:
            return None
        self.lines.append(None)
        return len(self.lines) - 1, self.tail_jumps

    def _emit_alignment(self, capture: Tuple[int, int], delta: int) -> None:
        """Ghost operators: align the depth counter so post-branch operators
        batch across instances that took different branches (Fig. 3)."""
        slot, jumps_before = capture
        # a path that ended in ``continue`` never reaches this line; skipping
        # it is sound only because a jump, like a call, makes the branch's
        # depth delta unknown, and an unknown delta is never aligned
        assert self.tail_jumps == jumps_before, "ghost alignment after a tail jump"
        entry_depth = self.fresh("gd")
        self.lines[slot] = "    " * self.level + f"{entry_depth} = __depth[0]"
        self.emit(f"__depth[0] = {entry_depth} + {delta}")

    # -- top level ----------------------------------------------------------------
    def generate(self) -> str:
        params = [self.scope.bind(p) for p in self.func.params]
        header = f"def {py_func_name(self.fname)}({', '.join(params + ['__depth', '__phase'])}):"
        if self.cg.tdc:
            self.emit("if False: yield  # ensure generator")
        if self.loop:
            self.emit("while True:")
            self.level += 1
        result = self.compile_chain(self.func.body, top_level=self.is_main, tail=self.loop)
        if result is not None:
            self.emit(f"return {result}")
        body = [line for line in self.lines if line is not None]
        return header + "\n" + "\n".join(body)

    # -- self tail calls ------------------------------------------------------------
    def _is_self_call(self, expr: Expr) -> bool:
        return (
            isinstance(expr, Call)
            and isinstance(expr.op, GlobalVar)
            and expr.op.name == self.fname
            and len(expr.args) == len(self.func.params)
            and expr.attrs.get("concurrent_group") is None
        )

    def _ends_in_self_call(self, expr: Expr) -> bool:
        """Whether some path through ``expr``, taken in tail position, ends
        in a call to the function being emitted."""
        while isinstance(expr, Let):
            expr = expr.body
        if isinstance(expr, If):
            arms = [expr.then_branch, expr.else_branch]
        elif isinstance(expr, Match):
            arms = [c.body for c in expr.clauses]
        else:
            return self._is_self_call(expr)
        return any(self._ends_in_self_call(arm) for arm in arms)

    def _emit_tail_jump(self, call: Call) -> None:
        """The next iteration of a loop-form function: one simultaneous
        assignment of the parameters whose argument is not the parameter
        itself, then ``continue``."""
        params = [self.scope.lookup(p) for p in self.func.params]
        args = [self.compile_expr(a) for a in call.args]
        changed = [(p, a) for p, a in zip(params, args) if p != a]
        if changed:
            targets, values = zip(*changed)
            self.emit(f"{', '.join(targets)} = {', '.join(values)}")
        self.emit("continue")
        self.tail_jumps += 1
        # what a call does to the bookkeeping: the depth after it is unknown
        self.unknown_delta = True

    # -- let chains / static block runs ---------------------------------------------
    def _classify(self, value: Expr) -> str:
        if isinstance(value, Call) and isinstance(value.op, OpRef) and has_op(value.op.name):
            if get_op(value.op.name).kind == "tensor":
                return "op"
        return "other"

    def _binding_phase(self, value: Expr) -> int:
        return self.cg.phases.phase_of(value, self.cur_phase)

    def compile_chain(
        self, expr: Expr, top_level: bool = False, tail: bool = False
    ) -> Optional[str]:
        """Emit a let-chain and return the expression naming its value.
        ``tail`` marks the tail position of a loop-form function; there the
        value is ``None`` when every path ended in the loop's ``continue``."""
        run: List[Tuple[Optional[Var], Call]] = []
        run_hoisted = False
        options = self.cg.options
        hoistable = self.cg.hoistable_for(self.fname)

        def flush(rest: Expr) -> None:
            nonlocal run, run_hoisted
            if not run:
                return
            rest_free = {id(v) for v in free_vars(rest)}
            escaping = [v for v, _ in run if v is not None and id(v) in rest_free]
            self._emit_block(run, escaping, run_hoisted)
            run = []
            run_hoisted = False

        cur: Expr = expr
        while isinstance(cur, Let):
            var, value = cur.var, cur.value

            if top_level and options.program_phases and self.is_main:
                phase = self._binding_phase(value)
                if phase != self.cur_phase:
                    flush(cur)
                    self.emit(f"__phase = {phase}")
                    # phases are drained in order, so the depth counter can
                    # restart: operators of a new semantic stage batch together
                    # across instances regardless of how deep the previous
                    # stage recursed (§A.3)
                    self.emit("__depth[0] = 0")
                    self.cur_phase = phase

            kind = self._classify(value)
            if kind == "op":
                hoisted = options.hoisting and id(value) in hoistable
                if run and (run_hoisted != hoisted or not options.grain_size_coarsening):
                    flush(cur)
                run.append((var, value))
                run_hoisted = hoisted
                if not options.grain_size_coarsening:
                    flush(cur.body)
                cur = cur.body
                continue

            flush(cur)

            group_id = value.attrs.get("concurrent_group") if isinstance(value, Call) else None
            if group_id is not None:
                cur = self._emit_concurrent_group(cur, group_id)
                continue

            value_str = self.compile_expr(value)
            name = self.scope.bind(var)
            self.emit(f"{name} = {value_str}")
            cur = cur.body

        if top_level and options.program_phases and self.is_main:
            phase = self.cg.phases.result_phase
            if phase != self.cur_phase:
                flush(cur)
                self.emit(f"__phase = {phase}")
                self.cur_phase = phase
        flush(cur)
        return self.compile_expr(cur, tail)

    def _emit_block(
        self,
        bindings: List[Tuple[Optional[Var], Call]],
        escaping: List[Var],
        hoisted: bool,
    ) -> List[str]:
        result = self.cg.block_builder.build(
            bindings, escaping, name=self.fname, hoisted=hoisted
        )
        arg_strs = [self.compile_expr(e) for e in result.input_exprs]
        depth_expr = "0" if hoisted else "__depth[0]"
        if result.output_vars:
            out_names = [self.scope.bind(v) for v in result.output_vars]
        else:
            out_names = [self.fresh("blk")]
        lhs = ", ".join(out_names)
        arg_tuple = ", ".join(arg_strs) + ("," if len(arg_strs) == 1 else "")
        self.emit(
            f"{lhs} = __rt.invoke({result.block.block_id}, {depth_expr}, __phase, "
            f"({arg_tuple}))"
        )
        if not hoisted:
            self.emit("__depth[0] += 1")
            self.dyn_invokes += 1
        return out_names

    # -- concurrent fork-join ----------------------------------------------------
    def _emit_concurrent_group(self, cur: Let, group_id: Any) -> Expr:
        """Emit all consecutive bindings belonging to one concurrent group and
        return the remaining let-chain."""
        members: List[Tuple[Var, Call]] = []
        node: Expr = cur
        while (
            isinstance(node, Let)
            and isinstance(node.value, Call)
            and node.value.attrs.get("concurrent_group") == group_id
        ):
            members.append((node.var, node.value))
            node = node.body

        opts = self.cg.options
        d0 = self.fresh("cc_d0")
        self.emit(f"{d0} = __depth[0]")
        self.unknown_delta = True

        use_fibers = self.cg.tdc and opts.concurrent_fibers
        if use_fibers:
            handle_names: List[str] = []
            depth_names: List[str] = []
            for var, call in members:
                di = self.fresh("cc_dep")
                self.emit(f"{di} = [{d0}]")
                depth_names.append(di)
                callee_str = self._compile_callee_for_spawn(call, di)
                hi = self.fresh("cc_h")
                self.emit(f"{hi} = __fibers.spawn({callee_str})")
                handle_names.append(hi)
            joined = self.fresh("cc_res")
            self.emit(f"{joined} = yield ('join', [{', '.join(handle_names)}])")
            for i, (var, _) in enumerate(members):
                name = self.scope.bind(var)
                self.emit(f"{name} = {joined}[{i}]")
            depth_reads = ", ".join(f"{d}[0]" for d in depth_names)
            self.emit(f"__depth[0] = max({d0}, {depth_reads})")
        else:
            maxv = self.fresh("cc_max")
            self.emit(f"{maxv} = {d0}")
            for var, call in members:
                self.emit(f"__depth[0] = {d0}")
                value_str = self.compile_expr(call)
                name = self.scope.bind(var)
                self.emit(f"{name} = {value_str}")
                self.emit(f"{maxv} = max({maxv}, __depth[0])")
            self.emit(f"__depth[0] = {maxv}")
        return node

    def _compile_callee_for_spawn(self, call: Call, depth_name: str) -> str:
        """Compile a concurrent call so it can be spawned as its own fiber:
        the callee receives a private depth cell."""
        if not isinstance(call.op, GlobalVar):
            raise NotImplementedError(
                "concurrent calls must target global functions to be spawned as fibers"
            )
        args = [self.compile_expr(a) for a in call.args]
        return f"{py_func_name(call.op.name)}({', '.join(args + [depth_name, '__phase'])})"

    # -- expressions ---------------------------------------------------------------
    def compile_expr(self, expr: Expr, tail: bool = False) -> Optional[str]:
        if isinstance(expr, Var):
            return self.scope.lookup(expr)
        if isinstance(expr, Constant):
            value = expr.value
            if isinstance(value, np.ndarray):
                return self.cg.intern_constant(value)
            if isinstance(value, bool):
                return "True" if value else "False"
            return repr(value)
        if isinstance(expr, GlobalVar):
            # function reference used as a value (e.g. passed to map)
            if expr.name in ("map", "foldl", "reverse", "rev_append"):
                raise NotImplementedError("prelude functions cannot be used as values")
            fname = py_func_name(expr.name)
            return f"(lambda *__a: {fname}(*__a, __depth, __phase))"
        if isinstance(expr, TupleExpr):
            inner = ", ".join(self.compile_expr(f) for f in expr.fields)
            trailing = "," if len(expr.fields) == 1 else ""
            return f"({inner}{trailing})"
        if isinstance(expr, TupleGetItem):
            return f"{self.compile_expr(expr.tup)}[{expr.index}]"
        if isinstance(expr, Function):
            return self._compile_closure(expr)
        if isinstance(expr, If):
            return self._compile_if(expr, tail)
        if isinstance(expr, Match):
            return self._compile_match(expr, tail)
        if isinstance(expr, Let):
            return self.compile_chain(expr, tail=tail)
        if isinstance(expr, Call):
            if tail and self._is_self_call(expr):
                return self._emit_tail_jump(expr)
            return self._compile_call(expr)
        raise TypeError(f"codegen: cannot compile {type(expr).__name__}")

    # -- calls -----------------------------------------------------------------------
    def _compile_call(self, call: Call) -> str:
        op = call.op
        if isinstance(op, OpRef):
            opdef = get_op(op.name)
            if opdef.kind == "host":
                args = [self.compile_expr(a) for a in call.args]
                return _SCALAR_FMT[op.name].format(*args)
            if opdef.kind == "sync":
                arg = self.compile_expr(call.args[0])
                index = int(call.attrs.get("index", 0))
                if self.cg.tdc:
                    self.emit("yield")
                else:
                    self.emit("__rt.trigger()")
                reader = "item_int" if op.name == "item_int" else "item"
                return f"__rt.{reader}({arg}, {index})"
            # tensor operator appearing as a plain expression: its own block
            hoisted = self.cg.options.hoisting and id(call) in self.cg.hoistable_for(self.fname)
            names = self._emit_block([(None, call)], [], hoisted)
            return names[0]
        if isinstance(op, ConstructorRef):
            args = ", ".join(self.compile_expr(a) for a in call.args)
            return f"ADTValue(__ctor_{op.constructor.name}, [{args}])"
        if isinstance(op, GlobalVar):
            return self._compile_global_call(op.name, call)
        if isinstance(op, Var):
            fn = self.scope.lookup(op)
            args = ", ".join(self.compile_expr(a) for a in call.args)
            self.unknown_delta = True
            call_str = f"{fn}({args})"
            return f"(yield from {call_str})" if self.cg.tdc else call_str
        if isinstance(op, Function):
            fn = self._compile_closure(op)
            args = ", ".join(self.compile_expr(a) for a in call.args)
            self.unknown_delta = True
            call_str = f"{fn}({args})"
            return f"(yield from {call_str})" if self.cg.tdc else call_str
        raise TypeError(f"codegen: cannot call {type(op).__name__}")

    def _compile_global_call(self, name: str, call: Call) -> str:
        args = [self.compile_expr(a) for a in call.args]
        self.unknown_delta = True
        if name == "map":
            inner = f"__map_parallel({args[0]}, {args[1]}, __depth)"
            return f"(yield from {inner})" if self.cg.tdc else inner
        if name == "foldl":
            inner = f"__foldl({args[0]}, {args[1]}, {args[2]}, __depth)"
            return f"(yield from {inner})" if self.cg.tdc else inner
        if name in ("reverse", "rev_append"):
            if name == "reverse":
                return f"__reverse({args[0]})"
            return f"__reverse({args[0]})"  # rev_append is only used via reverse
        call_str = f"{py_func_name(name)}({', '.join(args + ['__depth', '__phase'])})"
        return f"(yield from {call_str})" if self.cg.tdc else call_str

    # -- closures ---------------------------------------------------------------------
    def _compile_closure(self, func: Function) -> str:
        name = self.fresh("lam")
        params = [self.scope.bind(p) for p in func.params]
        self.emit(f"def {name}({', '.join(params)}):")
        self.level += 1
        if self.cg.tdc:
            self.emit("if False: yield  # ensure generator")
        saved_unknown, saved_invokes = self.unknown_delta, self.dyn_invokes
        result = self.compile_chain(func.body)
        self.emit(f"return {result}")
        self.level -= 1
        # invocations inside the closure body execute at its call sites, not here
        self.unknown_delta, self.dyn_invokes = saved_unknown, saved_invokes
        return name

    # -- conditionals --------------------------------------------------------------------
    def _compile_if(self, expr: If, tail: bool = False) -> Optional[str]:
        cond = self.compile_expr(expr.cond)
        out = self.fresh("ifval")
        capture = self._reserve_depth_capture()

        saved_invokes, saved_unknown = self.dyn_invokes, self.unknown_delta

        self.emit(f"if {cond}:")
        self.level += 1
        self.dyn_invokes, self.unknown_delta = 0, False
        then_ret = self.compile_chain(expr.then_branch, tail=tail)
        if then_ret is not None:
            self.emit(f"{out} = {then_ret}")
        then_delta, then_unknown = self.dyn_invokes, self.unknown_delta
        self.level -= 1

        self.emit("else:")
        self.level += 1
        self.dyn_invokes, self.unknown_delta = 0, False
        else_ret = self.compile_chain(expr.else_branch, tail=tail)
        if else_ret is not None:
            self.emit(f"{out} = {else_ret}")
        else_delta, else_unknown = self.dyn_invokes, self.unknown_delta
        self.level -= 1

        branch_unknown = then_unknown or else_unknown
        if capture is not None and not branch_unknown and then_delta != else_delta:
            self._emit_alignment(capture, max(then_delta, else_delta))

        self.dyn_invokes = saved_invokes + max(then_delta, else_delta)
        self.unknown_delta = saved_unknown or branch_unknown
        return None if then_ret is None and else_ret is None else out

    # -- pattern matching -----------------------------------------------------------------
    def _compile_match(self, expr: Match, tail: bool = False) -> Optional[str]:
        data = self.compile_expr(expr.data)
        scrut = self.fresh("scrut")
        self.emit(f"{scrut} = {data}")
        out = self.fresh("mval")
        capture = self._reserve_depth_capture()

        saved_invokes, saved_unknown = self.dyn_invokes, self.unknown_delta
        deltas: List[int] = []
        unknowns: List[bool] = []
        falls_through = False  # some clause reaches the end of the match

        for i, clause in enumerate(expr.clauses):
            pattern = clause.pattern
            if isinstance(pattern, PatternConstructor):
                cond = f"{scrut}.constructor.tag == {pattern.constructor.tag}"
            elif isinstance(pattern, (PatternVar, PatternWildcard)):
                cond = "True"
            else:
                raise NotImplementedError(f"unsupported match pattern {pattern!r}")
            kw = "if" if i == 0 else "elif"
            self.emit(f"{kw} {cond}:")
            self.level += 1
            self._bind_pattern(pattern, scrut)
            self.dyn_invokes, self.unknown_delta = 0, False
            ret = self.compile_chain(clause.body, tail=tail)
            if ret is not None:
                self.emit(f"{out} = {ret}")
                falls_through = True
            deltas.append(self.dyn_invokes)
            unknowns.append(self.unknown_delta)
            self.level -= 1

        self.emit("else:")
        self.level += 1
        self.emit(f"raise RuntimeError('match failure in {self.fname}')")
        self.level -= 1

        branch_unknown = any(unknowns)
        if capture is not None and not branch_unknown and len(set(deltas)) > 1:
            self._emit_alignment(capture, max(deltas))

        self.dyn_invokes = saved_invokes + (max(deltas) if deltas else 0)
        self.unknown_delta = saved_unknown or branch_unknown
        return out if falls_through else None

    def _bind_pattern(self, pattern, scrut: str) -> None:
        if isinstance(pattern, PatternWildcard):
            return
        if isinstance(pattern, PatternVar):
            name = self.scope.bind(pattern.var)
            self.emit(f"{name} = {scrut}")
            return
        if isinstance(pattern, PatternConstructor):
            for k, sub in enumerate(pattern.patterns):
                if isinstance(sub, PatternWildcard):
                    continue
                if isinstance(sub, PatternVar):
                    name = self.scope.bind(sub.var)
                    self.emit(f"{name} = {scrut}.fields[{k}]")
                else:
                    raise NotImplementedError("nested constructor patterns are not supported")
            return
        raise NotImplementedError(f"unsupported pattern {pattern!r}")
