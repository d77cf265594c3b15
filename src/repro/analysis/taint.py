"""Parameter-reuse (invariance) analysis — §5.1.

To generate batched kernels ACROBAT must know, for every tensor-operator
argument, whether the value is *batch-invariant* (the same array for every
instance in the mini-batch — model parameters, constants and anything
computed only from them) or *per-instance*.  Invariant arguments are passed
to batched kernels once and reused; per-instance arguments are gathered
across the batch.

The paper uses a 1-context-sensitive taint analysis.  Here context
sensitivity is obtained by running the code-duplication pass
(:mod:`repro.analysis.duplication`) first — after specialization each global
function has a single calling context of interest — and the taint analysis
itself is a straightforward monotone fixpoint over the module:

* taint source: the per-instance inputs of ``main`` (every parameter *not*
  bound to a concrete weight array at compile time);
* propagation: an expression is tainted when any value it depends on is
  tainted; ADT/tuple values are collapsed to a single taint bit;
* functions are summarized per abstract argument vector and re-analyzed
  until the summaries stabilize (recursion converges in a couple of
  iterations because the lattice has two points);
* a parameter that different calls may bind to different values is tainted
  even when every such value is invariant (:func:`varying_params`): the rows
  of one block batch across call sites and recursion levels, so ``b`` in
  ``f(rest, tanh(b))`` differs between rows although no instance input
  reaches it.

The result maps every expression (by identity) in every reachable function
to ``True`` (per-instance / tainted) or ``False`` (batch-invariant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from ..ir.adt import pattern_bound_vars
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
from ..ir.module import IRModule
from ..ir.visitor import collect, free_vars
from ..kernels.registry import get_op, has_op

TAINTED = True
INVARIANT = False


def varying_params(module: IRModule) -> Dict[str, List[bool]]:
    """Per function, which parameters different calls may bind to different
    values.

    A parameter forwarded as-is from a parameter of the caller receives
    every value the caller's parameter does (``w`` in ``f(rest, a, b, w)``);
    any other argument — a computed value, a constant, a pattern variable —
    is a value of its own, and so is each parameter of ``main``.  A
    parameter that receives more than one value varies: ``f(rest, tanh(b))``
    hands ``b`` a new value at every level, and ``f -> g -> f`` with ``a``
    and ``b`` swapped alternates the two between levels.  A function
    referenced as a value (``map(cell, xs)``) is called from code this does
    not see, so all its parameters vary.
    """
    functions = module.functions
    values: Dict[Tuple[str, int], Set[object]] = {}
    forwards: Dict[Tuple[str, int], List[Tuple[str, int]]] = {}
    escaped: Set[str] = set()
    for name, func in functions.items():
        position = {id(p): i for i, p in enumerate(func.params)}
        called: Set[int] = set()
        for call in collect(func.body, lambda e: isinstance(e, Call)):
            if not (isinstance(call.op, GlobalVar) and call.op.name in functions):
                continue
            called.add(id(call.op))
            for i, arg in enumerate(call.args):
                node = (call.op.name, i)
                j = position.get(id(arg)) if isinstance(arg, Var) else None
                if j is None:
                    values.setdefault(node, set()).add((id(call), i))
                else:
                    forwards.setdefault((name, j), []).append(node)
        for gv in collect(func.body, lambda e: isinstance(e, GlobalVar)):
            if id(gv) not in called and gv.name in functions:
                escaped.add(gv.name)
    for i in range(len(module.main.params)):
        values.setdefault(("main", i), set()).add(("main", i))

    # push values along the forwarding edges; two values are enough to vary,
    # so a set stops growing there and the worklist ends
    work = list(values)
    while work:
        node = work.pop()
        have = values[node]
        for target in forwards.get(node, ()):
            into = values.setdefault(target, set())
            before = len(into)
            for value in have:
                if len(into) > 1:
                    break
                into.add(value)
            if len(into) != before:
                work.append(target)
    return {
        name: [
            name in escaped or len(values.get((name, i), ())) > 1
            for i in range(len(func.params))
        ]
        for name, func in functions.items()
    }


@dataclass
class TaintResult:
    """Result of the invariance analysis."""

    #: taint of every analyzed expression, keyed by ``id(expr)``
    expr_taint: Dict[int, bool] = field(default_factory=dict)
    #: per function name: taint of each parameter (after fixpoint)
    param_taint: Dict[str, List[bool]] = field(default_factory=dict)
    #: function names reachable from main
    reachable: Set[str] = field(default_factory=set)

    def is_tainted(self, expr: Expr) -> bool:
        """True when ``expr`` is per-instance (varies across the batch)."""
        return self.expr_taint.get(id(expr), TAINTED)

    def is_invariant(self, expr: Expr) -> bool:
        return not self.is_tainted(expr)


class TaintAnalysis:
    """Whole-module taint/invariance fixpoint."""

    def __init__(self, module: IRModule, instance_params: Sequence[str]) -> None:
        self.module = module
        #: names of ``main`` parameters that carry per-instance inputs
        self.instance_params = set(instance_params)
        self.result = TaintResult()
        #: function summaries: name -> {abstract arg tuple -> return taint}
        self._summaries: Dict[str, Dict[Tuple[bool, ...], bool]] = {}
        self._in_progress: Set[Tuple[str, Tuple[bool, ...]]] = set()
        self._changed = True
        self._varying = varying_params(module)

    # -- public API -----------------------------------------------------------
    def run(self) -> TaintResult:
        main = self.module.main
        main_args = [
            TAINTED if p.name_hint in self.instance_params else INVARIANT
            for p in main.params
        ]
        iterations = 0
        while self._changed and iterations < 20:
            self._changed = False
            self.result.expr_taint = {}
            self.result.reachable = set()
            self._analyze_function("main", main, main_args)
            iterations += 1
        self.result.param_taint["main"] = list(main_args)
        return self.result

    # -- function analysis ------------------------------------------------------
    def _analyze_function(self, name: str, func: Function, arg_taints: List[bool]) -> bool:
        varying = self._varying.get(name, ())
        arg_taints = [
            t or (i < len(varying) and varying[i]) for i, t in enumerate(arg_taints)
        ]
        key = tuple(arg_taints)
        summaries = self._summaries.setdefault(name, {})
        self.result.reachable.add(name)
        if (name, key) in self._in_progress:
            # recursive call: use the current best summary (optimistically
            # invariant on the first visit; the outer fixpoint re-runs)
            return summaries.get(key, INVARIANT)
        self._in_progress.add((name, key))
        try:
            env: Dict[int, bool] = {}
            for p, t in zip(func.params, arg_taints):
                env[id(p)] = t
            prev_params = self.result.param_taint.get(name)
            merged = [
                (t or prev_params[i]) if prev_params and i < len(prev_params) else t
                for i, t in enumerate(arg_taints)
            ]
            if prev_params != merged:
                self.result.param_taint[name] = merged
                self._changed = True
            ret = self._eval(func.body, env)
            if summaries.get(key) != ret:
                summaries[key] = ret
                self._changed = True
            return ret
        finally:
            self._in_progress.discard((name, key))

    # -- expression evaluation -----------------------------------------------------
    def _eval(self, expr: Expr, env: Dict[int, bool]) -> bool:
        taint = self._eval_inner(expr, env)
        prev = self.result.expr_taint.get(id(expr))
        self.result.expr_taint[id(expr)] = taint or (prev or False)
        return self.result.expr_taint[id(expr)]

    def _eval_inner(self, expr: Expr, env: Dict[int, bool]) -> bool:
        if isinstance(expr, Var):
            return env.get(id(expr), TAINTED)
        if isinstance(expr, Constant):
            return INVARIANT
        if isinstance(expr, (OpRef, ConstructorRef, GlobalVar)):
            return INVARIANT
        if isinstance(expr, Function):
            # a closure's taint is the taint of its captured environment (its
            # body is analyzed at call sites, see Call below)
            return any(env.get(id(v), TAINTED) for v in free_vars(expr))
        if isinstance(expr, Let):
            value_taint = self._eval(expr.value, env)
            env = dict(env)
            env[id(expr.var)] = value_taint
            return self._eval(expr.body, env)
        if isinstance(expr, If):
            cond = self._eval(expr.cond, env)
            then_t = self._eval(expr.then_branch, env)
            else_t = self._eval(expr.else_branch, env)
            return cond or then_t or else_t
        if isinstance(expr, Match):
            data_taint = self._eval(expr.data, env)
            result = INVARIANT
            for clause in expr.clauses:
                cenv = dict(env)
                for v in pattern_bound_vars(clause.pattern):
                    cenv[id(v)] = data_taint
                clause_taint = self._eval(clause.body, cenv)  # evaluate every clause
                result = result or clause_taint
            return result or data_taint
        if isinstance(expr, TupleExpr):
            out = INVARIANT
            for f in expr.fields:
                out = self._eval(f, env) or out
            return out
        if isinstance(expr, TupleGetItem):
            return self._eval(expr.tup, env)
        if isinstance(expr, Call):
            return self._eval_call(expr, env)
        raise TypeError(f"taint analysis: unknown expression {type(expr).__name__}")

    def _eval_call(self, call: Call, env: Dict[int, bool]) -> bool:
        arg_taints = [self._eval(a, env) for a in call.args]
        op = call.op
        if isinstance(op, OpRef):
            if has_op(op.name) and get_op(op.name).kind == "sync":
                # reading a value to the host keeps its taint
                return any(arg_taints) if arg_taints else INVARIANT
            return any(arg_taints) if arg_taints else INVARIANT
        if isinstance(op, ConstructorRef):
            return any(arg_taints) if arg_taints else INVARIANT
        if isinstance(op, GlobalVar):
            func = self.module.functions.get(op.name)
            if func is None:
                return any(arg_taints)
            if func.attrs.get("parallel_map") or op.name in ("map", "foldl"):
                # higher-order prelude functions: analyze the closure body with
                # element taint equal to the list taint
                return self._eval_prelude_hof(op.name, call, arg_taints, env)
            return self._analyze_function(op.name, func, arg_taints)
        if isinstance(op, Var):
            # calling a closure passed as an argument: conservative
            return any(arg_taints) or env.get(id(op), TAINTED)
        if isinstance(op, Function):
            fenv = dict(env)
            for p, t in zip(op.params, arg_taints):
                fenv[id(p)] = t
            return self._eval(op.body, fenv)
        return any(arg_taints)

    def _eval_prelude_hof(
        self, name: str, call: Call, arg_taints: List[bool], env: Dict[int, bool]
    ) -> bool:
        """map/foldl applied to an inline closure: propagate element taint
        through the closure body so ops inside are classified correctly."""
        closure = call.args[0]
        if name == "map":
            elem_taint = arg_taints[1] if len(arg_taints) > 1 else TAINTED
            closure_arg_taints = [elem_taint]
        else:  # foldl(f, init, xs)
            init_taint = arg_taints[1] if len(arg_taints) > 1 else TAINTED
            elem_taint = arg_taints[2] if len(arg_taints) > 2 else TAINTED
            closure_arg_taints = [init_taint or elem_taint, elem_taint]
        if isinstance(closure, Function):
            fenv = dict(env)
            for p, t in zip(closure.params, closure_arg_taints):
                fenv[id(p)] = t
            return self._eval(closure.body, fenv)
        if isinstance(closure, GlobalVar) and closure.name in self.module.functions:
            return self._analyze_function(
                closure.name, self.module.functions[closure.name], closure_arg_taints
            )
        return any(arg_taints)


def analyze_taint(module: IRModule, instance_params: Sequence[str]) -> TaintResult:
    """Convenience wrapper: run the invariance analysis on ``module``."""
    return TaintAnalysis(module, instance_params).run()
