"""Structural analyses: call graph, recursion, tensor-dependent control flow
and operator hoisting (§4.1, §A.1).

These analyses feed the AOT code generator:

* :func:`call_graph` / :func:`recursive_functions` — which functions are
  (self-)recursive; recursion determines where depth counters must thread
  through and where instance parallelism may exist.
* :func:`uses_tensor_dependent_control_flow` — whether any reachable
  operator reads a tensor value back to the host (``item`` / ``item_int``).
  If so the generated program is a set of fibers with explicit sync points
  (§4.2); otherwise it is straight-line per-instance code.
* :func:`hoistable_bindings` — operator bindings inside a recursive function
  whose operands do not depend on the recursion-carried state.  They are
  assigned a *static* depth of 0, which batches them across every recursion
  step and every instance (e.g. the input linear transformation of an RNN
  cell, §A.1).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

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
from ..ir.visitor import collect
from ..kernels.registry import get_op, has_op


def called_globals(func: Function) -> Set[str]:
    """Names of global functions referenced anywhere in ``func``."""
    return {e.name for e in collect(func.body, lambda e: isinstance(e, GlobalVar))}


def call_graph(module: IRModule) -> Dict[str, Set[str]]:
    """Adjacency map name -> called global function names."""
    return {name: called_globals(func) for name, func in module.functions.items()}


def reachable_functions(module: IRModule, root: str = "main") -> List[str]:
    """Functions reachable from ``root`` in call order (root first)."""
    graph = call_graph(module)
    seen: List[str] = []
    stack = [root]
    visited: Set[str] = set()
    while stack:
        name = stack.pop()
        if name in visited or name not in module.functions:
            continue
        visited.add(name)
        seen.append(name)
        stack.extend(sorted(graph.get(name, ())))
    return seen


def recursive_functions(module: IRModule) -> Set[str]:
    """Functions that participate in a recursive cycle (including direct
    self-recursion)."""
    graph = call_graph(module)
    recursive: Set[str] = set()
    for name in module.functions:
        # DFS from each callee of `name`, looking for a path back to `name`
        if name in graph.get(name, set()):
            recursive.add(name)
            continue
        stack = list(graph.get(name, set()))
        visited: Set[str] = set()
        while stack:
            cur = stack.pop()
            if cur == name:
                recursive.add(name)
                break
            if cur in visited:
                continue
            visited.add(cur)
            stack.extend(graph.get(cur, set()))
    return recursive


def uses_tensor_dependent_control_flow(module: IRModule, root: str = "main") -> bool:
    """True when any reachable function reads a tensor value on the host."""
    for name in reachable_functions(module, root):
        func = module.functions[name]
        syncs = collect(
            func.body,
            lambda e: isinstance(e, Call)
            and isinstance(e.op, OpRef)
            and has_op(e.op.name)
            and get_op(e.op.name).kind == "sync",
        )
        if syncs:
            return True
    return False


def concurrent_groups(func: Function) -> Dict[str, List[Call]]:
    """Calls annotated with the same ``concurrent_group`` id (Fig. 2)."""
    groups: Dict[str, List[Call]] = {}
    for call in collect(func.body, lambda e: isinstance(e, Call)):
        gid = call.attrs.get("concurrent_group")
        if gid is not None:
            groups.setdefault(gid, []).append(call)
    return groups


# ---------------------------------------------------------------------------
# Operator hoisting
# ---------------------------------------------------------------------------


def _self_recursive_calls(name: str, func: Function) -> List[Call]:
    return [
        c
        for c in collect(func.body, lambda e: isinstance(e, Call))
        if isinstance(c.op, GlobalVar) and c.op.name == name
    ]


class _Dep:
    """Abstract value for the hoisting analysis: does a value depend on
    tensor-operator outputs computed in this function (``compute``), and does
    it depend on recursion-carried state (``recurrent``)?"""

    __slots__ = ("compute", "recurrent")

    def __init__(self, compute: bool = False, recurrent: bool = False) -> None:
        self.compute = compute
        self.recurrent = recurrent

    def join(self, other: "_Dep") -> "_Dep":
        return _Dep(self.compute or other.compute, self.recurrent or other.recurrent)


def hoistable_bindings(name: str, func: Function, module: IRModule) -> Set[int]:
    """Return ``id()``s of op-Call expressions in ``func`` that can be
    assigned a static depth of 0 (operator hoisting, §A.1).

    An operator hoists when its operands do not depend on *recurrent*
    parameters — parameters whose value at a self-recursive call site derives
    from values computed inside the function (e.g. the hidden state threaded
    through an RNN).  Traversal-only parameters (the list/tree being walked)
    are not recurrent, so operators applied to their elements — like the
    input linear transformation in Listing 1 — hoist even though they run
    once per recursion step.
    """
    rec_calls = _self_recursive_calls(name, func)
    if not rec_calls:
        return set()
    # the marking below follows arguments through *self* calls only; a
    # function that also recurses through another one (f -> g -> f) can get a
    # computed value back in any position, so nothing of it hoists
    if any(
        name in reachable_functions(module, callee)
        for callee in called_globals(func) - {name}
    ):
        return set()

    params = list(func.params)
    recurrent: Set[int] = set()

    for _ in range(len(params) + 2):  # fixpoint over recurrent-param marking
        op_deps: Dict[int, _Dep] = {}
        rec_arg_deps: Dict[Tuple[int, int], _Dep] = {}

        def eval_expr(expr: Expr, env: Dict[int, _Dep]) -> _Dep:
            if isinstance(expr, Var):
                return env.get(id(expr), _Dep())
            if isinstance(expr, (Constant, OpRef, ConstructorRef, GlobalVar, Function)):
                return _Dep()
            if isinstance(expr, Let):
                v = eval_expr(expr.value, env)
                env2 = dict(env)
                env2[id(expr.var)] = v
                return eval_expr(expr.body, env2)
            if isinstance(expr, Call):
                arg_deps = [eval_expr(a, env) for a in expr.args]
                combined = _Dep()
                for d in arg_deps:
                    combined = combined.join(d)
                if isinstance(expr.op, OpRef):
                    opdef = get_op(expr.op.name) if has_op(expr.op.name) else None
                    if opdef is not None and opdef.kind == "tensor":
                        op_deps[id(expr)] = combined
                        return _Dep(compute=True, recurrent=combined.recurrent)
                    return combined
                if isinstance(expr.op, GlobalVar) and expr.op.name == name:
                    for pos, d in enumerate(arg_deps):
                        key = (id(expr), pos)
                        prev = rec_arg_deps.get(key, _Dep())
                        rec_arg_deps[key] = prev.join(d)
                    # the result of a recursive call is sequentially dependent
                    return _Dep(compute=True, recurrent=True)
                if isinstance(expr.op, (GlobalVar, Var, Function)):
                    # results of other calls may themselves embed recursion
                    # (e.g. tree children); never hoist past them
                    return _Dep(compute=True, recurrent=True)
                return combined
            if isinstance(expr, If):
                d = eval_expr(expr.cond, env)
                d = d.join(eval_expr(expr.then_branch, env))
                return d.join(eval_expr(expr.else_branch, env))
            if isinstance(expr, Match):
                d = eval_expr(expr.data, env)
                out = _Dep()
                for clause in expr.clauses:
                    cenv = dict(env)
                    for v in pattern_bound_vars(clause.pattern):
                        cenv[id(v)] = d
                    out = out.join(eval_expr(clause.body, cenv))
                return out.join(d)
            if isinstance(expr, TupleExpr):
                out = _Dep()
                for f in expr.fields:
                    out = out.join(eval_expr(f, env))
                return out
            if isinstance(expr, TupleGetItem):
                return eval_expr(expr.tup, env)
            return _Dep(compute=True, recurrent=True)

        env0 = {id(p): _Dep(recurrent=(id(p) in recurrent)) for p in params}
        eval_expr(func.body, env0)

        new_recurrent = set(recurrent)
        for call in rec_calls:
            for pos in range(min(len(call.args), len(params))):
                dep = rec_arg_deps.get((id(call), pos), _Dep())
                if dep.compute or dep.recurrent:
                    new_recurrent.add(id(params[pos]))
        if new_recurrent == recurrent:
            return {eid for eid, dep in op_deps.items() if not dep.recurrent}
        recurrent = new_recurrent
    return set()
