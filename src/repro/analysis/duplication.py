"""Code duplication for parameter reuse (§B.1).

When the same function is invoked from ``main`` with *different* parameter
bindings — the canonical example being BiRNN, which calls the same ``@rnn``
with forward weights once and backward weights once — a single batched
kernel could not treat the weights as shared.  ACROBAT transitively
duplicates such functions so that each specialization sees one consistent
set of invariant arguments and the batched kernels can exploit parameter
reuse.

The specialization key of a ``main``-level call site is the tuple of
*which* ``main`` parameters (by name) flow into each argument position;
call sites with identical keys share a copy, call sites with different keys
get distinct transitive copies (suffix ``$k``).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..ir.expr import Call, Expr, Function, GlobalVar, Var
from ..ir.module import IRModule, PRELUDE_FUNCTIONS
from ..ir.visitor import ExprMutator, collect
from .structure import reachable_functions


class _GlobalRenamer(ExprMutator):
    """Rewrites :class:`GlobalVar` references according to a mapping."""

    def __init__(self, mapping: Dict[str, GlobalVar]) -> None:
        super().__init__()
        self.mapping = mapping

    def visit_globalvar(self, expr: GlobalVar) -> Expr:
        return self.mapping.get(expr.name, expr)


def _call_signature(call: Call, main_param_names: Set[str]) -> Tuple:
    """Specialization key: per argument, the name of the ``main`` parameter it
    directly references (or ``"*"`` for anything dynamic)."""
    sig: List[str] = []
    for arg in call.args:
        if isinstance(arg, Var) and arg.name_hint in main_param_names:
            sig.append(arg.name_hint)
        else:
            sig.append("*")
    return tuple(sig)


def specialize_functions(module: IRModule) -> IRModule:
    """Duplicate callees of ``main`` per distinct parameter-binding signature.

    Returns a new module (the input module is not mutated).
    """
    out = module.copy()
    main = out.main
    main_param_names = {p.name_hint for p in main.params}

    # collect main-level call sites to user functions
    calls = [
        c
        for c in collect(main.body, lambda e: isinstance(e, Call))
        if isinstance(c.op, GlobalVar)
        and c.op.name in out.functions
        and c.op.name not in PRELUDE_FUNCTIONS
    ]

    by_callee: Dict[str, Dict[Tuple, List[Call]]] = {}
    for c in calls:
        by_callee.setdefault(c.op.name, {}).setdefault(
            _call_signature(c, main_param_names), []
        ).append(c)

    rename_at_call: Dict[int, GlobalVar] = {}  # id(call) -> new GlobalVar
    copy_counter = 0

    for callee, signatures in by_callee.items():
        if len(signatures) <= 1:
            continue  # single context: nothing to duplicate
        for sig_index, (sig, sites) in enumerate(sorted(signatures.items())):
            if sig_index == 0:
                continue  # first context keeps the original definition
            copy_counter += 1
            new_names = _clone_subtree(out, callee, suffix=f"${copy_counter}")
            for site in sites:
                rename_at_call[id(site)] = out.get_global_var(new_names[callee])

    if not rename_at_call:
        return out

    class _CallSiteRenamer(ExprMutator):
        def visit_call(self, expr: Call) -> Expr:
            new = super().visit_call(expr)
            target = rename_at_call.get(id(expr))
            if target is None:
                return new
            renamed = Call(target, new.args if isinstance(new, Call) else expr.args, dict(expr.attrs))
            renamed.ty = expr.ty
            return renamed

    new_main_body = _CallSiteRenamer().visit(main.body)
    out.functions["main"] = Function(main.params, new_main_body, main.ret_ty, dict(main.attrs))
    return out


def _clone_subtree(module: IRModule, root: str, suffix: str) -> Dict[str, str]:
    """Clone ``root`` and every non-prelude function reachable from it,
    appending ``suffix`` to their names.  Returns the old->new name map."""
    to_clone = [
        name
        for name in reachable_functions(module, root)
        if name not in PRELUDE_FUNCTIONS and name in module.functions
    ]
    name_map = {name: f"{name}{suffix}" for name in to_clone}
    gv_map = {old: module.get_global_var(new) for old, new in name_map.items()}

    for old, new in name_map.items():
        func = module.functions[old]
        new_body = _GlobalRenamer(gv_map).visit(func.body)
        attrs = dict(func.attrs)
        attrs["name"] = new
        attrs["specialized_from"] = old
        module.functions[new] = Function(func.params, new_body, func.ret_ty, attrs)
    return name_map
