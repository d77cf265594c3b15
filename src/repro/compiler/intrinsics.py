"""Runtime intrinsics injected into the generated program's namespace.

The prelude's list functions (``map``, ``foldl``, ``reverse``,
``rev_append``) are special-cased by the code generator (§4.1: every
application of the mapped closure gets the *same* depth, making the whole
``map`` batchable).  Rather
than compiling their IR definitions, the generated code calls these
hand-written helpers, in a plain variant (straight-line programs) and a
generator variant (programs with tensor-dependent control flow, where the
mapped closure may contain synchronization points).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from ..ir.adt import ADTValue, Constructor


def _to_list(cons_name: str, xs: ADTValue) -> List[Any]:
    items: List[Any] = []
    node = xs
    while node.constructor.name == cons_name:
        items.append(node.fields[0])
        node = node.fields[1]
    return items


def _from_list(nil: Constructor, cons: Constructor, items: List[Any]) -> ADTValue:
    out = ADTValue(nil, [])
    for item in reversed(items):
        out = ADTValue(cons, [item, out])
    return out


def make_intrinsics(nil: Constructor, cons: Constructor, tdc: bool) -> Dict[str, Callable]:
    """Build the intrinsic-helper namespace for generated code.

    Parameters
    ----------
    nil, cons:
        The module's ``List`` constructors.
    tdc:
        Whether the program uses tensor-dependent control flow, i.e. whether
        generated functions (and the closures passed to ``map``/``foldl``)
        are generator coroutines.
    """

    def rev_append(xs: ADTValue, acc: ADTValue) -> ADTValue:
        """``xs`` reversed, in front of ``acc``."""
        for item in _to_list(cons.name, xs):
            acc = ADTValue(cons, [item, acc])
        return acc

    def reverse_list(xs: ADTValue) -> ADTValue:
        return rev_append(xs, ADTValue(nil, []))

    if not tdc:

        def map_parallel(f: Callable, xs: ADTValue, depth: List[int]) -> ADTValue:
            """Apply ``f`` to every element at the *same* scheduling depth."""
            items = _to_list(cons.name, xs)
            d0 = depth[0]
            max_d = d0
            results = []
            for item in items:
                depth[0] = d0
                results.append(f(item))
                max_d = max(max_d, depth[0])
            depth[0] = max_d
            return _from_list(nil, cons, results)

        def foldl(f: Callable, init: Any, xs: ADTValue, depth: List[int]) -> Any:
            acc = init
            for item in _to_list(cons.name, xs):
                acc = f(acc, item)
            return acc

        return {
            "__map_parallel": map_parallel,
            "__foldl": foldl,
            "__reverse": reverse_list,
            "__rev_append": rev_append,
        }

    def map_parallel_gen(f: Callable, xs: ADTValue, depth: List[int]):
        items = _to_list(cons.name, xs)
        d0 = depth[0]
        max_d = d0
        results = []
        for item in items:
            depth[0] = d0
            results.append((yield from f(item)))
            max_d = max(max_d, depth[0])
        depth[0] = max_d
        return _from_list(nil, cons, results)

    def foldl_gen(f: Callable, init: Any, xs: ADTValue, depth: List[int]):
        acc = init
        for item in _to_list(cons.name, xs):
            acc = yield from f(acc, item)
        return acc

    return {
        "__map_parallel": map_parallel_gen,
        "__foldl": foldl_gen,
        "__reverse": reverse_list,
        "__rev_append": rev_append,
    }
