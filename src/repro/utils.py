"""Small shared utilities."""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from .ir.adt import ADTValue

#: recursion depth needed by deeply recursive models (trees, long sequences)
RECURSION_LIMIT_FLOOR = 20000


def ensure_recursion_limit(limit: int = RECURSION_LIMIT_FLOOR) -> int:
    """Raise the interpreter recursion limit to at least ``limit``.

    Only ever raises: a limit the user already set higher is left untouched.
    Called once at engine/interpreter construction rather than on every run.
    Returns the limit in effect afterwards.
    """
    current = sys.getrecursionlimit()
    if current < limit:
        sys.setrecursionlimit(limit)
        return limit
    return current


def values_allclose(a: Any, b: Any, atol: float = 1e-4, rtol: float = 1e-4) -> bool:
    """Structural numerical comparison of model outputs.

    Handles nested structures of ADT values (lists/trees), tuples, Python
    lists and NumPy arrays; scalars compare with the same tolerance.  Used by
    the test-suite to compare every backend against the eager reference.
    """
    if isinstance(a, ADTValue) or isinstance(b, ADTValue):
        if not (isinstance(a, ADTValue) and isinstance(b, ADTValue)):
            return False
        if a.constructor.name != b.constructor.name:
            return False
        return all(values_allclose(x, y, atol, rtol) for x, y in zip(a.fields, b.fields))
    if isinstance(a, (tuple, list)) or isinstance(b, (tuple, list)):
        if not isinstance(a, (tuple, list)) or not isinstance(b, (tuple, list)):
            return False
        if len(a) != len(b):
            return False
        return all(values_allclose(x, y, atol, rtol) for x, y in zip(a, b))
    if a is None or b is None:
        return a is None and b is None
    a_arr = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    if a_arr.shape != b_arr.shape:
        return False
    return bool(np.allclose(a_arr, b_arr, atol=atol, rtol=rtol))


def bitwise_equal(a: Any, b: Any) -> bool:
    """Exact (bit-for-bit) equality over nested outputs — the same
    structures :func:`values_allclose` walks, with no tolerance.  The check
    behind the repo's invariant that every batched, placed or replayed
    execution equals the eager reference exactly."""
    if isinstance(a, ADTValue) or isinstance(b, ADTValue):
        return (
            isinstance(a, ADTValue)
            and isinstance(b, ADTValue)
            and a.constructor.name == b.constructor.name
            and len(a.fields) == len(b.fields)
            and all(bitwise_equal(x, y) for x, y in zip(a.fields, b.fields))
        )
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        return (
            isinstance(a, (list, tuple))
            and isinstance(b, (list, tuple))
            and len(a) == len(b)
            and all(bitwise_equal(x, y) for x, y in zip(a, b))
        )
    return bool(np.array_equal(np.asarray(a), np.asarray(b)))


def flatten_arrays(value: Any) -> list:
    """Flatten a nested output structure into a list of NumPy arrays/scalars."""
    out: list = []
    if isinstance(value, ADTValue):
        for f in value.fields:
            out.extend(flatten_arrays(f))
    elif isinstance(value, (tuple, list)):
        for f in value:
            out.extend(flatten_arrays(f))
    elif value is not None:
        out.append(np.asarray(value))
    return out


class Registry:
    """String-keyed factory table: the one implementation behind the
    scheduler, flush-policy, placement and loop-topology registries.

    ``kind`` names what is registered in error messages (``"scheduler
    policy"``); ``listing`` is the phrase introducing the registered names
    in the unknown-name error (``"available policies"``).
    """

    def __init__(self, kind: str, listing: str = "available policies") -> None:
        self.kind = kind
        self.listing = listing
        self._factories: Dict[str, Callable[..., Any]] = {}

    def register(
        self,
        name: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        overwrite: bool = False,
    ) -> Any:
        """Register ``factory`` under ``name`` — a plain call, or with
        ``factory`` omitted a decorator.  Registering an existing name
        raises unless ``overwrite=True``."""

        def _register(fn: Callable[..., Any]) -> Callable[..., Any]:
            if not overwrite and name in self._factories:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered "
                    f"(pass overwrite=True to replace it)"
                )
            self._factories[name] = fn
            return fn

        if factory is None:
            return _register
        return _register(factory)

    def unregister(self, name: str) -> None:
        """Remove ``name`` from the registry (no-op for unknown names)."""
        self._factories.pop(name, None)

    def available(self) -> Tuple[str, ...]:
        """Registered names, sorted."""
        return tuple(sorted(self._factories))

    def make(self, name: str, **kwargs: Any) -> Any:
        """Call the factory registered under ``name`` with ``kwargs``."""
        try:
            factory = self._factories[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; {self.listing}: "
                f"{', '.join(self.available())}"
            ) from None
        return factory(**kwargs)
