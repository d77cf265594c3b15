"""What a round did, as data.

The executor appends one plain record per decision to a :class:`RoundTrace`,
the way a tracing compiler appends one record per primitive call, and every
count the runtime reports is a fold over the records.  A record is a tuple
of ints, strings and floats, its kind first:

``("sync", n)``
    a trigger: one synchronization round that scheduled ``n`` batches;
``("batch", k, block, phase, depth, rows, device)``
    the ``k``-th batch of the trace, after placement: ``rows`` DFG nodes of
    ``block`` keyed by its first column's ``(phase, depth)``, executed on
    member ``device`` of the device group;
``("operand", k, j, form, segments)``
    how input ``j`` of batch ``k`` reached its kernel: an
    :class:`~repro.memory.planner.OperandKind` value, and for a gathered
    column of arena tensors the number of source arenas it was taken from;
``("launch", k, kernel, us)``
    one charged kernel launch of batch ``k`` and its simulated duration.

The trace also keeps the round's host-time buckets (wall-clock seconds per
activity) outside its printed text and its equality, so two runs of one
round make equal traces however long each took.  The runtime replaces its
trace at every run boundary and nothing retains an old one.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List, Tuple

#: host-time buckets (DFG construction is the rest of a run's wall time)
HOST_BUCKETS = ("scheduling", "placement", "memory_planning", "dispatch", "numpy_compute", "materialize")


class RoundTrace:
    """The records of one round (see the module docstring)."""

    __slots__ = ("records", "host_s", "_num_batches")

    def __init__(self) -> None:
        self.records: List[Tuple] = []
        self.host_s: Dict[str, float] = dict.fromkeys(HOST_BUCKETS, 0.0)
        self._num_batches = 0

    def sync(self, n: int) -> None:
        self.records.append(("sync", n))

    def batch(self, block: str, phase: int, depth: int, rows: int, device: int) -> int:
        """Record the next batch; returns its number ``k``."""
        k = self._num_batches
        self._num_batches = k + 1
        self.records.append(("batch", k, block, phase, depth, rows, device))
        return k

    def operand(self, k: int, j: int, form: str, segments: int) -> None:
        self.records.append(("operand", k, j, form, segments))

    def launch(self, k: int, kernel: str, us: float) -> None:
        self.records.append(("launch", k, kernel, us))

    def counts(self) -> Dict[str, int]:
        """Record totals: ``sync``, ``batch``, ``launch``, the ``rows`` (DFG
        nodes) the batches executed, one entry per operand form that occurs,
        and ``gather_segments`` summed over the operands."""
        out = {"sync": 0, "batch": 0, "rows": 0, "launch": 0, "gather_segments": 0}
        for record in self.records:
            kind = record[0]
            if kind == "operand":
                out[record[3]] = out.get(record[3], 0) + 1
                out["gather_segments"] += record[4]
            else:
                out[kind] += 1
                if kind == "batch":
                    out["rows"] += record[5]
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundTrace):
            return NotImplemented
        return self.records == other.records

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        """One line per sync round, and one per batch with its operands'
        forms in input order (``/n``: gathered from ``n`` arenas, ``*m``:
        ``m`` inputs in a row) and its launches' simulated microseconds."""
        forms: Dict[int, List[str]] = {}
        launches: Dict[int, List[str]] = {}
        for record in self.records:
            if record[0] == "operand":
                _, k, _j, form, segments = record
                forms.setdefault(k, []).append(f"{form}/{segments}" if segments else form)
            elif record[0] == "launch":
                launches.setdefault(record[1], []).append(f"{record[2]} {record[3]:.3f}us")
        lines = []
        for record in self.records:
            if record[0] == "sync":
                lines.append(f"sync: {record[1]} batch{'' if record[1] == 1 else 'es'}\n")
            elif record[0] == "batch":
                _, k, block, phase, depth, rows, device = record
                runs = [(f, len(list(run))) for f, run in groupby(forms.get(k, []))]
                lines.append(
                    f"  {k:>3} {block} p{phase} d{depth} rows={rows} dev={device}"
                    f" | {' '.join(f if n == 1 else f'{f}*{n}' for f, n in runs)}"
                    f" | {', '.join(launches.get(k, []))}\n"
                )
        return "".join(lines)
