"""Trace storage and aggregation queries."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.trace.record import Phase, PhaseRecord

__all__ = ["TraceCollector"]

_PHASES = frozenset(p.value for p in Phase)


class TraceCollector:
    """Accumulates phase records and answers aggregate queries.

    A collector read back by :meth:`from_dict` keeps its stored rows and
    builds its records from them on the first query, so a result that is
    only forwarded, stored or summarized never builds one; until then
    :meth:`to_dict` returns the rows as read.
    """

    def __init__(self) -> None:
        self.records: List[PhaseRecord] = []
        # (task, cpi) -> list of records, for fast per-CPI queries.
        self._by_task_cpi: Dict[Tuple[str, int], List[PhaseRecord]] = defaultdict(list)

    def __getattr__(self, name: str):
        # Reached only while ``records`` and ``_by_task_cpi`` are unset:
        # on a collector from from_dict that nobody has queried yet.
        rows = self.__dict__.get("_rows")
        if rows is None or name not in ("records", "_by_task_cpi"):
            raise AttributeError(name)
        built = TraceCollector()
        for task, node, cpi, phase, t_start, t_end in rows:
            built.add(task, node, cpi, Phase(phase), t_start, t_end)
        del self._rows
        self.__dict__.update(built.__dict__)
        return built.__dict__[name]

    def add(
        self,
        task: str,
        node: int,
        cpi: int,
        phase: Phase,
        t_start: float,
        t_end: float,
    ) -> None:
        """Record one phase interval."""
        rec = PhaseRecord(task, node, cpi, phase, t_start, t_end)
        self.records.append(rec)
        self._by_task_cpi[(task, cpi)].append(rec)

    def __len__(self) -> int:
        return len(self.records)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, list]:
        """Lossless JSON-able form: one row per phase record."""
        rows = self.__dict__.get("_rows")
        if rows is None:
            rows = [
                [r.task, r.node, r.cpi, r.phase.value, r.t_start, r.t_end]
                for r in self.records
            ]
        return {"records": rows}

    @staticmethod
    def from_dict(d: Dict[str, list]) -> "TraceCollector":
        """Inverse of :meth:`to_dict`; the records are built on first
        query, but every row's arity and phase are checked here, so a
        malformed trace is refused when it is read."""
        rows = d["records"]
        if not isinstance(rows, list):
            raise TypeError(f"trace records must be a list, got {type(rows).__name__}")
        for row in rows:
            if len(row) != 6 or row[3] not in _PHASES:
                raise ValueError(f"malformed trace row {row!r}")
        out = TraceCollector.__new__(TraceCollector)
        out._rows = rows
        return out

    # -- queries ---------------------------------------------------------
    def tasks(self) -> List[str]:
        """Task names seen, in first-seen order."""
        seen: List[str] = []
        for r in self.records:
            if r.task not in seen:
                seen.append(r.task)
        return seen

    def cpis(self, task: Optional[str] = None) -> List[int]:
        """Sorted CPI indices seen (optionally for one task)."""
        vals = {
            r.cpi
            for r in self.records
            if (task is None or r.task == task) and r.cpi >= 0
        }
        return sorted(vals)

    def for_task_cpi(self, task: str, cpi: int) -> List[PhaseRecord]:
        """All records of a task for one CPI."""
        return list(self._by_task_cpi.get((task, cpi), []))

    def phase_time(
        self, task: str, cpi: int, phase: Phase, agg: str = "max"
    ) -> float:
        """Aggregate a phase's duration over the task's nodes for a CPI.

        ``agg``: ``"max"`` (slowest node — determines the pipeline beat)
        or ``"mean"``.
        """
        per_node: Dict[int, float] = defaultdict(float)
        for r in self._by_task_cpi.get((task, cpi), []):
            if r.phase == phase:
                per_node[r.node] += r.duration
        if not per_node:
            return 0.0
        vals = list(per_node.values())
        return max(vals) if agg == "max" else sum(vals) / len(vals)

    def service_time(self, task: str, cpi: int, agg: str = "max") -> float:
        """Per-CPI task service time: recv + compute + send (no CREDIT).

        This is the paper's :math:`T_i` — the work a CPI occupies the
        task for, excluding flow-control idle.
        """
        per_node: Dict[int, float] = defaultdict(float)
        for r in self._by_task_cpi.get((task, cpi), []):
            if r.phase in (Phase.RECV, Phase.COMPUTE, Phase.SEND):
                per_node[r.node] += r.duration
        if not per_node:
            return 0.0
        vals = list(per_node.values())
        return max(vals) if agg == "max" else sum(vals) / len(vals)

    def completion_time(self, task: str, cpi: int) -> float:
        """Time the last node of ``task`` finished CPI ``cpi``."""
        recs = self._by_task_cpi.get((task, cpi), [])
        if not recs:
            raise KeyError(f"no records for ({task}, {cpi})")
        return max(r.t_end for r in recs)

    def start_time(self, task: str, cpi: int) -> float:
        """Time the first node of ``task`` started CPI ``cpi``
        (excluding flow-control stall)."""
        recs = [
            r
            for r in self._by_task_cpi.get((task, cpi), [])
            if r.phase not in (Phase.CREDIT, Phase.ARRIVAL)
        ]
        if not recs:
            raise KeyError(f"no records for ({task}, {cpi})")
        return min(r.t_start for r in recs)
