"""Pipeline/plan consistency validation.

:func:`validate_plan` proves, by pure arithmetic, that a
:class:`~repro.core.plan.PipelinePlan`'s message lists are coherent —
before a single simulated second is spent.  The invariants:

1. task ranks are disjoint and tile ``[0, total_nodes)``;
2. every edge conserves its stream: each consumer's input buffer (its
   range gates, training gates, bin rows or global bins) is filled by
   exactly one message per unit, and every message leaves a producer
   that owns work (an idle node sends nothing).

Producers and consumers read the same message lists, so no node can
wait for a message that is never sent, or be sent one it does not
expect.

The executor calls this automatically; it is also part of the public
API so users composing custom assignments can check them cheaply.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.errors import PipelineError
from repro.core.plan import PipelinePlan

__all__ = ["validate_plan"]


def _check(cond: bool, message: str, problems: List[str]) -> None:
    if not cond:
        problems.append(message)


def _runs(put) -> List[Tuple[int, int]]:
    """Half-open intervals a consumer index selects along its one
    restricted axis."""
    if isinstance(put, tuple):
        (put,) = [i for i in put if i != slice(None)]
    if isinstance(put, slice):
        return [(put.start, put.stop)]
    return [(u, u + 1) for u in put]


def _tiles(runs: List[Tuple[int, int]], n: int) -> bool:
    """Whether ``runs`` cover ``[0, n)`` exactly once."""
    pos = 0
    for lo, hi in sorted(runs):
        if lo != pos or hi <= lo:
            return False
        pos = hi
    return pos == n


def _inputs(plan: PipelinePlan) -> List[Tuple[str, Tuple[str, ...], Callable[[int], int]]]:
    """Every consumer input buffer: (consumer task, the producer tasks
    that fill it, its length in units on each consumer node)."""
    p = plan.params

    def whole(n: int, task: str) -> Callable[[int], int]:
        # The full extent, on every node that owns rows.
        return lambda c: n if plan.partition(task).size(c) else 0

    out = []
    if plan.ranges_read is not None:
        out.append(("doppler", ("read",), plan.ranges_doppler.size))
    for s in ("easy", "hard"):
        out += [
            (f"{s}_weight", ("doppler",), whole(len(plan.train_gates), f"{s}_weight")),
            (f"{s}_bf", (f"{s}_weight",), plan.partition(f"{s}_bf").size),
            (f"{s}_bf", ("doppler",), whole(p.n_ranges, f"{s}_bf")),
        ]
    out.append((plan.pc_task, ("easy_bf", "hard_bf"), plan.bins_pc.size))
    if not plan.combined:
        out.append(("cfar", ("pulse_compr",), plan.bins_cfar.size))
    return out


def validate_plan(plan: PipelinePlan) -> None:
    """Raise :class:`~repro.errors.PipelineError` on any inconsistency."""
    problems: List[str] = []

    # 1 -- rank layout.
    all_ranks: List[int] = []
    for name in plan.spec.task_names():
        all_ranks.extend(plan.ranks(name))
    _check(
        sorted(all_ranks) == list(range(plan.spec.total_nodes)),
        "task ranks do not tile [0, total_nodes)",
        problems,
    )

    # 2 -- per-edge conservation, over the plan's own message lists.
    for route in plan.routes:
        bounds = plan.partition(route.src).all_bounds()
        idle = sorted({m.src for m in route.messages if bounds[m.src][1] <= bounds[m.src][0]})
        _check(not idle, f"{route.src}{idle} own no work but send to {route.dst}", problems)
    for task, producers, size in _inputs(plan):
        for c in range(plan.instances[task].n_nodes):
            runs = [
                run
                for link in plan.in_messages(task, c)
                if link.peer in producers
                for run in _runs(link.message.put)
            ]
            _check(
                _tiles(runs, size(c)),
                f"{task}[{c}] input from {'/'.join(producers)} does not "
                f"fill its {size(c)} units exactly once",
                problems,
            )

    if problems:
        raise PipelineError(
            "plan validation failed:\n  - " + "\n  - ".join(problems)
        )
