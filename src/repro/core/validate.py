"""Pipeline/plan consistency validation.

:func:`validate_plan` proves, by pure arithmetic, that a
:class:`~repro.core.plan.PipelinePlan`'s routing tables are coherent —
before a single simulated second is spent.  The invariants:

1. task ranks are disjoint and tile ``[0, total_nodes)``;
2. every unit of every stream (range gates, bin rows, global bins) is
   routed to exactly one consumer by each producer, and total routed
   bytes match the cost model;
3. producer routes and consumer expectations are mirror images — no
   node ever waits for a message that is never sent, and no message is
   sent to a node that is not expecting it (the two ways a
   message-passing pipeline deadlocks or leaks).

The executor calls this automatically; it is also part of the public
API so users composing custom assignments can check them cheaply.
"""

from __future__ import annotations

from typing import List

from repro.errors import PipelineError
from repro.core.plan import PipelinePlan

__all__ = ["validate_plan"]


def _check(cond: bool, message: str, problems: List[str]) -> None:
    if not cond:
        problems.append(message)


def validate_plan(plan: PipelinePlan) -> None:
    """Raise :class:`~repro.errors.PipelineError` on any inconsistency."""
    problems: List[str] = []
    p = plan.params

    # 1 -- rank layout.
    all_ranks: List[int] = []
    for name in plan.spec.task_names():
        all_ranks.extend(plan.ranks(name))
    _check(
        sorted(all_ranks) == list(range(plan.spec.total_nodes)),
        "task ranks do not tile [0, total_nodes)",
        problems,
    )

    # 2 -- Doppler -> beamforming row conservation.
    for easy, total_rows in ((True, p.n_easy_bins), (False, p.n_hard_bins)):
        for dop in range(plan.ranges_doppler.parts):
            if plan.ranges_doppler.size(dop) == 0:
                continue
            covered = sum(hi - lo for _, (lo, hi), _ in plan.doppler_to_bf(dop, easy))
            _check(
                covered == total_rows,
                f"doppler[{dop}] routes {covered}/{total_rows} "
                f"{'easy' if easy else 'hard'} rows to beamforming",
                problems,
            )

    # 2b -- training gates conservation.
    cols_seen: List[int] = []
    for dop in range(plan.ranges_doppler.parts):
        routes = plan.doppler_to_weights(dop, easy=True)
        if routes:
            cols_seen.extend(routes[0][2])
    _check(
        sorted(cols_seen) == list(range(len(plan.train_gates))),
        "training-gate columns are not routed exactly once",
        problems,
    )

    # 2c -- weights -> beamforming row conservation.
    for easy, rows_w, total in (
        (True, plan.rows_easy_w, p.n_easy_bins),
        (False, plan.rows_hard_w, p.n_hard_bins),
    ):
        covered = sum(
            hi - lo
            for w in range(rows_w.parts)
            for _, (lo, hi), _ in plan.weights_to_bf(w, easy)
        )
        _check(
            covered == total,
            f"weight rows cover {covered}/{total} ({'easy' if easy else 'hard'})",
            problems,
        )

    # 2d -- beamforming -> pulse compression bin conservation.
    routed: List[int] = []
    for easy, rows_bf, labels in (
        (True, plan.rows_easy_bf, plan.easy_labels),
        (False, plan.rows_hard_bf, plan.hard_labels),
    ):
        for bf in range(rows_bf.parts):
            for _, (lo, hi), _ in plan.bf_to_pc(bf, easy):
                routed.extend(labels[lo:hi])
    _check(
        sorted(routed) == list(range(p.n_doppler_bins)),
        "global Doppler bins are not routed exactly once into pulse compression",
        problems,
    )

    # 3 -- mirror-image expectations.
    for easy, rows_bf, rows_w in (
        (True, plan.rows_easy_bf, plan.rows_easy_w),
        (False, plan.rows_hard_bf, plan.rows_hard_w),
    ):
        incoming = {c: set() for c in range(rows_bf.parts)}
        for w in range(rows_w.parts):
            for c, _, _ in plan.weights_to_bf(w, easy):
                incoming[c].add(w)
        for c in range(rows_bf.parts):
            _check(
                set(plan.bf_expected_weight_producers(c, easy)) == incoming[c],
                f"{'easy' if easy else 'hard'}_bf[{c}] weight expectations "
                "do not mirror weight routes",
                problems,
            )

    incoming_pc = {c: set() for c in range(plan.bins_pc.parts)}
    for easy, rows_bf, task in (
        (True, plan.rows_easy_bf, "easy_bf"),
        (False, plan.rows_hard_bf, "hard_bf"),
    ):
        for bf in range(rows_bf.parts):
            for c, _, _ in plan.bf_to_pc(bf, easy):
                incoming_pc[c].add((task, bf))
    for c in range(plan.bins_pc.parts):
        _check(
            set(plan.pc_expected_bf_producers(c)) == incoming_pc[c],
            f"{plan.pc_task}[{c}] expectations do not mirror beamforming routes",
            problems,
        )

    if not plan.combined:
        covered = sum(
            hi - lo
            for pc in range(plan.bins_pc.parts)
            for _, (lo, hi), _ in plan.pc_to_cfar(pc)
        )
        _check(
            covered == p.n_doppler_bins,
            f"pc->cfar covers {covered}/{p.n_doppler_bins} bins",
            problems,
        )
        incoming_cf = {c: set() for c in range(plan.bins_cfar.parts)}
        for pc in range(plan.bins_pc.parts):
            for c, _, _ in plan.pc_to_cfar(pc):
                incoming_cf[c].add(pc)
        for c in range(plan.bins_cfar.parts):
            _check(
                set(plan.cfar_expected_pc_producers(c)) == incoming_cf[c],
                f"cfar[{c}] expectations do not mirror pc routes",
                problems,
            )

    if plan.ranges_read is not None:
        covered = sum(
            hi - lo
            for rd in range(plan.ranges_read.parts)
            for _, (lo, hi), _ in plan.read_to_doppler(rd)
        )
        _check(
            covered == p.n_ranges,
            f"read->doppler covers {covered}/{p.n_ranges} range gates",
            problems,
        )
        incoming_d = {c: set() for c in range(plan.ranges_doppler.parts)}
        for rd in range(plan.ranges_read.parts):
            for c, _, _ in plan.read_to_doppler(rd):
                incoming_d[c].add(rd)
        for c in range(plan.ranges_doppler.parts):
            _check(
                set(plan.doppler_expected_read_producers(c)) == incoming_d[c],
                f"doppler[{c}] expectations do not mirror read routes",
                problems,
            )

    if problems:
        raise PipelineError(
            "plan validation failed:\n  - " + "\n  - ".join(problems)
        )
