"""Tests for the execution plan's message lists.

The key invariants: every unit of every stream is routed exactly once,
each node receives exactly the messages addressed to it, and byte
accounting matches the cost models.
"""

import pytest

from repro.core.pipeline import (
    NodeAssignment,
    build_embedded_pipeline,
    build_separate_io_pipeline,
    combine_pulse_cfar,
)
from repro.core.plan import PipelinePlan
from repro.stap.costs import STAPCosts


@pytest.fixture
def plan(small_params):
    a = NodeAssignment.balanced(small_params, 20, io_nodes=4)
    return PipelinePlan(build_separate_io_pipeline(a), small_params)


@pytest.fixture
def plan_embedded(small_params):
    a = NodeAssignment.balanced(small_params, 20)
    return PipelinePlan(build_embedded_pipeline(a), small_params)


@pytest.fixture
def plan_combined(small_params):
    a = NodeAssignment.balanced(small_params, 20)
    return PipelinePlan(combine_pulse_cfar(build_embedded_pipeline(a)), small_params)


class TestStructure:
    def test_first_and_sink_tasks(self, plan, plan_embedded, plan_combined):
        assert plan.first_task == "read" and plan.sink_task == "cfar"
        assert plan_embedded.first_task == "doppler"
        assert plan_combined.sink_task == "pc_cfar" and plan_combined.combined

    def test_ranks_disjoint_and_complete(self, plan):
        all_ranks = []
        for name in plan.spec.task_names():
            all_ranks.extend(plan.ranks(name))
        assert sorted(all_ranks) == list(range(plan.spec.total_nodes))


def rows(take):
    """Length of a row-slice ``take``."""
    return take.stop - take.start


def received(plan, task, local, producer):
    """The messages node ``task[local]`` receives from ``producer``."""
    return [
        link.message
        for link in plan.in_messages(task, local)
        if link.peer == producer
    ]


class TestDopplerRouting:
    def test_bf_routes_cover_all_rows(self, plan_embedded, small_params):
        plan = plan_embedded
        for s, total_rows in (("easy", small_params.n_easy_bins), ("hard", small_params.n_hard_bins)):
            messages = plan.messages("doppler", f"{s}_bf")
            for dop in range(plan.ranges_doppler.parts):
                rows_covered = sum(rows(m.take) for m in messages if m.src == dop)
                assert rows_covered == total_rows

    def test_bf_route_bytes_match_cost_model(self, plan_embedded, small_params):
        plan = plan_embedded
        costs = STAPCosts(small_params)
        total = sum(m.nbytes for m in plan.messages("doppler", "easy_bf"))
        assert total == costs.doppler_easy_bytes()

    def test_weight_routes_cover_all_gates(self, plan_embedded, small_params):
        plan = plan_embedded
        # Every weight node gets the same columns from one Doppler node.
        cols = {m.src: m.put[2] for m in plan.messages("doppler", "easy_weight")}
        cols_seen = [c for dop in sorted(cols) for c in cols[dop]]
        assert cols_seen == list(range(len(plan.train_gates)))

    def test_weight_producers_match_gate_owners(self, plan_embedded):
        plan = plan_embedded
        owners = [
            dop
            for dop in range(plan.ranges_doppler.parts)
            if plan.train_gate_cols(*plan.ranges_doppler.bounds(dop))
        ]
        for w in range(plan.rows_easy_w.parts):
            producers = [m.src for m in received(plan, "easy_weight", w, "doppler")]
            assert producers == owners


class TestWeightToBF:
    def test_rows_conserved(self, plan_embedded, small_params):
        plan = plan_embedded
        for s, total in (
            ("easy", small_params.n_easy_bins),
            ("hard", small_params.n_hard_bins),
        ):
            covered = sum(rows(m.take) for m in plan.messages(f"{s}_weight", f"{s}_bf"))
            assert covered == total

    def test_bf_expectations_mirror_routes(self, plan_embedded):
        plan = plan_embedded
        for s in ("easy", "hard"):
            messages = plan.messages(f"{s}_weight", f"{s}_bf")
            for c in range(plan.partition(f"{s}_bf").parts):
                assert received(plan, f"{s}_bf", c, f"{s}_weight") == [
                    m for m in messages if m.dst == c
                ]


def routed_bins(plan):
    """Global bins the beamforming nodes send, by their row ``take``."""
    routed = []
    for s, labels in (("easy", plan.easy_labels), ("hard", plan.hard_labels)):
        for m in plan.messages(f"{s}_bf", plan.pc_task):
            blo = plan.partition(f"{s}_bf").bounds(m.src)[0]
            routed.extend(labels[blo + m.take.start : blo + m.take.stop])
    return routed


class TestBFToPC:
    def test_all_bins_routed_once(self, plan_embedded, small_params):
        routed = routed_bins(plan_embedded)
        assert sorted(routed) == list(range(small_params.n_doppler_bins))

    def test_pc_expectations_mirror_routes(self, plan_embedded):
        plan = plan_embedded
        for c in range(plan.bins_pc.parts):
            # Easy rows arrive before hard ones.
            expected = [
                m
                for s in ("easy", "hard")
                for m in plan.messages(f"{s}_bf", "pulse_compr")
                if m.dst == c
            ]
            assert [link.message for link in plan.in_messages("pulse_compr", c)] == expected

    def test_same_for_combined_pipeline(self, plan_combined, small_params):
        routed = routed_bins(plan_combined)
        assert sorted(routed) == list(range(small_params.n_doppler_bins))


class TestPCToCFAR:
    def test_bins_conserved(self, plan, small_params):
        covered = sum(rows(m.take) for m in plan.messages("pulse_compr", "cfar"))
        assert covered == small_params.n_doppler_bins

    def test_combined_pipeline_has_no_edge(self, plan_combined):
        from repro.errors import PipelineError

        with pytest.raises(PipelineError):
            plan_combined.messages("pulse_compr", "cfar")
        assert plan_combined.in_messages("cfar", 0) == []


class TestReadToDoppler:
    def test_ranges_conserved(self, plan, small_params):
        covered = sum(rows(m.take[2]) for m in plan.messages("read", "doppler"))
        assert covered == small_params.n_ranges

    def test_doppler_expectations_mirror_routes(self, plan):
        messages = plan.messages("read", "doppler")
        for c in range(plan.ranges_doppler.parts):
            assert received(plan, "doppler", c, "read") == [
                m for m in messages if m.dst == c
            ]

    def test_embedded_plan_raises(self, plan_embedded):
        from repro.errors import PipelineError

        with pytest.raises(PipelineError):
            plan_embedded.messages("read", "doppler")
