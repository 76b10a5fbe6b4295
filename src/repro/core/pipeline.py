"""Pipeline construction: the paper's three task structures.

* :func:`build_embedded_pipeline` — Figure 3: 7 tasks, the Doppler task
  reads the data files itself (read / compute / send phases).
* :func:`build_separate_io_pipeline` — Figure 4: 8 tasks, a dedicated
  "parallel read" task prepended.
* :func:`combine_pulse_cfar` — §6: merge pulse compression and CFAR into
  one task running on the union of their nodes (same total node count, a
  pure re-organisation).

Canonical task names used across the package::

    read, doppler, easy_weight, hard_weight, easy_bf, hard_bf,
    pulse_compr, cfar, pc_cfar
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, PipelineError
from repro.core.graph import DependencyKind, Edge, TaskGraph
from repro.core.serialize import Codec
from repro.core.task import TaskInstance, TaskKind, TaskSpec

__all__ = [
    "NodeAssignment",
    "PipelineSpec",
    "build_embedded_pipeline",
    "build_separate_io_pipeline",
    "combine_pulse_cfar",
]

SD = DependencyKind.SPATIAL
TD = DependencyKind.TEMPORAL


@dataclass(frozen=True)
class NodeAssignment(Codec):
    """Node counts per canonical task (the paper's :math:`P_i`).

    ``io_nodes`` is only used by the separate-I/O pipeline; the paper
    keeps the other assignments identical between its Tables 1 and 2
    ("all tasks have the same numbers of nodes assigned, except for the
    I/O task").
    """

    doppler: int
    easy_weight: int
    hard_weight: int
    easy_bf: int
    hard_bf: int
    pulse_compr: int
    cfar: int
    io_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        for name in (
            "doppler",
            "easy_weight",
            "hard_weight",
            "easy_bf",
            "hard_bf",
            "pulse_compr",
            "cfar",
        ):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} needs >= 1 node")
        if self.io_nodes is not None and self.io_nodes < 1:
            raise ConfigurationError("io_nodes must be >= 1 when set")

    @property
    def total_without_io(self) -> int:
        """Nodes of the 7 processing tasks."""
        return (
            self.doppler
            + self.easy_weight
            + self.hard_weight
            + self.easy_bf
            + self.hard_bf
            + self.pulse_compr
            + self.cfar
        )

    @staticmethod
    def balanced(params, total: int, io_nodes: Optional[int] = None) -> "NodeAssignment":
        """Workload-proportional assignment of ``total`` nodes.

        This is the method behind the paper's node-assignment cases: each
        task gets nodes in proportion to its per-CPI work (largest-
        remainder rounding, minimum one node each), so steady-state task
        times are as equal as integer node counts allow.  Exact counts
        from the paper's tables are unrecoverable (digits stripped from
        the source text — DESIGN.md), so we reconstruct them the way the
        authors produced them.

        When ``io_nodes`` is None, the separate-I/O read task defaults to
        the Doppler task's count (§5.2 keeps all processing assignments
        equal to Table 1's and adds the I/O task on top).
        """
        from repro.stap.costs import STAPCosts

        names = (
            "doppler",
            "easy_weight",
            "hard_weight",
            "easy_bf",
            "hard_bf",
            "pulse_compr",
            "cfar",
        )
        if total < len(names):
            raise ConfigurationError(
                f"need >= {len(names)} nodes for 7 tasks, got {total}"
            )
        costs = STAPCosts(params)
        work = [costs.task_flops(i) for i in range(7)]
        # Greedy makespan minimisation: start at one node each, give every
        # further node to the task with the worst current time.
        counts = [1] * 7
        for _ in range(total - 7):
            i = max(range(7), key=lambda j: work[j] / counts[j])
            counts[i] += 1
        # §6 precondition: the paper's runs have T_max on neither pulse
        # compression nor CFAR ("the task with the maximum execution time
        # is neither task 5 nor task 6").  If rounding left one of them
        # as the bottleneck, shift a node from the most lightly loaded
        # task as long as that task does not become the new bottleneck.
        pc_i, cfar_i = 5, 6
        while max(range(7), key=lambda j: work[j] / counts[j]) in (pc_i, cfar_i):
            bott = max(range(7), key=lambda j: work[j] / counts[j])
            donors = [j for j in range(7) if j not in (pc_i, cfar_i) and counts[j] > 1]
            if not donors:
                break
            donor = min(donors, key=lambda j: work[j] / (counts[j] - 1))
            new_bott_time = work[bott] / (counts[bott] + 1)
            donor_time = work[donor] / (counts[donor] - 1)
            old_max = work[bott] / counts[bott]
            if max(new_bott_time, donor_time) >= old_max:
                break  # the shift would not help; accept the rounding
            counts[donor] -= 1
            counts[bott] += 1
        kwargs = dict(zip(names, counts))
        return NodeAssignment(io_nodes=io_nodes, **kwargs)

    @staticmethod
    def case(case_number: int, params=None) -> "NodeAssignment":
        """The paper's three evaluation cases: 25, 50, and 100 nodes.

        Each case doubles the previous one's total (the paper: "each
        doubles the number of nodes of another").  Assignments are
        workload-balanced via :meth:`balanced`; ``params`` defaults to
        the standard cube dimensions.
        """
        if case_number not in (1, 2, 3):
            raise ConfigurationError(f"case must be 1, 2, or 3, got {case_number}")
        if params is None:
            from repro.stap.params import STAPParams

            params = STAPParams()
        total = {1: 25, 2: 50, 3: 100}[case_number]
        a = NodeAssignment.balanced(params, total)
        # Separate-I/O read task mirrors the Doppler task's node count.
        return replace(a, io_nodes=a.doppler)

    def scaled(self, factor: int) -> "NodeAssignment":
        """Multiply every count by ``factor``."""
        if factor < 1:
            raise ConfigurationError(f"factor must be >= 1, got {factor}")
        return NodeAssignment(
            doppler=self.doppler * factor,
            easy_weight=self.easy_weight * factor,
            hard_weight=self.hard_weight * factor,
            easy_bf=self.easy_bf * factor,
            hard_bf=self.hard_bf * factor,
            pulse_compr=self.pulse_compr * factor,
            cfar=self.cfar * factor,
            io_nodes=None if self.io_nodes is None else self.io_nodes * factor,
        )


@dataclass
class PipelineSpec(Codec):
    """A concrete pipeline: ordered tasks + typed dependency graph.

    ``instances()`` lays ranks out contiguously in task order — adjacent
    pipeline stages land in adjacent mesh regions, matching how the
    paper's runs allocated node blocks.  Serialized with task and edge
    kinds by value.
    """

    tasks: List[TaskSpec]
    edges: List[Edge]
    name: str = "pipeline"

    def __post_init__(self) -> None:
        self.graph = TaskGraph(self.tasks, self.edges)

    @property
    def total_nodes(self) -> int:
        """Compute nodes the pipeline occupies."""
        return sum(t.n_nodes for t in self.tasks)

    def task(self, name: str) -> TaskSpec:
        """Spec by canonical name."""
        for t in self.tasks:
            if t.name == name:
                return t
        raise PipelineError(f"no task named {name!r} in {self.name}")

    def has_task(self, name: str) -> bool:
        return any(t.name == name for t in self.tasks)

    def instances(self) -> Dict[str, TaskInstance]:
        """Bind tasks to contiguous global communicator ranks."""
        out: Dict[str, TaskInstance] = {}
        next_rank = 0
        for t in self.tasks:
            ranks = tuple(range(next_rank, next_rank + t.n_nodes))
            out[t.name] = TaskInstance(t, ranks)
            next_rank += t.n_nodes
        return out

    def task_names(self) -> List[str]:
        return [t.name for t in self.tasks]


def _processing_tasks(a: NodeAssignment, doppler_kind: TaskKind) -> List[TaskSpec]:
    return [
        TaskSpec("doppler", doppler_kind, a.doppler),
        TaskSpec("easy_weight", TaskKind.EASY_WEIGHT, a.easy_weight),
        TaskSpec("hard_weight", TaskKind.HARD_WEIGHT, a.hard_weight),
        TaskSpec("easy_bf", TaskKind.EASY_BEAMFORM, a.easy_bf),
        TaskSpec("hard_bf", TaskKind.HARD_BEAMFORM, a.hard_bf),
        TaskSpec("pulse_compr", TaskKind.PULSE_COMPRESSION, a.pulse_compr),
        TaskSpec("cfar", TaskKind.CFAR, a.cfar),
    ]


_CORE_EDGES: Tuple[Edge, ...] = (
    Edge("doppler", "easy_weight", TD),
    Edge("doppler", "hard_weight", TD),
    Edge("easy_weight", "easy_bf", SD),
    Edge("hard_weight", "hard_bf", SD),
    Edge("doppler", "easy_bf", SD),
    Edge("doppler", "hard_bf", SD),
    Edge("easy_bf", "pulse_compr", SD),
    Edge("hard_bf", "pulse_compr", SD),
    Edge("pulse_compr", "cfar", SD),
)


def build_embedded_pipeline(assignment: NodeAssignment) -> PipelineSpec:
    """Figure 3: I/O embedded in the Doppler filter processing task."""
    tasks = _processing_tasks(assignment, TaskKind.DOPPLER_EMBEDDED_IO)
    return PipelineSpec(tasks, list(_CORE_EDGES), name="embedded-io")


def build_separate_io_pipeline(assignment: NodeAssignment) -> PipelineSpec:
    """Figure 4: a dedicated parallel-read task prepended."""
    io_nodes = assignment.io_nodes if assignment.io_nodes is not None else assignment.doppler
    tasks = [TaskSpec("read", TaskKind.PARALLEL_READ, io_nodes)]
    tasks += _processing_tasks(assignment, TaskKind.DOPPLER)
    edges = [Edge("read", "doppler", SD)] + list(_CORE_EDGES)
    return PipelineSpec(tasks, edges, name="separate-io")


def combine_pulse_cfar(spec: PipelineSpec) -> PipelineSpec:
    """§6: merge pulse compression + CFAR onto their combined nodes.

    The merged task runs on ``P5 + P6`` nodes; the total node count is
    unchanged — the paper's "fair comparison" rule.
    """
    if not (spec.has_task("pulse_compr") and spec.has_task("cfar")):
        raise PipelineError("pipeline has no pulse_compr/cfar pair to combine")
    pc, cf = spec.task("pulse_compr"), spec.task("cfar")
    combined = TaskSpec("pc_cfar", TaskKind.PULSE_CFAR_COMBINED, pc.n_nodes + cf.n_nodes)
    tasks = [t for t in spec.tasks if t.name not in ("pulse_compr", "cfar")]
    tasks.append(combined)
    edges: List[Edge] = []
    seen = set()
    for e in spec.edges:
        if e.src == "pulse_compr" and e.dst == "cfar":
            continue  # the merged-away internal edge
        src = "pc_cfar" if e.src in ("pulse_compr", "cfar") else e.src
        dst = "pc_cfar" if e.dst in ("pulse_compr", "cfar") else e.dst
        # Remapping can collapse two edges onto one (a task feeding both
        # pulse_compr and cfar): keep the first, preserving edge order.
        key = (src, dst, e.kind)
        if key in seen:
            continue
        seen.add(key)
        edges.append(Edge(src, dst, e.kind))
    return PipelineSpec(tasks, edges, name=spec.name + "+combined")
