"""Worker-side task entry points.

Task runners are addressed by import string (``"module:function"``) so
that a :class:`~repro.service.model.TaskSpec` stays a plain data value
across process boundaries.  The production runner is
:func:`run_spec_payload`; synthetic runners for tests and drills live
in :mod:`repro.service.testing`.
"""

from __future__ import annotations

__all__ = ["ENGINE_MODULES", "RUN_SPEC_RUNNER", "run_spec_payload"]

#: Import string of the production cell runner.
RUN_SPEC_RUNNER = "repro.service.tasks:run_spec_payload"

#: The simulator: the modules a cell or a scenario imports when it is
#: built and run, which specs, results and the scheduler never import.
#: A process worker imports them when it starts, so that no cell's
#: measured latency includes compiling them.
ENGINE_MODULES = (
    "repro.core.bodies",
    "repro.core.validate",
    "repro.io",
    "repro.machine.machine",
    "repro.machine.mesh",
    "repro.machine.multistage",
    "repro.obs.instrument",
    "repro.obs.sampler",
    "repro.scenario.executor",
)


def run_spec_payload(payload: dict) -> dict:
    """Simulate one cell: spec dict in, result dict out.

    The dict's ``"kind"`` marker picks the spec class
    (:func:`~repro.bench.engine.spec_from_dict`), and the spec runs
    itself, so experiment cells and multi-tenant scenarios share this
    runner.  Both sides of the call are JSON-able, so the same runner
    serves the inline pool, process workers, and the wire protocol.  The
    DES is deterministic and the serialization lossless, which is what
    makes results bit-identical regardless of where the cell ran.
    """
    from repro.bench.engine import spec_from_dict

    return spec_from_dict(payload).run().to_dict()
