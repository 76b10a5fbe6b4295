"""CPI arrival processes.

The classic runs assume every CPI is sitting in the file system before
the pipeline starts — the reader consumes them back to back as fast as
the disks allow.  Real radar front ends are not that polite: CPIs land
on a cadence (one per coherent processing interval), with jitter from
the antenna scheduler, or in bursts when the radar revisits a sector.
An :class:`ArrivalSpec` describes *when* CPI ``k`` becomes available to
the reading task; the reader gates on it via
:meth:`~repro.core.context.TaskContext.await_arrival`.

Determinism: every stochastic kind draws from a private
``random.Random(seed)``, so the same spec always produces the same
arrival times — across processes, across the TCP service path, and
across repeated runs.  ``times(n)`` is a pure function of the spec.

Kinds
-----
``fixed``
    CPI ``k`` arrives at ``offset + k * period`` — today's implicit
    cadence generalised.  ``period=0`` (the default) means "all data
    ready at t=0", which gates nothing and is bit-identical to a run
    with no arrival process at all.
``poisson``
    Exponential inter-arrival gaps with mean ``period`` (a Poisson
    arrival stream) — the bursty open-loop consumer.
``jittered``
    Gaps of ``period`` perturbed by ``uniform(-jitter, +jitter)``;
    ``jitter <= period`` keeps gaps non-negative and times monotone.
``burst``
    Burst trains: groups of ``burst_size`` CPIs spaced ``burst_gap``
    apart inside the burst, with burst *starts* ``period`` apart — the
    sector-revisit pattern.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from repro.core.serialize import Codec, sparse

__all__ = ["ArrivalSpec", "ARRIVAL_KINDS"]

#: Recognised arrival-process kinds.
ARRIVAL_KINDS = ("fixed", "poisson", "jittered", "burst")


@dataclass(frozen=True)
class ArrivalSpec(Codec):
    """When each CPI becomes available to the pipeline's reader.

    Attributes
    ----------
    kind:
        One of :data:`ARRIVAL_KINDS`.
    period:
        Base cadence in simulated seconds: the fixed gap (``fixed``),
        the mean gap (``poisson``, ``jittered``), or the gap between
        burst starts (``burst``).
    offset:
        Absolute time of the first arrival.
    jitter:
        Half-width of the uniform perturbation on each gap
        (``jittered`` only; must not exceed ``period``).
    burst_size:
        CPIs per burst (``burst`` only).
    burst_gap:
        Intra-burst spacing (``burst`` only; the whole burst must fit
        inside ``period``).
    seed:
        Seed for the private RNG of the stochastic kinds.
    """

    kind: str = "fixed"
    period: float = 0.0
    offset: float = sparse(0.0)
    jitter: float = sparse(0.0)
    burst_size: int = sparse(1)
    burst_gap: float = sparse(0.0)
    seed: int = sparse(0)

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; expected one of {ARRIVAL_KINDS}"
            )
        if self.period < 0:
            raise ValueError("period must be >= 0")
        if self.offset < 0:
            raise ValueError("offset must be >= 0")
        if self.kind == "poisson" and self.period <= 0:
            raise ValueError("poisson arrivals need period > 0 (the mean gap)")
        if self.kind == "jittered":
            if self.jitter < 0:
                raise ValueError("jitter must be >= 0")
            if self.jitter > self.period:
                raise ValueError(
                    "jitter must not exceed period (keeps gaps non-negative)"
                )
        if self.kind == "burst":
            if self.burst_size < 1:
                raise ValueError("burst_size must be >= 1")
            if self.burst_gap < 0:
                raise ValueError("burst_gap must be >= 0")
            if self.burst_size > 1 and (self.burst_size - 1) * self.burst_gap > self.period:
                raise ValueError(
                    "a burst must fit inside its period: "
                    "(burst_size - 1) * burst_gap <= period"
                )

    # -- generation --------------------------------------------------------
    def times(self, n_cpis: int) -> Tuple[float, ...]:
        """Absolute arrival times for CPIs ``0 .. n_cpis - 1``.

        Pure: the same spec always returns the same tuple.  Times are
        monotone non-decreasing for every kind.
        """
        if n_cpis < 0:
            raise ValueError("n_cpis must be >= 0")
        if self.kind == "fixed":
            return tuple(self.offset + k * self.period for k in range(n_cpis))
        if self.kind == "burst":
            return tuple(
                self.offset
                + (k // self.burst_size) * self.period
                + (k % self.burst_size) * self.burst_gap
                for k in range(n_cpis)
            )
        rng = random.Random(self.seed)
        out = []
        t = self.offset
        for _ in range(n_cpis):
            out.append(t)
            if self.kind == "poisson":
                t += rng.expovariate(1.0 / self.period)
            else:  # jittered
                t += self.period + rng.uniform(-self.jitter, self.jitter)
        return tuple(out)
