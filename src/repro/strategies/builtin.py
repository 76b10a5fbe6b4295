"""The registered I/O strategies.

The first four are the paper's own structures, migrated onto the
registry bit-identically (their ``build_spec`` calls the same builders
in :mod:`repro.core.pipeline`, and their readers reproduce the old
``_SlabReader`` behaviour exactly).  The rest use the strategy seam for
access methods the paper's MPI-IO lineage established later: deeper
prefetch pipelines, data sieving, collective two-phase I/O, list I/O
and server-directed placement.  Each class states only what differs
from the :class:`~repro.strategies.base.IOStrategy` defaults (the
embedded pipeline under the strategy's name, read by a
:class:`~repro.strategies.readers.SlabReader`).
"""

from __future__ import annotations

from repro.core.pipeline import (
    build_embedded_pipeline,
    build_separate_io_pipeline,
    combine_pulse_cfar,
)
from repro.strategies.base import IOStrategy, register


@register
class EmbeddedIO(IOStrategy):
    """Figure 3: I/O embedded in the Doppler task; independent slab reads."""

    name = "embedded-io"


@register
class SeparateIO(IOStrategy):
    """Figure 4: a dedicated parallel-read task; independent slab reads."""

    name = "separate-io"

    def build_spec(self, assignment):
        return build_separate_io_pipeline(assignment)


@register
class EmbeddedIOCombined(IOStrategy):
    """Embedded I/O with pulse compression + CFAR combined (paper §6)."""

    name = "embedded-io+combined"

    def build_spec(self, assignment):
        return combine_pulse_cfar(build_embedded_pipeline(assignment))


@register
class SeparateIOCombined(IOStrategy):
    """Separate I/O with pulse compression + CFAR combined (paper §6)."""

    name = "separate-io+combined"

    def build_spec(self, assignment):
        return combine_pulse_cfar(build_separate_io_pipeline(assignment))


@register
class EmbeddedPrefetch2(IOStrategy):
    """Embedded I/O with a 2-deep asynchronous prefetch pipeline."""

    name = "embedded-prefetch2"
    requires_async = True

    def make_reader(self, ctx, rlo, rhi):
        from repro.strategies.readers import SlabReader

        return SlabReader(ctx, rlo, rhi, depth=2)


@register
class CollectiveTwoPhase(IOStrategy):
    """Two-phase collective reads: aligned chunks, then a mesh exchange."""

    name = "collective-two-phase"
    #: A dropped chunk would desynchronise every peer's exchange.
    supports_read_deadline = False

    def make_reader(self, ctx, rlo, rhi):
        from repro.strategies.readers import TwoPhaseReader

        return TwoPhaseReader(ctx, rlo, rhi)


@register
class DataSieving(IOStrategy):
    """Data sieving: one whole-stripe-unit read per CPI, pad discarded."""

    name = "data-sieving"

    def make_reader(self, ctx, rlo, rhi):
        from repro.strategies.readers import SlabReader

        return SlabReader(ctx, rlo, rhi, sieve=True)


@register
class ListIO(IOStrategy):
    """List I/O: a whole file window batched into one request per directory."""

    name = "list-io"
    requires_list_io = True
    #: A window's CPIs complete as one request; dropping one is undefined.
    supports_read_deadline = False

    def make_reader(self, ctx, rlo, rhi):
        from repro.strategies.readers import ListIOReader

        return ListIOReader(ctx, rlo, rhi)


@register
class ServerDirected(IOStrategy):
    """Server-directed placement: declared pattern reorganises the stripes."""

    name = "server-directed"

    def make_reader(self, ctx, rlo, rhi):
        from repro.strategies.readers import SlabReader, declare_access_pattern

        declare_access_pattern(ctx)
        return SlabReader(ctx, rlo, rhi)
