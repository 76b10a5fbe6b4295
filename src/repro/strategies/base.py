"""The I/O strategy abstraction and its registry.

The paper's whole contribution is *comparing I/O strategies* — embedded
vs. separate read tasks, synchronous vs. asynchronous file systems, task
combination — yet historically a "strategy" in this package was smeared
across pipeline builders, an ``embedded`` flag, and ``supports_async``
sniffing inside the reader.  An :class:`IOStrategy` gathers everything
one strategy owns behind a single seam:

* **spec construction** — :meth:`IOStrategy.build_spec` maps a
  :class:`~repro.core.pipeline.NodeAssignment` to the strategy's
  :class:`~repro.core.pipeline.PipelineSpec` (the spec's ``name`` is the
  strategy's registry name, which is how an executor finds its way back
  to the strategy);
* **reader construction** — :meth:`IOStrategy.make_reader` builds the
  per-node slab reader (the access method: independent sync/async reads,
  data sieving, collective two-phase, ...);
* **capability requirements** — :meth:`IOStrategy.missing_capability`
  answers "can it run on this file system" from the FS classes' flags,
  and :meth:`IOStrategy.validate` rejects a file system or execution
  config the strategy cannot run on *at build time* (e.g. async
  prefetch on PIOFS), instead of failing with an
  :class:`~repro.errors.AsyncUnsupportedError` mid-simulation;
* **a stable label** — :meth:`IOStrategy.label` for benches and the CLI.

Strategies register by name::

    @register
    class MyStrategy(IOStrategy):
        name = "my-strategy"
        ...

and are looked up with :func:`get_strategy` / enumerated with
:func:`strategy_names`.  :func:`strategy_for_spec` resolves a pipeline
spec's name back to its strategy (``None`` for hand-built specs, which
keep the legacy adaptive reader behaviour).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.errors import ConfigurationError, PipelineError
from repro.pfs import FS_CLASSES

__all__ = [
    "IOStrategy",
    "register",
    "get_strategy",
    "strategy_names",
    "strategy_for_spec",
]


class IOStrategy:
    """One way of feeding CPI data cubes into the pipeline."""

    #: Registry name; also the ``PipelineSpec.name`` of built specs.
    name: str = ""
    #: Requires an async-capable file system (PFS yes, PIOFS no).
    requires_async: bool = False
    #: Requires a file system with a list-I/O call (``read_list``).
    requires_list_io: bool = False
    #: Whether the reader honours ``ExecutionConfig.read_deadline``.
    supports_read_deadline: bool = True

    def label(self) -> str:
        """Stable human-readable label for benches, tables, and the CLI."""
        return self.name

    def describe(self) -> str:
        """One-line summary (first docstring line by default)."""
        doc = (self.__class__.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else self.label()

    # -- the strategy surface ----------------------------------------------
    def build_spec(self, assignment):
        """Build this strategy's :class:`PipelineSpec` for ``assignment``."""
        raise NotImplementedError

    def make_reader(self, ctx, rlo: int, rhi: int):
        """Build the slab reader for one reading node's range block."""
        raise NotImplementedError

    def missing_capability(self, fs) -> Optional[str]:
        """The file-system call this strategy needs and ``fs`` lacks.

        ``fs`` is a kind name (``"pfs"``/``"piofs"``) or a file-system
        instance; the answer comes from its class's ``supports_async`` /
        ``supports_list_io`` flags.  Returns ``"async reads"``,
        ``"list I/O"``, or None when the strategy can run there.
        """
        if isinstance(fs, str):
            if fs not in FS_CLASSES:
                raise ConfigurationError(f"unknown file system kind {fs!r}")
            fs = FS_CLASSES[fs]
        if self.requires_async and not fs.supports_async:
            return "async reads"
        if self.requires_list_io and not fs.supports_list_io:
            return "list I/O"
        return None

    def validate(self, fs, cfg) -> None:
        """Reject incompatible file systems / configs at build time.

        Raises :class:`~repro.errors.PipelineError` with an actionable
        message; called by the executor with its file system before any
        process is spawned.
        """
        missing = self.missing_capability(fs)
        if missing == "async reads":
            raise PipelineError(
                f"I/O strategy {self.name!r} requires asynchronous reads, "
                "which this file system does not provide (the paper's PIOFS "
                "case) — use an async-capable FS (kind='pfs') or a strategy "
                "without async requirements"
            )
        if missing == "list I/O":
            raise PipelineError(
                f"I/O strategy {self.name!r} requires a list-I/O call "
                "(read_list), which this file system does not provide "
                "(the PIOFS case) — use kind='pfs' or a strategy that "
                "issues one request per piece"
            )
        if cfg.read_deadline is not None and not self.supports_read_deadline:
            raise PipelineError(
                f"I/O strategy {self.name!r} does not support read_deadline: "
                "dropping a CPI would desynchronise its collective exchange — "
                "unset the deadline or pick an independent-read strategy"
            )


_REGISTRY: Dict[str, IOStrategy] = {}


def register(cls: Type[IOStrategy]) -> Type[IOStrategy]:
    """Class decorator: instantiate and register a strategy by its name."""
    if not cls.name:
        raise ConfigurationError(f"strategy {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ConfigurationError(f"duplicate strategy name {cls.name!r}")
    _REGISTRY[cls.name] = cls()
    return cls


def get_strategy(name: str) -> IOStrategy:
    """The registered strategy called ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown I/O strategy {name!r}; choose from {strategy_names()}"
        ) from None


def strategy_names() -> List[str]:
    """Registered strategy names, sorted."""
    return sorted(_REGISTRY)


def strategy_for_spec(spec_name: str) -> Optional[IOStrategy]:
    """Resolve a pipeline spec's name to its strategy, if it has one.

    Hand-built specs with non-registry names return ``None``: the
    executor then falls back to the legacy adaptive reader, so existing
    custom pipelines keep their exact behaviour.
    """
    return _REGISTRY.get(spec_name)
