"""First-class I/O strategies: registry, readers, and built-ins.

See ``docs/io_strategies.md`` for the strategy catalogue and how to
write a custom strategy.
"""

from importlib import import_module

from repro.strategies.base import (
    IOStrategy,
    get_strategy,
    register,
    strategy_for_spec,
    strategy_names,
)

# Importing the built-ins populates the registry.
from repro.strategies import builtin as _builtin  # noqa: F401

#: The readers, loaded from their module (and the file system with it)
#: on first use; ``IOStrategy.make_reader`` imports them per cell.
_LAZY = {
    name: "readers"
    for name in ("DROPPED", "ListIOReader", "SlabReader", "TwoPhaseReader",
                 "declare_access_pattern", "open_round_robin")
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "IOStrategy",
    "register",
    "get_strategy",
    "strategy_names",
    "strategy_for_spec",
    "DROPPED",
    "SlabReader",
    "ListIOReader",
    "TwoPhaseReader",
    "open_round_robin",
    "declare_access_pattern",
]
