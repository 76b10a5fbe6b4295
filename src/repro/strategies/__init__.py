"""First-class I/O strategies: registry, readers, and built-ins.

See ``docs/io_strategies.md`` for the strategy catalogue and how to
write a custom strategy.
"""

from repro.strategies.base import (
    IOStrategy,
    get_strategy,
    register,
    strategy_for_spec,
    strategy_names,
)
from repro.strategies.readers import (
    DROPPED,
    ListIOReader,
    SlabReader,
    TwoPhaseReader,
    declare_access_pattern,
    open_round_robin,
)

# Importing the built-ins populates the registry.
from repro.strategies import builtin as _builtin  # noqa: E402,F401

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
