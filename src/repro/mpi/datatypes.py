"""Payload size accounting and phantom (timing-only) payloads.

The simulated network charges for bytes, so every payload must expose a
byte count.  :func:`nbytes_of` handles numpy arrays, raw byte strings,
:class:`Phantom` placeholders, containers of those, and falls back to a
conservative pickle-free estimate for small control objects.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

__all__ = ["Phantom", "nbytes_of"]

#: Charged for payloads whose size we cannot see (tiny control messages).
_DEFAULT_CONTROL_BYTES = 64


@dataclass(frozen=True)
class Phantom:
    """A size-only stand-in for data, used in timing mode.

    Attributes
    ----------
    nbytes:
        Number of bytes the placeholder represents on the wire/disk.
    meta:
        Free-form description (e.g. the array shape it stands for);
        carried along so downstream cost models can derive work sizes.
    """

    nbytes: int
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"Phantom nbytes must be >= 0, got {self.nbytes}")

    def split(self, parts: int) -> "list[Phantom]":
        """Split into ``parts`` phantoms whose sizes sum to ``nbytes``.

        The first ``nbytes % parts`` pieces get one extra byte, mirroring
        how block partitioning distributes a remainder.
        """
        if parts < 1:
            raise ValueError(f"parts must be >= 1, got {parts}")
        base, rem = divmod(self.nbytes, parts)
        return [
            Phantom(base + (1 if i < rem else 0), dict(self.meta)) for i in range(parts)
        ]


def nbytes_of(payload: Any) -> int:
    """Bytes a payload occupies for transfer/storage accounting.

    Supports numpy arrays (``.nbytes``), :class:`Phantom`, ``bytes``-like,
    ``None`` (zero), numbers (8), and (possibly nested) sequences/dicts of
    the above.  Anything else is charged a small flat control-message
    size rather than raising, because tiny coordination objects (tuples of
    ints, detection reports) flow through the same channels as bulk data.
    """
    if payload is None:
        return 0
    if isinstance(payload, Phantom):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (bool, int, float, complex)):
        return 8
    np = sys.modules.get("numpy")  # an ndarray implies numpy is loaded
    if np is not None:
        if isinstance(payload, np.ndarray):
            return int(payload.nbytes)
        if isinstance(payload, np.generic):
            return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, Mapping):
        return sum(nbytes_of(k) + nbytes_of(v) for k, v in payload.items())
    if isinstance(payload, Sequence):
        return sum(nbytes_of(item) for item in payload)
    inner = getattr(payload, "nbytes", None)
    if isinstance(inner, int) or (np is not None and isinstance(inner, np.integer)):
        return int(inner)
    return _DEFAULT_CONTROL_BYTES
