"""One codec for the spec and result dataclasses.

A cell is content-addressed by the SHA-256 of its spec's canonical JSON,
and a result is pinned by the SHA-256 of its sorted JSON, so both
serialize by one rule:

* every field taking part in equality (``compare=True``) is emitted
  under its own name, in declaration order;
* a :func:`sparse` field is emitted only when it differs from its
  default, so fields added after hashes were published keep them;
* ``Optional``, ``Tuple[X, ...]``, ``List[X]`` and ``Dict[str, X]``
  recurse; an ``Enum`` is stored by value, and a type with its own
  ``from_dict`` (every :class:`Codec`, ``TraceCollector``) through that
  class attribute, looked up per call;
* a :func:`coded` field is stored as its own ``encode(value)``;
* a class constant ``KIND`` is emitted first as a ``"kind"`` marker.

:func:`from_dict` inverts :func:`to_dict`.  An unknown key, a missing
required field or a malformed value raises
:class:`~repro.errors.ConfigurationError` naming the class and the key;
a missing optional field takes its default.  :class:`Codec` gives a
class both methods, and :class:`HashedSpec` gives a cell spec its
content address, keyed on its ``SCHEMA``.  The field plan is read from
``dataclasses.fields()`` and the type hints once per class.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import typing
from collections.abc import Mapping
from typing import Any, Callable, Dict, Optional

from repro.errors import ConfigurationError

__all__ = ["sparse", "coded", "LazyMapping", "to_dict", "from_dict",
           "canonical_json", "spec_hash", "Codec", "HashedSpec"]

_SPARSE = {"sparse": True}


def sparse(default: Any) -> Any:
    """A field serialized only when it differs from ``default``."""
    return dataclasses.field(default=default, metadata=_SPARSE)


class LazyMapping(Mapping):
    """A mapping kept in its stored form until its first lookup, which
    runs ``decode`` on it once.  Until then :attr:`stored` is the form
    it was read in, which a :func:`coded` field's encoder can return as
    it is; after it, ``None``."""

    __slots__ = ("_stored", "_decode", "_map")

    def __init__(self, stored: Mapping, decode: Callable[[Any], Mapping]) -> None:
        if not isinstance(stored, Mapping):
            raise TypeError(f"expected a mapping, got {type(stored).__name__}")
        self._stored, self._decode, self._map = stored, decode, None

    @property
    def stored(self) -> Optional[Mapping]:
        return self._stored

    def _decoded(self) -> Mapping:
        if self._map is None:
            self._map, self._stored = self._decode(self._stored), None
        return self._map

    def __getitem__(self, key: Any) -> Any:
        return self._decoded()[key]

    def __iter__(self):
        return iter(self._decoded())

    def __len__(self) -> int:
        return len(self._decoded() if self._stored is None else self._stored)

    def __reduce__(self):
        return dict, (dict(self._decoded()),)

    def __repr__(self) -> str:
        return f"LazyMapping({dict(self._decoded())!r})"


def coded(encode: Callable[[Any], Any], decode: Callable[[Any], Any], *,
          key: Optional[str] = None, **field_kwargs: Any) -> Any:
    """A field stored as ``encode(value)``, read back by ``decode``, under
    ``key`` (default: the field's name).  ``None`` passes through both
    untouched; ``field_kwargs`` go to :func:`dataclasses.field`."""
    return dataclasses.field(metadata={"codec": (encode, decode), "key": key},
                             **field_kwargs)


def _nullable(convert):
    return convert and (lambda v: None if v is None else convert(v))


def _converters(hint: Any):
    """(encode, decode) for a value annotated ``hint``; ``None`` stands
    for the identity, so plain JSON values pass straight through."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec = _converters(inner)
        return _nullable(enc), _nullable(dec)
    if origin in (tuple, list):  # Tuple[X, ...], List[X]
        enc, dec = _converters(args[0])
        return (lambda v: [x if enc is None else enc(x) for x in v],
                lambda v: origin(x if dec is None else dec(x) for x in v))
    if origin is dict:  # Dict[str, X]
        enc, dec = _converters(args[1])
        return (lambda v: {k: x if enc is None else enc(x) for k, x in v.items()},
                lambda v: {k: x if dec is None else dec(x) for k, x in v.items()})
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return (lambda v: v.value), hint
    if hasattr(hint, "from_dict"):
        return (lambda v: v.to_dict()), (lambda v: hint.from_dict(v))
    if dataclasses.is_dataclass(hint):
        return to_dict, lambda v: from_dict(hint, v)
    return None, None


_PLANS: Dict[type, tuple] = {}


def _plan(cls: type) -> tuple:
    """``(kind, fields, keys)``: the class's ``KIND`` marker, per emitted
    field ``(name, key, encode, decode, sparse, default, required)``,
    and the set of keys."""
    plan = _PLANS.get(cls)
    if plan is None:
        hints = typing.get_type_hints(cls)
        fields = []
        for f in dataclasses.fields(cls):
            if f.compare:
                hook = f.metadata.get("codec")
                enc, dec = (map(_nullable, hook) if hook
                            else _converters(hints[f.name]))
                required = (f.default is dataclasses.MISSING
                            and f.default_factory is dataclasses.MISSING)
                fields.append((f.name, f.metadata.get("key") or f.name, enc,
                               dec, f.metadata.get("sparse", False),
                               f.default, required))
        plan = _PLANS[cls] = (getattr(cls, "KIND", None), tuple(fields),
                              frozenset(f[1] for f in fields))
    return plan


def to_dict(obj: Any) -> Dict[str, Any]:
    """Lossless JSON-able form of the dataclass ``obj``."""
    kind, fields, _ = _plan(type(obj))
    d: Dict[str, Any] = {"kind": kind} if kind else {}
    for name, key, enc, _, is_sparse, default, _ in fields:
        value = getattr(obj, name)
        if not (is_sparse and value == default):
            d[key] = value if enc is None else enc(value)
    return d


def from_dict(cls: type, d: Mapping[str, Any]) -> Any:
    """Inverse of :func:`to_dict`: rebuild a ``cls`` from ``d``."""
    name = cls.__name__
    if not isinstance(d, Mapping):
        raise ConfigurationError(f"{name}: expected a mapping, got {type(d).__name__}")
    kind, fields, known = _plan(cls)
    for key in d:
        if key not in known and not (kind and key == "kind"):
            raise ConfigurationError(
                f"{name}: unknown key {key!r}; expected one of {sorted(known)}"
            )
    if kind and d.get("kind", kind) != kind:
        raise ConfigurationError(f"{name}: 'kind' must be {kind!r}, got {d['kind']!r}")
    kwargs = {}
    for attr, key, _, dec, _, _, required in fields:
        if key in d:
            try:
                kwargs[attr] = d[key] if dec is None else dec(d[key])
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(f"{name}.{key}: {exc!r}") from exc
        elif required:
            raise ConfigurationError(f"{name}: missing required key {key!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc


def canonical_json(spec: Any) -> str:
    """Canonical serialized form the hash is computed over: compact,
    key-sorted JSON of :func:`to_dict` plus the class's ``SCHEMA``."""
    return json.dumps({"schema": type(spec).SCHEMA, **to_dict(spec)},
                      sort_keys=True, separators=(",", ":"))


def spec_hash(spec: Any) -> str:
    """Content address: SHA-256 of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(spec).encode("utf-8")).hexdigest()


class Codec:
    """Mixin giving a dataclass :func:`to_dict` and :func:`from_dict`."""

    to_dict = to_dict
    from_dict = classmethod(from_dict)


class HashedSpec(Codec):
    """A content-addressed cell spec.  Subclasses set ``SCHEMA``, and
    bump it when a change to their serialized form would let an old
    cache entry be misread: it is part of the hash.  ``RESULT`` names
    the class a run of the spec returns; the store, the sweep runner,
    the service and the analyzer all rehydrate a result through it."""

    SCHEMA: int
    RESULT: type
    canonical_json = canonical_json
    spec_hash = spec_hash

    def short_hash(self) -> str:
        """First 12 hex digits of :meth:`spec_hash`, for display."""
        return self.spec_hash()[:12]
