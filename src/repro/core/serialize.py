"""One codec for the spec dataclasses.

Every grid cell is content-addressed by the SHA-256 of its spec's
canonical JSON, so every spec class serializes by one rule:

* every field taking part in equality (``compare=True``) is emitted
  under its own snake_case name, in declaration order;
* a field declared with :func:`sparse` is emitted only when it differs
  from its default.  Fields added after hashes were published are sparse,
  so a spec that leaves them unset keeps its published hash;
* nested dataclasses, ``Optional[...]`` and ``Tuple[X, ...]`` recurse,
  and an ``np.dtype`` is stored by name;
* a class constant ``KIND`` is emitted first as a ``"kind"`` marker.

:func:`from_dict` inverts :func:`to_dict`.  An unknown key or a missing
required field raises :class:`~repro.errors.ConfigurationError` naming
the class and the key; a missing optional field takes its default.

Spec classes take both methods from :class:`Codec`, and their content
address (``canonical_json``/``spec_hash``/``short_hash``, keyed on the
class's ``SCHEMA``) from :class:`HashedSpec`.  The field plan is read
from ``dataclasses.fields()`` and the type hints once per class.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from typing import Any, Dict, Mapping

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["sparse", "to_dict", "from_dict", "canonical_json", "spec_hash",
           "Codec", "HashedSpec"]

_SPARSE = {"sparse": True}


def sparse(default: Any) -> Any:
    """A field serialized only when it differs from ``default``."""
    return dataclasses.field(default=default, metadata=_SPARSE)


def _converters(hint: Any):
    """(encode, decode) for a value annotated ``hint``; ``None`` stands
    for the identity, so plain JSON values pass straight through."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec = _converters(inner)
        return (enc and (lambda v: None if v is None else enc(v)),
                dec and (lambda v: None if v is None else dec(v)))
    if typing.get_origin(hint) is tuple:  # Tuple[X, ...]
        enc, dec = _converters(args[0])
        return (lambda v: [x if enc is None else enc(x) for x in v],
                lambda v: tuple(x if dec is None else dec(x) for x in v))
    if dataclasses.is_dataclass(hint):
        return to_dict, lambda v: from_dict(hint, v)
    if hint is np.dtype:
        return (lambda v: np.dtype(v).name), np.dtype
    return None, None


_PLANS: Dict[type, tuple] = {}


def _plan(cls: type) -> tuple:
    """``(kind, fields, names)``: the class's ``KIND`` marker, per
    emitted field ``(name, encode, decode, sparse, default, required)``,
    and the set of field names."""
    plan = _PLANS.get(cls)
    if plan is None:
        hints = typing.get_type_hints(cls)
        fields = []
        for f in dataclasses.fields(cls):
            if f.compare:
                required = (f.default is dataclasses.MISSING
                            and f.default_factory is dataclasses.MISSING)
                fields.append((f.name, *_converters(hints[f.name]),
                               f.metadata.get("sparse", False), f.default,
                               required))
        plan = _PLANS[cls] = (getattr(cls, "KIND", None), tuple(fields),
                              frozenset(f[0] for f in fields))
    return plan


def to_dict(obj: Any) -> Dict[str, Any]:
    """Lossless JSON-able form of the spec dataclass ``obj``."""
    kind, fields, _ = _plan(type(obj))
    d: Dict[str, Any] = {"kind": kind} if kind else {}
    for name, enc, _, is_sparse, default, _ in fields:
        value = getattr(obj, name)
        if not (is_sparse and value == default):
            d[name] = value if enc is None else enc(value)
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
    for key, _, dec, _, _, required in fields:
        if key in d:
            kwargs[key] = d[key] if dec is None else dec(d[key])
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
    """Mixin giving a spec dataclass :func:`to_dict` and :func:`from_dict`."""

    to_dict = to_dict
    from_dict = classmethod(from_dict)


class HashedSpec(Codec):
    """A content-addressed spec.  Subclasses set ``SCHEMA``, and bump it
    when a change to their serialized form would let an old cache entry
    be misread: it is part of the hash."""

    SCHEMA: int
    canonical_json = canonical_json
    spec_hash = spec_hash

    def short_hash(self) -> str:
        """First 12 hex digits of :meth:`spec_hash`, for display."""
        return self.spec_hash()[:12]
